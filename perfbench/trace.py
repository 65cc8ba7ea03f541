"""From-outside tracing: wrappers around each layer's public functions.

Nothing here touches ``src/``.  :class:`Patcher` installs a wrapper on
every attribute through which callers resolve a target -- the class
attribute for methods, and for module-level functions every ``repro``
module attribute bound to the same function object (``from x import f``
copies the binding) -- and puts the originals back afterwards.

Spans (name, start, end, parent span, op id) stay in memory;
:func:`analyze` turns them into self times.  A layer's self time is its
span's duration minus the part its child spans cover.  The timing trace
and the tracemalloc memory pass are separate instruments, run in
separate passes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: Attribute set on every wrapper so a leftover one can be found.
WRAPPER_FLAG = "__perfbench_wrapper__"


class TraceError(RuntimeError):
    """The instrument itself is broken: a target is missing, a wrapper was
    left behind, or the spans do not form a tree."""


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # "function" or "Class.method"


def _t(span: str, module: str, *attrs: str) -> tuple[Target, ...]:
    return tuple(Target(span, module, a) for a in attrs)


TIME_TARGETS: tuple[Target, ...] = (
    *_t("api.decompress", "repro", "decompress"),
    *_t("cli.main", "repro.cli", "main"),
    *_t("core.pwr.compress", "repro.core.pwr", "TransformedCompressor.compress"),
    *_t("core.pwr.decompress", "repro.core.pwr", "TransformedCompressor.decompress"),
    *_t("core.transform.forward", "repro.core.transform",
        "LogTransform.forward_logs", "LogTransform.plant_sentinel"),
    *_t("core.transform.inverse", "repro.core.transform", "LogTransform.inverse"),
    *_t("encoding.sign_bitmap", "repro.encoding.codecs",
        "encode_sign_bitmap", "decode_sign_bitmap"),
    *_t("compressors.sz.compress", "repro.compressors.sz.sz",
        "SZCompressor.compress", "SZCompressor.compress_verified"),
    *_t("compressors.sz.decompress", "repro.compressors.sz.sz", "SZCompressor.decompress"),
    *_t("compressors.sz.quantize", "repro.compressors.sz.quantizer",
        "quantize_lorenzo", "residual_codes"),
    *_t("compressors.sz.reconstruct", "repro.compressors.sz.quantizer", "lattice_reconstruct"),
    *_t("compressors.sz.reconstruct", "repro.compressors.sz.predictor", "lorenzo_reconstruct"),
    *_t("encoding.huffman.encode", "repro.encoding.huffman", "HuffmanCodec.encode"),
    *_t("encoding.huffman.decode", "repro.encoding.huffman", "HuffmanCodec.decode"),
    *_t("encoding.deflate", "repro.encoding.codecs", "deflate"),
    *_t("encoding.inflate", "repro.encoding.codecs", "inflate"),
    *_t("encoding.container.serialize", "repro.encoding.container", "Container.to_bytes"),
    *_t("encoding.container.parse", "repro.encoding.container", "Container.from_bytes"),
    *_t("encoding.crc", "repro.encoding.crc", "crc32c"),
    *_t("safeguards.patch_channel", "repro.safeguards.engine", "compute_patch_channel"),
    *_t("observe.quality.digest", "repro.observe.quality", "ErrorHistogram.observe_errors"),
    *_t("compressors.zfp.compress", "repro.compressors.zfp.zfp", "ZFPCompressor.compress"),
    *_t("compressors.zfp.decompress", "repro.compressors.zfp.zfp", "ZFPCompressor.decompress"),
    *_t("compressors.zfp.encode_planes", "repro.compressors.zfp.embedded", "encode_blocks"),
    *_t("compressors.zfp.decode_planes", "repro.compressors.zfp.embedded", "decode_blocks"),
    *_t("compressors.zfp.transform", "repro.compressors.zfp.transform",
        "fwd_xform", "inv_xform"),
    *_t("integrity.verify_stream", "repro.integrity", "verify_stream"),
    *_t("report.build_report", "repro.report", "build_report"),
    *_t("core.chunked.compress", "repro.core.chunked", "ChunkedCompressor.compress"),
    *_t("core.chunked.decompress", "repro.core.chunked", "ChunkedCompressor.decompress"),
    *_t("core.chunked.chunk", "repro.core.chunked", "_compress_chunk"),
    *_t("core.chunked.chunk_decode", "repro.core.chunked", "_decompress_chunk"),
)

MEMORY_TARGETS: tuple[Target, ...] = (
    *_t("core.pwr.compress", "repro.core.pwr", "TransformedCompressor.compress"),
    *_t("core.pwr.decompress", "repro.core.pwr", "TransformedCompressor.decompress"),
    *_t("compressors.zfp.encode_planes", "repro.compressors.zfp.embedded", "encode_blocks"),
)


# -- installing and removing wrappers ------------------------------------------


def _repro_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


def _resolve(target: Target):
    """``(owner, name, original)`` for a method, or ``(None, name, fn)``
    for a module function; None when the target no longer exists."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    if "." in target.attr:
        cls_name, name = target.attr.split(".")
        cls = getattr(module, cls_name, None)
        if not isinstance(cls, type) or name not in cls.__dict__:
            return None
        return cls, name, cls.__dict__[name]
    fn = getattr(module, target.attr, None)
    return (None, target.attr, fn) if callable(fn) else None


class Patcher:
    """Context manager installing ``make(target, original)`` wrappers.

    Every target is resolved before anything is patched; a missing one
    raises :class:`TraceError`, so a renamed function fails the traced run
    instead of silently reporting zero.
    """

    def __init__(self, targets: tuple[Target, ...], make) -> None:
        self.targets = targets
        self.make = make
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        resolved = [_resolve(t) for t in self.targets]
        missing = [f"{t.module}.{t.attr}" for t, r in zip(self.targets, resolved) if r is None]
        if missing:
            raise TraceError(f"wrapped names missing from the program: {', '.join(missing)}")
        try:
            for target, (owner, name, orig) in zip(self.targets, resolved):
                if owner is not None:
                    self._patch_method(target, owner, name, orig)
                else:
                    self._patch_function(target, orig)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _patch_method(self, target: Target, cls: type, name: str, raw) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.make(target, raw.__func__))
        else:
            wrapped = self.make(target, raw)
        setattr(cls, name, wrapped)
        self._undo.append((cls, name, raw))

    def _patch_function(self, target: Target, fn) -> None:
        wrapped = self.make(target, fn)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)
                    self._undo.append((module, name, fn))

    def remove(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)


def installed_wrappers() -> list[str]:
    """Every wrapper still reachable from a ``repro`` module or class."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, WRAPPER_FLAG, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, WRAPPER_FLAG, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def assert_clean() -> None:
    leftover = installed_wrappers()
    if leftover:
        raise TraceError(f"wrappers still installed: {', '.join(sorted(set(leftover)))}")


# -- timing spans ---------------------------------------------------------------


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    t0: float
    t1: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _count_deflate(counts: Counter, args, result) -> None:
    counts["deflate.in"] += len(args[0])
    counts["deflate.out"] += len(result)


def _count_crc(counts: Counter, args, result) -> None:
    counts["crc.bytes"] += len(args[0])


def _count_patches(counts: Counter, args, result) -> None:
    counts["patched"] += int(result.size)


_COUNTERS = {
    "encoding.deflate": _count_deflate,
    "encoding.crc": _count_crc,
    "safeguards.patch_channel": _count_patches,
}


class SpanRecorder:
    """Records one span per wrapped call, nested under the op's root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_kinds: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise TraceError(f"{name} ran on another thread; traced passes must be serial")
        if not self._stack:
            raise TraceError(f"{name} ran outside an op")
        self.spans.append(Span(name, self._stack[-1], len(self.op_kinds) - 1, perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].t1 = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str, case):
        self.op_kinds.append(kind)
        self.spans.append(Span(f"op.{kind}", None, len(self.op_kinds) - 1, perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, target: Target, fn):
        name = target.span
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper


@dataclass
class Analysis:
    self_s: dict[str, float]
    #: Inclusive seconds by (op kind, span name).
    incl_s: dict[tuple[str, str], float]
    #: Call counts by (op kind, span name).
    calls: dict[tuple[str, str], int]
    ops: Counter
    #: Durations of the ``core.chunked.chunk`` spans, in call order.
    chunk_s: list[float]
    #: Largest |sum of self times - op wall| over all ops, in seconds.
    max_residual_s: float


def analyze(rec: SpanRecorder) -> Analysis:
    """Self times from the span tree, after checking that it is a tree.

    Each span must sit inside its parent, in the same op; then the self
    times of an op's spans sum to the op's traced wall time.
    """
    spans = rec.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.op != p.op or s.t0 < p.t0 or s.t1 > p.t1:
            raise TraceError(f"span {s.name} escapes its parent {p.name}")
        child_s[s.parent] += s.seconds
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    op_self = [0.0] * len(rec.op_kinds)
    op_wall = [0.0] * len(rec.op_kinds)
    chunk_s = []
    for i, s in enumerate(spans):
        own = s.seconds - child_s[i]
        kind = rec.op_kinds[s.op]
        self_s[s.name] += own
        incl_s[kind, s.name] += s.seconds
        calls[kind, s.name] += 1
        op_self[s.op] += own
        if s.parent is None:
            op_wall[s.op] = s.seconds
        if s.name == "core.chunked.chunk":
            chunk_s.append(s.seconds)
    residual = max((abs(a - b) for a, b in zip(op_self, op_wall)), default=0.0)
    if residual > 1e-6:
        raise TraceError(f"self times miss the op wall time by {residual:.3g} s")
    return Analysis(dict(self_s), dict(incl_s), dict(calls), Counter(rec.op_kinds),
                    chunk_s, residual)


# -- memory pass ------------------------------------------------------------------


class MemoryProbe:
    """Per-call tracemalloc peak above the call's starting allocation.

    Nested probed calls reset the peak; the enclosing call's running peak
    is saved first and merged back on exit, so every level sees its own
    high-water mark.  Peaks are divided by the input bytes of the call
    (the array compressed, or the array decompressed) -- for the ZFP plane
    coder, of the op's input array.
    """

    def __init__(self) -> None:
        self.peak_x: dict[str, float] = defaultdict(float)
        self._frames: list[list[int]] = []  # [start, peak] per open call
        self._op_nbytes = 0

    @contextmanager
    def op(self, kind: str, case):
        self._op_nbytes = case.nbytes
        yield

    def wrap(self, target: Target, fn):
        name = target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            self._frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._frames.pop()
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                if self._frames:
                    self._frames[-1][1] = max(self._frames[-1][1], frame[1])
            if name == "core.pwr.compress":
                nbytes = args[1].nbytes
            elif name == "core.pwr.decompress":
                nbytes = result.nbytes
            else:
                nbytes = self._op_nbytes
            if nbytes:
                self.peak_x[name] = max(self.peak_x[name], (frame[1] - frame[0]) / nbytes)
            return result

        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper
