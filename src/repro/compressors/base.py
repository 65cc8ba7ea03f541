"""Compressor interface, error-bound types and registry.

Every compressor consumes a numpy array plus an :class:`ErrorBound` and
produces a self-describing byte stream (:class:`repro.encoding.Container`
serialized with :meth:`Container.to_bytes`).  Decompression needs only the
bytes.

Three bound flavours exist, mirroring the paper's terminology:

* :class:`AbsoluteBound` -- ``|x - x_d| <= value`` point-wise,
* :class:`RelativeBound` -- ``|x - x_d| <= value * |x|`` point-wise,
* :class:`PrecisionBound` -- "keep ``bits`` most-significant bits"
  (FPZIP's ``-p`` and ZFP's precision mode; the paper stresses these do
  not map directly onto an error bound, which is why the transformation
  scheme is needed).
"""

from __future__ import annotations

import abc
import functools
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from repro.encoding.container import Container, ContainerError, StreamError
from repro.observe.events import emit as _emit_event
from repro.observe.events import get_event_log as _get_event_log
from repro.observe.tracer import get_tracer as _get_tracer
from repro.observe.tracer import span as _span

__all__ = [
    "ErrorBound",
    "AbsoluteBound",
    "RelativeBound",
    "PrecisionBound",
    "RateBound",
    "UnsupportedBound",
    "Compressor",
    "register_compressor",
    "get_compressor",
    "available_compressors",
]


class UnsupportedBound(TypeError):
    """Raised when a compressor is handed a bound kind it cannot honour."""


@dataclass(frozen=True)
class ErrorBound:
    """Base class for error-control demands."""

    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value <= 0:
            raise ValueError(f"bound must be a positive finite number, got {self.value}")


@dataclass(frozen=True)
class AbsoluteBound(ErrorBound):
    """Point-wise absolute error bound ``|x - x_d| <= value``."""

    kind = "abs"


@dataclass(frozen=True)
class RelativeBound(ErrorBound):
    """Point-wise relative error bound ``|x - x_d| <= value * |x|``."""

    kind = "rel"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.value >= 1.0:
            raise ValueError(
                f"point-wise relative bounds must be < 1 (got {self.value}); at 1 the "
                "sign of the data is no longer recoverable"
            )


@dataclass(frozen=True)
class RateBound(ErrorBound):
    """Fixed rate: exactly ``value`` bits per value (ZFP's fixed-rate mode).

    No error guarantee -- the codec spends a hard bit budget as well as it
    can (rate-distortion optimized), which is what enables random access.
    """

    kind = "rate"

    def __post_init__(self) -> None:
        if not 0.5 <= self.value <= 64:
            raise ValueError(f"rate must be in [0.5, 64] bits/value, got {self.value}")


@dataclass(frozen=True)
class PrecisionBound(ErrorBound):
    """Keep ``int(value)`` most-significant bits per value (FPZIP/ZFP -p)."""

    kind = "prec"

    def __post_init__(self) -> None:
        if self.value != int(self.value) or not 2 <= self.value <= 64:
            raise ValueError(f"precision must be an integer in [2, 64], got {self.value}")

    @property
    def bits(self) -> int:
        return int(self.value)


# Exceptions a decoder fed corrupt bytes can stumble into before noticing
# the damage: numpy shape/indexing errors, struct/zlib parse failures,
# exhausted bit streams, dict lookups on corrupt metadata, and pathological
# allocations from corrupt sizes.  Anything in this tuple leaking from a
# ``decompress`` is translated to :class:`ContainerError` so callers deal
# with one ``StreamError`` hierarchy instead of numpy internals.
_DECODE_LEAKS = (
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    OverflowError,
    ZeroDivisionError,
    EOFError,
    MemoryError,
    struct.error,
    zlib.error,
)


def _translate_decode_errors(fn):
    """Wrap a ``decompress`` so corrupt streams raise only ``StreamError``s."""

    @functools.wraps(fn)
    def wrapper(self, blob, *args, **kwargs):
        try:
            return fn(self, blob, *args, **kwargs)
        except StreamError:
            raise
        except UnsupportedBound:
            raise
        except _DECODE_LEAKS as exc:
            raise ContainerError(
                f"corrupt {self.name} stream: {type(exc).__name__}: {exc}"
            ) from exc

    wrapper.__decode_guard__ = True
    return wrapper


def _nbytes(obj) -> int:
    size = getattr(obj, "nbytes", None)
    return len(obj) if size is None else size


def _traced(fn, method: str):
    """Wrap ``compress``, ``compress_verified`` (returns ``(blob, recon)``)
    or ``decompress`` in a ``compress``/``decompress`` span carrying codec +
    bytes, and emit the event of the same name."""
    op = "decompress" if method == "decompress" else "compress"

    @functools.wraps(fn)
    def wrapper(self, given, *args, **kwargs):
        if not _get_tracer().enabled and _get_event_log() is None:
            # No-op fast path: with tracing off and no event sink there is
            # nothing to record -- skip span/event setup entirely so the
            # disabled wrapper allocates nothing per call.
            return fn(self, given, *args, **kwargs)
        with _span(op, codec=self.name) as sp:
            out = fn(self, given, *args, **kwargs)
            size_in = _nbytes(given)
            size_out = _nbytes(out[0] if method == "compress_verified" else out)
            sp.add_bytes(in_=size_in, out=size_out)
            _emit_event(op, span=sp, codec=self.name, bytes_in=size_in, bytes_out=size_out)
        return out

    wrapper.__trace_wrapped__ = True
    return wrapper


# Per-thread nesting depth of decompress_trusted() calls; while non-zero,
# _open_container skips re-verifying the stream CRC (the caller's own
# checksummed stream already covered the nested bytes).
_TRUST = threading.local()


def _trusted_depth() -> int:
    return getattr(_TRUST, "depth", 0)


class Compressor(abc.ABC):
    """Abstract error-bounded lossy compressor.

    Subclasses set :attr:`name` (the identifier used in experiment tables)
    and :attr:`supported_bounds` (tuple of bound classes).  Every concrete
    ``decompress`` is automatically guarded so that feeding it corrupt
    bytes raises a :class:`repro.encoding.StreamError` subclass rather
    than leaking numpy/zlib internals.
    """

    name: str = "abstract"
    supported_bounds: tuple[type, ...] = ()
    #: True when this compressor round-trips NaN/±Inf exactly (e.g. a
    #: ``TransformedCompressor`` with ``nonfinite="preserve"``).  Wrappers
    #: like ``ChunkedCompressor`` consult it before rejecting input.
    allows_nonfinite: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fn = cls.__dict__.get("decompress")
        if fn is not None and not getattr(fn, "__decode_guard__", False):
            cls.decompress = _translate_decode_errors(fn)
        for method in ("compress", "compress_verified", "decompress"):
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__trace_wrapped__", False):
                setattr(cls, method, _traced(fn, method))

    @abc.abstractmethod
    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        """Compress ``data`` under ``bound``; returns container bytes."""

    @abc.abstractmethod
    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the array (original shape and dtype) from bytes."""

    def compress_verified(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        """Compress and also return the exact array ``decompress`` yields.

        Verifying wrappers (e.g. the transformed compressor's bound check)
        call this instead of ``compress`` + ``decompress``.  Codecs that
        already materialize their decoder's reconstruction while encoding
        (SZ must, to patch round-off violators) override it to skip the
        redundant decode; this default simply round-trips.
        """
        blob = self.compress(data, bound)
        return blob, self.decompress(blob)

    def decompress_trusted(self, blob: bytes) -> np.ndarray:
        """Decompress bytes whose integrity the caller already verified.

        Wrappers that store an inner stream as a section of their own
        checksummed container use this for the nested decode: the outer
        stream CRC covered every byte of ``blob``, so re-hashing it here
        would detect nothing new.  Structural and per-section validation
        still run; only the whole-stream CRC check is skipped (and only
        for the duration of this call, including deeper nesting).
        """
        _TRUST.depth = _trusted_depth() + 1
        try:
            return self.decompress(blob)
        finally:
            _TRUST.depth -= 1

    # -- shared helpers ----------------------------------------------------

    def _check_bound(self, bound: ErrorBound) -> None:
        if not isinstance(bound, self.supported_bounds):
            names = ", ".join(b.__name__ for b in self.supported_bounds)
            raise UnsupportedBound(
                f"{self.name} supports bounds ({names}); got {type(bound).__name__}"
            )

    @staticmethod
    def _check_input(data: np.ndarray, allow_nonfinite: bool = False) -> np.ndarray:
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"expected float32/float64 data, got {data.dtype}")
        if data.ndim not in (1, 2, 3):
            raise ValueError(f"expected 1-D/2-D/3-D data, got ndim={data.ndim}")
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        if not allow_nonfinite:
            finite = np.isfinite(data)
            if not finite.all():
                n_nan = int(np.isnan(data).sum())
                n_inf = int(data.size - int(finite.sum()) - n_nan)
                raise ValueError(
                    f"data contains {n_nan} NaN and {n_inf} Inf values "
                    f"(of {data.size}); error-bounded lossy compression of "
                    "non-finite values is undefined (use nonfinite='preserve' "
                    "on a transformed compressor to store them exactly)"
                )
        return np.ascontiguousarray(data)

    @staticmethod
    def _new_container(codec: str, data: np.ndarray) -> Container:
        box = Container(codec)
        box.put_dtype("dtype", data.dtype)
        box.put_shape("shape", data.shape)
        return box

    @staticmethod
    def _open_container(blob: bytes, codec: str) -> tuple[Container, tuple[int, ...], np.dtype]:
        box = Container.from_bytes(blob, verify_checksums=not _trusted_depth())
        if box.codec != codec:
            raise ContainerError(
                f"stream was produced by {box.codec!r}, expected {codec!r}"
            )
        return box, box.get_shape("shape"), box.get_dtype("dtype")


_REGISTRY: dict[str, "type[Compressor] | object"] = {}


def register_compressor(name: str, factory) -> None:
    """Register a zero-argument compressor factory under ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"compressor {name!r} already registered")
    _REGISTRY[name] = factory


def get_compressor(name: str) -> Compressor:
    """Instantiate a registered compressor by experiment-table name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown compressor {name!r}; known: {known}") from None
    return factory()


def available_compressors() -> list[str]:
    return sorted(_REGISTRY)
