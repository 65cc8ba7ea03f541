"""One damage-tolerant parse of a compressed stream: ``parse_stream``.

Every read-only view -- ``info``/``stats``, ``explain`` and byte
attribution, ``verify``, ``audit``, the damage scans of ``repair`` and
partial recovery, the archive manifest, the fault injectors -- renders the
:class:`StreamModel` built here.  Besides the codecs that write and decode
them, this is the one module that knows the v1--v4 section layouts
(``docs/formats.md``).  The walk never raises: the first defect a strict
:meth:`Container.from_bytes` would reject is kept in
:attr:`StreamModel.error`, and reading goes on as far as the bytes allow.
Chunk and field sub-streams are parsed too; a nested ``inner`` stream only
when the byte-attribution tree asks for it.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.encoding.codecs import read_varint
from repro.encoding.container import (
    _CRC_BYTES,
    _KNOWN_VERSIONS,
    _MAGIC,
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
    TruncatedStreamError,
)
from repro.encoding.crc import crc32c
from repro.observe.metrics import metrics

__all__ = [
    "ChunkRecord",
    "ParityGroups",
    "Section",
    "StreamModel",
    "parse_stream",
    "read_chunk_table",
    "stream_bound",
]

#: CHUNKED metadata whose CRCs must hold before recovery trusts the geometry.
_CHUNKED_META = ("dtype", "shape", "inner_codec", "n_chunks", "offs", "lens", "elems")
#: v3 parity metadata (the ``parity`` payload itself may be damaged --
#: rebuilt chunks are validated by their own stream CRCs instead).
_PARITY_META = ("parity_k", "group_size", "parity_lens")

#: Attribution kind per known section key; anything absent is small typed
#: metadata.  Section *payload* bytes only -- framing and CRCs have their
#: own kinds.
_KEY_KINDS = {
    "payload": "payload",
    "inner": "payload",  # refined to a nested tree when it parses
    "codes": "entropy",  # split into table/offsets/bits by the attribution tree
    "escq": "outliers",
    "patch_idx": "patch",
    "patch_val": "patch",
    "signs": "signs",
    "parity": "parity",
    "coeffs": "coefficients",
    "selector": "coefficients",
    "emax": "coefficients",
    "remainders": "coefficients",
    "classes": "coefficients",
    "eb_block": "coefficients",
    "offs": "chunk-table",
    "lens": "chunk-table",
    "elems": "chunk-table",
    "parity_lens": "chunk-table",
    "index": "chunk-table",
}


#: Container keys holding each codec's native bound, with its kind.
#: Kinds: "abs"/"rel" are error bounds the stream guarantees point-wise;
#: "prec" (bit precision) and "rate" (bits/value) parameterize fidelity
#: without a point-wise guarantee, so reports show them but never grade
#: errors against them.  GZIP (lossless) and CHUNKED (delegates to its
#: per-chunk inner streams) intentionally have no entry.
_BOUND_KEYS = {
    "SZ_ABS": ("eb", "abs"),
    "SZ2_ABS": ("eb", "abs"),
    "SZ3_ABS": ("eb", "abs"),
    "ZFP_A": ("param", "abs"),
    "ZFP_P": ("param", "prec"),
    "ZFP_R": ("param", "rate"),
    "FPZIP": ("precision", "prec"),
    "SZ_PWR": ("br", "rel"),
    "ISABELA": ("br", "rel"),
    "SZ_T": ("br", "rel"),
    "SZ2_T": ("br", "rel"),
    "SZ3_T": ("br", "rel"),
    "ZFP_T": ("br", "rel"),
    "NAIVE_T": ("br", "rel"),
}

#: Codecs whose bound parameter is stored as an integer section (u64)
#: rather than a float; reading those via ``get_f64`` would silently
#: reinterpret the bits.
_U64_BOUND_CODECS = frozenset({"FPZIP"})


def stream_bound(box: Container) -> tuple[str | None, float | None]:
    """``(kind, value)`` of the native bound a container carries.

    ``(None, None)`` when the codec has no recoverable bound (lossless,
    CHUNKED wrappers) or the expected section is absent.  SAFE streams
    derive their bound from the declared safeguards: a relative-error
    safeguard outranks an absolute one; other kinds carry no error bound.
    """
    if box.codec == "SAFE":
        from repro.safeguards.kinds import parse_safeguard

        values: dict[str, float] = {}
        for spec in box.get_str("safeguards").split(";") if "safeguards" in box else ():
            try:
                sg = parse_safeguard(spec)
            except ValueError:  # blank or unknown spec: declares no bound
                continue
            if sg.kind in ("rel", "abs"):
                values.setdefault(sg.kind, float(sg.value))
        kind = "rel" if "rel" in values else "abs" if "abs" in values else None
        return kind, values.get(kind)
    key = _BOUND_KEYS.get(box.codec)
    if key is None or key[0] not in box:
        return None, None
    if box.codec in _U64_BOUND_CODECS:
        return key[1], float(box.get_u64(key[0]))
    return key[1], box.get_f64(key[0])


def _chunk_table(box: Container, shape) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """``(problems, offs, lens, elems)`` of a CHUNKED chunk table, int64 arrays.

    The payload length is not checked here, so damage-tolerant readers can
    use the table of a stream whose payload was cut short.
    """
    offs, lens, elems = (box.get_array(k).astype(np.int64) for k in ("offs", "lens", "elems"))
    n, problems = box.get_u64("n_chunks"), []
    if not (offs.size == lens.size == elems.size == n):
        problems.append(
            f"chunk table size mismatch: n_chunks={n} but "
            f"{offs.size}/{lens.size}/{elems.size} table entries"
        )
        return problems, offs, lens, elems
    if n and (
        (lens < 0).any() or (offs != np.concatenate([[0], np.cumsum(lens)[:-1]])).any()
    ):
        problems.append("chunk offsets are not the cumulative sum of lengths")
    if (elems <= 0).any() or int(elems.sum()) != math.prod(shape):
        problems.append(
            f"chunk element counts sum to {int(elems.sum())}, "
            f"shape needs {math.prod(shape)}"
        )
    return problems, offs, lens, elems


def read_chunk_table(
    box: Container, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``(offs, lens, elems)``; :class:`ContainerError` if inconsistent."""
    problems, *table = _chunk_table(box, shape)
    if problems:
        raise ContainerError(f"corrupt CHUNKED stream: {problems[0]}")
    return tuple(table)


@dataclass(frozen=True)
class Section:
    """Where one section sits: ``[start, stop)`` spans framing, payload, CRC."""

    key: str
    start: int
    payload_start: int
    payload_stop: int
    stop: int
    #: ``"payload"`` or ``"checksum"`` when the bytes end inside this part.
    truncated: str | None = None

    @property
    def nbytes(self) -> int:
        return self.payload_stop - self.payload_start


@dataclass(frozen=True)
class ChunkRecord:
    """One entry of a CHUNKED chunk table, with its parsed sub-stream."""

    index: int
    #: Offset and length of the chunk stream within the ``payload`` section.
    offset: int
    length: int
    elems: int
    #: Ladder rung that compressed this chunk, when the stream records it.
    codec: str | None
    #: None when the chunk's bytes are missing from the payload.
    stream: "StreamModel | None"


@dataclass(frozen=True)
class ParityGroups:
    """v3 Reed-Solomon parity geometry: ``k`` blocks per group of chunks."""

    k: int
    group_size: int
    #: Parity block length of each group.
    lens: tuple[int, ...]
    #: Size of the ``parity`` section.
    nbytes: int


@dataclass(eq=False)
class StreamModel:
    """What one walk over a stream found; see :func:`parse_stream`."""

    blob: bytes
    codec: str | None = None
    version: int | None = None
    #: End of the magic/version/codec/section-count header.
    header_end: int = 0
    sections: dict[str, Section] = field(default_factory=dict)
    #: The sections read, behind the typed :class:`Container` accessors.
    box: Container | None = None
    #: First defect a strict :meth:`Container.from_bytes` raises, if any.
    error: StreamError | None = None
    #: ``(position, reason)`` where the walk stopped reading, if it did.
    damage: tuple[int, str] | None = None
    shape: tuple[int, ...] | None = None
    dtype: np.dtype | None = None
    inner_codec: str | None = None
    #: Declared safeguard specs (SAFE streams).
    safeguards: tuple[str, ...] | None = None
    #: Size of the patch channel, when the stream has one.
    patched: int | None = None
    n_chunks: int | None = None
    chunks: tuple[ChunkRecord, ...] = ()
    #: Why the chunk table cannot be used as written, [] when it can.
    table_problems: tuple[str, ...] = ()
    ladder: str | None = None
    #: First rung of the ladder (or the first chunk's codec without one).
    primary: str | None = None
    #: Chunk count per codec, from the ``chunk_codecs`` record.
    codec_mix: dict[str, int] | None = None
    #: Chunks a fallback rung, not the primary codec, compressed.
    degraded: int | None = None
    parity: ParityGroups | None = None
    parity_problem: str | None = None
    #: ARCHIVE field sub-streams by field name.
    fields: dict[str, "StreamModel"] | None = None

    @property
    def nbytes(self) -> int:
        return len(self.blob)

    @property
    def checksummed(self) -> bool:
        return self.version is not None and self.version >= 2

    @cached_property
    def _checksums(self) -> tuple[tuple[int, int] | None, frozenset[str]]:
        """Stream CRC and damaged section keys, hashed on first use only."""
        box = self.box
        if not self.checksummed or box is None:
            return None, frozenset()
        if self.error is None:  # complete framing: one pass hashes every byte
            computed, bad = box.scan_checksums(self.blob)
            stored = struct.unpack_from("<I", self.blob, self.nbytes - _CRC_BYTES)[0]
            return (stored, computed), frozenset(bad)
        crcs = box._section_crcs
        return None, frozenset(
            key for key in self.sections if key not in crcs or crc32c(box.get(key)) != crcs[key]
        )

    @property
    def stream_crc(self) -> tuple[int, int] | None:
        """``(stored, computed)`` stream CRC of a complete v2+ stream, else None."""
        return self._checksums[0]

    @property
    def damaged_sections(self) -> frozenset[str]:
        """Sections whose payload fails its own CRC or is cut short."""
        return self._checksums[1]

    @property
    def intact(self) -> bool:
        """True when a checksum-verifying :meth:`Container.from_bytes` accepts it."""
        crc = self.stream_crc
        return self.error is None and (crc is None or crc[0] == crc[1])

    @cached_property
    def bound(self) -> tuple[str | None, float | None]:
        """Native ``(kind, value)`` bound, ``(None, None)`` when unreadable."""
        if self.box is None:
            return None, None
        try:
            return stream_bound(self.box)
        except StreamError:
            return None, None

    def raise_defects(self, checksums: bool = True) -> None:
        """Raise what a strict parse (verifying the stream CRC) would raise."""
        if self.error is not None:
            raise self.error
        if checksums and not self.intact:
            stored, computed = self.stream_crc
            raise ChecksumError(
                f"stream checksum mismatch (corrupted or truncated bytes): "
                f"stored {stored:#010x}, computed {computed:#010x}"
            )

    def geometry_error(self, parity: bool = False) -> StreamError | None:
        """Why recovery cannot trust this CHUNKED stream's geometry, or None.

        Metadata sections must match their own CRCs, shape and dtype must
        read and the chunk table must be consistent (with ``parity``, the
        v3 parity geometry too).
        """
        if self.codec is None:
            return self.error
        for key in _CHUNKED_META + (_PARITY_META if parity else ()):
            if key in self.damaged_sections:
                return ChecksumError(f"CHUNKED metadata section {key!r} is corrupt")
        if self.shape is None or self.dtype is None:
            return ContainerError("CHUNKED stream has no readable shape and dtype")
        if self.table_problems:
            return ContainerError(f"corrupt CHUNKED stream: {self.table_problems[0]}")
        if parity and self.parity is None:
            return ContainerError(
                self.parity_problem or "stream carries no parity sections (not a v3 record)"
            )
        return None

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """Every integrity defect: the verdict ``verify_stream`` reports."""
        if self.error is not None:
            return (f"structure: {type(self.error).__name__}: {self.error}",)
        out = []
        if not self.intact:
            stored, computed = self.stream_crc
            out.append(
                f"stream checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )
        out += [
            f"section {key!r}: payload checksum mismatch"
            for key in self.sections
            if key in self.damaged_sections
        ]
        if self.codec == "CHUNKED":
            out += self._chunk_problems()
        for name, sub in (self.fields or {}).items():
            out += [f"field {name!r}: {p}" for p in sub.problems]
        return tuple(out)

    def _chunk_problems(self) -> list[str]:
        out = list(self.table_problems)
        payload = self.sections.get("payload")
        if payload is None:
            out.append("payload section missing")
        elif self.chunks and not self.table_problems:
            span = self.chunks[-1].offset + self.chunks[-1].length
            if span != payload.nbytes:
                out.append(
                    f"payload holds {payload.nbytes} bytes but the chunk table spans {span}"
                )
        before = len(out)
        for rec in self.chunks:
            if rec.stream is None:
                out.append(f"chunk {rec.index}: bytes missing from payload")
            else:
                out += [f"chunk {rec.index}: {p}" for p in rec.stream.problems]
        if self.parity_problem is not None:
            out.append(self.parity_problem)
        elif self.parity is not None:
            out += self._parity_problems(chunks_ok=len(out) == before)
        return out

    def _parity_problems(self, chunks_ok: bool) -> list[str]:
        from repro.encoding.rs import encode_parity

        p, out = self.parity, []
        k, m = p.k, p.group_size
        groups = [self.chunks[g : g + m] for g in range(0, len(self.chunks), m)]
        for g, (plen, members) in enumerate(zip(p.lens, groups)):
            want = max((rec.length for rec in members), default=0)
            if plen != want:
                out.append(
                    f"parity group {g}: block length {plen}, longest member chunk is {want}"
                )
        expect = k * sum(p.lens)
        if p.nbytes != expect:
            out.append(f"parity section holds {p.nbytes} bytes, geometry needs {expect}")
        elif chunks_ok and not out:
            # Chunks and geometry are intact: the parity bytes must equal a
            # deterministic re-encode (the same check repair relies on).
            parity, offset = self.box.get("parity") if "parity" in self.box else b"", 0
            for g, (plen, members) in enumerate(zip(p.lens, groups)):
                blocks = [parity[offset + j * plen : offset + (j + 1) * plen] for j in range(k)]
                if encode_parity([rec.stream.blob for rec in members], k) != blocks:
                    out.append(f"parity group {g}: bytes do not match recomputed parity")
                offset += k * plen
        return out


def parse_stream(blob: bytes) -> StreamModel:
    """Walk ``blob`` once into a :class:`StreamModel`; never raises on bad bytes.

    Counted by the ``stream.parse`` metric, so tests can check that each
    read-only command parses its stream exactly once.
    """
    metrics().counter("stream.parse").inc()
    return _parse(bytes(blob))


def _parse(blob: bytes) -> StreamModel:
    model = StreamModel(blob)
    _walk(model)
    if model.box is not None:
        _interpret(model)
    return model


def _walk(m: StreamModel) -> None:
    """Read the framing of ``m.blob``, noting where a strict parse -- which
    stops at the 4-byte stream CRC trailer of v2+ streams -- fails first."""
    data = m.blob
    n = len(data)
    if n < 5 or data[:4] != _MAGIC:
        if n < 5 and data == _MAGIC[:n]:
            m.error = TruncatedStreamError("stream shorter than the 5-byte header")
        else:
            m.error = ContainerError("bad magic: not a repro compressed stream")
        m.damage = (0, "empty stream" if not n else "bad magic: not a repro container")
        return
    version = data[4]
    if version not in _KNOWN_VERSIONS:
        m.error = ContainerError(f"unsupported container version {version}")
        m.damage = (0, str(m.error))
        return
    m.version = version
    crc = _CRC_BYTES if version >= 2 else 0
    limit = n - crc  # where a strict parse expects the stream CRC trailer

    def strict(exc: StreamError) -> None:
        if m.error is None:
            m.error = exc

    def varint(pos: int) -> tuple[int, int]:
        try:
            value, pos = read_varint(data, pos)
        except ValueError as exc:
            raise TruncatedStreamError(str(exc)) from None
        if pos > limit:
            strict(TruncatedStreamError("truncated varint"))
        return value, pos

    def text(start: int, size: int, what: str) -> str:
        if start + size > limit:
            strict(TruncatedStreamError(f"truncated {what}"))
        if start + size > n:
            raise TruncatedStreamError(f"truncated {what}")
        raw = data[start : start + size]
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            strict(ContainerError(f"corrupt {what}: {exc}"))
            return raw.decode("utf-8", "replace")

    try:
        size, pos = varint(5)
        codec = text(pos, size, "codec name")
        nsec, pos = varint(pos + size)
        if not codec:
            raise ContainerError("corrupt codec name: empty")
    except StreamError as exc:
        strict(exc)
        m.header_end = 5
        m.damage = (5, f"truncated header: {exc}")
        return
    m.codec, m.header_end = codec, pos
    box = m.box = Container(codec)
    box.version = version
    for _ in range(nsec):
        start = pos
        try:
            size, pos = varint(pos)
            key = text(pos, size, "section key")
            if key in m.sections:
                raise ContainerError(f"duplicate section {key!r}")
            size, pos = varint(pos + size)
        except StreamError as exc:
            strict(exc)
            m.damage = (start, str(exc))
            return
        stop = pos + size
        if stop > limit:
            strict(TruncatedStreamError(f"truncated section {key!r}"))
        if stop > n:
            m.sections[key] = Section(key, start, pos, n, n, "payload")
            box.put(key, data[pos:])
            m.damage = (pos, f"truncated section {key!r}")
            return
        box.put(key, data[pos:stop])
        if crc and stop + crc > n:
            strict(TruncatedStreamError(f"truncated checksum of {key!r}"))
            m.sections[key] = Section(key, start, pos, stop, stop, "checksum")
            m.damage = (stop, f"truncated checksum of {key!r}")
            return
        if crc:  # what Container.scan_checksums checks the payload against
            box._section_offsets[key] = pos
            (box._section_crcs[key],) = struct.unpack_from("<I", data, stop)
        m.sections[key] = Section(key, start, pos, stop, stop + crc)
        pos = stop + crc

    if pos != limit:
        strict(ContainerError(f"{limit - pos} trailing bytes after the last section"))
    if crc and pos == n:
        m.damage = (n, "missing stream CRC trailer (truncated)")
    elif crc and pos > limit:
        m.damage = (pos, "truncated stream CRC trailer")
    elif pos != limit:
        m.damage = (pos, f"{n - pos} unexpected trailing bytes")


def _interpret(m: StreamModel) -> None:
    """Typed fields from the sections the walk read; unreadable ones stay None."""
    box = m.box

    def read(getter, key: str):
        if key not in box:
            return None
        try:
            return getter(key)
        except StreamError:
            return None

    m.shape = read(box.get_shape, "shape")
    m.dtype = read(box.get_dtype, "dtype")
    m.inner_codec = read(box.get_str, "inner_codec")
    m.patched = read(box.get_u64, "n_patch")
    specs = read(box.get_str, "safeguards")
    if specs is not None:
        m.safeguards = tuple(s for s in specs.split(";") if s.strip())
    if m.codec == "CHUNKED":
        _interpret_chunked(m, read)
    elif m.codec == "ARCHIVE":
        m.fields = {
            key[len("field:") :]: _parse(box.get(key))
            for key in box.keys()
            if key.startswith("field:")
        }


def _interpret_chunked(m: StreamModel, read) -> None:
    box = m.box
    m.n_chunks = read(box.get_u64, "n_chunks")
    m.ladder = read(box.get_str, "ladder")
    recorded = read(box.get_str, "chunk_codecs")
    codecs = [c for c in recorded.split(";") if c] if recorded is not None else []
    if recorded is not None:
        m.codec_mix = dict(Counter(codecs))
        m.primary = (m.ladder.split(">") if m.ladder else codecs + [None])[0]
        m.degraded = sum(1 for c in codecs if c != m.primary)
    try:
        problems, offs, lens, elems = _chunk_table(box, box.get_shape("shape"))
        m.table_problems = tuple(problems)
    except StreamError as exc:
        m.table_problems = (f"chunk table unreadable: {exc}",)
        return
    payload = box.get("payload") if "payload" in box else b""
    m.chunks = tuple(
        ChunkRecord(i, o, ln, ne, codecs[i] if i < len(codecs) else None,
                    _parse(payload[o : o + ln]) if 0 <= o and o + ln <= len(payload) else None)
        for i, (o, ln, ne) in enumerate(zip(offs.tolist(), lens.tolist(), elems.tolist()))
    )
    if "parity_k" not in box:
        return
    from repro.encoding.rs import MAX_GROUP_BLOCKS

    try:
        k, size = box.get_u64("parity_k"), box.get_u64("group_size")
        plens = box.get_array("parity_lens").astype(np.int64).tolist()
    except StreamError as exc:
        m.parity_problem = f"parity sections unreadable: {exc}"
        return
    n_groups = math.ceil(len(m.chunks) / size) if size else 0
    if k < 1 or size < 1 or size + k > MAX_GROUP_BLOCKS:
        m.parity_problem = f"impossible parity geometry: k={k} per group of {size}"
    elif len(plens) != n_groups or min(plens, default=0) < 0:
        m.parity_problem = (
            f"parity_lens holds {len(plens)} group(s), chunk table implies {n_groups}"
        )
    else:
        nbytes = m.sections["parity"].nbytes if "parity" in m.sections else 0
        m.parity = ParityGroups(k, size, tuple(plens), nbytes)
