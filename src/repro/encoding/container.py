"""Self-describing byte container for compressed streams.

Every compressor in the library serializes to a :class:`Container` so the
compression ratios reported by the experiment harness are measured on real
byte streams, not on in-memory object sizes.

Version-2 layout (written by default)::

    magic  b"RPRC"                 4 bytes
    version                        1 byte (0x02)
    codec name length + utf-8      varint + bytes
    n_sections                     varint
    repeat n_sections times:
        key length + utf-8 key     varint + bytes
        payload length + payload   varint + bytes
        payload CRC-32C            4 bytes little-endian
    stream CRC-32C                 4 bytes little-endian (all prior bytes)

Version-1 streams (no checksums, no trailer) still parse; checksum
verification is simply skipped for them.  Sections preserve insertion
order.  Metadata convenience accessors store small scalars as
UTF-8/struct-packed sections.

Parsing raises the :class:`StreamError` hierarchy: :class:`ContainerError`
for malformed structure, :class:`TruncatedStreamError` when the bytes end
early, :class:`ChecksumError` when stored CRCs disagree with the data.
"""

from __future__ import annotations

import struct
import time
from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from repro.encoding.codecs import read_varint, write_varint
from repro.encoding.crc import crc32c, crc32c_combine
from repro.observe.metrics import metrics as _metrics

__all__ = [
    "Container",
    "ContainerError",
    "ChecksumError",
    "StreamError",
    "TruncatedStreamError",
    "peek_codec",
    "section_byte_ranges",
]

_MAGIC = b"RPRC"
_VERSION = 2
#: Version written for parity-bearing records (chunk-level erasure
#: coding, see ``docs/formats.md``).  Same framing as v2 -- the bump is a
#: format signal so pre-parity readers fail loudly instead of silently
#: ignoring the parity sections they cannot honour.
_VERSION_PARITY = 3
#: Version written for safeguard-bearing records (codec ``SAFE``, see
#: ``docs/safeguards.md``).  Same framing as v2/v3 -- the bump signals that
#: honouring the stream's guarantees requires applying the patch sections,
#: so pre-safeguard readers fail loudly rather than dropping them.
_VERSION_SAFEGUARDS = 4
_KNOWN_VERSIONS = (1, 2, 3, 4)
_CRC_BYTES = 4

# dtype tokens are fixed so streams are portable across numpy versions.
_DTYPE_TOKENS = {
    "float32": b"f4",
    "float64": b"f8",
    "int32": b"i4",
    "int64": b"i8",
    "uint8": b"u1",
    "uint16": b"u2",
    "uint32": b"u4",
    "uint64": b"u8",
}
_TOKEN_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_TOKENS.items()}


class StreamError(ValueError):
    """Base class for every defect a compressed stream can exhibit.

    Subclasses ``ValueError`` so pre-hierarchy callers that caught
    ``ValueError`` keep working.
    """


class ContainerError(StreamError):
    """Raised for malformed container bytes."""


class TruncatedStreamError(ContainerError):
    """Raised when the byte stream ends before its structure is complete."""


class ChecksumError(StreamError):
    """Raised when a stored CRC-32C disagrees with the bytes it covers."""


class Container:
    """Ordered mapping of named byte sections with typed helpers."""

    def __init__(self, codec: str) -> None:
        if not codec:
            raise ValueError("codec name must be non-empty")
        self.codec = codec
        self._sections: OrderedDict[str, bytes] = OrderedDict()
        #: Format version this container was parsed from (or will be
        #: written as).  Version 1 streams carry no checksums.
        self.version = _VERSION
        #: CRCs and payload offsets recorded while parsing a v2 stream
        #: (see :meth:`scan_checksums`).
        self._section_crcs: dict[str, int] = {}
        self._section_offsets: dict[str, int] = {}

    # -- raw sections ------------------------------------------------------

    def put(self, key: str, payload: bytes) -> None:
        if key in self._sections:
            raise ContainerError(f"duplicate section {key!r}")
        self._sections[key] = bytes(payload)

    def get(self, key: str) -> bytes:
        try:
            return self._sections[key]
        except KeyError:
            raise ContainerError(f"missing section {key!r} in {self.codec} stream") from None

    def __contains__(self, key: str) -> bool:
        return key in self._sections

    def __iter__(self) -> Iterator[str]:
        return iter(self._sections)

    def keys(self):
        return self._sections.keys()

    # -- typed helpers -----------------------------------------------------

    def put_u64(self, key: str, value: int) -> None:
        self.put(key, struct.pack("<Q", value))

    def get_u64(self, key: str) -> int:
        return self._unpack(key, "<Q")

    def put_i64(self, key: str, value: int) -> None:
        self.put(key, struct.pack("<q", value))

    def get_i64(self, key: str) -> int:
        return self._unpack(key, "<q")

    def put_f64(self, key: str, value: float) -> None:
        self.put(key, struct.pack("<d", value))

    def get_f64(self, key: str) -> float:
        return self._unpack(key, "<d")

    def _unpack(self, key: str, fmt: str):
        data = self.get(key)
        if len(data) != struct.calcsize(fmt):
            raise ContainerError(
                f"section {key!r} holds {len(data)} bytes, expected {struct.calcsize(fmt)}"
            )
        return struct.unpack(fmt, data)[0]

    def put_str(self, key: str, value: str) -> None:
        self.put(key, value.encode("utf-8"))

    def get_str(self, key: str) -> str:
        try:
            return self.get(key).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"section {key!r} is not UTF-8 text: {exc}") from None

    def put_shape(self, key: str, shape: tuple[int, ...]) -> None:
        self.put(key, b"".join(write_varint(d) for d in (len(shape), *shape)))

    def get_shape(self, key: str) -> tuple[int, ...]:
        data = self.get(key)
        try:
            ndim, pos = read_varint(data)
            dims = []
            for _ in range(ndim):
                d, pos = read_varint(data, pos)
                dims.append(d)
        except ValueError as exc:
            raise ContainerError(f"corrupt section {key!r}: {exc}") from None
        return tuple(dims)

    def put_dtype(self, key: str, dtype: np.dtype) -> None:
        name = np.dtype(dtype).name
        if name not in _DTYPE_TOKENS:
            raise ContainerError(f"unsupported dtype {name}")
        self.put(key, _DTYPE_TOKENS[name])

    def get_dtype(self, key: str) -> np.dtype:
        token = self.get(key)
        if token not in _TOKEN_DTYPES:
            raise ContainerError(f"unknown dtype token {token!r}")
        return _TOKEN_DTYPES[token]

    def put_array(self, key: str, arr: np.ndarray) -> None:
        """Store a 1-D array as dtype token + raw little-endian bytes."""
        arr = np.ascontiguousarray(arr)
        name = arr.dtype.name
        if name not in _DTYPE_TOKENS:
            raise ContainerError(f"unsupported dtype {name}")
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        self.put(key, _DTYPE_TOKENS[name] + le.tobytes())

    def get_array(self, key: str) -> np.ndarray:
        data = self.get(key)
        dtype = _TOKEN_DTYPES.get(data[:2])
        if dtype is None:
            raise ContainerError(f"unknown dtype token {data[:2]!r}")
        if (len(data) - 2) % dtype.itemsize:
            raise ContainerError(f"section {key!r} is not a whole number of {dtype.name}s")
        return np.frombuffer(data[2:], dtype=dtype.newbyteorder("<")).astype(dtype)

    # -- checksums ---------------------------------------------------------

    @property
    def checksummed(self) -> bool:
        """True when this container carries (or will be written with) CRCs."""
        return self.version >= 2

    def scan_checksums(self, data: bytes) -> tuple[int, list[str]]:
        """``(stream CRC, damaged section keys)`` of the v2 bytes parsed.

        ``data`` is the complete stream this container was parsed from.
        Every byte is hashed once: framing directly, each payload through
        its own CRC (checked against the recorded one) folded in with
        :func:`crc32c_combine`, instead of a whole-stream pass plus a pass
        per section.  The stream CRC covers ``data`` minus its 4-byte
        trailer, as :meth:`from_bytes` checks it.
        """
        view = memoryview(data)
        crc, pos, damaged = 0, 0, []
        for key, payload in self._sections.items():
            start = self._section_offsets[key]
            sec_crc = crc32c(payload)
            if sec_crc != self._section_crcs[key]:
                damaged.append(key)
            crc = crc32c_combine(crc32c(view[pos:start], crc), sec_crc, len(payload))
            pos = start + len(payload)
        return crc32c(view[pos : len(data) - _CRC_BYTES], crc), damaged

    # -- serialization -----------------------------------------------------

    def to_bytes(self, checksums: bool = True, version: int | None = None) -> bytes:
        """Serialize; ``checksums=False`` emits the legacy v1 framing.

        ``version`` overrides the version byte (3 marks parity-bearing
        records; same checksummed framing as v2).  v1 cannot be combined
        with checksums and vice versa.
        """
        t0 = time.perf_counter()
        if version is None:
            version = _VERSION if checksums else 1
        if version not in _KNOWN_VERSIONS:
            raise ContainerError(f"unsupported container version {version}")
        if (version >= 2) != checksums:
            raise ContainerError(
                f"container version {version} requires checksums={version >= 2}"
            )
        parts = [_MAGIC, bytes([version])]
        codec = self.codec.encode("utf-8")
        parts.append(write_varint(len(codec)))
        parts.append(codec)
        parts.append(write_varint(len(self._sections)))
        if checksums:
            # The stream CRC is assembled incrementally: framing bytes are
            # hashed as they are emitted and each payload's own CRC (which
            # the v2 format stores anyway) is folded in with
            # crc32c_combine, so payload bytes are read once, not twice.
            stream_crc = crc32c(b"".join(parts))
            for key, payload in self._sections.items():
                k = key.encode("utf-8")
                head = b"".join(
                    (write_varint(len(k)), k, write_varint(len(payload)))
                )
                sec_crc = crc32c(payload)
                tail = struct.pack("<I", sec_crc)
                parts.extend((head, payload, tail))
                stream_crc = crc32c_combine(
                    crc32c(head, stream_crc), sec_crc, len(payload)
                )
                stream_crc = crc32c(tail, stream_crc)
            parts.append(struct.pack("<I", stream_crc))
            blob = b"".join(parts)
        else:
            for key, payload in self._sections.items():
                k = key.encode("utf-8")
                parts.append(write_varint(len(k)))
                parts.append(k)
                parts.append(write_varint(len(payload)))
                parts.append(payload)
            blob = b"".join(parts)
        reg = _metrics()
        reg.counter("container.encode_s").inc(time.perf_counter() - t0)
        reg.counter("container.encode_bytes").inc(len(blob))
        return blob

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        verify_checksums: bool = True,
        partial: bool = False,
    ) -> "Container":
        """Parse container bytes.

        ``verify_checksums`` (default on) checks the whole-stream CRC of v2
        streams before anything else, so any single corrupted bit raises
        :class:`ChecksumError` instead of decoding wrong data; v1 streams
        have no checksums and skip the check.  ``partial=True`` is the
        damage-tolerant mode used for recovery: checksums are not enforced,
        parsing keeps whatever sections (or section prefix) the bytes still
        contain.
        """
        if len(data) < 5:
            if data[: len(data)] == _MAGIC[: len(data)]:
                raise TruncatedStreamError("stream shorter than the 5-byte header")
            raise ContainerError("bad magic: not a repro compressed stream")
        if data[:4] != _MAGIC:
            raise ContainerError("bad magic: not a repro compressed stream")
        version = data[4]
        if version not in _KNOWN_VERSIONS:
            raise ContainerError(f"unsupported container version {version}")
        if version >= 2 and verify_checksums and not partial:
            if len(data) < 5 + _CRC_BYTES:
                raise TruncatedStreamError("v2 stream shorter than its CRC trailer")
            t0 = time.perf_counter()
            (stored,) = struct.unpack("<I", data[-_CRC_BYTES:])
            actual = crc32c(data[:-_CRC_BYTES])
            reg = _metrics()
            reg.counter("crc.verify_s").inc(time.perf_counter() - t0)
            reg.counter("crc.bytes_verified").inc(len(data))
            reg.counter("crc.streams_verified").inc()
            if stored != actual:
                reg.counter("crc.failures").inc()
                from repro.observe.events import emit as _emit_event

                _emit_event(
                    "crc-failure",
                    stored=f"{stored:#010x}",
                    computed=f"{actual:#010x}",
                    nbytes=len(data),
                )
                raise ChecksumError(
                    f"stream checksum mismatch (corrupted or truncated bytes): "
                    f"stored {stored:#010x}, computed {actual:#010x}"
                )
        # In partial mode the cut can fall anywhere, so no byte is assumed
        # to be the trailer; complete v2 streams end in a 4-byte stream CRC.
        body_end = len(data) - _CRC_BYTES if version >= 2 and not partial else len(data)
        t0 = time.perf_counter()
        box = cls._parse_body(data, version, body_end, partial)
        reg = _metrics()
        reg.counter("container.decode_s").inc(time.perf_counter() - t0)
        reg.counter("container.decode_bytes").inc(len(data))
        return box

    @classmethod
    def _parse_body(
        cls, data: bytes, version: int, body_end: int, partial: bool
    ) -> "Container":
        body = memoryview(data)[:body_end]

        def varint(pos: int) -> tuple[int, int]:
            try:
                return read_varint(body, pos)
            except ValueError as exc:
                raise TruncatedStreamError(str(exc)) from None

        def text(raw: bytes, what: str) -> str:
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerError(f"corrupt {what}: {exc}") from None

        pos = 5
        n, pos = varint(pos)
        if pos + n > body_end:
            raise TruncatedStreamError("truncated codec name")
        codec = text(data[pos : pos + n], "codec name")
        pos += n
        nsec, pos = varint(pos)
        out = cls(codec)
        out.version = version
        try:
            for _ in range(nsec):
                n, pos = varint(pos)
                if pos + n > body_end:
                    raise TruncatedStreamError("truncated section key")
                key = text(data[pos : pos + n], "section key")
                pos += n
                n, pos = varint(pos)
                if pos + n > body_end:
                    if partial and version >= 2:
                        # Mid-write cut: keep the readable payload prefix so
                        # chunk-level recovery can salvage what is intact.
                        out.put(key, data[pos:])
                        return out
                    raise TruncatedStreamError(f"truncated section {key!r}")
                out._section_offsets[key] = pos
                out.put(key, data[pos : pos + n])
                pos += n
                if version >= 2:
                    if pos + _CRC_BYTES > len(data):
                        if partial:
                            return out
                        raise TruncatedStreamError(f"truncated checksum of {key!r}")
                    (out._section_crcs[key],) = struct.unpack(
                        "<I", data[pos : pos + _CRC_BYTES]
                    )
                    pos += _CRC_BYTES
        except TruncatedStreamError:
            if partial:
                return out
            raise
        if not partial and pos != body_end:
            raise ContainerError(
                f"{body_end - pos} trailing bytes after the last section"
            )
        return out

    @property
    def nbytes(self) -> int:
        """Serialized size in bytes."""
        return len(self.to_bytes())


def peek_codec(data: bytes) -> str:
    """Codec name from a container header, without parsing the body.

    Dispatchers use this to route a blob to its compressor; the
    compressor's own parse then does the full (checksummed) read, so
    peeking never skips verification -- it just avoids paying for the
    whole-stream CRC twice.
    """
    if len(data) < 5:
        if data[: len(data)] == _MAGIC[: len(data)]:
            raise TruncatedStreamError("stream shorter than the 5-byte header")
        raise ContainerError("bad magic: not a repro compressed stream")
    if data[:4] != _MAGIC:
        raise ContainerError("bad magic: not a repro compressed stream")
    if data[4] not in _KNOWN_VERSIONS:
        raise ContainerError(f"unsupported container version {data[4]}")
    try:
        n, pos = read_varint(data, 5)
    except ValueError as exc:
        raise TruncatedStreamError(str(exc)) from None
    if pos + n > len(data):
        raise TruncatedStreamError("truncated codec name")
    try:
        return data[pos : pos + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerError(f"corrupt codec name: {exc}") from None


def section_byte_ranges(data: bytes) -> dict[str, tuple[int, int]]:
    """Byte range ``[start, stop)`` of every section payload in ``data``.

    Fault injectors use this to aim corruption at a named section of a
    serialized stream.  A view of :func:`repro.stream.parse_stream`;
    raises :class:`StreamError` when the framing itself is unreadable.
    """
    from repro.stream import parse_stream

    model = parse_stream(data)
    model.raise_defects(checksums=False)
    return {key: (s.payload_start, s.payload_stop) for key, s in model.sections.items()}
