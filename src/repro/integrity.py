"""Stream verification and repair: ``verify_stream`` / ``repair_stream``.

``verify_stream`` answers "are these bytes trustworthy?" cheaply:
structure, the v2 stream CRC, every per-section CRC, CHUNKED chunk-table
consistency (including v3 parity geometry), and a recursive pass over
the per-chunk / per-field sub-streams -- all without running any decoder.
This is what ``repro-compress verify`` runs, and what an HPC restart
path would run on every rank file before committing to a load.

``repair_stream`` goes one step further on parity-bearing (v3) CHUNKED
streams: chunks whose bytes fail their own checksums -- or are missing
outright after a truncation -- are rebuilt byte-exactly from the
surviving members of their Reed-Solomon parity group, and a fully
re-serialized stream plus a per-chunk :class:`RepairReport` comes back.

Verification never raises on bad bytes: every defect becomes an entry in
the returned :class:`VerifyReport`.  Repair raises :class:`StreamError`
only when the stream's geometry (codec, chunk table, parity table) is
itself unreadable -- without it there is nothing to repair against.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.encoding.container import (
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
)
from repro.encoding.rs import (
    MAX_GROUP_BLOCKS,
    InsufficientParityError,
    decode_blocks,
    encode_parity,
)
from repro.observe.events import emit as emit_event
from repro.observe.metrics import metrics
from repro.observe.tracer import span

__all__ = [
    "ChunkRepair",
    "RepairReport",
    "VerifyReport",
    "repair_stream",
    "verify_stream",
]

_CRC_BYTES = 4

#: CHUNKED metadata sections whose per-section CRCs must hold before any
#: recovery or repair can be attempted.
_CHUNKED_META = ("dtype", "shape", "inner_codec", "n_chunks", "offs", "lens", "elems")

#: v3 parity metadata (the ``parity`` payload itself may be damaged --
#: rebuilt chunks are validated by their own stream CRCs instead).
_PARITY_META = ("parity_k", "group_size", "parity_lens")


@dataclass
class VerifyReport:
    """Everything ``verify_stream`` learned about one byte stream.

    ``problems`` is the authoritative verdict: empty means every check
    passed.  ``checksummed`` is False for v1 streams, whose integrity
    cannot be vouched for -- that is reported as a note, not a problem.
    """

    nbytes: int
    codec: str | None = None
    version: int | None = None
    checksummed: bool = False
    n_sections: int = 0
    n_chunks: int | None = None
    problems: tuple[str, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        head = (
            f"{self.codec or '?'} v{self.version or '?'} stream, "
            f"{self.nbytes} bytes, {self.n_sections} sections"
        )
        if self.n_chunks is not None:
            head += f", {self.n_chunks} chunks"
        if self.ok:
            verdict = "OK" if self.checksummed else "OK (v1: no checksums to verify)"
            return f"{head}: {verdict}"
        return f"{head}: {len(self.problems)} problem(s)\n" + "\n".join(
            f"  - {p}" for p in self.problems
        )


def _verify_chunk_table(box: Container, blob: bytes, problems: list[str]) -> int | None:
    """Check CHUNKED geometry + every per-chunk sub-stream. Returns n_chunks."""
    try:
        n = box.get_u64("n_chunks")
        offs = box.get_array("offs").astype(np.int64)
        lens = box.get_array("lens").astype(np.int64)
        elems = box.get_array("elems").astype(np.int64)
        shape = box.get_shape("shape")
        payload = box.get("payload")
    except StreamError as exc:
        problems.append(f"chunk table unreadable: {exc}")
        return None
    if not (offs.size == lens.size == elems.size == n):
        problems.append(
            f"chunk table size mismatch: n_chunks={n} but "
            f"{offs.size}/{lens.size}/{elems.size} table entries"
        )
        return int(n)
    if n:
        if (lens < 0).any() or (
            offs != np.concatenate([[0], np.cumsum(lens)[:-1]])
        ).any():
            problems.append("chunk offsets are not the cumulative sum of lengths")
        elif int(offs[-1] + lens[-1]) != len(payload):
            problems.append(
                f"payload holds {len(payload)} bytes but the chunk table "
                f"spans {int(offs[-1] + lens[-1])}"
            )
    if (elems <= 0).any() or int(elems.sum()) != math.prod(shape):
        problems.append(
            f"chunk element counts sum to {int(elems.sum())}, "
            f"shape needs {math.prod(shape)}"
        )
    before = len(problems)
    for i, (o, ln) in enumerate(zip(offs, lens)):
        if o + ln > len(payload):
            problems.append(f"chunk {i}: bytes missing from payload")
            continue
        sub = verify_stream(payload[o : o + ln])
        problems.extend(f"chunk {i}: {p}" for p in sub.problems)
    if "parity_k" in box:
        _verify_parity(
            box, int(n), lens, payload, problems, chunks_ok=len(problems) == before
        )
    return int(n)


def _verify_parity(
    box: Container,
    n: int,
    lens: np.ndarray,
    payload: bytes,
    problems: list[str],
    chunks_ok: bool,
) -> None:
    """Check v3 parity geometry; recompute parity when the chunks are intact."""
    try:
        k = box.get_u64("parity_k")
        m = box.get_u64("group_size")
        plens = box.get_array("parity_lens").astype(np.int64)
        parity = box.get("parity")
    except StreamError as exc:
        problems.append(f"parity sections unreadable: {exc}")
        return
    if k < 1 or m < 1 or m + k > MAX_GROUP_BLOCKS:
        problems.append(f"impossible parity geometry: k={k} per group of {m}")
        return
    n_groups = math.ceil(n / m) if n else 0
    if plens.size != n_groups or (plens < 0).any():
        problems.append(
            f"parity_lens holds {plens.size} group(s), chunk table implies {n_groups}"
        )
        return
    for g in range(n_groups):
        want = int(lens[g * m : (g + 1) * m].max(initial=0))
        if int(plens[g]) != want:
            problems.append(
                f"parity group {g}: block length {int(plens[g])}, "
                f"longest member chunk is {want}"
            )
    expect = int(k * plens.sum())
    if len(parity) != expect:
        problems.append(
            f"parity section holds {len(parity)} bytes, geometry needs {expect}"
        )
    elif chunks_ok and not any(p.startswith("parity") for p in problems):
        # Chunks and geometry are intact: the parity bytes must equal a
        # deterministic re-encode (this is the same check repair relies on).
        offset = 0
        for g in range(n_groups):
            blobs = [
                bytes(payload[int(o) : int(o) + int(ln)])
                for o, ln in zip(
                    np.concatenate([[0], np.cumsum(lens)])[g * m : (g + 1) * m],
                    lens[g * m : (g + 1) * m],
                )
            ]
            size = int(k * plens[g])
            if encode_parity(blobs, int(k)) != _split_blocks(
                parity[offset : offset + size], int(k)
            ):
                problems.append(f"parity group {g}: bytes do not match recomputed parity")
            offset += size


def _split_blocks(raw: bytes, k: int) -> list[bytes]:
    """Cut one group's parity bytes into its ``k`` equal-length blocks."""
    if k <= 0 or len(raw) % k:
        return []
    size = len(raw) // k
    return [raw[j * size : (j + 1) * size] for j in range(k)]


def verify_stream(blob: bytes) -> VerifyReport:
    """Verify structure and checksums of ``blob`` without decompressing.

    Checks, in order: container framing parses; the v2 whole-stream CRC
    matches; every per-section CRC matches; for ``CHUNKED`` streams the
    chunk table is self-consistent and every per-chunk sub-stream verifies
    in turn; for ``ARCHIVE`` streams every field's sub-stream verifies.
    """
    report = VerifyReport(nbytes=len(blob))
    problems: list[str] = []
    notes: list[str] = []

    try:
        box = Container.from_bytes(blob, verify_checksums=False)
    except StreamError as exc:
        report.problems = (f"structure: {type(exc).__name__}: {exc}",)
        return report
    report.codec = box.codec
    report.version = box.version
    report.checksummed = box.checksummed
    report.n_sections = len(box.keys())

    if box.checksummed:
        (stored,) = struct.unpack("<I", blob[-_CRC_BYTES:])
        actual, damaged = box.scan_checksums(blob)
        if stored != actual:
            problems.append(
                f"stream checksum mismatch: stored {stored:#010x}, "
                f"computed {actual:#010x}"
            )
        problems.extend(f"section {key!r}: payload checksum mismatch" for key in damaged)
    else:
        notes.append("v1 stream: carries no checksums, integrity not verifiable")

    if box.codec == "CHUNKED":
        report.n_chunks = _verify_chunk_table(box, blob, problems)
        if "chunk_codecs" in box and box.check_section("chunk_codecs"):
            codecs = [c for c in box.get_str("chunk_codecs").split(";") if c]
            primary = (
                box.get_str("ladder").split(">")
                if "ladder" in box and box.check_section("ladder")
                else codecs
            )[0] if codecs else None
            degraded = sum(1 for c in codecs if c != primary)
            if degraded:
                notes.append(
                    f"{degraded} of {len(codecs)} chunk(s) were compressed by "
                    f"a fallback rung of the codec ladder (primary {primary}); "
                    f"bytes are intact, but see 'repro-compress explain'"
                )
        if "parity_k" in box and box.check_section("parity_k"):
            notes.append(
                f"carries Reed-Solomon parity: k={box.get_u64('parity_k')} "
                f"per group of {box.get_u64('group_size')}"
            )
    elif box.codec == "ARCHIVE":
        for key in box.keys():
            if key.startswith("field:"):
                sub = verify_stream(box.get(key))
                problems.extend(f"field {key[6:]!r}: {p}" for p in sub.problems)

    report.problems = tuple(problems)
    report.notes = tuple(notes)
    return report


# -- repair ------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkRepair:
    """Outcome for one damaged chunk of a repaired stream.

    ``outcome`` is ``"repaired"`` (rebuilt byte-exactly from parity) or
    ``"lost"`` (more damage in the group than the parity covers, or the
    rebuilt bytes failed their own checksum); ``error`` is what was wrong
    with the original chunk bytes.
    """

    index: int
    outcome: str
    error: str

    def to_dict(self) -> dict:
        return {"index": self.index, "outcome": self.outcome, "error": self.error}


@dataclass
class RepairReport:
    """Everything :func:`repair_stream` did to one byte stream.

    ``chunks`` lists only the *damaged* chunks; intact ones do not
    appear.  ``ok`` means every damaged chunk was rebuilt -- the returned
    stream is then byte-for-byte the original (parity damage included,
    since parity is deterministically re-encoded from the final chunks).
    """

    nbytes: int
    n_chunks: int
    parity_k: int
    group_size: int
    chunks: tuple[ChunkRepair, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def repaired(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.chunks if c.outcome == "repaired")

    @property
    def lost(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.chunks if c.outcome == "lost")

    @property
    def n_damaged(self) -> int:
        return len(self.chunks)

    @property
    def n_repaired(self) -> int:
        return len(self.repaired)

    @property
    def n_lost(self) -> int:
        return len(self.lost)

    @property
    def ok(self) -> bool:
        return not self.lost

    def to_dict(self) -> dict:
        return {
            "nbytes": self.nbytes,
            "n_chunks": self.n_chunks,
            "parity_k": self.parity_k,
            "group_size": self.group_size,
            "n_damaged": self.n_damaged,
            "n_repaired": self.n_repaired,
            "n_lost": self.n_lost,
            "ok": self.ok,
            "chunks": [c.to_dict() for c in self.chunks],
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        head = (
            f"{self.n_chunks} chunks, k={self.parity_k} parity "
            f"per group of {self.group_size}"
        )
        if not self.chunks:
            return f"{head}: no damaged chunks"
        verdict = f"rebuilt {self.n_repaired}/{self.n_damaged} damaged chunk(s)"
        if self.lost:
            verdict += " -- lost " + ", ".join(
                f"chunk {c.index} ({c.error})" for c in self.chunks if c.outcome == "lost"
            )
        return f"{head}: {verdict}"


def _chunk_intact(chunk: bytes) -> bool:
    """True when ``chunk`` parses as a complete, checksum-clean stream."""
    try:
        Container.from_bytes(chunk)
    except StreamError:
        return False
    return True


def _rebuild_group(
    group: list[bytes | None],
    parity: list[bytes | None],
    glens: list[int],
) -> dict[int, bytes] | None:
    """Rebuild a group's missing blocks, or None when the parity cannot.

    Tries every combination of the surviving parity blocks and accepts
    the first whose rebuilt chunks all pass their own stream checksums --
    so a silently-corrupted parity block (whole-section CRC can't say
    which block) costs attempts, never correctness.
    """
    missing = [i for i, b in enumerate(group) if b is None]
    have = [j for j, p in enumerate(parity) if p is not None]
    if len(missing) > len(have):
        return None
    for sel in combinations(have, len(missing)):
        chosen = [p if j in sel else None for j, p in enumerate(parity)]
        try:
            rebuilt = decode_blocks(group, chosen, glens)
        except (InsufficientParityError, ValueError):
            continue
        out = {i: rebuilt[i] for i in missing}
        if all(_chunk_intact(b) for b in out.values()):
            return out
    return None


def repair_stream(blob: bytes) -> tuple[bytes, RepairReport]:
    """Rebuild the damaged chunks of a parity-bearing CHUNKED stream.

    Returns ``(repaired_bytes, report)``.  When ``report.ok`` the
    repaired bytes are byte-for-byte the originally written stream
    (verified by re-serializing with fresh CRCs -- identical input bytes
    give an identical stream CRC); chunks beyond the parity's reach keep
    their damaged/zero-padded bytes so partial recovery can still skip
    just them.  Raises :class:`StreamError` when the stream is not a
    parity-bearing CHUNKED record or its geometry is unreadable.
    """
    with span("repair-stream", nbytes=len(blob)):
        return _repair_stream(blob)


def _repair_stream(blob: bytes) -> tuple[bytes, RepairReport]:
    t0 = time.perf_counter()
    box = Container.from_bytes(blob, verify_checksums=False, partial=True)
    if box.codec != "CHUNKED":
        raise ContainerError(
            f"stream was produced by {box.codec!r}; only CHUNKED streams carry parity"
        )
    for key in _CHUNKED_META + _PARITY_META:
        if key in box and not box.check_section(key):
            raise ChecksumError(f"CHUNKED metadata section {key!r} is corrupt")
    if "parity_k" not in box:
        raise ContainerError("stream carries no parity sections (not a v3 record)")
    from repro.core.chunked import ChunkedCompressor

    shape = box.get_shape("shape")
    offs, lens, elems = ChunkedCompressor._read_chunk_table(box, shape)
    n = int(box.get_u64("n_chunks"))
    k = int(box.get_u64("parity_k"))
    m = int(box.get_u64("group_size"))
    if k < 1 or m < 1 or m + k > MAX_GROUP_BLOCKS:
        raise ContainerError(f"impossible parity geometry: k={k} per group of {m}")
    plens = box.get_array("parity_lens").astype(np.int64)
    n_groups = math.ceil(n / m) if n else 0
    if plens.size != n_groups or (plens < 0).any():
        raise ContainerError(
            f"parity_lens holds {plens.size} group(s), chunk table implies {n_groups}"
        )
    payload = box.get("payload") if "payload" in box else b""
    pbytes = box.get("parity") if "parity" in box else b""

    # Classify every chunk by its own bytes: present + checksum-clean, or
    # damaged (corrupt or truncated).  ``raw`` keeps the damaged bytes,
    # zero-padded to table length, for chunks nothing can rebuild.
    chunks: list[bytes | None] = []
    raw: list[bytes] = []
    damage: dict[int, str] = {}
    for i, (o, ln) in enumerate(zip(offs.tolist(), lens.tolist())):
        piece = bytes(payload[o : o + ln])
        raw.append(piece.ljust(ln, b"\0"))
        if len(piece) < ln:
            damage[i] = "chunk bytes missing (truncated payload)"
            chunks.append(None)
        elif _chunk_intact(piece):
            chunks.append(piece)
        else:
            damage[i] = "chunk stream failed verification"
            chunks.append(None)

    # Slice the parity payload into per-group blocks; anything not fully
    # present counts as one more erasure.
    group_parity: list[list[bytes | None]] = []
    base = 0
    for g in range(n_groups):
        size = int(plens[g])
        blocks: list[bytes | None] = []
        for _ in range(k):
            blocks.append(bytes(pbytes[base : base + size]) if base + size <= len(pbytes) else None)
            base += size
        group_parity.append(blocks)

    repairs: list[ChunkRepair] = []
    for g in range(n_groups):
        idx = list(range(g * m, min((g + 1) * m, n)))
        missing = [i for i in idx if chunks[i] is None]
        if not missing:
            continue
        rebuilt = _rebuild_group(
            [chunks[i] for i in idx],
            group_parity[g],
            [int(lens[i]) for i in idx],
        )
        for i in missing:
            if rebuilt is not None:
                chunks[i] = rebuilt[i - g * m]
                repairs.append(ChunkRepair(i, "repaired", damage[i]))
                emit_event("chunk-repair", index=i, group=g, error=damage[i])
            else:
                repairs.append(ChunkRepair(i, "lost", damage[i]))

    report = RepairReport(
        nbytes=len(blob),
        n_chunks=n,
        parity_k=k,
        group_size=m,
        chunks=tuple(repairs),
    )

    # Reassemble in the canonical v3 section order, copying metadata
    # section bytes verbatim.  With every chunk recovered the parity is
    # re-encoded (deterministic, so it equals -- and if damaged, heals --
    # the original); with losses the original parity bytes are kept so a
    # later, better-informed repair loses nothing.
    final = [c if c is not None else raw[i] for i, c in enumerate(chunks)]
    keys = [key for key in box.keys() if key not in ("parity", "payload")]
    out = Container(box.codec)
    for key in keys:
        out.put(key, box.get(key))
    if report.ok and n:
        parity_out = b"".join(
            b"".join(encode_parity(final[g * m : (g + 1) * m], k))
            for g in range(n_groups)
        )
    else:
        parity_out = bytes(pbytes).ljust(int(k * plens.sum()), b"\0")
    out.put("parity", parity_out)
    out.put("payload", b"".join(final))

    reg = metrics()
    reg.counter("parity.decode_s").inc(time.perf_counter() - t0)
    reg.counter("repair.streams").inc()
    reg.counter("repair.chunks_repaired").inc(report.n_repaired)
    reg.counter("repair.chunks_lost").inc(report.n_lost)
    emit_event(
        "repair-stream",
        nbytes=len(blob),
        n_chunks=n,
        n_damaged=report.n_damaged,
        n_repaired=report.n_repaired,
        n_lost=report.n_lost,
        ok=report.ok,
    )
    return out.to_bytes(version=3), report
