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

import time
from dataclasses import dataclass, field
from itertools import combinations

from repro.encoding.container import Container, ContainerError
from repro.encoding.rs import (
    InsufficientParityError,
    decode_blocks,
    encode_parity,
)
from repro.observe.events import emit as emit_event
from repro.observe.metrics import metrics
from repro.observe.tracer import span
from repro.stream import _parse, parse_stream

__all__ = [
    "ChunkRepair",
    "RepairReport",
    "VerifyReport",
    "repair_stream",
    "verify_stream",
]

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


def verify_stream(blob: bytes) -> VerifyReport:
    """Verify structure and checksums of ``blob`` without decompressing.

    Renders the :func:`repro.stream.parse_stream` model: container framing
    parses; the v2 whole-stream CRC matches; every per-section CRC
    matches; for ``CHUNKED`` streams the chunk table and parity geometry
    are self-consistent and every per-chunk sub-stream verifies in turn;
    for ``ARCHIVE`` streams every field's sub-stream verifies.
    """
    model = parse_stream(blob)
    if model.error is not None:
        return VerifyReport(nbytes=model.nbytes, problems=model.problems)
    notes = []
    if not model.checksummed:
        notes.append("v1 stream: carries no checksums, integrity not verifiable")
    if model.degraded:
        notes.append(
            f"{model.degraded} of {sum(model.codec_mix.values())} chunk(s) were "
            f"compressed by a fallback rung of the codec ladder "
            f"(primary {model.primary}); "
            f"bytes are intact, but see 'repro-compress explain'"
        )
    if model.parity is not None:
        notes.append(
            f"carries Reed-Solomon parity: k={model.parity.k} "
            f"per group of {model.parity.group_size}"
        )
    return VerifyReport(
        model.nbytes, model.codec, model.version, model.checksummed,
        len(model.sections), model.n_chunks, model.problems, tuple(notes),
    )


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
        if all(_parse(b).intact for b in out.values()):
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
    model = parse_stream(blob)
    if model.codec is not None and model.codec != "CHUNKED":
        raise ContainerError(
            f"stream was produced by {model.codec!r}; only CHUNKED streams carry parity"
        )
    error = model.geometry_error(parity=True)
    if error is not None:
        raise error
    box, n = model.box, len(model.chunks)
    k, m, plens = model.parity.k, model.parity.group_size, model.parity.lens
    n_groups = len(plens)
    payload = box.get("payload") if "payload" in box else b""
    pbytes = box.get("parity") if "parity" in box else b""

    # Classify every chunk by its own bytes: present + checksum-clean, or
    # damaged (corrupt or truncated).  ``raw`` keeps the damaged bytes,
    # zero-padded to table length, for chunks nothing can rebuild.
    raw = [payload[r.offset : r.offset + r.length].ljust(r.length, b"\0") for r in model.chunks]
    damage: dict[int, str] = {}
    for rec in model.chunks:
        if rec.stream is None:
            damage[rec.index] = "chunk bytes missing (truncated payload)"
        elif not rec.stream.intact:
            damage[rec.index] = "chunk stream failed verification"
    chunks = [None if r.index in damage else r.stream.blob for r in model.chunks]

    # Slice the parity payload into per-group blocks; anything not fully
    # present counts as one more erasure.
    group_parity: list[list[bytes | None]] = []
    base = 0
    for size in plens:
        ends = [base + (j + 1) * size for j in range(k)]
        group_parity.append([pbytes[e - size : e] if e <= len(pbytes) else None for e in ends])
        base += k * size

    repairs: list[ChunkRepair] = []
    for g in range(n_groups):
        idx = list(range(g * m, min((g + 1) * m, n)))
        missing = [i for i in idx if chunks[i] is None]
        if not missing:
            continue
        rebuilt = _rebuild_group(
            [chunks[i] for i in idx],
            group_parity[g],
            [model.chunks[i].length for i in idx],
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
        parity_out = pbytes.ljust(k * sum(plens), b"\0")
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
