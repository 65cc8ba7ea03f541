"""Closed-loop driver, output checks and latency statistics.

One caller runs every op and waits for its result before issuing the next
(a closed loop with a single client).  Every op is checked after its timer
stops; a failed op stays in the latency samples and counts against the
ops attempted.
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: Prefix of every failure reason that means "the stream breaks the bound";
#: such a failure is charged to the compress op that produced the stream too.
BOUND_FAILURE = "bound:"

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def bound_violation(original: np.ndarray, recon, br: float) -> str | None:
    """Why ``recon`` fails the point-wise relative bound ``br``, or None.

    Compared in float64: shape and dtype must match, every finite point must
    satisfy ``|x - x'| <= br * |x|``, exact zeros must decode to exact zeros
    and nonzero points must keep their sign.
    """
    x = np.asarray(original)
    y = np.asarray(recon)
    if y.shape != x.shape:
        return f"{BOUND_FAILURE} shape {y.shape} != {x.shape}"
    if y.dtype != x.dtype:
        return f"{BOUND_FAILURE} dtype {y.dtype} != {x.dtype}"
    x64 = x.astype(np.float64).ravel()
    y64 = y.astype(np.float64).ravel()
    finite = np.isfinite(x64)
    absx = np.abs(x64)
    with np.errstate(invalid="ignore"):
        ok = np.abs(x64 - y64) <= br * absx  # NaN/Inf reconstructions fail
    bad = np.flatnonzero(finite & ~ok)
    if bad.size:
        i = int(bad[0])
        return (
            f"{BOUND_FAILURE} {bad.size} finite points break |x-x'| <= {br:g}|x| "
            f"(first at {i}: {x64[i]!r} -> {y64[i]!r})"
        )
    zeros = x64 == 0
    if np.any(y64[zeros] != 0):
        return f"{BOUND_FAILURE} exact zeros did not decode to zero"
    nonzero = finite & ~zeros
    if np.any(np.signbit(x64[nonzero]) != np.signbit(y64[nonzero])):
        return f"{BOUND_FAILURE} signs were not kept"
    return None


@dataclass
class OpRecord:
    """One op as the client saw it.  ``seconds`` is None for an op that
    could not be issued because the op it depends on failed."""

    kind: str
    case: str
    seconds: float | None
    nbytes: int
    failure: str | None = None


@dataclass
class LoopResult:
    records: list[OpRecord] = field(default_factory=list)
    passes: int = 0
    #: First-pass stream of every case, by case label.
    streams: dict[str, bytes] = field(default_factory=dict)
    #: Input bytes of every case, by case label.
    inputs: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r.failure is not None for r in self.records)

    def failures(self, limit: int = 5) -> list[str]:
        out = [f"{r.case} {r.kind}: {r.failure}" for r in self.records if r.failure]
        return out[:limit]

    def samples(self, *kinds: str) -> list[float]:
        return [r.seconds for r in self.records if r.kind in kinds and r.seconds is not None]

    def ratio(self) -> float:
        """Input bytes over stream bytes, one stream per case."""
        return sum(self.inputs.values()) / sum(len(s) for s in self.streams.values())


def run_loop(cases, *, seconds: float | None = None, passes: int | None = None,
             on_op=None) -> LoopResult:
    """Run whole passes over ``cases`` until ``passes`` are done, or until
    another pass as long as the last one would end after ``seconds``.

    ``on_op(kind, case)``, when given, returns a context manager entered
    inside the timed region of every op (the traced passes use it to open
    the op's root span).
    """
    if seconds is None and passes is None:
        raise ValueError("run_loop needs seconds or passes")
    res = LoopResult()
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for case in cases:
            _run_case(case, res, on_op)
        res.passes += 1
        now = perf_counter()
        if passes is not None and res.passes >= passes:
            break
        if seconds is not None and (now - start) + (now - pass_start) > seconds:
            break
    return res


def _run_case(case, res: LoopResult, on_op) -> None:
    state: dict = {}
    records: dict[str, OpRecord] = {}
    res.inputs[case.label] = case.nbytes
    for kind in case.steps:
        if kind != "compress" and "blob" not in state:
            rec = OpRecord(kind, case.label, None, case.nbytes, "skipped: compress failed")
            res.records.append(rec)
            continue
        ctx = on_op(kind, case) if on_op is not None else nullcontext()
        failure = None
        t0 = perf_counter()
        try:
            with ctx:
                out = case.run(kind, state)
        except Exception as exc:  # noqa: BLE001 - every op failure is counted, never fatal
            out, failure = None, f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if failure is None:
            try:
                failure = case.check(kind, out, state)
            except Exception as exc:  # noqa: BLE001
                failure = f"check raised {type(exc).__name__}: {exc}"
        if kind == "compress" and failure is None:
            first = res.streams.setdefault(case.label, state["blob"])
            if state["blob"] != first:
                failure = "stream differs from the first pass"
        if kind == "compress" and failure is not None:
            state.pop("blob", None)
        if failure is not None and failure.startswith(BOUND_FAILURE) and "compress" in records:
            records["compress"].failure = records["compress"].failure or failure
        rec = OpRecord(kind, case.label, dt, case.nbytes, failure)
        records[kind] = rec
        res.records.append(rec)


def median_ms(samples: list[float]) -> float:
    return 1e3 * statistics.median(samples) if samples else math.nan


def p50_ms(res: LoopResult, *kinds: str) -> float:
    """Median latency of one op, every (case, kind) weighing the same:
    the median over (case, kind) of that pair's median latency.

    The cases' latencies form well-separated clusters, so the plain median
    of all samples sits on the edge sample of one cluster and jumps with
    it; the median of cluster medians stays put.
    """
    groups: dict[tuple[str, str], list[float]] = {}
    for r in res.records:
        if r.kind in kinds and r.seconds is not None:
            groups.setdefault((r.case, r.kind), []).append(r.seconds)
    return median_ms([statistics.median(g) for g in groups.values()])


def tail_ms(samples: list[float]) -> tuple[float, float, int]:
    """``(value_ms, percentile, n)``: the highest percentile of ``samples``
    with at least :data:`TAIL_BEYOND` samples beyond it.

    Below ``TAIL_BEYOND + 1`` samples no percentile qualifies; the median
    is reported instead, with percentile 50, so the figure stays defined.
    """
    n = len(samples)
    if n == 0:
        return math.nan, math.nan, 0
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return median_ms(samples), 50.0, n
    k = n - TAIL_BEYOND - 1
    return 1e3 * ordered[k], 100.0 * (k + 1) / n, n


def throughput_mbps(res: LoopResult, kind: str) -> float:
    """Bytes of the original arrays over summed op wall time, in MB/s."""
    recs = [r for r in res.records if r.kind == kind and r.seconds is not None]
    secs = sum(r.seconds for r in recs)
    return sum(r.nbytes for r in recs) / secs / 1e6 if secs else math.nan
