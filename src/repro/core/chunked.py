"""Chunked parallel compression pipeline.

:class:`ChunkedCompressor` splits an array into ~1-16 MB blocks and runs
any inner compressor (notably :class:`TransformedCompressor`) on each
block concurrently, the same block decomposition FRaZ uses to parallelize
its search loop and SZx uses for its ultra-fast block-wise kernels.  The
per-chunk streams are framed in a "v2" container record (codec
``CHUNKED``, see ``docs/formats.md``) whose payload is the concatenation
of complete, self-describing single-chunk containers -- each chunk carries
its own sign bitmap and patch channel, and for transformed inner codecs
the Lemma-2 ``b_a'`` is computed from the chunk's own ``max |log x|``,
which tightens the bound locally and removes the global two-pass over the
data.

Splitting policy: multi-dimensional arrays are cut into slabs of whole
rows along axis 0 (preserving the dimensionality the inner predictors
exploit); 1-D arrays -- and arrays whose single row already exceeds the
chunk budget -- are cut as flat element ranges.  Either way every chunk is
a C-contiguous span of the flattened array, so reassembly is always
"concatenate raveled chunks, reshape".

Executors: ``process`` (default when more than one worker is available;
compression is CPU-bound Python so separate interpreters are required for
real speedup), ``thread`` (used e.g. inside the SPMD ranks of
:mod:`repro.parallel.runner`, where forking from worker threads is
unsafe), or ``serial``.  The compressed bytes are identical whichever
executor produced them.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterator
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import Compressor, ErrorBound, RelativeBound
from repro.encoding.container import (
    Container,
    ContainerError,
    StreamError,
    peek_codec,
)
from repro.encoding.rs import MAX_GROUP_BLOCKS, encode_parity
from repro.observe.events import emit as emit_event
from repro.resilience.policy import (
    ChunkIncident,
    CircuitOpenError,
    JobDeadlineError,
    ResiliencePolicy,
    ResilienceReport,
    parse_policy,
)
from repro.observe.metrics import metrics
from repro.observe.propagate import absorb, run_traced
from repro.observe.tracer import current_span, span
from repro.stream import ChunkRecord, parse_stream, read_chunk_table
from repro.utils.blocking import chunk_spans

__all__ = [
    "ChunkFailure",
    "ChunkTimeoutError",
    "ChunkedCompressor",
    "DEFAULT_GROUP_SIZE",
    "RecoveryReport",
    "chunk_patch_total",
    "iter_chunk_blobs",
    "recover_array",
]

#: Default chunk budget: 4 MB sits in the paper-motivated 1-16 MB window.
DEFAULT_CHUNK_BYTES = 4 * 2**20

#: Default parity-group width: 8 data chunks per group, so ``parity=2``
#: costs ~25% of the *compressed* bytes (a few percent of the raw data)
#: and survives any two lost chunks per group.
DEFAULT_GROUP_SIZE = 8

_EXECUTORS = ("auto", "serial", "thread", "process")

#: Named fill policies for unrecoverable chunk spans (a float is also
#: accepted anywhere a fill is).
_FILL_MODES = ("nan", "zero", "nearest")


class ChunkTimeoutError(TimeoutError):
    """A chunk worker exceeded its deadline on every allowed attempt.

    Deliberately *not* a :class:`StreamError`: the bytes are fine, the
    execution environment is not, so recovery paths must not treat it as
    stream damage.
    """


def _fill_scalar(fill: float | str) -> float:
    """The scalar planted in lost spans (``nearest`` resolves later)."""
    if isinstance(fill, str):
        if fill not in _FILL_MODES:
            raise ValueError(f"fill must be a float or one of {_FILL_MODES}, got {fill!r}")
        return 0.0 if fill == "zero" else float("nan")
    return float(fill)


def _apply_nearest_fill(out: np.ndarray, lost_spans: list[tuple[int, int]]) -> None:
    """Overwrite lost flat spans with the nearest surviving element.

    Ties round down; an array with no survivors keeps NaN so the loss
    stays visible.
    """
    if not lost_spans:
        return
    bad = np.zeros(out.size, dtype=bool)
    for start, stop in lost_spans:
        bad[start:stop] = True
    good_idx = np.flatnonzero(~bad)
    bad_idx = np.flatnonzero(bad)
    if good_idx.size == 0:
        out[bad_idx] = np.nan
        return
    pos = np.searchsorted(good_idx, bad_idx)
    left = np.clip(pos - 1, 0, good_idx.size - 1)
    right = np.clip(pos, 0, good_idx.size - 1)
    use_right = (good_idx[right] - bad_idx) < (bad_idx - good_idx[left])
    nearest = np.where(use_right, good_idx[right], good_idx[left])
    out[bad_idx] = out[nearest]


def _available_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _compress_chunk(inner: Compressor, chunk: np.ndarray, bound: ErrorBound) -> bytes:
    """Module-level so process-pool workers can unpickle the task."""
    return inner.compress(chunk, bound)


def _decompress_chunk(blob: bytes) -> np.ndarray:
    from repro import decompress

    return decompress(blob)


@dataclass(frozen=True)
class ChunkFailure:
    """One damaged chunk (or whole stream) skipped during recovery.

    ``index`` is the chunk position, or None when the whole stream was
    unusable; ``span`` is the half-open flat-element range that could not
    be reconstructed (None when even the geometry was unreadable).
    """

    index: int | None
    span: tuple[int, int] | None
    error: str


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a damage-tolerant decompression.

    ``total_elements`` counts the array's elements; every element inside a
    failure span holds a fill value (``fill_mode``) instead of real data.
    ``repaired_chunks`` lists chunks that *were* damaged but were rebuilt
    byte-exactly from parity -- their spans hold true data and do not
    appear in ``failures``.  An empty ``failures`` tuple means every
    element is genuine.
    """

    n_chunks: int
    total_elements: int
    failures: tuple[ChunkFailure, ...] = ()
    #: How unrecoverable spans were filled: "nan", "zero", "nearest", or
    #: the string form of a caller-supplied float.
    fill_mode: str = "nan"
    #: Chunks reconstructed from Reed-Solomon parity (true data).
    repaired_chunks: tuple[int, ...] = field(default=())

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def n_lost_chunks(self) -> int:
        return len(self.failures)

    @property
    def n_repaired_chunks(self) -> int:
        return len(self.repaired_chunks)

    @property
    def lost_elements(self) -> int:
        if any(f.span is None for f in self.failures):
            return self.total_elements
        return sum(stop - start for f in self.failures for start, stop in [f.span])

    @property
    def filled_elements(self) -> int:
        """Elements holding fill/interpolated values rather than data."""
        return self.lost_elements

    @property
    def recovered_elements(self) -> int:
        return self.total_elements - self.lost_elements

    def summary(self) -> str:
        repaired = (
            f" ({self.n_repaired_chunks} chunk(s) rebuilt from parity)"
            if self.repaired_chunks
            else ""
        )
        if self.complete:
            return f"all {self.n_chunks} chunks intact{repaired}"
        return (
            f"lost {self.n_lost_chunks}/{self.n_chunks} chunks "
            f"({self.lost_elements}/{self.total_elements} elements, "
            f"filled with {self.fill_mode}){repaired}: "
            + "; ".join(
                f"chunk {f.index if f.index is not None else '?'}: {f.error}"
                for f in self.failures
            )
        )


class ChunkedCompressor(Compressor):
    """Block-decomposed wrapper running ``inner`` on ~``chunk_bytes`` spans.

    Parameters
    ----------
    inner:
        Inner compressor instance, or a registry name resolved lazily
        ("SZ_T" by default).  Decompression never needs it: every chunk
        stream self-identifies.
    chunk_bytes:
        Uncompressed byte budget per chunk (default 4 MB).  Spans are
        balanced, so actual chunks are near-equal and never exceed this
        (except single items larger than the budget).
    workers:
        Concurrent chunk jobs; defaults to the CPUs available to this
        process.
    executor:
        ``"auto"`` (process pool when ``workers > 1``), ``"serial"``,
        ``"thread"`` or ``"process"``.  A callable ``f(nworkers) ->
        Executor`` is also accepted -- the hook fault-injection tests use
        to wrap a pool with crash injectors.
    parity:
        Reed-Solomon parity blocks per group of ``group_size`` chunks
        (0 = off).  With ``parity=k`` any ``k`` damaged or truncated
        chunk streams per group are rebuilt byte-exactly at recovery
        time; the stream is written as a v3 container record (see
        ``docs/formats.md`` and ``docs/recovery.md``).
    group_size:
        Data chunks per parity group (default 8; ``group_size + parity``
        is capped at 255 by GF(256)).
    timeout:
        Per-chunk watchdog deadline in seconds (None = no watchdog).  A
        chunk whose worker has not delivered within ``timeout`` of being
        submitted is cancelled and retried on a fresh worker -- up to
        ``timeout_retries`` times with exponential backoff starting at
        ``timeout_backoff_s`` -- before :class:`ChunkTimeoutError` is
        raised.  With a timeout set, even ``serial`` runs go through a
        single-slot pool so the deadline is enforceable.
    policy:
        A :class:`repro.resilience.ResiliencePolicy` (or its spec string,
        e.g. ``"retries=3;chunk-timeout=2;breaker=0.5/8;ladder=GZIP"``)
        that supersedes the individual retry/backoff/timeout knobs above,
        adds a whole-job deadline and memory-budgeted worker cap, arms a
        failure-rate circuit breaker, and may wrap ``inner`` in a
        :class:`~repro.resilience.DegradationLadder` of fallback codecs.
        See ``docs/resilience.md``.

    A worker failure that is not a :class:`StreamError` (a crashed
    process pool, a transient executor fault) does not fail the array:
    the affected chunks are re-run serially in the parent process, and
    :attr:`last_retried_chunks` reports how many needed that.  The bytes
    produced are identical either way.
    """

    name = "CHUNKED"

    def __init__(
        self,
        inner: Compressor | str = "SZ_T",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        workers: int | None = None,
        executor: str = "auto",
        parity: int = 0,
        group_size: int = DEFAULT_GROUP_SIZE,
        timeout: float | None = None,
        timeout_retries: int = 2,
        timeout_backoff_s: float = 0.05,
        policy: "ResiliencePolicy | str | None" = None,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if not callable(executor) and executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if parity < 0:
            raise ValueError(f"parity must be non-negative, got {parity}")
        if group_size < 1:
            raise ValueError(f"group_size must be positive, got {group_size}")
        if parity and group_size + parity > MAX_GROUP_BLOCKS:
            raise ValueError(
                f"group_size + parity must not exceed {MAX_GROUP_BLOCKS} "
                f"(GF(256)), got {group_size} + {parity}"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if timeout_retries < 0:
            raise ValueError(f"timeout_retries must be >= 0, got {timeout_retries}")
        if timeout_backoff_s < 0:
            raise ValueError(f"timeout_backoff_s must be >= 0, got {timeout_backoff_s}")
        self._inner = inner
        self.chunk_bytes = int(chunk_bytes)
        self.workers = int(workers) if workers is not None else _available_workers()
        self.executor = executor
        self.parity = int(parity)
        self.group_size = int(group_size)
        self.timeout = float(timeout) if timeout is not None else None
        self.timeout_retries = int(timeout_retries)
        self.timeout_backoff_s = float(timeout_backoff_s)
        self.policy = parse_policy(policy) if isinstance(policy, str) else policy
        if self.policy is not None:
            # A policy is the single source of truth for the knobs it
            # covers: its retry/backoff/deadline fields supersede the
            # legacy per-knob arguments, its memory budget caps workers,
            # and its ladder wraps the inner codec in fallback rungs.
            pol = self.policy
            if pol.chunk_timeout_s is not None:
                self.timeout = pol.chunk_timeout_s
            self.timeout_retries = pol.retries
            self.timeout_backoff_s = pol.backoff_s
            self.workers = pol.max_workers(self.workers, self.chunk_bytes)
            if pol.ladder:
                from repro.resilience.ladder import DegradationLadder

                if not isinstance(self._inner, DegradationLadder):
                    self._inner = DegradationLadder.with_fallbacks(
                        self._inner, pol.ladder
                    )
        self._job_started: float | None = None
        self._incidents: list[ChunkIncident] = []
        #: Resilience outcome of the most recent compress() call (None
        #: until one has run).
        self.last_resilience: ResilienceReport | None = None
        #: Chunk count of the most recent compress() call.
        self.last_chunk_count = 0
        #: Chunks the most recent _map had to re-run serially after a
        #: worker/executor failure.
        self.last_retried_chunks = 0
        #: Chunks whose worker hit the watchdog deadline in the most
        #: recent _map (each was cancelled and retried on a fresh worker).
        self.last_timed_out_chunks = 0
        #: Aggregated bound audit of the most recent compress() call,
        #: rebuilt from the ``audit.*`` registry delta the chunk workers'
        #: verify passes moved (and telemetry propagation merged back),
        #: so it covers process-pool runs too.  None until a compress
        #: with a verifying inner codec has run.
        self.last_audit = None

    # -- configuration -------------------------------------------------------

    @property
    def inner(self) -> Compressor:
        """The inner compressor, resolving a registry name on first use."""
        if isinstance(self._inner, str):
            from repro.compressors.base import get_compressor

            self._inner = get_compressor(self._inner)
        return self._inner

    @property
    def supported_bounds(self) -> tuple[type, ...]:  # type: ignore[override]
        return self.inner.supported_bounds

    def _make_pool(self, njobs: int) -> Executor | None:
        """An executor for ``njobs`` chunk tasks, or None to run serially."""
        nworkers = min(self.workers, njobs)
        if callable(self.executor):
            return self.executor(nworkers)
        mode = self.executor
        if mode == "auto":
            mode = "process" if nworkers > 1 else "serial"
        if mode == "serial" or nworkers < 2:
            if self.timeout is not None:
                # A deadline is only enforceable on work we can abandon:
                # run nominally-serial jobs through one pool thread.
                return ThreadPoolExecutor(max_workers=1)
            return None
        if mode == "thread":
            return ThreadPoolExecutor(max_workers=nworkers)
        return ProcessPoolExecutor(max_workers=nworkers)

    def _fresh_worker(self) -> Executor:
        """A disposable single-slot pool for retrying a timed-out chunk.

        Process mode gets a brand-new process (the hung one may be
        wedged beyond recovery); every other mode -- thread, serial-with-
        timeout, injected test executors -- gets a fresh thread, which
        insulates the retry from whatever stalled the original pool.
        """
        if not callable(self.executor) and (
            self.executor == "process"
            or (self.executor == "auto" and min(self.workers, 2) > 1)
        ):
            return ProcessPoolExecutor(max_workers=1)
        return ThreadPoolExecutor(max_workers=1)

    @staticmethod
    def _shutdown_pool(pool: Executor, abandon: bool) -> None:
        """Release a pool; ``abandon`` skips the join and kills stragglers.

        Joining a pool that still owns a hung worker would hang this
        thread too, so the watchdog path cancels what it can, refuses to
        wait, and terminates any worker *processes* outright (threads
        cannot be killed, only orphaned).
        """
        if not abandon:
            pool.shutdown(wait=True)
            return
        pool.shutdown(wait=False, cancel_futures=True)
        procs = getattr(pool, "_processes", None)
        if procs:
            for proc in list(procs.values()):
                proc.terminate()

    def _job_deadline_at(self) -> float | None:
        """Absolute perf-counter time the whole job must finish by."""
        if (
            self.policy is None
            or self.policy.job_timeout_s is None
            or self._job_started is None
        ):
            return None
        return self._job_started + self.policy.job_timeout_s

    def _check_job_deadline(self) -> None:
        deadline = self._job_deadline_at()
        if deadline is not None and time.perf_counter() > deadline:
            metrics().counter("resilience.job_deadline").inc()
            emit_event("job-deadline", codec=self.name,
                       job_timeout_s=self.policy.job_timeout_s)
            raise JobDeadlineError(
                f"job exceeded its {self.policy.job_timeout_s}s deadline"
            )

    def _wait(self, fut: Future, submitted_at: float):
        """``fut.result()`` honouring the chunk watchdog and job deadline."""
        deadlines = []
        if self.timeout is not None:
            deadlines.append(submitted_at + self.timeout)
        job_deadline = self._job_deadline_at()
        if job_deadline is not None:
            deadlines.append(job_deadline)
        if not deadlines:
            return fut.result()
        try:
            return fut.result(timeout=max(min(deadlines) - time.perf_counter(), 0.0))
        except FuturesTimeoutError:
            # Distinguish "this chunk's worker hung" (retryable) from
            # "the whole job is out of budget" (fatal).
            self._check_job_deadline()
            raise

    def _retry_timed_out(self, fn, job, index: int, parent) -> object:
        """Bounded fresh-worker retry of a chunk whose worker hung.

        Each attempt gets its own single-slot pool and the full
        ``timeout`` budget, after an exponential-backoff pause; the hung
        attempt's pool is abandoned, never joined.  Exhausting
        ``timeout_retries`` raises :class:`ChunkTimeoutError`.
        """
        reg = metrics()
        delay = self.timeout_backoff_s
        for attempt in range(1, self.timeout_retries + 1):
            self._check_job_deadline()
            if self.policy is not None:
                pause = self.policy.backoff_for(attempt, index)
            else:
                pause = delay
            if pause:
                time.sleep(pause)
            delay *= 2
            emit_event(
                "chunk-retry", index=index, codec=self.name,
                reason="timeout", attempt=attempt,
            )
            worker = self._fresh_worker()
            t0 = time.perf_counter()
            fut = worker.submit(run_traced, fn, *job)
            try:
                result, telem = self._wait(fut, t0)
            except FuturesTimeoutError:
                fut.cancel()
                self._shutdown_pool(worker, abandon=True)
                reg.counter("chunks.timed_out").inc()
                emit_event(
                    "chunk-timeout", index=index, codec=self.name,
                    timeout_s=self.timeout, attempt=attempt,
                )
                continue
            except StreamError:
                self._shutdown_pool(worker, abandon=False)
                raise
            except Exception:
                # Fresh worker died for a non-timeout reason (e.g. a
                # crashed process): fall back to the in-process serial
                # retry used for ordinary worker loss.
                self._shutdown_pool(worker, abandon=True)
                with span("chunk", index=index, retried=True):
                    return fn(*job)
            self._shutdown_pool(worker, abandon=False)
            absorb(parent, telem, label="chunk", index=index, t_submit=t0)
            reg.histogram("chunk.exec_s").observe(telem.wall_s)
            return result
        raise ChunkTimeoutError(
            f"chunk {index} exceeded its {self.timeout}s deadline on "
            f"{self.timeout_retries + 1} worker(s) (initial + "
            f"{self.timeout_retries} retries)"
        )

    def _map(self, fn, jobs: list) -> list:
        """Run ``fn(*job)`` for every job, retrying worker failures serially.

        A :class:`StreamError` from a worker is deterministic (corrupt
        chunk bytes) and propagates immediately.  Anything else -- a
        ``BrokenProcessPool`` after a worker crash, a flaky executor, a
        pickling failure -- marks the affected jobs for a serial re-run in
        this process, so one lost worker never fails the whole array.

        Every pooled job runs under :func:`repro.observe.run_traced`: the
        worker ships its span trees and metrics delta back with the
        result, and this thread stitches them under the open dispatching
        span as ``chunk`` children carrying queue-wait and execute times.
        """
        self.last_retried_chunks = 0
        self.last_timed_out_chunks = 0
        self._incidents = []
        breaker = self.policy.breaker() if self.policy is not None else None
        reg = metrics()
        pool = self._make_pool(len(jobs))
        if pool is None:
            out = []
            for i, job in enumerate(jobs):
                self._check_job_deadline()
                with span("chunk", index=i):
                    out.append(fn(*job))
            return out
        parent = current_span()
        results: list = [None] * len(jobs)
        done = [False] * len(jobs)
        futures: dict[int, Future] = {}
        submitted: dict[int, float] = {}
        timed_out: list[int] = []
        hard_stop = False
        try:
            try:
                for i, job in enumerate(jobs):
                    submitted[i] = time.perf_counter()
                    futures[i] = pool.submit(run_traced, fn, *job)
            except Exception:
                pass  # pool died mid-submit; unsubmitted jobs retry below
            for i, fut in futures.items():
                try:
                    results[i], telem = self._wait(fut, submitted[i])
                    done[i] = True
                except FuturesTimeoutError:
                    # Hung worker: cancel the straggler and hand the chunk
                    # to the fresh-worker retry path below.
                    fut.cancel()
                    timed_out.append(i)
                    reg.counter("chunks.timed_out").inc()
                    emit_event(
                        "chunk-timeout", index=i, codec=self.name,
                        timeout_s=self.timeout, attempt=0,
                    )
                    continue
                except StreamError:
                    raise
                except JobDeadlineError:
                    # Out of whole-job budget: abandon stragglers, fail loud.
                    hard_stop = True
                    raise
                except Exception:
                    continue  # worker lost; retry serially below
                wait = absorb(parent, telem, label="chunk", index=i,
                              t_submit=submitted[i])
                reg.histogram("chunk.exec_s").observe(telem.wall_s)
                if wait is not None:
                    reg.histogram("chunk.queue_wait_s").observe(wait)
        finally:
            self._shutdown_pool(pool, abandon=bool(timed_out) or hard_stop)
        self.last_timed_out_chunks = len(timed_out)
        if timed_out:
            parent.set(timed_out=len(timed_out))
        pending = [
            i for i in range(len(jobs)) if not done[i] and i not in timed_out
        ]
        if breaker is not None:
            # First-attempt outcomes feed the breaker; a failure rate over
            # the threshold means the codec/executor is failing
            # systematically, so stop instead of grinding serial retries.
            for i in range(len(jobs)):
                if done[i]:
                    breaker.record(True)
            for i in timed_out + pending:
                breaker.record(False)
            if breaker.tripped:
                reg.counter("resilience.breaker_open").inc()
                emit_event("circuit-open", codec=self.name,
                           detail=breaker.describe())
                raise CircuitOpenError(breaker.describe())
        for i in timed_out:
            self._incidents.append(ChunkIncident(
                i, "timeout", f"worker hung past {self.timeout}s"
            ))
            self._check_job_deadline()
            results[i] = self._retry_timed_out(fn, jobs[i], i, parent)
            done[i] = True
        self.last_retried_chunks = len(pending)
        if pending:
            reg.counter("chunks.retried").inc(len(pending))
            parent.set(retried=len(pending))
        for i in pending:
            self._incidents.append(ChunkIncident(
                i, "retry", "worker lost; re-run in-process"
            ))
            self._check_job_deadline()
            emit_event("chunk-retry", index=i, codec=self.name)
            with span("chunk", index=i, retried=True):
                results[i] = fn(*jobs[i])
        return results

    def _build_audit(self, before: dict, bound: ErrorBound) -> None:
        """Rebuild the pool-wide audit aggregate from the registry delta.

        Worker processes' verify passes move the ``audit.*`` counters and
        histograms -- and a safeguarded inner codec moves ``safeguard.*`` per
        chunk; :func:`repro.observe.run_traced` ships the deltas back
        and :func:`absorb` merges them into this process's registry, so by
        the time ``_map`` returns the delta since ``before`` is the whole
        run's audit -- whichever executor ran the chunks.
        """
        from repro.observe.audit import AuditReport

        delta = {
            k: v
            for k, v in metrics().diff(before).items()
            if k.startswith(("audit.", "safeguard.", "quality."))
        }
        if delta:
            bound_value = (
                float(bound.value) if isinstance(bound, RelativeBound) else None
            )
            if bound_value is None:
                # A safeguarded inner codec guarantees its declared relative
                # bound regardless of the bound kind handed to it.
                bound_value = getattr(self.inner, "declared_rel_bound", None)
            self.last_audit = AuditReport.from_metrics(
                delta, codec=self.name, bound_value=bound_value
            )

    # -- chunk geometry ------------------------------------------------------

    def _split(self, data: np.ndarray) -> list[np.ndarray]:
        """Cut ``data`` into C-contiguous spans of <= ``chunk_bytes``."""
        if data.ndim > 1:
            row_bytes = int(np.prod(data.shape[1:])) * data.itemsize
            if row_bytes <= self.chunk_bytes:
                spans = chunk_spans(data.shape[0], row_bytes, self.chunk_bytes)
                return [data[start:stop] for start, stop in spans]
        flat = data.ravel()
        spans = chunk_spans(flat.size, data.itemsize, self.chunk_bytes)
        return [flat[start:stop] for start, stop in spans]

    # -- compression ---------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        inner = self.inner
        inner._check_bound(bound)
        self._job_started = time.perf_counter()
        data = np.asarray(data)
        if data.size == 0:
            if data.dtype not in (np.float32, np.float64):
                raise TypeError(f"expected float32/float64 data, got {data.dtype}")
            if data.ndim not in (1, 2, 3):
                raise ValueError(f"expected 1-D/2-D/3-D data, got ndim={data.ndim}")
            chunks, blobs = [], []
        else:
            data = self._check_input(
                data, allow_nonfinite=getattr(inner, "allows_nonfinite", False)
            )
            chunks = self._split(data)
            audit_before = metrics().snapshot()
            blobs = self._map(_compress_chunk, [(inner, c, bound) for c in chunks])
            self._build_audit(audit_before, bound)
        self._build_resilience(blobs)
        return self._assemble(data, chunks, blobs)

    def _build_resilience(self, blobs: list[bytes]) -> None:
        """Summarize what the resilience machinery did for this compress."""
        incidents = list(self._incidents)
        degraded = 0
        codecs = self._chunk_codecs(blobs)
        if codecs is not None:
            primary = self.inner.rung_names[0]
            for i, codec in enumerate(codecs):
                if codec != primary:
                    degraded += 1
                    incidents.append(
                        ChunkIncident(i, "fallback", f"{primary} -> {codec}")
                    )
        self.last_resilience = ResilienceReport(
            n_chunks=len(blobs),
            retried=self.last_retried_chunks,
            timed_out=self.last_timed_out_chunks,
            fallbacks=degraded,
            incidents=tuple(incidents),
        )

    def _chunk_codecs(self, blobs: list[bytes]) -> list[str] | None:
        """Per-chunk winning codec names when the inner is a ladder."""
        from repro.resilience.ladder import DegradationLadder

        if not isinstance(self.inner, DegradationLadder) or not blobs:
            return None
        return [peek_codec(b) for b in blobs]

    def _assemble(
        self, data: np.ndarray, chunks: list[np.ndarray], blobs: list[bytes]
    ) -> bytes:
        """Frame finished chunk streams into the CHUNKED container.

        Shared verbatim by :meth:`compress` and the journaled job runner
        (:mod:`repro.resilience.jobs`), so a resumed job's container is
        byte-identical to an uninterrupted run's.
        """
        self.last_chunk_count = len(blobs)
        metrics().counter("chunks.compressed").inc(len(blobs))
        current_span().set(chunks=len(blobs), workers=self.workers)

        box = self._new_container(self.name, data)
        box.put_str("inner_codec", self.inner.name)
        box.put_u64("n_chunks", len(blobs))
        lens = np.array([len(b) for b in blobs], dtype=np.uint64)
        offs = np.concatenate([[0], np.cumsum(lens)])[:-1].astype(np.uint64)
        box.put_array("offs", offs)
        box.put_array("lens", lens)
        box.put_array("elems", np.array([c.size for c in chunks], dtype=np.uint64))
        codecs = self._chunk_codecs(blobs)
        if codecs is not None:
            # Record the ladder and each chunk's winning rung in the
            # stream itself, so stats/explain/info can show which chunks
            # degraded long after the run (and any process can decode
            # them -- chunk streams self-identify regardless).
            box.put_str("ladder", self.inner.chain)
            box.put_str("chunk_codecs", ";".join(codecs))
        # Parity sections precede the payload on purpose: a tail
        # truncation then erases trailing *chunks* -- exactly the erasure
        # pattern the parity can repair -- instead of the parity itself.
        version = None
        if self.parity and blobs:
            with span("parity-encode", k=self.parity, m=self.group_size):
                self._put_parity_sections(box, blobs)
            version = 3
        box.put("payload", b"".join(blobs))
        return box.to_bytes(version=version)

    def _put_parity_sections(self, box: Container, blobs: list[bytes]) -> None:
        """Append the v3 parity sections for ``blobs`` (see docs/formats.md)."""
        t0 = time.perf_counter()
        m, k = self.group_size, self.parity
        parity_blocks: list[bytes] = []
        group_lens: list[int] = []
        for g in range(0, len(blobs), m):
            blocks = encode_parity(blobs[g : g + m], k)
            group_lens.append(len(blocks[0]) if blocks else 0)
            parity_blocks.extend(blocks)
        box.put_u64("parity_k", k)
        box.put_u64("group_size", m)
        box.put_array("parity_lens", np.array(group_lens, dtype=np.uint64))
        box.put("parity", b"".join(parity_blocks))
        reg = metrics()
        reg.counter("parity.encode_s").inc(time.perf_counter() - t0)
        reg.counter("parity.bytes").inc(sum(len(p) for p in parity_blocks))
        reg.counter("parity.groups").inc(len(group_lens))
        current_span().set(parity=k, groups=len(group_lens))

    # -- decompression -------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        self._job_started = time.perf_counter()
        if peek_codec(blob) != self.name:
            # v1 (monolithic) stream: dispatch to its own codec unchanged.
            return _decompress_chunk(blob)
        box, shape, dtype = self._open_container(blob, self.name)
        offs, lens, elems = read_chunk_table(box, shape)
        if not offs.size:
            return np.zeros(shape, dtype=dtype)
        payload = box.get("payload")
        if offs[-1] + lens[-1] != len(payload):
            raise ContainerError("corrupt CHUNKED stream: payload length mismatch")
        jobs = [(payload[o : o + ln],) for o, ln in zip(offs, lens)]
        parts = self._map(_decompress_chunk, jobs)
        metrics().counter("chunks.decompressed").inc(len(jobs))
        current_span().set(chunks=len(jobs), workers=self.workers)
        for part, want in zip(parts, elems):
            if part.size != want:
                raise ContainerError("corrupt CHUNKED stream: chunk element mismatch")
        flat = np.concatenate([p.ravel() for p in parts])
        return flat.astype(dtype, copy=False).reshape(shape)

    def decompress_partial(
        self, blob: bytes, fill: float | str = "nan", repair: bool = True
    ) -> tuple[np.ndarray, RecoveryReport]:
        """Decode every intact chunk of a damaged CHUNKED stream.

        When the stream carries Reed-Solomon parity (a v3 record) and
        ``repair`` is true, damaged chunks are first rebuilt byte-exactly
        via :func:`repro.integrity.repair_stream`; only chunks the parity
        could not cover are lost.  Lost chunks are replaced by ``fill``
        across their span -- a float, or ``"nan"``/``"zero"``/``"nearest"``
        (nearest surviving element) -- and reported in the returned
        :class:`RecoveryReport`.  Raises :class:`StreamError` only when
        the stream's *geometry* (shape, dtype, chunk table) is itself
        unreadable -- without it there is nothing to recover into.
        """
        fill_value = _fill_scalar(fill)
        fill_mode = fill if isinstance(fill, str) else repr(float(fill))
        model = parse_stream(blob)
        if model.codec is not None and model.codec != self.name:
            raise ContainerError(
                f"stream was produced by {model.codec!r}, expected {self.name!r}"
            )
        error = model.geometry_error()
        if error is not None:
            raise error
        shape, dtype = model.shape, model.dtype
        total = math.prod(shape)
        repaired: tuple[int, ...] = ()
        if repair and model.parity is not None:
            from repro.integrity import repair_stream

            try:
                fixed, rep = repair_stream(blob)
            except StreamError:
                pass  # parity metadata itself damaged: recover unrepaired
            else:
                if rep.repaired:
                    model = parse_stream(fixed)
                    repaired = rep.repaired
        elems = [rec.elems for rec in model.chunks]
        starts = np.concatenate([[0], np.cumsum(elems)])
        out = np.full(total, fill_value, dtype=dtype)
        failures: list[ChunkFailure] = []
        for i, rec in enumerate(model.chunks):
            chunk_span = (int(starts[i]), int(starts[i + 1]))
            try:
                if rec.stream is None:
                    raise ContainerError("chunk bytes missing (truncated payload)")
                part = _decompress_chunk(rec.stream.blob)
                if part.size != elems[i]:
                    raise ContainerError("chunk decoded to the wrong element count")
                out[chunk_span[0] : chunk_span[1]] = part.ravel().astype(dtype, copy=False)
            except StreamError as exc:
                failures.append(ChunkFailure(i, chunk_span, str(exc)))
        if fill == "nearest" and failures:
            _apply_nearest_fill(out, [f.span for f in failures])
        return out.reshape(shape), RecoveryReport(
            len(elems), total, tuple(failures), fill_mode=fill_mode, repaired_chunks=repaired
        )


# -- stream introspection ----------------------------------------------------


def _chunk_records(blob: bytes) -> tuple[ChunkRecord, ...]:
    """Chunk table of an intact CHUNKED blob, from its stream model."""
    model = parse_stream(blob)
    model.raise_defects()
    if model.codec != ChunkedCompressor.name:
        raise ValueError(f"stream was produced by {model.codec!r}, expected 'CHUNKED'")
    return model.chunks


def iter_chunk_blobs(blob: bytes) -> Iterator[bytes]:
    """Yield the complete per-chunk container streams of a CHUNKED blob."""
    for rec in _chunk_records(blob):
        yield rec.stream.blob if rec.stream is not None else b""


def chunk_patch_total(blob: bytes) -> int:
    """Sum of per-chunk patch-channel sizes (0 = Lemma 2 held everywhere)."""
    return sum(rec.stream.patched or 0 for rec in _chunk_records(blob) if rec.stream)


# -- damage-tolerant loading -------------------------------------------------


def recover_array(
    blob: bytes, fill: float | str = "nan"
) -> tuple[np.ndarray | None, RecoveryReport | None]:
    """Best-effort decode of any stream: ``(array, report)``.

    Clean streams return ``(array, None)``.  Damaged CHUNKED streams
    first rebuild what the stream's Reed-Solomon parity covers, then
    recover the remaining intact chunks via
    :meth:`ChunkedCompressor.decompress_partial`; unrecoverable spans are
    filled per ``fill`` -- a float, or ``"nan"``/``"zero"``/``"nearest"``.
    Damaged monolithic streams whose shape/dtype header is still readable
    return a fully filled array; when even the geometry is gone the
    array is None.  Never raises on corrupt bytes.
    """
    from repro import decompress

    fill_value = _fill_scalar(fill)
    fill_mode = fill if isinstance(fill, str) else repr(float(fill))
    try:
        return decompress(blob), None
    except StreamError as exc:
        cause = f"{type(exc).__name__}: {exc}"
    try:
        box = Container.from_bytes(blob, verify_checksums=False, partial=True)
        if box.codec == ChunkedCompressor.name:
            return ChunkedCompressor(executor="serial").decompress_partial(blob, fill)
        shape = box.get_shape("shape")
        dtype = box.get_dtype("dtype")
        report = RecoveryReport(
            1,
            math.prod(shape),
            (ChunkFailure(None, (0, math.prod(shape)), cause),),
            fill_mode=fill_mode,
        )
        # "nearest" has no survivors in a whole-stream loss; keep NaN so
        # the damage stays visible.
        return np.full(shape, fill_value, dtype=dtype), report
    except ValueError:  # StreamError, or np.full of a corrupt non-float dtype
        return None, RecoveryReport(
            0, 0, (ChunkFailure(None, None, cause),), fill_mode=fill_mode
        )
