"""Error-bound conformance auditing (Theorem 1 / Lemma 2 / Theorem 3).

The paper's contract is a *guarantee*: after the log transform, every
point satisfies ``|x - x_d| <= b_r * |x|`` (Theorem 1), using an absolute
bound shrunk by Lemma 2 to absorb mapping round-off, with quantization
indices that deviate across bases by no more than Theorem 3's ceiling.
This module continuously *watches* that guarantee:

* :class:`BoundAuditor` -- a streaming per-chunk auditor.  The verify
  step of :class:`~repro.core.pwr.TransformedCompressor` feeds it (when
  installed via :func:`install_auditor` / :func:`auditing`), and always
  feeds the cheap aggregate counters (``audit.points``,
  ``audit.violations``, ``audit.max_rel`` ...) in the global metrics
  registry -- which already travel across thread/process pools via
  :mod:`repro.observe.propagate`, so chunked parallel runs aggregate for
  free.
* :func:`audit_stream` -- offline audit of a serialized stream: per
  chunk, the max point-wise relative error and bounded fraction against
  the original (when given), the effective ``b_a'`` actually recorded in
  the stream vs Lemma 2's formula recomputed from the decoded data,
  sentinel/sign/patch statistics, and Theorem 3's cross-base
  quantization-index deviation on the original.  Surfaced as
  :class:`AuditReport` (also reachable as ``repro.report.audit_report``);
  the CLI's ``repro-compress audit`` prints it and exits non-zero on any
  violation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.observe.metrics import MetricsRegistry
from repro.observe.metrics import metrics as _metrics
from repro.observe.quality import (
    ErrorHistogram,
    quality_enabled,
    record_quality_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stream import StreamModel

__all__ = [
    "AuditReport",
    "BoundAuditor",
    "ChunkAudit",
    "Theorem3Check",
    "audit_stream",
    "auditing",
    "get_auditor",
    "install_auditor",
    "theorem3_check",
]


@dataclass(frozen=True)
class ChunkAudit:
    """Bound-conformance findings for one chunk (or one whole stream).

    Error fields are ``None`` when no original data was available (decode
    -side audits can only check the stream's internal invariants).
    ``violations`` counts points whose final reconstruction -- patch
    channel included -- exceeds the native bound.
    """

    index: int | None
    codec: str
    n: int
    bound_kind: str | None  # "rel" / "abs" / "prec" / "rate" / None
    bound_value: float | None
    max_rel: float | None
    max_abs: float | None
    bounded_fraction: float | None
    violations: int | None
    zeros: int  # exact zeros in the reconstruction (sentinel-coded)
    negatives: int  # sign-bitmap-restored negative values
    patched: int | None  # patch-channel entries (transformed streams)
    effective_ba: float | None  # the b_a' the stream actually recorded
    theorem2_ba: float | None  # unshrunk g(b_r) for the stream's base
    lemma2_ba: float | None  # Lemma 2's b_a' recomputed from decoded data
    lemma2_ok: bool | None  # effective_ba within Lemma 2's formula
    safeguards: tuple[str, ...] | None = None  # declared safeguard specs
    #: Per-spec recomputed violation counts (SAFE streams with original).
    safeguard_violations: dict[str, int] | None = None
    #: :class:`~repro.observe.quality.ErrorHistogram` snapshot of this
    #: chunk's point-wise errors (None when quality collection is off or
    #: no original was available).  Mergeable: the aggregate report folds
    #: the per-chunk digests into ``error_summary``.
    error_hist: dict | None = None

    @property
    def ok(self) -> bool:
        """No bound violation, no looser-than-Lemma-2 bound, safeguards hold."""
        if (self.violations or 0) != 0 or self.lemma2_ok is False:
            return False
        return not any((self.safeguard_violations or {}).values())


@dataclass(frozen=True)
class Theorem3Check:
    """Cross-base quantization-index deviation vs Theorem 3's ceiling."""

    ndim: int
    rel_bound: float
    bases: tuple[float, ...]
    max_deviation: float  # max |q_base - q_2| over all points and bases
    ceiling: float  # 1,3,7 * |log_{1+br}(1-br) - 1|  (+1 for rounding)

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.ceiling


@dataclass(frozen=True)
class AuditReport:
    """Aggregated bound-conformance audit over one stream or run."""

    codec: str
    bound_kind: str | None
    bound_value: float | None
    n_points: int
    n_chunks: int
    violations: int
    max_rel: float | None
    max_abs: float | None
    bounded_fraction: float | None
    zeros: int
    negatives: int
    patched: int
    chunks: tuple[ChunkAudit, ...] = ()
    theorem3: Theorem3Check | None = None
    notes: tuple[str, ...] = ()
    safeguards: tuple[str, ...] = ()
    #: Per-spec violation counts summed over chunks (empty when clean).
    safeguard_violations: dict[str, int] = field(default_factory=dict)
    #: Flat point-wise error-distribution summary (percentiles + signed
    #: bias) merged over every chunk's error digest; ``None`` when no
    #: digest was collected.  See ``repro.observe.quality``.
    error_summary: dict | None = None

    @property
    def ok(self) -> bool:
        if self.violations:
            return False
        if any(self.safeguard_violations.values()):
            return False
        if any(not c.ok for c in self.chunks):
            return False
        return self.theorem3 is None or self.theorem3.ok

    @property
    def violating_chunks(self) -> tuple[int, ...]:
        return tuple(
            c.index for c in self.chunks if not c.ok and c.index is not None
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        lines = [f"codec:          {self.codec}"]
        if self.bound_kind is not None:
            lines.append(
                f"bound:          {self.bound_kind} {self.bound_value:g}"
            )
        lines.append(
            f"audited:        {self.n_points} points in {self.n_chunks} chunk(s)"
        )
        if self.max_rel is not None:
            bounded = (
                f"   bounded: {100.0 * self.bounded_fraction:.4f}%"
                if self.bounded_fraction is not None
                else ""
            )
            lines.append(
                f"max rel error:  {self.max_rel:.3e}   max abs: "
                f"{self.max_abs:.3e}{bounded}"
            )
        if self.error_summary:
            q = self.error_summary
            lines.append(
                f"rel err p50/p90/p99: {q['rel_p50']:.3e} / {q['rel_p90']:.3e} "
                f"/ {q['rel_p99']:.3e}   signed bias: {q['rel_bias']:+.3e}"
            )
        lines.append(
            f"zeros/negatives/patched: {self.zeros}/{self.negatives}/{self.patched}"
        )
        if self.safeguards:
            counts = self.safeguard_violations
            status = (
                "all hold"
                if not any(counts.values())
                else ", ".join(f"{s}: {n}" for s, n in counts.items() if n)
            )
            lines.append(
                f"safeguards:     {'; '.join(self.safeguards)} ({status})"
            )
        bad = [c for c in self.chunks if not c.ok]
        for c in bad:
            where = "stream" if c.index is None else f"chunk {c.index}"
            why = []
            if c.violations:
                why.append(f"{c.violations} point(s) out of bound"
                           + (f" (max rel {c.max_rel:.3e})" if c.max_rel else ""))
            if c.lemma2_ok is False:
                why.append(
                    f"b_a'={c.effective_ba:.9g} looser than Lemma 2's "
                    f"{c.lemma2_ba:.9g}"
                )
            for spec, n_bad in (c.safeguard_violations or {}).items():
                if n_bad:
                    why.append(f"safeguard {spec} violated at {n_bad} point(s)")
            lines.append(f"VIOLATION:      {where}: {'; '.join(why)}")
        if self.theorem3 is not None:
            t = self.theorem3
            lines.append(
                f"theorem 3:      max index deviation {t.max_deviation:g} "
                f"<= ceiling {t.ceiling:g} ({t.ndim}-D): "
                + ("ok" if t.ok else "VIOLATED")
            )
        for note in self.notes:
            lines.append(f"note:           {note}")
        lines.append("verdict:        " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    @classmethod
    def from_chunks(
        cls,
        chunks: list[ChunkAudit],
        codec: str = "?",
        theorem3: Theorem3Check | None = None,
        notes: tuple[str, ...] = (),
    ) -> "AuditReport":
        rels = [c.max_rel for c in chunks if c.max_rel is not None]
        abss = [c.max_abs for c in chunks if c.max_abs is not None]
        n = sum(c.n for c in chunks)
        with_bf = [c for c in chunks if c.bounded_fraction is not None]
        bf = (
            sum(c.bounded_fraction * c.n for c in with_bf)
            / max(1, sum(c.n for c in with_bf))
            if with_bf
            else None
        )
        first = next((c for c in chunks if c.bound_kind is not None), None)
        safeguards: tuple[str, ...] = ()
        sg_viol: dict[str, int] = {}
        for c in chunks:
            if c.safeguards and not safeguards:
                safeguards = c.safeguards
            for spec, count in (c.safeguard_violations or {}).items():
                sg_viol[spec] = sg_viol.get(spec, 0) + count
        error_summary = None
        hists = [c.error_hist for c in chunks if c.error_hist]
        if hists:
            from repro.observe.quality import ErrorHistogram

            merged = ErrorHistogram.from_snapshot(hists[0])
            for snap in hists[1:]:
                merged.merge(snap)
            error_summary = merged.summary()
        return cls(
            codec=codec,
            bound_kind=first.bound_kind if first else None,
            bound_value=first.bound_value if first else None,
            n_points=n,
            n_chunks=len(chunks),
            violations=sum(c.violations or 0 for c in chunks),
            max_rel=max(rels) if rels else None,
            max_abs=max(abss) if abss else None,
            bounded_fraction=bf,
            zeros=sum(c.zeros for c in chunks),
            negatives=sum(c.negatives for c in chunks),
            patched=sum(c.patched or 0 for c in chunks),
            chunks=tuple(chunks),
            theorem3=theorem3,
            notes=notes,
            safeguards=safeguards,
            safeguard_violations=sg_viol,
            error_summary=error_summary,
        )

    @classmethod
    def from_metrics(
        cls, delta: dict[str, dict], codec: str = "?",
        bound_value: float | None = None,
    ) -> "AuditReport":
        """Aggregate-only report from a registry diff.

        This is how a parallel run's audit survives the pool boundary:
        workers move the ``audit.*`` counters/histograms, the existing
        telemetry propagation merges them, and the dispatching side
        rebuilds the aggregate (per-chunk detail stays worker-local).
        """

        def val(name: str) -> float:
            snap = delta.get(name)
            return float(snap.get("value", 0.0)) if snap else 0.0

        # A safeguarded wrapper moves safeguard.* counters; its inner codec
        # (when it audits itself, like SZ_T) moves audit.* for the same
        # points.  Prefer the inner audit's coverage, fall back to the
        # safeguard pass, and count patches from both layers.
        from repro.observe.quality import quality_summary_from_metrics

        h = delta.get("audit.max_rel") or {}
        hs = delta.get("safeguard.max_rel") or {}
        n_points = int(val("audit.points")) or int(val("safeguard.points"))
        violations = int(val("audit.violations"))
        maxima = [float(src["max"]) for src in (h, hs) if "max" in src]
        return cls(
            codec=codec,
            bound_kind="rel" if bound_value is not None else None,
            bound_value=bound_value,
            n_points=n_points,
            n_chunks=max(int(h.get("n", 0)), int(hs.get("n", 0))),
            violations=violations,
            max_rel=max(maxima) if maxima else None,
            max_abs=None,
            bounded_fraction=(
                1.0 - violations / n_points if n_points else None
            ),
            zeros=int(val("audit.zeros")),
            negatives=int(val("audit.negatives")),
            patched=int(val("audit.patched")) + int(val("safeguard.patched")),
            error_summary=quality_summary_from_metrics(delta),
        )


class BoundAuditor:
    """Streaming per-chunk bound auditor.

    ``observe_chunk`` computes one :class:`ChunkAudit` from an original /
    reconstruction pair and accumulates it; ``record`` accepts an audit
    computed elsewhere.  Every observation also moves the ``audit.*``
    metrics in ``registry`` (the process-global one by default), which is
    what makes parallel aggregation work: the registry already propagates
    across thread/process pools.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._chunks: list[ChunkAudit] = []
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else _metrics()

    def record(self, audit: ChunkAudit) -> ChunkAudit:
        with self._lock:
            self._chunks.append(audit)
        record_audit_metrics(audit, self.registry)
        return audit

    def observe_chunk(
        self,
        original: np.ndarray,
        recon: np.ndarray,
        rel_bound: float,
        index: int | None = None,
        codec: str = "?",
        effective_ba: float | None = None,
        theorem2_ba: float | None = None,
        lemma2_ba: float | None = None,
        patched: int | None = None,
    ) -> ChunkAudit:
        x = np.asarray(original, dtype=np.float64).ravel()
        xd = np.asarray(recon, dtype=np.float64).ravel()
        err = np.abs(xd - x)
        nz = x != 0
        rel = err[nz] / np.abs(x[nz])
        viol = int((rel > rel_bound).sum()) + int((err[~nz] > 0).sum())
        hist_snap = None
        if quality_enabled():
            hist = ErrorHistogram()
            hist.observe(x, xd)
            hist_snap = hist.snapshot()
        lemma2_ok = None
        if effective_ba is not None and lemma2_ba is not None:
            lemma2_ok = bool(effective_ba <= lemma2_ba * (1.0 + 1e-12) + 1e-300)
        audit = ChunkAudit(
            index=index,
            codec=codec,
            n=int(x.size),
            bound_kind="rel",
            bound_value=float(rel_bound),
            max_rel=float(rel.max(initial=0.0)),
            max_abs=float(err.max(initial=0.0)),
            bounded_fraction=1.0 - viol / x.size if x.size else 1.0,
            violations=viol,
            zeros=int((xd == 0).sum()),
            negatives=int((xd < 0).sum()),
            patched=patched,
            effective_ba=effective_ba,
            theorem2_ba=theorem2_ba,
            lemma2_ba=lemma2_ba,
            lemma2_ok=lemma2_ok,
            error_hist=hist_snap,
        )
        return self.record(audit)

    def chunks(self) -> list[ChunkAudit]:
        with self._lock:
            return list(self._chunks)

    def clear(self) -> None:
        with self._lock:
            self._chunks.clear()

    def report(self, codec: str = "?") -> AuditReport:
        return AuditReport.from_chunks(self.chunks(), codec=codec)


def record_audit_metrics(audit: ChunkAudit, registry: MetricsRegistry | None = None) -> None:
    """Move the aggregate ``audit.*`` metrics for one chunk audit.

    Called unconditionally from the encoder-side verify hook (cheap), so
    the aggregate survives pool boundaries even when no detailed
    :class:`BoundAuditor` is installed in the worker process.
    """
    reg = registry if registry is not None else _metrics()
    reg.counter("audit.points").inc(audit.n)
    reg.counter("audit.zeros").inc(audit.zeros)
    reg.counter("audit.negatives").inc(audit.negatives)
    if audit.violations is not None:
        reg.counter("audit.violations").inc(audit.violations)
    if audit.patched is not None:
        reg.counter("audit.patched").inc(audit.patched)
    if audit.max_rel is not None:
        reg.histogram("audit.max_rel").observe(audit.max_rel)
    if audit.error_hist:
        # The per-chunk quality digest rides the same registry road as the
        # audit counters, so it too survives thread/process pools.
        record_quality_snapshot(audit.error_hist, reg)


# -- global auditor hook ------------------------------------------------------

_AUDITOR: BoundAuditor | None = None


def install_auditor(auditor: BoundAuditor | None) -> BoundAuditor | None:
    """Install (or with ``None``, remove) the process-global auditor."""
    global _AUDITOR
    _AUDITOR = auditor
    return auditor


def get_auditor() -> BoundAuditor | None:
    return _AUDITOR


class auditing:
    """Context manager: install a fresh auditor, yield it, restore.

    >>> with auditing() as auditor:
    ...     compress(data, RelativeBound(1e-3))
    >>> auditor.report().ok
    """

    def __init__(self) -> None:
        self.auditor = BoundAuditor()
        self._prev: BoundAuditor | None = None

    def __enter__(self) -> BoundAuditor:
        self._prev = get_auditor()
        install_auditor(self.auditor)
        return self.auditor

    def __exit__(self, *exc) -> None:
        install_auditor(self._prev)


# -- Theorem 3 ----------------------------------------------------------------


def theorem3_check(
    data: np.ndarray,
    rel_bound: float,
    ndim: int | None = None,
    bases: tuple[float, ...] = (2.0, math.e, 10.0),
) -> Theorem3Check:
    """Cross-base quantization-index deviation vs Theorem 3's ceiling.

    Computes the SZ/Lorenzo quantization indices of the log-mapped data in
    every base and compares the worst cross-base disagreement against the
    theorem's ``1,3,7 * |log_{1+br}(1-br) - 1|`` ceiling (+1 for the
    rounding step).  Requires strictly positive data (the analysis is
    stated on magnitudes).
    """
    from repro.core.theory import quant_index_bound, quantization_indices

    data = np.asarray(data)
    ndim = data.ndim if ndim is None else int(ndim)
    ref = quantization_indices(data, rel_bound, bases[0], ndim)
    dev = 0.0
    for base in bases[1:]:
        q = quantization_indices(data, rel_bound, base, ndim)
        dev = max(dev, float(np.abs(q - ref).max(initial=0)))
    return Theorem3Check(
        ndim=ndim,
        rel_bound=float(rel_bound),
        bases=tuple(float(b) for b in bases),
        max_deviation=dev,
        ceiling=quant_index_bound(rel_bound, ndim) + 1.0,
    )


# -- offline stream audit -----------------------------------------------------


def lemma2_recomputed(
    recon: np.ndarray, rel_bound: float, base: float, dtype: np.dtype
) -> tuple[float, float]:
    """(theorem2_ba, lemma2_ba) recomputed from decoded data.

    Mirrors the encoder: ``max |log x|`` is floored at the zero-sentinel
    headroom term so streams of all-moderate values compare equal, then a
    small tolerance absorbs the original-vs-reconstruction drift (their
    ``max |log|`` can differ by up to the inner absolute bound).
    """
    from repro.core.error_bounds import abs_bound_for, machine_eps0
    from repro.core.transform import LogTransform

    tf = LogTransform(base)
    ba0 = abs_bound_for(rel_bound, base)
    eps0 = machine_eps0(dtype)
    mags = np.abs(np.asarray(recon, dtype=np.float64)).ravel()
    mags = mags[mags > 0]
    max_log = 0.0
    if mags.size:
        logs = np.log2(mags) / math.log2(base)
        max_log = float(np.abs(logs).max())
    max_log = max(max_log, abs(tf.floor_log(dtype)) + 4.0 * ba0 + 1.0)
    lemma2 = ba0 - max_log * eps0
    # Drift tolerance: reconstruction logs sit within ba0 of the originals.
    return ba0, lemma2 + eps0 * (ba0 + 1.0)


def _recheck_safeguards(
    specs: tuple[str, ...], original: np.ndarray, recon: np.ndarray
) -> dict[str, int]:
    """Recompute a SAFE stream's declared properties against the original.

    Bit-identical points are never violations (mirroring the encoder-side
    engine); unparseable specs -- e.g. kinds from a future version -- are
    reported with a count of -1 rather than crashing the audit, so the
    verdict stays conservative without hiding the unknown declaration.
    """
    from repro.safeguards.kinds import bit_view, parse_safeguard

    x = np.asarray(original).reshape(recon.shape).astype(recon.dtype, copy=False)
    x = np.ascontiguousarray(x)
    same = bit_view(x) == bit_view(np.ascontiguousarray(recon))
    counts: dict[str, int] = {}
    for spec in specs:
        try:
            sg = parse_safeguard(spec)
            mask = sg.violation_mask(x, recon) & ~same
            counts[spec] = int(np.count_nonzero(mask))
        except ValueError:
            counts[spec] = -1
    return counts


def _audit_one(
    model: "StreamModel", original: np.ndarray | None, index: int | None
) -> ChunkAudit:
    """Audit one self-contained (non-CHUNKED) stream."""
    from repro import decompress

    box = model.box
    recon = decompress(model.blob)
    kind, value = model.bound
    flat = recon.ravel()
    zeros = int((flat == 0).sum())
    negatives = int((flat < 0).sum())

    effective_ba = theorem2_ba = lemma2_ba = None
    lemma2_ok = None
    patched = model.patched
    if kind == "rel" and "ba" in box and "base" in box and value is not None:
        effective_ba = box.get_f64("ba")
        theorem2_ba, lemma2_ba = lemma2_recomputed(
            recon, value, box.get_f64("base"), recon.dtype
        )
        lemma2_ok = bool(effective_ba <= lemma2_ba)

    safeguards = model.safeguards if model.codec == "SAFE" else None
    safeguard_violations = None
    if safeguards is not None:
        if original is not None:
            safeguard_violations = _recheck_safeguards(
                safeguards, original, recon
            )

    max_rel = max_abs = bf = None
    violations = None
    hist_snap = None
    if original is not None:
        with np.errstate(invalid="ignore"):
            x = np.asarray(original, dtype=np.float64).ravel()
            if x.size != flat.size:
                raise ValueError(
                    f"original has {x.size} elements, stream reconstructs {flat.size}"
                )
            xd = flat.astype(np.float64)
            if quality_enabled():
                hist = ErrorHistogram()
                hist.observe(x, xd)
                hist_snap = hist.snapshot()
            err = np.abs(xd - x)
            nz = (x != 0) & np.isfinite(x)
            rel = err[nz] / np.abs(x[nz])
            max_rel = float(rel.max(initial=0.0))
            max_abs = float(err[~np.isnan(err)].max(initial=0.0))
            if kind == "rel":
                zero = np.isfinite(x) & (x == 0)
                violations = int((rel > value).sum()) + int((err[zero] > 0).sum())
            elif kind == "abs":
                violations = int((err > value).sum())
            if violations is not None:
                bf = 1.0 - violations / x.size if x.size else 1.0

    return ChunkAudit(
        index=index,
        codec=model.codec,
        n=int(flat.size),
        bound_kind=kind,
        bound_value=value,
        max_rel=max_rel,
        max_abs=max_abs,
        bounded_fraction=bf,
        violations=violations,
        zeros=zeros,
        negatives=negatives,
        patched=patched,
        effective_ba=effective_ba,
        theorem2_ba=theorem2_ba,
        lemma2_ba=lemma2_ba,
        lemma2_ok=lemma2_ok,
        safeguards=safeguards,
        safeguard_violations=safeguard_violations,
        error_hist=hist_snap,
    )


def audit_stream(
    blob: "bytes | StreamModel",
    original: np.ndarray | None = None,
    check_theorem3: bool = True,
) -> AuditReport:
    """Audit a serialized stream's bound conformance chunk by chunk.

    With ``original`` the audit is complete: point-wise errors, bounded
    fraction and violations per chunk.  Without it only the stream's
    internal invariants are checked (effective ``b_a'`` vs Lemma 2,
    sentinel/sign/patch statistics).  Theorem 3's cross-base index
    deviation runs when the original is strictly positive (the analysis
    is stated on positive data) and the stream carries a relative bound.
    ``blob`` may also be a :func:`repro.stream.parse_stream` model, so a
    view that already parsed the stream does not parse it again.
    """
    from repro.encoding.container import ContainerError
    from repro.stream import StreamModel, parse_stream

    model = blob if isinstance(blob, StreamModel) else parse_stream(blob)
    model.raise_defects()
    notes: list[str] = []
    if original is not None:
        original = np.asarray(original)

    chunks: list[ChunkAudit] = []
    if model.codec == "CHUNKED":
        starts = np.concatenate([[0], np.cumsum([rec.elems for rec in model.chunks])])
        flat = original.ravel() if original is not None else None
        if flat is not None and flat.size != int(starts[-1]):
            raise ValueError(
                f"original has {flat.size} elements, stream reconstructs "
                f"{int(starts[-1])}"
            )
        for i, rec in enumerate(model.chunks):
            if rec.stream is None:
                raise ContainerError(f"chunk {i}: bytes missing from payload")
            part = flat[starts[i] : starts[i + 1]] if flat is not None else None
            chunks.append(_audit_one(rec.stream, part, i))
    else:
        chunks.append(_audit_one(model, original, None))

    rel_chunks = [c for c in chunks if c.bound_kind == "rel"]
    theorem3 = None
    if check_theorem3 and original is not None and rel_chunks:
        if original.ndim in (1, 2, 3) and original.size and (original > 0).all():
            theorem3 = theorem3_check(
                original, rel_chunks[0].bound_value, original.ndim
            )
        else:
            notes.append(
                "theorem 3 check skipped: requires strictly positive 1-3D data"
            )
    if original is None:
        notes.append("no original supplied: point-wise errors not audited")
    if not rel_chunks and all(c.bound_kind is None for c in chunks):
        notes.append("stream carries no recoverable native bound")

    return AuditReport.from_chunks(
        chunks, codec=model.codec, theorem3=theorem3, notes=tuple(notes)
    )
