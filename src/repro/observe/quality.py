"""Point-wise quality observability: error digests, byte attribution, explain.

The paper's contribution is a *point-wise relative* error guarantee, but a
binary audit verdict and a single compression-ratio scalar say nothing
about the error *distribution* -- the bias and tail shape where lossy
compressors actually differ.  This module closes that gap with three
pieces:

* :class:`ErrorHistogram` -- a streaming, mergeable digest of point-wise
  errors: log-binned relative and absolute magnitudes (``QUALITY_SCALE``
  buckets per octave, so p50/p90/p99 resolve to ~9% instead of 2x), a
  signed-error accumulator whose mean is the reconstruction *bias*, and
  exact min/max.  Digests merge associatively, so per-chunk records
  aggregate across thread/process pools exactly like the ``audit.*``
  metrics: :func:`record_quality_metrics` folds a digest into the metrics
  registry as scaled histograms, ``run_traced``/``absorb`` ship them over
  the pool boundary, and :func:`quality_summary_from_metrics` turns the
  merged delta back into percentiles via
  :func:`~repro.observe.metrics.percentile_from_snapshot`.

* :func:`attribute_bytes` -- a byte-attribution tree decomposing any
  v1--v4 container into who-owns-each-byte: framing, CRCs, Huffman table
  vs packed bits, quantizer escape/outlier streams, safeguard patches, RS
  parity, chunk tables -- per section, per chunk (nested containers and
  CHUNKED payloads recurse), per stage.  Attribution is *exhaustive by
  construction*: the leaves of the returned tree partition
  ``[0, len(blob))`` exactly, with damage or unknown regions attributed
  to explicit ``damaged``/``unattributed`` leaves instead of being
  skipped, and it never raises on corrupt input.

* :func:`explain_stream` -- the ``repro explain`` engine: attribution +
  per-chunk ratio/error statistics with anomaly flags for chunks whose
  ratio or max relative error deviates >= k*MAD from the stream median,
  rendered as markdown or JSON by :class:`ExplainReport`.

Collection is observation-only: compressed streams are byte-identical
with quality collection on or off (``REPRO_QUALITY=off`` or
:func:`set_quality_enabled` disable the per-chunk digests on the
compress path).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.observe.metrics import (
    _NONPOS_BUCKET,
    metrics as _metrics,
    percentile_from_snapshot,
)

__all__ = [
    "QUALITY_SCALE",
    "ByteNode",
    "ErrorHistogram",
    "ExplainReport",
    "attribute_bytes",
    "explain_stream",
    "mad_outliers",
    "quality_enabled",
    "quality_summary_from_metrics",
    "record_quality_metrics",
    "set_quality_enabled",
]

#: Buckets per binary octave in the error digests.  8 sub-divisions put
#: neighbouring bucket edges a factor of 2**(1/8) ~ 1.09 apart, so the
#: digest percentiles carry ~9% relative resolution while staying a few
#: hundred integers per digest.
QUALITY_SCALE = 8

_REL_METRIC = "quality.rel_err"
_ABS_METRIC = "quality.abs_err"

#: Above this many magnitudes per :meth:`_Digest.add` call, bucket counts
#: are estimated from a deterministic cache-line sample (count and max
#: stay exact over every point; a signed total handed in pre-reduced
#: stays exact too, one derived from raw residuals is sampled).  32Ki
#: samples keep the p99 position well inside one bucket of sampling noise.
_BUCKET_SAMPLE = 1 << 15


# ---------------------------------------------------------------------------
# collection gate
# ---------------------------------------------------------------------------

_FORCED: bool | None = None


def quality_enabled() -> bool:
    """Whether the compress-path verify hook builds error digests.

    Defaults to on (the digest is a handful of vectorized passes over
    arrays the verify hook already computed); ``REPRO_QUALITY=off`` in the
    environment or :func:`set_quality_enabled` turn it off.  Streams are
    byte-identical either way -- this gates observation, never encoding.
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_QUALITY", "").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
        "none",
    )


def set_quality_enabled(on: bool | None) -> None:
    """Force quality collection on/off; ``None`` restores the env default."""
    global _FORCED
    _FORCED = on


# ---------------------------------------------------------------------------
# error digests
# ---------------------------------------------------------------------------


class _Digest:
    """One mergeable log-binned magnitude digest with a signed total.

    Shaped exactly like a :class:`~repro.observe.metrics.Histogram`
    snapshot (plus ``scale``), so it folds into the metrics registry and
    feeds :func:`percentile_from_snapshot` unchanged.  ``total`` is the
    *signed* error sum -- ``total / n`` is the bias -- while min/max and
    the buckets describe magnitudes.
    """

    __slots__ = ("scale", "n", "total", "min", "max", "buckets")

    def __init__(self, scale: int) -> None:
        self.scale = int(scale)
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def add(
        self,
        mags: np.ndarray,
        signed_total: float | None = None,
        mx: float | None = None,
        *,
        signs: np.ndarray | None = None,
    ) -> None:
        k = int(mags.size)
        if not k:
            return
        self.n += k
        # Count and max are exact over every point.  Bucket *counts* are
        # where the time goes, so past _BUCKET_SAMPLE magnitudes they
        # (and the min) are estimated from a deterministic sample,
        # rescaled to sum back to ~k, with the min/max buckets pinned so
        # the digest's tails never dangle beyond its occupied buckets.
        # The sample takes every ``stride``-th run of 8 contiguous
        # values -- whole cache lines, so it touches ~1/stride of the
        # memory a flat ``mags[::stride]`` would (flat striding still
        # loads every 64-byte line).  This sits on the compress verify
        # path under a 5% overhead budget; exhaustive binning costs more
        # than the whole budget on large chunks, and the percentile
        # resolution is a bucket (~9% at the default scale) anyway.
        stride = -(-k // _BUCKET_SAMPLE)
        if stride == 1:
            sample = mags
        else:
            rows = k >> 3
            sample = mags[: rows << 3].reshape(rows, 8)[::stride]
        if signed_total is None:
            # Caller handed the signed residuals instead of a reduced
            # sum: estimate the signed total from the same sample (exact
            # when the sample is the whole array).
            if stride == 1:
                src = signs
            else:
                src = signs[: rows << 3].reshape(rows, 8)[::stride]
            signed_total = float(np.copysign(sample, src).sum())
            if stride > 1:
                signed_total *= k / sample.size
        self.total += float(signed_total)
        # Bucket key for v > 0 is ceil(scale * log2(v)): bucket k holds
        # (2^((k-1)/scale), 2^(k/scale)].  Quantized as one in-place
        # float32 log2/mul/ceil chain plus a bincount -- the exact frexp
        # route costs ~4x more.  The float32 round-off can move a value
        # within ~1e-7 of an edge by one bucket; zeros, NaN, and
        # sub-float32 magnitudes (< 2^-149) land in the nonpos bucket,
        # and magnitudes beyond float32 range (> 2^128) saturate into an
        # overflow bucket above every finite-valued key, where percentile
        # lookups fall back to the observed max.  The cast's saturation
        # to inf is that path, not an error -- silence the warning.
        with np.errstate(over="ignore"):
            s = sample.astype(np.float32)
        mn = float(mags.min()) if stride == 1 else float(s.min())
        if mx is None:
            mx = float(mags.max())
        if mn < self.min:
            self.min = mn
        if mx > self.max:
            self.max = mx
        with np.errstate(divide="ignore"):
            np.log2(s, out=s)
        np.multiply(s, self.scale, out=s)
        np.ceil(s, out=s)
        # Nonpos magnitudes (-inf after log2) are floored to a sentinel
        # just below the lowest float32-representable key (2^-149 gives
        # ceil(scale*log2) >= -150*scale) rather than straight to the
        # distant _NONPOS_BUCKET key, keeping the bincount range compact.
        floor = -(150 * self.scale + 1)
        np.fmax(s, floor, out=s)
        np.fmin(s, 1024 * self.scale, out=s)
        keys = s.astype(np.int64).ravel()
        kmin = int(keys.min())
        counts = np.bincount(keys - kmin)
        if stride > 1:
            counts = np.rint(counts * (k / sample.size)).astype(np.int64)
        nonpos = _NONPOS_BUCKET * self.scale
        for idx in np.flatnonzero(counts).tolist():
            b = idx + kmin
            if b <= floor:
                b = nonpos
            self.buckets[b] = self.buckets.get(b, 0) + int(counts[idx])
        if stride > 1:
            self._pin(mn)
            self._pin(mx)

    def _pin(self, v: float) -> None:
        """Ensure the bucket holding ``v`` is occupied (sampled adds only).

        A stride sample can miss the extremes, and downstream consumers
        (percentile clamp-to-max, the registry-diff min/max clamp) assume
        the occupied buckets span the observed range.
        """
        if v > 0.0:
            if math.isfinite(v):
                m, e = math.frexp(v)
                b = min(
                    math.ceil(self.scale * (e + math.log2(m))), 1024 * self.scale
                )
            else:
                b = 1024 * self.scale
        else:
            b = _NONPOS_BUCKET * self.scale
        if b not in self.buckets:
            self.buckets[b] = 1

    def merge_snapshot(self, snap: dict) -> None:
        n = int(snap.get("n", 0))
        if not n:
            return
        if int(snap.get("scale", 1)) != self.scale:
            raise ValueError(
                f"cannot merge digest of scale {snap.get('scale', 1)} into scale {self.scale}"
            )
        self.n += n
        self.total += float(snap.get("total", 0.0))
        if "min" in snap and float(snap["min"]) < self.min:
            self.min = float(snap["min"])
        if "max" in snap and float(snap["max"]) > self.max:
            self.max = float(snap["max"])
        for k, c in snap.get("buckets") or ():
            self.buckets[int(k)] = self.buckets.get(int(k), 0) + int(c)

    def snapshot(self) -> dict:
        out = {
            "type": "histogram",
            "n": self.n,
            "total": self.total,
            "mean": self.total / self.n if self.n else 0.0,
            "scale": self.scale,
        }
        if self.n:
            out["min"] = self.min
            out["max"] = self.max
            out["buckets"] = [[k, self.buckets[k]] for k in sorted(self.buckets)]
        return out

    def percentile(self, q: float) -> float:
        return percentile_from_snapshot(self.snapshot(), q)

    @property
    def bias(self) -> float:
        return self.total / self.n if self.n else 0.0


class ErrorHistogram:
    """Streaming, mergeable digest of point-wise compression errors.

    Tracks two magnitude digests -- relative error over points with
    ``x != 0`` and absolute error over every finite point -- plus counts
    of exact zeros (which have no relative error; the paper's transform
    preserves them bit-exactly) and non-finite points.  ``total`` in each
    digest is the *signed* error sum, so ``bias_rel``/``bias_abs`` expose
    systematic over/under-shoot, which single max-error scalars hide.

    Not thread-safe: build one per chunk and :meth:`merge`, or go through
    :func:`record_quality_metrics` and the (thread-safe) registry.
    """

    __slots__ = ("scale", "zeros", "nonfinite", "rel", "abs")

    def __init__(self, scale: int = QUALITY_SCALE) -> None:
        self.scale = int(scale)
        self.zeros = 0
        self.nonfinite = 0
        self.rel = _Digest(self.scale)
        self.abs = _Digest(self.scale)

    # -- feeding -----------------------------------------------------------

    def observe(self, original, recon) -> None:
        """Digest ``recon - original`` point-wise (arrays of equal size)."""
        x = np.asarray(original, dtype=np.float64).ravel()
        xd = np.asarray(recon, dtype=np.float64).ravel()
        if x.size != xd.size:
            raise ValueError(f"size mismatch: original {x.size} vs recon {xd.size}")
        finite = np.isfinite(x) & np.isfinite(xd)
        nf = int(x.size - np.count_nonzero(finite))
        if nf:
            self.nonfinite += nf
            x = x[finite]
            xd = xd[finite]
        self.observe_errors(np.abs(x), xd - x)

    def observe_errors(
        self,
        absx: np.ndarray,
        diff: np.ndarray,
        *,
        err: np.ndarray | None = None,
        nz: np.ndarray | None = None,
        rel: np.ndarray | None = None,
        max_abs: float | None = None,
        max_rel: float | None = None,
    ) -> None:
        """Digest pre-computed residuals (the compress-path fast lane).

        ``absx`` is ``|original|`` and ``diff`` the signed residual
        ``recon - original``, both finite 1-D float64 -- exactly the
        intermediates the verify hook already holds.  The keyword
        arguments accept further intermediates the hook has in hand --
        ``err`` is ``|diff|``, ``nz`` the ``absx != 0`` mask, ``rel`` the
        full-size ``|diff| / absx`` with exact zeros at the masked-out
        points, and ``max_abs``/``max_rel`` the already-reduced maxima --
        so the digest re-derives nothing the bound check computed anyway.
        """
        if err is None:
            err = np.abs(diff)
        self.abs.add(err, float(diff.sum()), mx=max_abs)
        if nz is None:
            nz = absx > 0.0
        nzeros = int(absx.size - np.count_nonzero(nz))
        if nzeros:
            self.zeros += nzeros
        if rel is not None:
            # The verify pass's `rel` holds exact 0.0 at the x == 0
            # points it masked out of the divide: bucket the full array
            # (no extraction/divide pass), then retract those points
            # from the rel digest's count and nonpos bucket.  Exact at
            # stride 1, within the sampling estimate otherwise (the
            # masked points contribute exact +/-0 to the signed total
            # either way).
            if nzeros < absx.size:
                self.rel.add(rel, mx=max_rel, signs=diff)
                if nzeros:
                    self.rel.n -= nzeros
                    b = _NONPOS_BUCKET * self.rel.scale
                    cur = self.rel.buckets.get(b, 0)
                    if cur > nzeros:
                        self.rel.buckets[b] = cur - nzeros
                    else:
                        self.rel.buckets.pop(b, None)
            return
        if nzeros:
            absx = absx[nz]
            diff = diff[nz]
        if absx.size:
            r = diff / absx
            self.rel.add(np.abs(r), float(r.sum()), mx=max_rel)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "ErrorHistogram | dict") -> None:
        snap = other.snapshot() if isinstance(other, ErrorHistogram) else other
        self.zeros += int(snap.get("zeros", 0))
        self.nonfinite += int(snap.get("nonfinite", 0))
        self.rel.merge_snapshot(snap.get("rel") or {})
        self.abs.merge_snapshot(snap.get("abs") or {})

    def snapshot(self) -> dict:
        return {
            "scale": self.scale,
            "zeros": self.zeros,
            "nonfinite": self.nonfinite,
            "rel": self.rel.snapshot(),
            "abs": self.abs.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ErrorHistogram":
        out = cls(int(snap.get("scale", QUALITY_SCALE)))
        out.merge(snap)
        return out

    # -- reading -----------------------------------------------------------

    @property
    def points(self) -> int:
        """Total points observed (finite + non-finite)."""
        return self.abs.n + self.nonfinite

    def percentile_rel(self, q: float) -> float:
        return self.rel.percentile(q)

    def percentile_abs(self, q: float) -> float:
        return self.abs.percentile(q)

    def summary(self) -> dict:
        """Flat scalar summary (ledger/JSON friendly)."""
        return _summary(
            self.rel.snapshot(), self.abs.snapshot(), self.zeros, self.nonfinite
        )


def _summary(rel: dict, abs_: dict, zeros: int, nonfinite: int) -> dict:
    def pct(snap: dict, q: float) -> float:
        return percentile_from_snapshot(snap, q) if snap.get("n") else 0.0

    def bias(snap: dict) -> float:
        n = int(snap.get("n", 0))
        return float(snap.get("total", 0.0)) / n if n else 0.0

    return {
        "n": int(abs_.get("n", 0)) + int(nonfinite),
        "zeros": int(zeros),
        "nonfinite": int(nonfinite),
        "rel_n": int(rel.get("n", 0)),
        "rel_bias": bias(rel),
        "rel_p50": pct(rel, 50),
        "rel_p90": pct(rel, 90),
        "rel_p99": pct(rel, 99),
        "max_rel": float(rel.get("max", 0.0)) if rel.get("n") else 0.0,
        "abs_bias": bias(abs_),
        "abs_p50": pct(abs_, 50),
        "abs_p90": pct(abs_, 90),
        "abs_p99": pct(abs_, 99),
        "max_abs": float(abs_.get("max", 0.0)) if abs_.get("n") else 0.0,
    }


# ---------------------------------------------------------------------------
# registry plumbing (pool-boundary aggregation, same road as audit.*)
# ---------------------------------------------------------------------------


def record_quality_metrics(hist: ErrorHistogram, registry=None) -> None:
    """Fold a digest into the metrics registry as ``quality.*`` entries.

    The registry already survives thread/process pools (``run_traced``
    ships ``diff``, ``absorb`` merges), so per-chunk digests recorded here
    aggregate across workers with no extra machinery -- identical to how
    the ``audit.*`` counters travel.
    """
    if hist.points == 0 and hist.zeros == 0:
        return
    record_quality_snapshot(hist.snapshot(), registry)


def record_quality_snapshot(snap: dict, registry=None) -> None:
    """Fold an :class:`ErrorHistogram` *snapshot* into the registry.

    Same effect as inflating the snapshot with
    :meth:`ErrorHistogram.from_snapshot` and calling
    :func:`record_quality_metrics`, minus the inflate/re-snapshot round
    trip -- this runs per chunk on the compress verify path, where the
    snapshot dict is already in hand.
    """
    rel = snap.get("rel") or {}
    abs_ = snap.get("abs") or {}
    nonfinite = int(snap.get("nonfinite", 0))
    zeros = int(snap.get("zeros", 0))
    points = int(abs_.get("n", 0)) + nonfinite
    if points == 0 and zeros == 0:
        return
    reg = registry if registry is not None else _metrics()
    reg.counter("quality.points").inc(points)
    if zeros:
        reg.counter("quality.zeros").inc(zeros)
    if nonfinite:
        reg.counter("quality.nonfinite").inc(nonfinite)
    reg.merge({_REL_METRIC: rel, _ABS_METRIC: abs_})


def _clamp_to_buckets(snap: dict) -> dict:
    """Run-scope a registry *diff* histogram's min/max.

    ``MetricsRegistry.diff`` reports a histogram's post-state min/max
    (bounds cannot be un-observed), so in a long-lived process they can
    belong to an earlier run.  The delta's *buckets* are run-scoped,
    though: the run's observations all lie within the occupied buckets'
    edges, so cap min/max there.  Costs at most one bucket (~9% at the
    quality scale) of precision, and only when the same process
    previously saw more extreme errors.
    """
    buckets = snap.get("buckets")
    if not buckets:
        return snap
    scale = int(snap.get("scale", 1)) or 1
    keys = [int(k) for k, _ in buckets]
    lo_key, hi_key = min(keys), max(keys)
    nonpos = _NONPOS_BUCKET * scale
    out = dict(snap)
    if "max" in out and hi_key != nonpos and hi_key <= 1023 * scale:
        out["max"] = min(float(out["max"]), 2.0 ** (hi_key / scale))
    if "min" in out:
        floor = 0.0 if lo_key == nonpos else 2.0 ** ((lo_key - 1) / scale)
        out["min"] = max(float(out["min"]), floor)
    return out


def quality_summary_from_metrics(delta: dict) -> dict | None:
    """Rebuild the flat quality summary from a registry snapshot/diff.

    Returns ``None`` when the delta carries no ``quality.*`` histograms
    (collection off, or nothing compressed).  Percentiles come from
    :func:`percentile_from_snapshot` on the merged scaled histograms;
    min/max are run-scoped via :func:`_clamp_to_buckets`.
    """
    rel = _clamp_to_buckets(delta.get(_REL_METRIC) or {})
    abs_ = _clamp_to_buckets(delta.get(_ABS_METRIC) or {})
    if not rel.get("n") and not abs_.get("n"):
        return None

    def counter(name: str) -> int:
        return int((delta.get(name) or {}).get("value", 0))

    return _summary(rel, abs_, counter("quality.zeros"), counter("quality.nonfinite"))


# ---------------------------------------------------------------------------
# byte attribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ByteNode:
    """One node of the byte-attribution tree.

    ``[start, stop)`` are absolute offsets into the original stream.
    Leaves (no children) carry the attribution ``kind``; the leaves of any
    node partition its range exactly -- :meth:`check_exhaustive` enforces
    the invariant and the test matrix asserts it for every codec/version.
    """

    name: str
    kind: str
    start: int
    stop: int
    children: tuple["ByteNode", ...] = ()
    note: str | None = None

    @property
    def nbytes(self) -> int:
        return self.stop - self.start

    def leaves(self):
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def kind_totals(self) -> dict[str, int]:
        """Bytes per leaf kind, descending."""
        totals: dict[str, int] = {}
        for leaf in self.leaves():
            totals[leaf.kind] = totals.get(leaf.kind, 0) + leaf.nbytes
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def damage_notes(self) -> list[str]:
        """Human-readable notes from every damaged region (ordered)."""
        notes = []
        for node in self.walk():
            if node.kind == "damaged":
                what = node.note or "unreadable bytes"
                notes.append(f"{what} at bytes [{node.start}, {node.stop})")
            elif node.note and node is self:
                notes.append(node.note)
        return notes

    def check_exhaustive(self) -> None:
        """Raise ValueError unless children exactly tile every node's range."""
        if self.stop < self.start:
            raise ValueError(f"{self.name}: negative range [{self.start}, {self.stop})")
        if not self.children:
            return
        cursor = self.start
        for child in self.children:
            if child.start != cursor:
                raise ValueError(
                    f"{self.name}: gap/overlap at {cursor} (child {child.name} "
                    f"starts at {child.start})"
                )
            child.check_exhaustive()
            cursor = child.stop
        if cursor != self.stop:
            raise ValueError(f"{self.name}: children end at {cursor}, node at {self.stop}")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "nbytes": self.nbytes,
        }
        if self.note:
            out["note"] = self.note
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def format(self, max_depth: int | None = None) -> str:
        """Indented tree rendering (sizes right-aligned)."""
        lines: list[str] = []

        def visit(node: "ByteNode", depth: int) -> None:
            note = f"  ({node.note})" if node.note else ""
            lines.append(f"{node.nbytes:>10,} B  {'  ' * depth}{node.name} [{node.kind}]{note}")
            if max_depth is not None and depth >= max_depth:
                return
            for child in node.children:
                visit(child, depth + 1)

        visit(self, 0)
        return "\n".join(lines)


def _leaf(name: str, kind: str, start: int, stop: int, note: str | None = None) -> ByteNode:
    return ByteNode(name, kind, start, stop, (), note)


def _tile(start: int, stop: int, children: list[ByteNode]) -> tuple[ByteNode, ...]:
    """Sort children and fill gaps so the result tiles ``[start, stop)``.

    Malformed children (out of range or overlapping) are dropped -- the
    filler then covers their bytes as ``unattributed`` -- so exhaustiveness
    holds even over corrupt geometry.
    """
    out: list[ByteNode] = []
    cursor = start
    for child in sorted(children, key=lambda c: (c.start, c.stop)):
        if child.start < cursor or child.stop > stop or child.stop < child.start:
            continue
        if child.start > cursor:
            out.append(_leaf("gap", "unattributed", cursor, child.start))
        out.append(child)
        cursor = child.stop
    if cursor < stop:
        out.append(_leaf("gap", "unattributed", cursor, stop))
    return tuple(out)


def _attr_entropy(blob: bytes, s: int, t: int, off: int, name: str, deflated: bool) -> ByteNode:
    """Split a Huffman blob into code-length table, chunk offsets, packed bits.

    ``s``/``t`` index ``blob``; nodes are emitted at ``off + local``.
    """
    from repro.encoding.codecs import read_varint

    if deflated:
        return _leaf(name, "entropy", off + s, off + t,
                     "whole-stream deflated (stage-3 recompression)")
    pay = blob[s:t]
    try:
        _nsym, p = read_varint(pay)
        _cs, p = read_varint(pay, p)
        sz, p = read_varint(pay, p)
        table_end = p + sz
        if table_end > len(pay):
            raise ValueError("truncated code-length table")
    except ValueError as exc:
        return _leaf(name, "entropy", off + s, off + t, f"unparsed entropy stream: {exc}")
    a = off + s
    kids = [_leaf(f"{name}.table", "entropy-table", a, a + table_end)]
    if table_end < len(pay):
        try:
            osz, p = read_varint(pay, table_end)
            offs_end = p + osz
            if offs_end > len(pay):
                raise ValueError("truncated chunk offsets")
            kids.append(_leaf(f"{name}.offsets", "chunk-table", a + table_end, a + offs_end))
            kids.append(_leaf(f"{name}.bits", "entropy-payload", a + offs_end, off + t))
        except ValueError as exc:
            kids.append(
                _leaf(f"{name}.bits", "entropy-payload", a + table_end, off + t, str(exc))
            )
    return ByteNode(name, "entropy", a, off + t, _tile(a, off + t, kids))


def _payload_node(model, sec, offset: int) -> ByteNode:
    """Attribute one section payload of ``model``; nodes at ``offset + local``."""
    from repro.encoding.container import _MAGIC, StreamError
    from repro.stream import _KEY_KINDS, _parse

    key, s, t = sec.key, sec.payload_start, sec.payload_stop
    a, b = offset + s, offset + t
    if key == "inner" and model.blob[s : s + 4] == _MAGIC:
        return byte_tree(_parse(model.blob[s:t]), a, "inner")
    if key == "codes":
        try:
            deflated = "stage3" in model.box and model.box.get_u64("stage3") == 1
        except StreamError:
            deflated = False
        return _attr_entropy(model.blob, s, t, offset, key, deflated)
    if key.startswith("field:") and model.fields is not None:
        return byte_tree(model.fields[key[len("field:") :]], a, key)
    if model.codec == "CHUNKED" and key == "payload":
        if model.table_problems and not model.chunks:
            return _leaf(key, "payload", a, b, "chunk table unreadable")
        kids = [
            byte_tree(rec.stream, a + rec.offset, f"chunk[{rec.index}]")
            for rec in model.chunks
            if rec.stream is not None
        ]
        return ByteNode(key, "chunks", a, b, _tile(a, b, kids))
    if key == "parity" and model.parity is not None:
        kids, cursor = [], a
        for g, plen in enumerate(model.parity.lens):
            size = model.parity.k * plen
            kids.append(_leaf(f"parity[{g}]", "parity", cursor, cursor + size))
            cursor += size
        return ByteNode(key, "parity", a, b, _tile(a, b, kids))
    return _leaf(key, _KEY_KINDS.get(key, "metadata"), a, b)


def byte_tree(model, offset: int = 0, name: str = "stream") -> ByteNode:
    """Exhaustive byte-attribution tree of a :class:`repro.stream.StreamModel`.

    Recurses into chunk, field and nested ``inner`` streams and never
    raises: bytes the walk could not read become ``damaged`` leaves.
    """
    n = model.nbytes
    end = offset + n
    if model.header_end == 0:
        return ByteNode(name, "damaged", offset, end, (), model.damage[1])
    note = f"magic+version+codec({model.codec})+nsec" if model.codec else None
    children = [_leaf("header", "framing", offset, offset + model.header_end, note)]
    for sec in model.sections.values():
        a, p = offset + sec.start, offset + sec.payload_start
        if sec.truncated == "payload":
            children.append(_leaf(f"{sec.key}.frame", "framing", a, p))
            break
        kids = [
            _leaf(f"{sec.key}.frame", "framing", a, p),
            _payload_node(model, sec, offset),
        ]
        b = offset + sec.stop
        if sec.stop > sec.payload_stop:
            kids.append(_leaf(f"{sec.key}.crc", "checksum", offset + sec.payload_stop, b))
        children.append(ByteNode(sec.key, "section", a, b, _tile(a, b, kids)))
    if model.checksummed and model.damage is None:
        children.append(_leaf("stream.crc", "checksum", end - 4, end))
    root_note = None
    if model.damage is not None:
        pos, why = model.damage
        if pos < n:
            children.append(_leaf("unparsed", "damaged", offset + pos, end, why))
        else:
            root_note = why
    return ByteNode(name, "container", offset, end, _tile(offset, end, children), root_note)


def attribute_bytes(blob: bytes, offset: int = 0, name: str = "stream") -> ByteNode:
    """Exhaustive byte-attribution tree of ``blob`` (see :func:`byte_tree`).

    Never raises; ``offset`` shifts all coordinates.
    """
    from repro.stream import parse_stream

    return byte_tree(parse_stream(blob), offset, name)


def section_kind_map(tree: ByteNode) -> dict[str, str]:
    """Dominant payload kind per top-level section of an attribution tree.

    Framing and checksum bytes are excluded so the answer is "what the
    section's payload actually is" (``repro info``/``repro stats`` print
    it next to the section sizes).
    """
    out: dict[str, str] = {}
    for child in tree.children:
        if child.kind != "section":
            continue
        weights: dict[str, int] = {}
        for leaf in child.leaves():
            if leaf.kind not in ("framing", "checksum"):
                weights[leaf.kind] = weights.get(leaf.kind, 0) + leaf.nbytes
        if weights:
            out[child.name] = max(weights, key=weights.get)  # type: ignore[arg-type]
    return out


# ---------------------------------------------------------------------------
# anomaly flags + explain
# ---------------------------------------------------------------------------

#: Default deviation threshold for anomaly flags, in MADs from the median.
DEFAULT_MAD_K = 5.0


def mad_outliers(values, k: float = DEFAULT_MAD_K) -> tuple[list[dict], float, float]:
    """Flag values deviating >= ``k`` * MAD from the median.

    Returns ``(flags, median, mad)`` where each flag is
    ``{"index", "value", "deviation"}`` (deviation in MADs).  The MAD is
    floored at a relative epsilon of the median so perfectly uniform
    streams (MAD = 0) do not flag every chunk over float noise.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 3:
        return [], float(np.median(vals)) if vals.size else 0.0, 0.0
    med = float(np.median(vals))
    mad = float(np.median(np.abs(vals - med)))
    scale = max(mad, 1e-12 + 1e-6 * abs(med))
    dev = np.abs(vals - med) / scale
    flags = [
        {"index": int(i), "value": float(vals[i]), "deviation": float(dev[i])}
        for i in np.nonzero(dev >= k)[0]
    ]
    return flags, med, mad


@dataclass
class ExplainReport:
    """Everything ``repro explain`` knows about one stream."""

    codec: str | None
    version: int | None
    nbytes: int
    tree: ByteNode
    kind_totals: dict[str, int]
    decoded_nbytes: int | None = None
    ratio: float | None = None
    rel_bound: float | None = None
    #: Degradation-ladder chain recorded in the stream ("SZ_T>GZIP").
    ladder: str | None = None
    chunks: list[dict] = field(default_factory=list)
    anomalies: list[dict] = field(default_factory=list)
    quality: dict | None = None
    audit_ok: bool | None = None
    notes: list[str] = field(default_factory=list)
    mad_k: float = DEFAULT_MAD_K

    @property
    def ok(self) -> bool:
        """False when the stream carries structural damage."""
        return not any(note.startswith("StreamError") for note in self.notes)

    def to_dict(self) -> dict:
        return {
            "codec": self.codec,
            "version": self.version,
            "nbytes": self.nbytes,
            "ok": self.ok,
            "decoded_nbytes": self.decoded_nbytes,
            "ratio": self.ratio,
            "rel_bound": self.rel_bound,
            "ladder": self.ladder,
            "kind_totals": self.kind_totals,
            "attribution": self.tree.to_dict(),
            "chunks": self.chunks,
            "anomalies": self.anomalies,
            "quality": self.quality,
            "audit_ok": self.audit_ok,
            "notes": self.notes,
            "mad_k": self.mad_k,
        }

    def format(self, max_depth: int | None = 3) -> str:
        """Markdown report."""
        head = self.codec or "?"
        ver = f"v{self.version}" if self.version is not None else "v?"
        lines = [f"# repro explain — {head} ({ver}, {self.nbytes:,} bytes)", ""]
        status = "OK" if self.ok else "DAMAGED"
        bits = [f"status: **{status}**"]
        if self.ratio is not None:
            bits.append(f"ratio: **{self.ratio:.2f}x**")
        if self.rel_bound is not None:
            bits.append(f"rel bound: {self.rel_bound:g}")
        if self.ladder is not None:
            fallbacks = sum(1 for a in self.anomalies if a["metric"] == "fallback")
            bits.append(f"ladder: {self.ladder}"
                        + (f" ({fallbacks} fallback(s))" if fallbacks else ""))
        if self.audit_ok is not None:
            bits.append(f"audit: {'pass' if self.audit_ok else 'VIOLATED'}")
        lines.append(" · ".join(bits))
        lines += ["", "## Byte attribution", ""]
        lines.append("| kind | bytes | share |")
        lines.append("| --- | ---: | ---: |")
        for kind, nb in self.kind_totals.items():
            share = 100.0 * nb / self.nbytes if self.nbytes else 0.0
            lines.append(f"| {kind} | {nb:,} | {share:.2f}% |")
        lines += ["", "```", self.tree.format(max_depth=max_depth), "```"]
        if self.chunks:
            ratios = [c["ratio"] for c in self.chunks if c.get("ratio") is not None]
            lines += ["", f"## Chunks ({len(self.chunks)})", ""]
            if ratios:
                lines.append(
                    f"ratio median {float(np.median(ratios)):.2f}x, "
                    f"min {min(ratios):.2f}x, max {max(ratios):.2f}x"
                )
        if self.anomalies:
            lines += ["", f"## Anomalies (≥{self.mad_k:g}·MAD from the median)", ""]
            lines.append("| chunk | metric | value | deviation |")
            lines.append("| ---: | --- | ---: | ---: |")
            for a in self.anomalies:
                value = a["value"]
                vtxt = f"{value:.4g}" if isinstance(value, (int, float)) else str(value)
                dtxt = (
                    "—" if a["metric"] == "fallback"
                    else f"{a['deviation']:.1f}·MAD"
                )
                lines.append(f"| {a['index']} | {a['metric']} | {vtxt} | {dtxt} |")
        elif self.chunks:
            lines += ["", f"No chunk deviates ≥{self.mad_k:g}·MAD from the stream median."]
        if self.quality:
            q = self.quality
            lines += ["", "## Point-wise error quality", ""]
            lines.append(
                f"- points: {q['n']:,} ({q['zeros']:,} exact zeros, "
                f"{q['nonfinite']:,} non-finite)"
            )
            lines.append(
                f"- relative error: p50 {q['rel_p50']:.3g} · p90 {q['rel_p90']:.3g} "
                f"· p99 {q['rel_p99']:.3g} · max {q['max_rel']:.3g}"
            )
            lines.append(f"- signed relative bias: {q['rel_bias']:+.3g}")
            lines.append(
                f"- absolute error: p99 {q['abs_p99']:.3g} · max {q['max_abs']:.3g} "
                f"· bias {q['abs_bias']:+.3g}"
            )
        if self.notes:
            lines += ["", "## Notes", ""]
            lines += [f"- {note}" for note in self.notes]
        return "\n".join(lines) + "\n"


def explain_stream(
    blob: bytes,
    original=None,
    *,
    mad_k: float = DEFAULT_MAD_K,
    check_theorem3: bool = False,
) -> ExplainReport:
    """Build the full explain report for one compressed stream.

    Always succeeds: damage degrades to a partial attribution tree plus
    ``StreamError`` notes.  With ``original`` supplied, the stream is
    decompressed and audited (:func:`repro.observe.audit.audit_stream`)
    so the report carries the per-chunk max-error anomalies and the
    point-wise quality summary.
    """
    from repro.stream import parse_stream

    model = parse_stream(blob)
    tree = byte_tree(model)
    notes = [f"StreamError: {note}" for note in tree.damage_notes()]
    notes += [f"StreamError: {problem}" for problem in model.problems]
    kind, value = model.bound
    report = ExplainReport(
        codec=model.codec,
        version=model.version,
        nbytes=model.nbytes,
        tree=tree,
        kind_totals=tree.kind_totals(),
        rel_bound=value if kind == "rel" else None,
        ladder=model.ladder,
        notes=notes,
        mad_k=mad_k,
    )
    itemsize = None
    if model.dtype is not None and model.shape is not None:
        itemsize = model.dtype.itemsize
        report.decoded_nbytes = math.prod(model.shape) * itemsize
        if model.nbytes:
            report.ratio = report.decoded_nbytes / model.nbytes

    # Per-chunk geometry (CHUNKED streams): size + ratio per chunk, plus
    # the codec that actually compressed each chunk when the stream was
    # written through a degradation ladder.  A chunk a fallback rung had
    # to handle is flagged as a "fallback" anomaly: the bytes are valid
    # and the bound holds, but the operator should know the primary codec
    # failed there.
    for rec in model.chunks:
        entry = {"index": rec.index, "nbytes": rec.length, "elems": rec.elems}
        if itemsize and rec.length:
            entry["ratio"] = rec.elems * itemsize / rec.length
        if rec.codec is not None:
            entry["codec"] = rec.codec
            if rec.codec != model.primary:
                report.anomalies.append(
                    {"index": rec.index, "metric": "fallback", "value": rec.codec,
                     "deviation": 0.0}
                )
        report.chunks.append(entry)

    # Offline audit + quality when the original field is available.
    audit = None
    if original is not None:
        from repro.observe.audit import audit_stream

        try:
            audit = audit_stream(model, np.asarray(original), check_theorem3=check_theorem3)
            report.audit_ok = audit.ok
            summary = getattr(audit, "error_summary", None)
            if summary:
                report.quality = dict(summary)
            for i, chunk in enumerate(audit.chunks):
                if i < len(report.chunks):
                    report.chunks[i]["max_rel_err"] = chunk.max_rel
                elif not report.chunks and len(audit.chunks) == 1:
                    break
        except ValueError as exc:  # StreamError, or a mismatched original
            notes.append(f"StreamError: audit failed: {exc}")

    # Anomaly flags: ratio and (when audited) max relative error per chunk.
    for metric in ("ratio", "max_rel_err"):
        vals = [c.get(metric) for c in report.chunks]
        if len(vals) >= 3 and all(v is not None for v in vals):
            flags, _med, _mad = mad_outliers(vals, mad_k)
            for flag in flags:
                report.anomalies.append(
                    {
                        "index": report.chunks[flag["index"]]["index"],
                        "metric": metric,
                        "value": flag["value"],
                        "deviation": flag["deviation"],
                    }
                )
    return report
