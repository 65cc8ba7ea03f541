"""Algorithm 1: point-wise-relative compression via the log transform.

:class:`TransformedCompressor` wraps *any* absolute-error-bounded
compressor:

1. strip signs (DEFLATE-compressed bitmap; skipped when single-signed),
2. map magnitudes to log space, planting zeros at the sentinel,
3. compute the adjusted absolute bound ``b_a'`` (Theorem 2 + Lemma 2),
4. run the inner compressor on the transformed data with ``b_a'``,
5. *verify*: decompress what was just produced, map it back, and repair
   every violating point through a safeguard stack (relative bound +
   non-finite preservation, evaluated by :mod:`repro.safeguards`) whose
   bit-exact patches land in the stream's patch channel.  With the
   Lemma-2 adjustment in place this channel is empty in practice (the
   tests assert as much); it turns "bounded with probability 1 minus
   round-off" into "bounded, period", and its size is reported so the
   round-off ablation can quantify Lemma 2's effect.

``make_sz_t()`` / ``make_zfp_t()`` build the paper's ``SZ_T`` and
``ZFP_T``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.base import (
    AbsoluteBound,
    Compressor,
    ErrorBound,
    RelativeBound,
)
from repro.core.error_bounds import abs_bound_for, adjusted_abs_bound, machine_eps0
from repro.core.transform import LogTransform
from repro.encoding import decode_sign_bitmap, encode_sign_bitmap
from repro.observe.metrics import metrics
from repro.observe.tracer import span
from repro.safeguards.engine import (
    apply_patch_sections,
    compute_patch_channel,
    put_patch_sections,
)
from repro.safeguards.kinds import NonFiniteSafeguard, RelErrorSafeguard

__all__ = ["TransformedCompressor", "make_sz_t", "make_zfp_t"]


class TransformedCompressor(Compressor):
    """Wrap an absolute-error-bounded compressor into a PWR compressor.

    Parameters
    ----------
    inner:
        Any compressor accepting :class:`AbsoluteBound` (SZ_ABS, ZFP_A...).
    base:
        Logarithm base; the paper proves the choice does not affect
        quality (Theorem 3 / Lemma 4) and picks 2 for speed (Table III).
    name:
        Experiment-table name; defaults to ``<family>_T``.
    verify:
        Enable the encoder-side verification + patch channel (step 5).
    apply_lemma2:
        Apply Lemma 2's round-off shrink to the absolute bound.  Disabling
        it (used by the round-off ablation) makes the bound mapping the
        naive ``g(b_r)`` of Theorem 2; bound violations caused by mapping
        round-off then land in the patch channel and are counted in
        :attr:`last_patch_count`.
    nonfinite:
        Policy for NaN/±Inf input.  ``"error"`` (default) rejects it --
        ``log2(|x|)`` of a non-finite value silently voids the relative
        bound, the failure mode Fallin & Burtscher call out.
        ``"preserve"`` stores non-finite points exactly through the same
        patch channel exact zeros and verify failures use: they are
        sanitized to 0.0 before the transform (riding the sentinel) and
        patched back bit-exactly on decompression.
    """

    supported_bounds = (RelativeBound,)

    _NONFINITE_POLICIES = ("error", "preserve")

    def __init__(
        self,
        inner: Compressor,
        base: float = 2.0,
        name: str | None = None,
        verify: bool = True,
        apply_lemma2: bool = True,
        nonfinite: str = "error",
    ) -> None:
        if AbsoluteBound not in inner.supported_bounds:
            raise TypeError(
                f"inner compressor {inner.name} does not support absolute bounds"
            )
        if nonfinite not in self._NONFINITE_POLICIES:
            raise ValueError(
                f"nonfinite must be one of {self._NONFINITE_POLICIES}, got {nonfinite!r}"
            )
        self.inner = inner
        self.transform = LogTransform(base)
        self.name = name if name is not None else f"{inner.name.split('_')[0]}_T"
        self.verify = verify
        self.apply_lemma2 = apply_lemma2
        self.nonfinite = nonfinite
        self.allows_nonfinite = nonfinite == "preserve"
        #: Number of patched points in the most recent compress() call.
        self.last_patch_count = 0

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound)[0]

    def compress_verified(
        self, data: np.ndarray, bound: ErrorBound
    ) -> tuple[bytes, np.ndarray]:
        """Compress and return the exact array ``decompress`` yields.

        With ``verify`` on, the bound check already materializes the
        decoder's reconstruction (the inner codec hands back its own
        decode, the inverse transform is deterministic, and the patch
        channel is applied on top) — so the round trip the base-class
        default would run is pure waste.  Wrappers like the safeguards
        adapter rely on this to keep compliant-codec overhead near zero.
        """
        blob, final = self._compress_impl(data, bound)
        if final is None:
            return blob, self.decompress(blob)
        return blob, final

    def _compress_impl(
        self, data: np.ndarray, bound: ErrorBound
    ) -> tuple[bytes, np.ndarray | None]:
        self._check_bound(bound)
        br = float(bound.value)
        tf = self.transform
        if np.asarray(data).size == 0:
            return self._compress_empty(np.asarray(data), br), None
        data = self._check_input(data, allow_nonfinite=self.allows_nonfinite)
        reg = metrics()

        # Non-finite points cannot ride the log transform; sanitize them to
        # 0.0 (the exact-zero sentinel path) and remember where they were --
        # their original bit patterns are merged into the patch channel.
        nonfinite_idx = np.zeros(0, dtype=np.uint64)
        original = data
        if self.allows_nonfinite:
            nf = ~np.isfinite(data)
            if nf.any():
                nonfinite_idx = np.flatnonzero(nf.ravel()).astype(np.uint64)
                data = np.where(nf, 0.0, data)
                reg.counter("transform.nonfinite_points").inc(nonfinite_idx.size)

        with span("sign-encode") as sp:
            magnitudes = np.abs(data)
            all_nonneg, sign_payload = encode_sign_bitmap(data)
            sp.add_bytes(out=len(sign_payload))
        reg.counter("transform.sign_bitmap_bytes").inc(len(sign_payload))

        with span("log-transform", base=tf.base):
            # Provisional bound to break the sentinel <-> max|log| circularity:
            # nonzero magnitudes bound their own logs; the sentinel magnitude
            # is known analytically from the format floor.  The logs are
            # taken once; only the zero sentinel depends on the bound.
            ba0 = abs_bound_for(br, tf.base)
            eps0 = machine_eps0(data.dtype)
            raw_logs = tf.forward_logs(magnitudes)
            logs_nz = tf.plant_sentinel(raw_logs, magnitudes, ba0)
            max_log = max(
                tf.max_log_magnitude(logs_nz),
                abs(tf.floor_log(data.dtype)) + 4.0 * ba0 + 1.0,
            )
            if self.apply_lemma2:
                ba = adjusted_abs_bound(br, max_log, eps0, tf.base)
            else:
                ba = ba0

            d = tf.plant_sentinel(raw_logs, magnitudes, ba)
            n_zeros = int(magnitudes.size - np.count_nonzero(magnitudes))
        reg.counter("transform.exact_zeros").inc(n_zeros)

        patch_idx = np.zeros(0, dtype=np.uint64)
        patch_val = np.zeros(0, dtype=data.dtype)
        final: np.ndarray | None = None
        if self.verify:
            # The inner codec hands back the exact array its decoder will
            # produce (SZ materializes it anyway for its own patch pass),
            # so verification costs one inverse transform instead of a
            # full second decode of the blob just produced.  The patch set
            # is the safeguard stack's: relative bound + non-finite
            # preservation evaluated against the pristine input.
            inner_blob, d_rec = self.inner.compress_verified(d, AbsoluteBound(ba))
            with span("verify"):
                recon = self._postprocess(
                    d_rec, ba, data.shape, data.dtype, all_nonneg, sign_payload
                )
                stack = (RelErrorSafeguard(br), NonFiniteSafeguard())
                channel = compute_patch_channel(stack, original, recon)
                patch_idx, patch_val = channel.patch_idx, channel.patch_val
                # |x| as float64 equals the float64 cast of the float32
                # |x| already in hand -- abs and widening are both exact.
                x64 = data.astype(np.float64).ravel()
                absx = magnitudes.astype(np.float64, copy=False).ravel()
                diff = recon.astype(np.float64).ravel() - x64
                err = np.abs(diff)
                viol = channel.masks[stack[0].spec()]
                self._feed_audit(
                    recon, br, absx, err, diff, viol,
                    channel.counts.get(stack[0].spec(), 0),
                    ba, ba0, eps0, max_log,
                )
            # What decompress() will produce: the verified reconstruction
            # with the patch channel applied on top.
            final = np.ascontiguousarray(recon)
            if patch_idx.size:
                final.ravel()[patch_idx.astype(np.int64)] = patch_val
        else:
            inner_blob = self.inner.compress(d, AbsoluteBound(ba))
            if nonfinite_idx.size:
                patch_idx = nonfinite_idx
                patch_val = original.ravel()[patch_idx.astype(np.int64)]
        self.last_patch_count = int(patch_idx.size)
        reg.counter("transform.patched_points").inc(self.last_patch_count)

        with span("serialize") as sp:
            box = self._new_container(self.name, data)
            box.put_f64("br", br)
            box.put_f64("ba", ba)
            box.put_f64("base", tf.base)
            box.put_u64("all_nonneg", int(all_nonneg))
            box.put("signs", sign_payload)
            box.put("inner", inner_blob)
            put_patch_sections(box, patch_idx, patch_val)
            blob = box.to_bytes()
            sp.add_bytes(out=len(blob))
        return blob, final

    def _feed_audit(
        self,
        recon: np.ndarray,
        br: float,
        absx: np.ndarray,
        err: np.ndarray,
        diff: np.ndarray,
        viol: np.ndarray,
        patched: int,
        ba: float,
        ba0: float,
        eps0: float,
        max_log: float,
    ) -> None:
        """Feed the verify pass's findings to the bound auditor.

        Runs whenever verify does: the cheap ``audit.*`` registry counters
        always move (and so cross pool boundaries with the rest of the
        telemetry); the detailed per-chunk record additionally lands in
        the globally installed :class:`~repro.observe.audit.BoundAuditor`,
        if any.  Residuals are reported post-patch -- patched points are
        stored exactly, so the stream's conformance is what's recorded.
        ``absx``/``err``/``viol`` come straight from the verify pass, so
        nothing is recomputed here; patched points are masked out of both
        maxima (they carry no residual error).
        """
        from repro.observe.audit import ChunkAudit, get_auditor, record_audit_metrics
        from repro.observe.events import emit as emit_event
        from repro.observe.quality import ErrorHistogram, quality_enabled

        lemma2_ba = ba0 - max_log * eps0
        nz = absx != 0
        mask = nz if not patched else nz & ~viol
        rel = np.divide(err, absx, out=np.zeros_like(err), where=mask)
        max_abs = err if not patched else np.where(viol, 0.0, err)
        max_rel_seen = float(rel.max(initial=0.0))
        max_abs_seen = float(max_abs.max(initial=0.0))
        flat = recon.ravel()
        hist_snap = None
        if quality_enabled():
            # Digest the post-patch residuals (patched points are stored
            # bit-exactly, so their error is zero in the stream the user
            # decodes).  Non-finite residuals -- non-finite originals, or
            # reconstructions the patch channel replaces -- are counted,
            # not binned.  The hook's overhead budget is 5% of the
            # compress path (CI-gated), so the already-computed |diff|,
            # nonzero mask, and maxima are handed straight to the digest.
            pdiff = np.where(viol, 0.0, diff) if patched else diff
            hist = ErrorHistogram()
            # Zero patches means the reconstruction satisfied both the
            # rel-bound and non-finite safeguards everywhere, so every
            # residual is finite and the isfinite sweep can be skipped.
            finite = None if not patched else np.isfinite(pdiff)
            if finite is None or finite.all():
                hist.observe_errors(
                    absx,
                    pdiff,
                    err=max_abs,
                    nz=nz,
                    rel=rel,
                    max_abs=max_abs_seen,
                    max_rel=max_rel_seen,
                )
            else:
                hist.nonfinite += int(pdiff.size - np.count_nonzero(finite))
                hist.observe_errors(absx[finite], pdiff[finite])
            hist_snap = hist.snapshot()
        audit = ChunkAudit(
            index=None,
            codec=self.name,
            n=int(absx.size),
            bound_kind="rel",
            bound_value=br,
            max_rel=max_rel_seen,
            max_abs=max_abs_seen,
            bounded_fraction=1.0,
            violations=0,
            zeros=int((flat == 0).sum()),
            negatives=int((flat < 0).sum()),
            patched=patched,
            effective_ba=ba,
            theorem2_ba=ba0,
            lemma2_ba=lemma2_ba,
            lemma2_ok=bool(ba <= lemma2_ba + eps0 * (ba0 + 1.0)),
            error_hist=hist_snap,
        )
        auditor = get_auditor()
        if auditor is not None:
            auditor.record(audit)  # record() also moves the audit.* metrics
        else:
            record_audit_metrics(audit)
        if audit.patched:
            emit_event(
                "patch-channel", codec=self.name, patched=audit.patched, n=audit.n
            )

    def _compress_empty(self, data: np.ndarray, br: float) -> bytes:
        """Zero-element stream: no magnitudes, no inner payload to run.

        ``max_log_magnitude`` over nothing is 0, so the Lemma-2 adjustment
        degenerates to the plain Theorem-2 bound, which is what gets
        recorded for the (vacuously satisfied) guarantee.
        """
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"expected float32/float64 data, got {data.dtype}")
        if data.ndim not in (1, 2, 3):
            raise ValueError(f"expected 1-D/2-D/3-D data, got ndim={data.ndim}")
        box = self._new_container(self.name, data)
        box.put_f64("br", br)
        box.put_f64("ba", abs_bound_for(br, self.transform.base))
        box.put_f64("base", self.transform.base)
        box.put_u64("all_nonneg", 1)
        box.put("signs", b"")
        box.put("inner", b"")
        self.last_patch_count = 0
        put_patch_sections(
            box, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=data.dtype)
        )
        return box.to_bytes()

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        with span("parse") as sp:
            box, shape, dtype = self._open_container(blob, self.name)
            sp.add_bytes(in_=len(blob))
        if math.prod(shape) == 0:
            return np.zeros(shape, dtype=dtype)
        ba = box.get_f64("ba")
        base = box.get_f64("base")
        # The stream records its own base, so a decompressor configured
        # with a different one can still decode it faithfully.
        tf = self.transform if base == self.transform.base else LogTransform(base)
        recon = self._reconstruct(
            box.get("inner"),
            ba,
            shape,
            dtype,
            bool(box.get_u64("all_nonneg")),
            box.get("signs"),
            transform=tf,
        )
        with span("patch-apply"):
            flat = recon.ravel()
            apply_patch_sections(flat, box, dtype, self.name)
        return flat.reshape(shape)

    def _reconstruct(
        self,
        inner_blob: bytes,
        ba: float,
        shape: tuple[int, ...],
        dtype: np.dtype,
        all_nonneg: bool,
        sign_payload: bytes,
        transform: LogTransform | None = None,
    ) -> np.ndarray:
        """Inner decompress -> inverse log map -> sign restoration.

        The inner blob is a section of this compressor's own checksummed
        container, so its bytes were already covered by the outer stream
        CRC -- the nested decode skips re-hashing them.
        """
        d_rec = self.inner.decompress_trusted(inner_blob)
        return self._postprocess(
            d_rec, ba, shape, dtype, all_nonneg, sign_payload, transform=transform
        )

    def _postprocess(
        self,
        d_rec: np.ndarray,
        ba: float,
        shape: tuple[int, ...],
        dtype: np.dtype,
        all_nonneg: bool,
        sign_payload: bytes,
        transform: LogTransform | None = None,
    ) -> np.ndarray:
        """Inverse log map + sign restoration over decoded log-space data."""
        tf = transform if transform is not None else self.transform
        with span("inverse-transform", base=tf.base):
            magnitudes = tf.inverse(d_rec, ba, dtype)
        if all_nonneg:
            return magnitudes.reshape(shape)
        with span("sign-restore"):
            negatives = decode_sign_bitmap(False, sign_payload, magnitudes.size)
            signed = np.where(
                negatives.reshape(magnitudes.shape), -magnitudes, magnitudes
            )
        return signed.reshape(shape)


def make_sz_t(
    base: float = 2.0, verify: bool = True, nonfinite: str = "error"
) -> TransformedCompressor:
    """The paper's ``SZ_T``: SZ(abs) wrapped in the log transform."""
    from repro.compressors.sz import SZCompressor

    return TransformedCompressor(
        SZCompressor(), base=base, verify=verify, nonfinite=nonfinite
    )


def make_zfp_t(
    base: float = 2.0, verify: bool = True, nonfinite: str = "error"
) -> TransformedCompressor:
    """The paper's ``ZFP_T``: ZFP(accuracy) wrapped in the log transform."""
    from repro.compressors.zfp import ZFPCompressor

    return TransformedCompressor(
        ZFPCompressor("accuracy"), base=base, verify=verify, nonfinite=nonfinite
    )
