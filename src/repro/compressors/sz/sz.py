"""SZ in absolute-error-bound mode (``SZ_ABS``).

Stages: Lorenzo prediction -> linear-scaling quantization -> canonical
Huffman -> optional DEFLATE (SZ's stage III).  Unpredictable points (their
residual falls outside the quantization radius) escape to an exact side
channel, and the encoder re-verifies the reconstruction it will produce
through the safeguard engine (absolute bound + non-finite preservation),
patching any point where float round-off would break the bound -- so the
advertised absolute bound holds for 100% of points, always.  NaN/±Inf
inputs are sanitized to 0.0 for the prediction stages and restored
bit-exactly from the patch channel.

Because the encoder materializes the decoder's exact output anyway (for
the patch pass), :meth:`SZCompressor.compress_verified` hands it to
verifying wrappers for free, sparing them a full decode.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import AbsoluteBound, Compressor, ErrorBound
from repro.compressors.sz.predictor import lorenzo_reconstruct
from repro.compressors.sz.quantizer import (
    lattice_reconstruct,
    quantize_lorenzo,
    residual_codes,
    restore_residuals,
)
from repro.encoding import (
    HuffmanCodec,
    deflate,
    inflate,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoding.container import Container
from repro.observe.tracer import span
from repro.safeguards.engine import (
    compute_patch_channel,
    put_patch_sections,
    read_patch_sections,
)
from repro.safeguards.kinds import AbsErrorSafeguard, NonFiniteSafeguard

__all__ = ["SZCompressor", "DEFAULT_RADIUS"]

#: Default quantization radius; capacity = 2*radius + 2 codes, matching
#: SZ's default 65536-interval configuration.
DEFAULT_RADIUS = 32767


class SZCompressor(Compressor):
    """Prediction-based compressor honouring an absolute error bound.

    Parameters
    ----------
    radius:
        Quantization radius; residuals in ``[-radius, radius]`` are Huffman
        coded, everything else escapes to the exact side channel.
    use_stage3:
        Apply SZ's optional DEFLATE pass over the Huffman payload when it
        shrinks the stream.
    order:
        Lorenzo prediction order (1 = classic stencil, 2 = two causal
        layers / linear extrapolation, SZ 1.4's "layer" option).
    """

    name = "SZ_ABS"
    supported_bounds = (AbsoluteBound,)
    #: NaN/±Inf ride the patch channel (stored verbatim), so the advertised
    #: bound on finite points is unaffected by non-finite neighbours.
    allows_nonfinite = True

    def __init__(
        self,
        radius: int = DEFAULT_RADIUS,
        use_stage3: bool = True,
        order: int = 1,
    ) -> None:
        if not 1 <= radius <= 2**20:
            raise ValueError(f"radius must be in [1, 2**20], got {radius}")
        if order not in (1, 2):
            raise ValueError(f"prediction order must be 1 or 2, got {order}")
        self.radius = radius
        self.use_stage3 = use_stage3
        self.order = order
        self._huffman = HuffmanCodec()

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound)[0]

    def compress_verified(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        return self._compress_impl(data, bound)

    def _compress_impl(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        """Shared pipeline; returns ``(blob, exact decoder output)``."""
        self._check_bound(bound)
        data = self._check_input(data, allow_nonfinite=True)
        eb = float(bound.value)

        # Non-finite points cannot ride the lattice; sanitize them to 0.0
        # for the prediction stages -- the safeguard pass below restores
        # their original bit patterns through the patch channel.
        quantizable = data
        nonfinite = ~np.isfinite(data)
        if nonfinite.any():
            quantizable = np.where(nonfinite, 0.0, data).astype(data.dtype, copy=False)

        with span("quantize-predict", order=self.order):
            k, q, risky = quantize_lorenzo(quantizable, eb, data.ndim, self.order)
            codes, esc_q = residual_codes(q, risky, self.radius)

        # Verify the exact reconstruction the decoder will compute and move
        # every safeguard violator (risky points included) to the patch
        # channel: absolute bound on finite points, bit-exact NaN/±Inf.
        with span("verify"):
            recon = lattice_reconstruct(k, eb, data.dtype)
            channel = compute_patch_channel(
                (AbsErrorSafeguard(eb), NonFiniteSafeguard()), data, recon
            )
            patch_idx, patch_val = channel.patch_idx, channel.patch_val
            if risky.any():
                patch_idx = np.union1d(
                    patch_idx, np.flatnonzero(risky.ravel()).astype(np.uint64)
                ).astype(np.uint64)
                patch_val = data.ravel()[patch_idx.astype(np.int64)]

        box = self._new_container(self.name, data)
        box.put_f64("eb", eb)
        box.put_u64("radius", self.radius)
        box.put_u64("order", self.order)
        with span("entropy-encode"):
            self._pack_payload(box, codes, esc_q, patch_idx, patch_val)
        with span("serialize") as sp:
            blob = box.to_bytes()
            sp.add_bytes(out=len(blob))

        final = recon.ravel()
        if patch_idx.size:
            final = final.copy()
            final[patch_idx.astype(np.int64)] = patch_val
        return blob, final.reshape(data.shape)

    def _pack_payload(
        self,
        box: Container,
        codes: np.ndarray,
        esc_q: np.ndarray,
        patch_idx: np.ndarray,
        patch_val: np.ndarray,
    ) -> None:
        """Entropy-code the quantization codes and side channels into ``box``."""
        with span("huffman-encode"):
            blob = self._huffman.encode(codes)
        if self.use_stage3:
            with span("stage3-deflate"):
                squeezed = deflate(blob)
            if len(squeezed) < len(blob):
                box.put_u64("stage3", 1)
                blob = squeezed
            else:
                box.put_u64("stage3", 0)
        else:
            box.put_u64("stage3", 0)
        box.put("codes", blob)
        box.put("escq", deflate(zigzag_encode(esc_q).tobytes()))
        box.put_u64("n_esc", esc_q.size)
        put_patch_sections(box, patch_idx, patch_val)

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        with span("parse") as sp:
            box, shape, dtype = self._open_container(blob, self.name)
            sp.add_bytes(in_=len(blob))
        eb = box.get_f64("eb")
        radius = box.get_u64("radius")
        order = box.get_u64("order") if "order" in box else 1
        with span("entropy-decode"):
            q, patch_idx, patch_val = self._unpack_payload(box, dtype, radius)
        with span("reconstruct", order=order):
            q = q.reshape(shape)
            k = lorenzo_reconstruct(q, len(shape), order)
            recon = lattice_reconstruct(k, eb, dtype)
            flat = recon.ravel()
            flat[patch_idx.astype(np.int64)] = patch_val
        return flat.reshape(shape)

    def _unpack_payload(
        self, box: Container, dtype: np.dtype, radius: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recover the residual array and patch channel from ``box``."""
        payload = box.get("codes")
        if box.get_u64("stage3"):
            payload = inflate(payload)
        with span("huffman-decode"):
            codes = self._huffman.decode(payload)

        n_esc = box.get_u64("n_esc")
        esc_q = zigzag_decode(np.frombuffer(inflate(box.get("escq")), dtype=np.uint64))
        if esc_q.size != n_esc:
            raise ValueError("corrupt SZ stream: escape channel size mismatch")
        q = restore_residuals(codes, esc_q, radius)

        patch_idx, patch_val = read_patch_sections(box, dtype, "SZ")
        return q, patch_idx, patch_val
