"""The ZFP compressor: fixed-accuracy and precision modes.

*Accuracy* mode honours an absolute error bound.  A block whose largest
exponent is ``emax`` gets ``emax - minexp + 2*(d+1)`` bit planes, where
``minexp = floor(log2 tolerance)`` -- the ``2*(d+1)`` margin absorbs the
growth of the lifted transform, which is also why ZFP characteristically
*over-preserves* the bound (the paper leans on this to explain ZFP_T's
lower ratios in Table IV and Figure 2).

*Precision* mode (``ZFP_P``, the paper's ``-p`` baseline) encodes a fixed
number of planes per block regardless of content.  Within a block this
approximates relative-error control against the block's largest magnitude,
so isolated small values in a large-magnitude block can lose all their
bits: the paper's strict-bound test shows exactly this failure (unbounded
maximum point-wise relative error), and this implementation reproduces it.

Representability caveat (shared with the reference ZFP): the accuracy-mode
guarantee requires the tolerance to be expressible in the *output* dtype,
i.e. ``tolerance >= ulp(max |x|)`` -- a float32 array with values near 1e6
cannot be reconstructed to 1e-6 absolute no matter what the codec does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.base import (
    AbsoluteBound,
    Compressor,
    ErrorBound,
    PrecisionBound,
    RateBound,
)
from repro.compressors.zfp.embedded import decode_blocks, encode_blocks
from repro.compressors.zfp.fixedpoint import (
    EMPTY_EMAX,
    block_exponents,
    dequantize_blocks,
    intprec_for,
    negabinary_decode,
    negabinary_encode,
    quantize_blocks,
)
from repro.compressors.zfp.transform import fwd_xform, inv_xform, sequency_order
from repro.encoding import deflate, inflate
from repro.observe.tracer import span
from repro.utils.blocking import block_merge, block_partition

__all__ = ["ZFPCompressor", "planes_for_tolerance"]

_BLOCK = 4


def planes_for_tolerance(
    emax: np.ndarray, tolerance: float, ndim: int, intprec: int
) -> np.ndarray:
    """Bit planes to encode per block in fixed-accuracy mode.

    ZFP's ``precision(maxexp, ...)``: ``maxexp - minexp + 2*(d+1)`` planes,
    clamped to ``[0, intprec]``; blocks entirely below the tolerance emit
    nothing.  Our fixed-point scale is ``2**(intprec-4)`` instead of ZFP's
    ``2**(intprec-2)`` (two extra headroom bits for the lift + negabinary),
    so the same guarantee needs two additional planes here.
    """
    minexp = math.floor(math.log2(tolerance))
    raw = emax.astype(np.int64) - minexp + 2 * (ndim + 1) + 2
    raw = np.where(emax == EMPTY_EMAX, 0, raw)
    return np.clip(raw, 0, intprec)


class ZFPCompressor(Compressor):
    """Transform-based compressor (accuracy or precision mode).

    Parameters
    ----------
    mode:
        ``"accuracy"`` (absolute bound, :class:`AbsoluteBound`) or
        ``"precision"`` (fixed planes, :class:`PrecisionBound`).
    """

    def __init__(self, mode: str = "accuracy") -> None:
        if mode not in ("accuracy", "precision", "rate"):
            raise ValueError(
                f"mode must be 'accuracy', 'precision' or 'rate', got {mode!r}"
            )
        self.mode = mode
        self.name = {"accuracy": "ZFP_A", "precision": "ZFP_P", "rate": "ZFP_R"}[mode]
        self.supported_bounds = {
            "accuracy": (AbsoluteBound,),
            "precision": (PrecisionBound,),
            "rate": (RateBound,),
        }[mode]

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound, verified=False)[0]

    def compress_verified(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        """Compress and return the decoder's exact output without decoding.

        In accuracy and precision modes a block's stream holds its top
        ``nplanes`` bit planes in full, so the decoder's coefficients are
        the encoder's masked to those planes, and :meth:`_reconstruct` (the
        tail ``decompress`` shares) turns them into ``decompress(blob)``
        bit for bit.  Fixed rate cuts blocks mid-plane: it round-trips.
        """
        if self.mode == "rate":
            blob = self._compress_impl(data, bound, verified=False)[0]
            return blob, self.decompress(blob)
        return self._compress_impl(data, bound, verified=True)

    def _compress_impl(
        self, data: np.ndarray, bound: ErrorBound, verified: bool
    ) -> tuple[bytes, np.ndarray | None]:
        """``(blob, decoder output if verified else None)``."""
        self._check_bound(bound)
        data = self._check_input(data)
        ndim = data.ndim
        intprec = intprec_for(data.dtype)

        with span("block-partition"):
            tiles, padded_shape = block_partition(data, _BLOCK)
            emax = block_exponents(tiles)
            q = quantize_blocks(tiles, emax, intprec)
        with span("block-transform"):
            coeffs = fwd_xform(q).reshape(q.shape[0], -1)
            perm, _ = sequency_order(ndim)
            nb = negabinary_encode(coeffs[:, perm])

        with span("encode-planes", mode=self.mode):
            maxbits = None
            if self.mode == "accuracy":
                nplanes = planes_for_tolerance(emax, float(bound.value), ndim, intprec)
            elif self.mode == "precision":
                nplanes = np.where(emax == EMPTY_EMAX, 0, min(bound.bits, intprec))
            else:
                # Fixed rate: code every plane, hard-cap each block's bits.
                nplanes = np.where(emax == EMPTY_EMAX, 0, intprec)
                maxbits = max(1, round(float(bound.value) * _BLOCK**ndim))
            payload, lens = encode_blocks(nb, nplanes, intprec, maxbits=maxbits)

        with span("serialize") as sp:
            box = self._new_container(self.name, data)
            box.put_f64("param", float(bound.value))
            box.put_shape("padded", padded_shape)
            box.put("emax", deflate(emax.astype(np.int32).tobytes()))
            box.put("lens", deflate(lens.tobytes()))
            box.put("payload", payload)
            blob = box.to_bytes()
            sp.add_bytes(out=len(blob))
        if not verified:
            return blob, None
        # What the decoder recovers: each block's top nplanes bit planes.
        low_planes = (np.uint64(1) << (intprec - nplanes).astype(np.uint64)) - np.uint64(1)
        nb &= (np.uint64((1 << intprec) - 1) ^ low_planes)[:, None]
        return blob, self._reconstruct(nb, emax, intprec, padded_shape, data.shape, data.dtype)

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        with span("parse") as sp:
            box, shape, dtype = self._open_container(blob, self.name)
            sp.add_bytes(in_=len(blob))
        param = box.get_f64("param")
        padded_shape = box.get_shape("padded")
        ndim = len(shape)
        intprec = intprec_for(dtype)
        ncoef = _BLOCK**ndim

        with span("decode-planes", mode=self.mode):
            emax = np.frombuffer(inflate(box.get("emax")), dtype=np.int32)
            lens = np.frombuffer(inflate(box.get("lens")), dtype=np.uint32)
            if emax.size != lens.size:
                raise ValueError("corrupt ZFP stream: block table size mismatch")

            maxbits = None
            if self.mode == "accuracy":
                nplanes = planes_for_tolerance(emax, param, ndim, intprec)
            elif self.mode == "precision":
                nplanes = np.where(emax == EMPTY_EMAX, 0, min(int(param), intprec))
            else:
                nplanes = np.where(emax == EMPTY_EMAX, 0, intprec)
                maxbits = max(1, round(param * ncoef))
            nb = decode_blocks(box.get("payload"), lens, nplanes, intprec, ncoef, maxbits=maxbits)
        return self._reconstruct(nb, emax, intprec, padded_shape, shape, dtype)

    @staticmethod
    def _reconstruct(nb, emax, intprec, padded_shape, shape, dtype) -> np.ndarray:
        """Decoded negabinary coefficients -> the output array."""
        ndim = len(shape)
        with span("inverse-transform"):
            _, inv_perm = sequency_order(ndim)
            coeffs = negabinary_decode(nb)[:, inv_perm]
            q = inv_xform(coeffs.reshape((-1,) + (_BLOCK,) * ndim))
            tiles = dequantize_blocks(q, emax, intprec, dtype)
        with span("block-merge"):
            return block_merge(tiles, padded_shape, _BLOCK, shape)
