"""Reference embedded bit-plane coder (the pre-word-packing implementation).

This module is the bit-per-byte coder that :mod:`repro.compressors.zfp.embedded`
replaced, kept verbatim as the frozen specification of the ZFP payload
format: the property tests assert the word-packed coder writes
byte-identical payloads and decodes identically, and
``benchmarks/bench_zfp_planes.py`` gates its speedup against this one.
Only tests and benchmarks import it.

Do not "improve" this module; it is the specification.

Original description:
Group-tested embedded bit-plane coding, data-parallel across blocks.

This is Lindstrom's ``encode_ints``/``decode_ints`` embedded coder,
bit-for-bit in semantics, executed as a masked numpy state machine over
every block simultaneously (DESIGN.md section 5.2).  Per bit plane (MSB
first) each block emits:

1. the plane bits of coefficients already known significant, verbatim
   (LSB-first within the plane word), then
2. a *group test* over the remaining coefficients: a 1 bit announces that
   at least one untested coefficient is significant in this plane, after
   which plane bits stream out until the first 1; the final group test
   emits 0 and terminates the plane.  A subtlety inherited from ZFP: when
   the scan reaches the last coefficient its 1 bit is implied, not coded.

The group phase advances one *significant coefficient* per vectorized
round: a zero-run and its terminating 1 are emitted (or, on decode,
located through a gathered 64-bit stream window) in a single ragged batch,
so the per-plane work is proportional to the number of newly significant
coefficients, not to the number of coded bits.

Blocks encode different plane counts (``nplanes``), so the emitted streams
are ragged; the encoder returns the packed concatenation plus per-block bit
lengths, and the decoder walks every block from its own offset.
"""

from __future__ import annotations

import numpy as np

from repro.utils.ragged import ragged_arange as _ragged_arange

__all__ = ["encode_blocks", "decode_blocks", "expand_fixed_rate"]

_U1 = np.uint64(1)
_U0 = np.uint64(0)


def _plane_words(nb: np.ndarray, k: int, weights: np.ndarray) -> np.ndarray:
    """Gather bit plane ``k`` of every block into one uint64 word per block."""
    bits = (nb >> np.uint64(k)) & _U1
    return (bits * weights).sum(axis=1, dtype=np.uint64)


def _trailing_zeros(x: np.ndarray) -> np.ndarray:
    """Exact count of trailing zeros for non-zero uint64 values.

    Isolates the lowest set bit (an exact power of two, hence exactly
    representable in float64) and takes its log2.
    """
    low = x & (~x + _U1)
    return np.log2(low.astype(np.float64)).astype(np.int64)


def _leading_zeros64(w: np.ndarray) -> np.ndarray:
    """Exact count of leading zeros of uint64 words (64 for zero).

    Split into 32-bit halves so float64 log2 stays exact.
    """
    hi = (w >> np.uint64(32)).astype(np.float64)
    lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)
    z = np.full(w.shape, 64, dtype=np.int64)
    lom = lo > 0
    z[lom] = 63 - np.floor(np.log2(lo[lom])).astype(np.int64)
    him = hi > 0
    z[him] = 31 - np.floor(np.log2(hi[him])).astype(np.int64)
    return z


def encode_blocks(
    nb: np.ndarray,
    nplanes: np.ndarray,
    intprec: int,
    maxbits: int | None = None,
) -> tuple[bytes, np.ndarray]:
    """Encode negabinary coefficient blocks.

    Parameters
    ----------
    nb:
        ``(nblocks, ncoef)`` uint64 coefficients in sequency order.
    nplanes:
        Bit planes to encode per block (0 = empty block, emits nothing).
    intprec:
        Total bit planes of the fixed-point representation; plane ``p``
        of the loop is physical plane ``intprec - 1 - p``.
    maxbits:
        Fixed-rate budget: every block's stream is truncated or
        zero-padded to exactly this many bits (ZFP's fixed-rate mode; cut
        bits decode as zeros, see ``ZFPCompressor`` mode ``"rate"``).

    Returns
    -------
    (payload, lens):
        Packed concatenated bit stream and per-block bit counts (uint32).
    """
    nblocks, ncoef = nb.shape
    if ncoef > 64:
        raise ValueError("embedded coder packs plane words into uint64 (ncoef <= 64)")
    nplanes = np.asarray(nplanes, dtype=np.int64)
    max_planes = int(nplanes.max(initial=0))
    if max_planes == 0:
        if maxbits is not None:  # all-empty fixed-rate stream: zero fill
            lens = np.full(nblocks, maxbits, dtype=np.uint32)
            return bytes(-(-nblocks * maxbits // 8)), lens
        return b"", np.zeros(nblocks, dtype=np.uint32)
    weights = np.left_shift(_U1, np.arange(ncoef, dtype=np.uint64))

    cap = max_planes * (2 * ncoef + 2)
    buf = np.zeros((nblocks, cap), dtype=np.uint8)
    cur = np.zeros(nblocks, dtype=np.int64)
    n = np.zeros(nblocks, dtype=np.int64)  # significant count, persists

    for p in range(max_planes):
        k = intprec - 1 - p
        active = p < nplanes
        if not active.any():
            break
        x = _plane_words(nb, k, weights)

        # Step 1: verbatim bits for known-significant coefficients
        # (LSB-first), emitted for all blocks in one ragged batch.
        m = np.where(active, n, 0)
        sel = np.flatnonzero(m > 0)
        if sel.size:
            rows = np.repeat(sel, m[sel])
            offs = _ragged_arange(m[sel])
            vals = ((x[rows] >> offs.astype(np.uint64)) & _U1).astype(np.uint8)
            buf[rows, cur[rows] + offs] = vals
            cur[sel] += m[sel]
        shift = np.minimum(m, 63).astype(np.uint64)
        x = np.where(m >= 64, _U0, x >> shift)

        # Step 2: group testing, one significant coefficient per round.
        nn = n.copy()
        live = np.flatnonzero(active & (nn < ncoef))
        while live.size:
            # Group-test bit: anything significant left in this plane?
            t = (x[live] != 0).astype(np.uint8)
            buf[live, cur[live]] = t
            cur[live] += 1
            live = live[t == 1]
            if live.size == 0:
                break
            xs = x[live]
            tz = _trailing_zeros(xs)
            limit = ncoef - 1 - nn[live]  # scan bits writable before the
            #                               implied-1 position
            boundary = tz >= limit
            emit = np.where(boundary, limit, tz + 1)

            rows = np.repeat(live, emit)
            offs = _ragged_arange(emit)
            hit = (offs == np.repeat(emit - 1, emit)) & np.repeat(~boundary, emit)
            buf[rows, cur[rows] + offs] = hit.astype(np.uint8)
            cur[live] += emit

            adv = np.minimum(tz + 1, 63).astype(np.uint64)
            x[live] = np.where(boundary, _U0, xs >> adv)
            nn[live] += tz + 1
            live = live[nn[live] < ncoef]
        n = np.where(active, np.maximum(n, nn), n)

    if maxbits is not None:
        # Fixed rate: exact maxbits per block (truncate or zero-pad).
        if maxbits > cap:
            wide = np.zeros((nblocks, maxbits), dtype=np.uint8)
            wide[:, :cap] = buf
            buf = wide
        cur = np.full(nblocks, maxbits, dtype=np.int64)
    lens = cur.astype(np.uint32)
    mask = np.arange(buf.shape[1])[None, :] < cur[:, None]
    payload = np.packbits(buf[mask]).tobytes()
    return payload, lens


def expand_fixed_rate(
    payload: bytes,
    nblocks: int,
    maxbits: int,
    nplanes: np.ndarray,
    ncoef: int,
) -> tuple[bytes, np.ndarray]:
    """Re-pad a fixed-rate stream for :func:`decode_blocks`.

    Each block owns exactly ``maxbits`` bits; bits the encoder truncated
    must decode as zeros (a zero group test ends a plane cleanly), and the
    decoder must never read into the next block's region.  Expanding every
    block to the unlimited-stream capacity with zero fill gives both
    properties with the ordinary decoder.
    """
    cap = max(int(np.asarray(nplanes).max(initial=0)) * (2 * ncoef + 2), maxbits)
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=nblocks * maxbits
    ).reshape(nblocks, maxbits)
    wide = np.zeros((nblocks, cap), dtype=np.uint8)
    wide[:, :maxbits] = bits
    lens = np.full(nblocks, cap, dtype=np.uint32)
    return np.packbits(wide.ravel()).tobytes(), lens


def decode_blocks(
    payload: bytes,
    lens: np.ndarray,
    nplanes: np.ndarray,
    intprec: int,
    ncoef: int,
) -> np.ndarray:
    """Invert :func:`encode_blocks`; returns ``(nblocks, ncoef)`` uint64."""
    lens = np.asarray(lens, dtype=np.int64)
    nplanes = np.asarray(nplanes, dtype=np.int64)
    nblocks = lens.size
    nb = np.zeros((nblocks, ncoef), dtype=np.uint64)
    max_planes = int(nplanes.max(initial=0))
    if max_planes == 0:
        return nb
    total_bits = int(lens.sum())
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=total_bits)
    # Byte view padded for the 9-byte window gathers near the stream tail.
    raw = np.frombuffer(payload, dtype=np.uint8)
    pad = np.zeros(raw.size + 16, dtype=np.uint64)
    pad[: raw.size] = raw

    offsets = np.cumsum(lens) - lens
    cur = offsets.copy()
    ends = offsets + lens
    n = np.zeros(nblocks, dtype=np.int64)
    coef_idx = np.arange(ncoef, dtype=np.uint64)

    for p in range(max_planes):
        active = p < nplanes
        if not active.any():
            break
        k = intprec - 1 - p
        x = np.zeros(nblocks, dtype=np.uint64)

        m = np.where(active, n, 0)
        sel = np.flatnonzero(m > 0)
        if sel.size:
            counts = m[sel]
            rows = np.repeat(sel, counts)
            offs = _ragged_arange(counts)
            vals = bits[cur[rows] + offs].astype(np.uint64) << offs.astype(np.uint64)
            starts = np.cumsum(counts) - counts
            x[sel] = np.bitwise_or.reduceat(vals, starts)
            cur[sel] += counts

        nn = n.copy()
        live = np.flatnonzero(active & (nn < ncoef))
        while live.size:
            t = bits[cur[live]]
            cur[live] += 1
            live = live[t == 1]
            if live.size == 0:
                break
            # 64-bit stream window at each cursor locates the zero run.
            c = cur[live]
            byte = c >> 3
            w = np.zeros(live.size, dtype=np.uint64)
            for i in range(8):
                w |= pad[byte + i] << np.uint64(8 * (7 - i))
            sh = (c & 7).astype(np.uint64)
            w = (w << sh) | (pad[byte + 8] >> (np.uint64(8) - sh))

            z = _leading_zeros64(w)
            limit = ncoef - 1 - nn[live]
            boundary = z >= limit
            consumed = np.where(boundary, limit, z + 1)
            sigpos = np.where(boundary, ncoef - 1, nn[live] + z).astype(np.uint64)
            x[live] |= _U1 << sigpos
            cur[live] += consumed
            nn[live] = sigpos.astype(np.int64) + 1
            live = live[nn[live] < ncoef]
        n = np.where(active, np.maximum(n, nn), n)
        nb |= ((x[:, None] >> coef_idx) & _U1) << np.uint64(k)

    if (cur > ends).any():
        raise ValueError("corrupt ZFP stream: block overran its bit budget")
    return nb
