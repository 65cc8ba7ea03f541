"""Group-tested embedded bit-plane coding, word-packed and batch-bounded.

This is Lindstrom's ``encode_ints``/``decode_ints`` embedded coder,
bit-for-bit in semantics (DESIGN.md section 5.2).  Per bit plane (MSB
first) each block emits:

1. the plane bits of coefficients already known significant, verbatim
   (LSB-first within the plane word), then
2. a *group test* over the remaining coefficients: a 1 bit announces that
   at least one untested coefficient is significant in this plane, after
   which plane bits stream out until the first 1; the final group test
   emits 0 and terminates the plane.  A subtlety inherited from ZFP: when
   the scan reaches the last coefficient its 1 bit is implied, not coded.

The encoder never walks that state machine.  Significance only grows, so
every coefficient ``j`` enters the group phase at the plane
``entry[j] = min(lead[j:])``, where ``lead`` is the plane of each
coefficient's leading one.  From ``entry`` follow, in closed form, every
block's per-plane bit count (prefix-summed into bit offsets) and the
position of every 1 bit the group phase writes; the verbatim bits are the
plane word itself, one token per block and plane.  Tokens and lone 1 bits
are OR-scattered straight into uint64 words, blocks running in fixed-size
batches so scratch memory is bounded by the batch, not the field.

The decoder is necessarily sequential in the planes of each block, but
vectorized across blocks: per block and plane it gathers one 64-bit stream
window from the word array, takes the verbatim bits from it, then locates
one zero run per round in the same window.  Every window is masked at its
block's end, so a fixed-rate block (cut at ``maxbits``) reads the
truncated tail as zeros and a corrupt block table cannot read into its
neighbour.

:mod:`repro.compressors.zfp.embedded_ref` is the retained bit-per-byte
implementation; payloads must stay byte-identical to it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode_blocks", "decode_blocks"]

_U1 = np.uint64(1)
#: ``_TOP[w]``: the ``w`` most significant bits of a word set (0 <= w <= 64).
_TOP = np.array(
    [0] + [((1 << w) - 1) << (64 - w) for w in range(1, 65)], dtype=np.uint64
)
#: Blocks per batch times their planes (or coefficients, if more): the
#: coder's scratch is a few dozen bytes per such cell.
_BATCH_CELLS = 1 << 14


def _msb(v: np.ndarray) -> np.ndarray:
    """Exact ``floor(log2 v)`` of uint64 values (-1 for zero), as int32."""
    est = np.frexp(v.astype(np.float64))[1] - 1
    # The float conversion rounds: a value just below 2**k may land on it.
    sh = np.maximum(est - 1, 0).astype(np.uint64)
    return est - ((est > 0) & (((v >> _U1) >> sh) == 0))


def _or_sorted(words: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """``words[idx] |= vals`` for non-decreasing ``idx`` with repeats."""
    if idx.size == 0:
        return
    first = np.empty(idx.size, dtype=bool)
    first[0] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    start = np.flatnonzero(first)
    words[idx[start]] |= np.bitwise_or.reduceat(vals, start)


def _transpose8(x: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix held in each uint64 (row i: byte i from the top)."""
    # Hacker's Delight transpose8: swap 1x1, then 2x2, then 4x4 sub-blocks.
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    ):
        t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
        x = x ^ t ^ (t << np.uint64(shift))
    return x


def _bit_transpose(rows: np.ndarray, q0: int, q1: int) -> np.ndarray:
    """Per-block bit-matrix transpose, restricted to byte columns ``[q0, q1)``.

    ``rows`` is the ``(nblocks, r, 8)`` uint8 memory of ``r <= 64`` uint64
    rows per block (native little-endian), column ``c`` of a row being its
    bit ``63 - c``.  Returns ``(nblocks, 8 * (q1 - q0))`` words: word
    ``c - 8*q0`` holds column ``c``, row ``i`` at bit ``63 - i``.  The
    matrix is cut into 8x8 tiles, one uint64 each, transposed in registers
    by :func:`_transpose8`; only two byte shuffles surround it.
    """
    nblocks, r, _ = rows.shape
    g, nq, full = -(-r // 8), q1 - q0, r // 8
    # Column byte q is memory byte 7 - q; tile (q, gi) holds byte q of
    # rows 8*gi .. 8*gi+7, row 8*gi + i in tile byte 7 - i.
    src = rows[:, :, 8 - q1 : 8 - q0][:, :, ::-1]
    tiles = np.zeros((nblocks, nq, g, 8), dtype=np.uint8)
    if full:
        whole = src[:, : 8 * full].reshape(nblocks, full, 8, nq)
        tiles[:, :, :full, ::-1] = whole.transpose(0, 3, 1, 2)
    if r > 8 * full:
        tiles[:, :, full, 8 * g - r :] = src[:, 8 * full :][:, ::-1].transpose(0, 2, 1)
    m = _transpose8(tiles.view("<u8")[..., 0]).view(np.uint8).reshape(nblocks, nq, g, 8)
    out = np.zeros((nblocks, nq, 8, 8), dtype=np.uint8)
    out[..., 8 - g :] = m[:, :, ::-1, ::-1].transpose(0, 1, 3, 2)
    return out.view("<u8").reshape(nblocks, 8 * nq)


def _bytes(words: np.ndarray) -> np.ndarray:
    """``(..., 8)`` little-endian bytes of uint64 words (a view on LE hosts)."""
    return words.astype("<u8", copy=False).view(np.uint8).reshape(words.shape + (8,))


def _plane_words(v: np.ndarray, intprec: int, nplanes: int) -> np.ndarray:
    """``(nblocks, nplanes)`` plane words, coefficient ``j`` at bit ``63 - j``.

    Plane ``p`` is physical bit ``intprec - 1 - p``, i.e. column
    ``64 - intprec + p``; the coefficient-major bit order makes every
    verbatim token a word prefix.
    """
    lo = 64 - intprec
    q0 = lo // 8
    cols = _bit_transpose(_bytes(v), q0, -(-(lo + nplanes) // 8))
    return cols[:, lo - 8 * q0 : lo - 8 * q0 + nplanes]


def _encode_batch(
    v: np.ndarray, nplanes: np.ndarray, intprec: int, maxbits: int | None, r0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one batch of blocks, its first bit at bit ``r0`` of word 0.

    Returns ``(words, lens)``: the batch's words (big-endian bit order,
    word 0 shared with the previous batch when ``r0 > 0``) and its
    per-block bit counts.
    """
    nblocks, ncoef = v.shape
    nplanes_max = int(nplanes.max(initial=0))
    if nplanes_max == 0:
        lens = np.full(nblocks, maxbits or 0, dtype=np.int64)
        return np.zeros(-(-(r0 + int(lens.sum())) // 64), dtype=np.uint64), lens

    # Plane of each coefficient's leading one (intprec for zero), and the
    # plane at which the group phase reaches it; a block codes only planes
    # p < nplanes.  Per-plane counts fit int16: at most 62 * 129 bits.
    lead = (intprec - 1) - _msb(v)
    entry = np.minimum.accumulate(lead[:, ::-1], axis=1)[:, ::-1]
    coded = entry < nplanes[:, None]
    key = entry + (np.arange(nblocks) * nplanes_max)[:, None]
    size = nblocks * nplanes_max
    # c: coefficients the group phase reaches in (block, plane); s: of
    # those, the ones coded with a 1 (the rest are passed-over zeros).
    c = np.bincount(key[coded], minlength=size).reshape(nblocks, nplanes_max)
    hit = np.flatnonzero(coded & (lead == entry))
    hit_b, hit_j = np.divmod(hit, ncoef)
    hit_key = key.ravel()[hit]
    s = np.bincount(hit_key, minlength=size)
    # Significant count leaving each plane (a flat prefix sum, rebased per
    # block: faster than a short-row cumsum), and entering it.
    flat = np.cumsum(c.ravel())
    sig = (flat.reshape(c.shape) - (flat[::nplanes_max] - c[:, 0])[:, None]).astype(np.int16)
    n = np.zeros_like(sig)
    n[:, 1:] = sig[:, :-1]
    live = np.arange(nplanes_max) < nplanes[:, None]

    # Bits per (block, plane): n verbatim, then the group phase -- a test
    # bit per coded 1, a bit per reached coefficient and a closing 0,
    # except that reaching the last coefficient implies its 1 and skips
    # the closing 0; a plane entered fully significant has no group phase.
    bits = np.add(sig, s.reshape(sig.shape), dtype=np.int16, casting="unsafe")
    bits += 1
    bits -= (sig == ncoef).view(np.int8) * np.int8(2)
    bits += n == ncoef
    bits *= live
    # Stream offset of every plane; planes past nplanes sit at the block end.
    flat = np.cumsum(bits.ravel(), dtype=np.int64)
    off = flat.reshape(bits.shape) - bits
    lens = flat[nplanes_max - 1 :: nplanes_max] - off[:, 0]
    if maxbits is not None:  # fixed rate: cut or zero-pad to maxbits
        rel = off - off[:, :1]
        off = np.minimum(rel, maxbits) + (np.arange(nblocks) * maxbits)[:, None]
        lens = np.full(nblocks, maxbits, dtype=np.int64)
    off += r0

    words = np.zeros(-(-(r0 + int(lens.sum())) // 64) + 1, dtype=np.uint64)

    # Verbatim tokens: the first n bits of each coded plane's word (width
    # 0 elsewhere).  Only the last token starting in a word can spill.
    width = n * live
    if maxbits is not None:
        width = np.clip(np.minimum(width, maxbits - rel), 0, None)
    vt = _plane_words(v, intprec, nplanes_max) & _TOP[width]
    o = off.ravel()
    r = o & 63
    _or_sorted(words, o >> 6, vt.ravel() >> r.view(np.uint64))
    spill = np.flatnonzero(r + width.ravel() > 64)
    words[(o[spill] >> 6) + 1] |= vt.ravel()[spill] << (64 - r[spill]).view(np.uint64)

    # Group-phase 1 bits, for the i-th coded 1 (coefficient j) of a plane
    # at offset `po`: the plane's first test bit (po + n, i == 1 only),
    # the run's terminating 1 (po + j + i, implied for the last
    # coefficient), and the next run's test bit (po + j + i + 1, unless
    # this was the plane's last 1).  In row-major order they ascend.
    if hit_key.size:
        s_start = np.cumsum(s) - s
        rank = np.arange(hit_key.size) - s_start[hit_key] + 1
        po = off.ravel()[hit_key]
        term = po + hit_j + rank
        pos = np.stack([po + n.ravel()[hit_key], term, term + 1], axis=1)
        ok = np.stack([rank == 1, hit_j != ncoef - 1, rank != s[hit_key]], axis=1)
        if maxbits is not None:
            ok &= pos < (r0 + (hit_b + 1) * maxbits)[:, None]
        pos = pos[ok]
        _or_sorted(words, pos >> 6, _U1 << (np.uint64(63) - (pos & 63).astype(np.uint64)))
    return words[:-1], lens


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
    step = max(1, _BATCH_CELLS // max(ncoef, int(nplanes.max(initial=0))))
    low = np.uint64((1 << intprec) - 1)  # planes above intprec are never coded
    lens = np.empty(nblocks, dtype=np.uint32)
    out: list[bytes] = []
    carry = np.zeros(0, dtype=np.uint64)  # the stream's unfinished last word
    total = 0
    for b0 in range(0, nblocks, step):
        v = np.bitwise_and(nb[b0 : b0 + step], low, order="C")
        words, blens = _encode_batch(v, nplanes[b0 : b0 + step], intprec, maxbits, total & 63)
        if total & 63:
            words[0] |= carry[0]
        lens[b0 : b0 + step] = blens
        done = (total + int(blens.sum())) // 64 - total // 64  # words now complete
        total += int(blens.sum())
        out.append(words[:done].astype(">u8").tobytes())
        carry = words[done:]
    out.append(carry.astype(">u8").tobytes()[: -(-(total & 63) // 8)])
    return b"".join(out), lens


def _read_window(words: np.ndarray, pos: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The 64 stream bits at ``pos``, zero at and past ``end``."""
    i = np.minimum(pos >> 6, words.size - 2)
    r = (pos & 63).view(np.uint64)
    w = (words[i] << r) | ((words[i + 1] >> _U1) >> (np.uint64(63) - r))
    return w & _TOP[np.clip(end - pos, 0, 64)]


def decode_blocks(
    payload: bytes,
    lens: np.ndarray,
    nplanes: np.ndarray,
    intprec: int,
    ncoef: int,
    maxbits: int | None = None,
) -> np.ndarray:
    """Invert :func:`encode_blocks`; returns ``(nblocks, ncoef)`` uint64.

    ``maxbits`` marks a fixed-rate stream: every block must then own
    exactly that many bits, and bits the encoder cut decode as zeros.
    Otherwise every block must consume exactly its ``lens`` bits.
    Inconsistent payloads raise ``ValueError("corrupt ZFP stream: ...")``.
    """
    lens = np.asarray(lens, dtype=np.int64)
    nplanes = np.asarray(nplanes, dtype=np.int64)
    nblocks = lens.size
    total_bits = int(lens.sum())
    if len(payload) != -(-total_bits // 8):
        raise ValueError(
            f"corrupt ZFP stream: payload is {len(payload)} bytes, "
            f"block table needs {-(-total_bits // 8)}"
        )
    if maxbits is not None and (lens != maxbits).any():
        raise ValueError("corrupt ZFP stream: fixed-rate block of the wrong size")
    nb = np.zeros((nblocks, ncoef), dtype=np.uint64)
    max_planes = int(nplanes.max(initial=0))
    if max_planes == 0:
        return nb
    # Two zero words past the end keep every window gather in bounds.
    raw = np.zeros(-(-len(payload) // 8) * 8 + 16, dtype=np.uint8)
    raw[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    words = raw.view(">u8").astype(np.uint64)

    # Blocks in order of decreasing plane count: the blocks still coding
    # plane p are then a prefix, and per-block state is sliced, not gathered.
    order = np.argsort(-nplanes, kind="stable")
    coded = -nplanes[order]  # ascending, for searchsorted
    ends = np.cumsum(lens)[order]
    cur = ends - lens[order]
    n = np.zeros(nblocks, dtype=np.int64)
    # Per block, the 64 stream bits from `wpos` on.  A plane needs at
    # most 2 * ncoef + 1 - n bits: up to 16 coefficients it always fits one
    # window, refilled per plane; 64-coefficient blocks refill a window
    # only when a test bit or a run's terminating 1 lies past its end.
    win = np.zeros(nblocks, dtype=np.uint64)
    wpos = cur - 64
    per_run = 2 * ncoef + 1 > 64
    planes = np.zeros((max_planes, nblocks), dtype=np.uint64)

    def refill(b):
        win[b] = _read_window(words, cur[b], ends[b])
        wpos[b] = cur[b]

    for p in range(max_planes):
        k = int(np.searchsorted(coded, -p))
        if k == 0:
            break
        pos, m = cur[:k], n[:k]
        need = m + 1 if per_run else 2 * ncoef + 1 - m
        refill(np.flatnonzero(pos - wpos[:k] + need > 64))
        np.bitwise_and(win[:k] << (pos - wpos[:k]).view(np.uint64), _TOP[m], out=planes[p, :k])
        pos += m

        # Group phase, one run per round: a test bit, then the zero run up
        # to the next 1 (or to the last coefficient, whose 1 is implied).
        live = np.flatnonzero(m < ncoef)
        nn = m[live]
        x = planes[p]
        while live.size:
            used = pos[live] - wpos[live]
            if per_run:
                refill(live[used >= 64])
                used = pos[live] - wpos[live]
            wl = win[live] << used.view(np.uint64)
            pos[live] += 1
            test = wl >= np.uint64(1 << 63)
            live, nn, wl = live[test], nn[test], wl[test] << _U1
            if live.size == 0:
                break
            z = 63 - _msb(wl)  # 64 when the window holds no further 1
            limit = ncoef - 1 - nn
            if per_run:  # window ran out before the run's end was seen
                used = used[test]
                short = np.flatnonzero((z >= 63 - used) & (limit > 63 - used))
                refill(live[short])
                z[short] = 63 - _msb(win[live[short]])
            boundary = z >= limit
            sig = np.where(boundary, ncoef - 1, nn + z)
            x[live] |= _U1 << (np.uint64(63) - sig.view(np.uint64))
            pos[live] += np.where(boundary, limit, z + 1)
            m[live] = nn = sig + 1
            more = nn < ncoef
            live, nn = live[more], nn[more]

    if maxbits is None and (cur != ends).any():
        raise ValueError("corrupt ZFP stream: block bit count does not match its planes")
    nb[order] = _unplane(planes, intprec, ncoef)
    return nb


def _unplane(planes: np.ndarray, intprec: int, ncoef: int) -> np.ndarray:
    """Inverse of :func:`_plane_words`: ``(nplanes, nblocks)`` words to blocks."""
    nblocks = planes.shape[1]
    nb = np.empty((nblocks, ncoef), dtype=np.uint64)
    step = max(1, 8 * _BATCH_CELLS // max(ncoef, planes.shape[0]))  # ~10 B scratch per cell
    for b0 in range(0, nblocks, step):
        rows = _bytes(np.ascontiguousarray(planes[:, b0 : b0 + step].T))
        cols = _bit_transpose(rows, 0, -(-ncoef // 8))
        nb[b0 : b0 + step] = cols[:, :ncoef] >> np.uint64(64 - intprec)
    return nb
