"""ZFP plane coder: the word-packed coder against its frozen reference.

``repro.compressors.zfp.embedded_ref`` is the bit-per-byte coder the
word-packed one replaced, kept as the payload specification.  On a 1-D
HACC field (4 coefficients per block, the coder's worst case: one token
per block and plane) and a 3-D Hurricane field (64 per block), each test

* asserts byte identity: payload and block lengths equal the reference's,
  and both decoders return the same coefficients;
* times encode + decode of both coders (fastest of ``ROUNDS`` each, rounds
  interleaved) and asserts the word-packed coder is at least
  ``MIN_SPEEDUP`` times faster.

The coefficients are those ZFP_T codes: the block transform of the
field's log2 magnitudes, at an absolute tolerance of ``log2(1 + 1e-4)``
(close to ZFP_T's for ``br = 1e-4``).
"""

import time

import numpy as np
import pytest

from repro.compressors.zfp import embedded, embedded_ref
from repro.compressors.zfp.fixedpoint import (
    block_exponents,
    intprec_for,
    negabinary_encode,
    quantize_blocks,
)
from repro.compressors.zfp.transform import fwd_xform, sequency_order
from repro.compressors.zfp.zfp import planes_for_tolerance
from repro.data import load_field
from repro.utils.blocking import block_partition

MIN_SPEEDUP = 2.0
ROUNDS = 3
FIELDS = [("HACC", "velocity_x"), ("Hurricane", "Uf48")]


def plane_coder_input(app: str, name: str):
    """``(nb, nplanes, intprec)`` of ZFP_T's inner ZFP on one field."""
    data = load_field(app, name)
    logs = np.log2(np.maximum(np.abs(data), np.finfo(data.dtype).tiny)).astype(data.dtype)
    intprec = intprec_for(logs.dtype)
    tiles, _ = block_partition(logs, 4)
    emax = block_exponents(tiles)
    coeffs = fwd_xform(quantize_blocks(tiles, emax, intprec)).reshape(tiles.shape[0], -1)
    nb = negabinary_encode(coeffs[:, sequency_order(logs.ndim)[0]])
    nplanes = planes_for_tolerance(emax, np.log2(1 + 1e-4), logs.ndim, intprec)
    return nb, nplanes, intprec


def round_trip(coder, nb, nplanes, intprec):
    """``(payload, lens, decoded)`` through one coder module."""
    payload, lens = coder.encode_blocks(nb, nplanes, intprec)
    return payload, lens, coder.decode_blocks(payload, lens, nplanes, intprec, nb.shape[1])


@pytest.mark.benchmark(group="zfp-planes", min_rounds=ROUNDS)
@pytest.mark.parametrize("app,name", FIELDS, ids=[f"{a}-{n}" for a, n in FIELDS])
def test_word_packed_coder(benchmark, app, name):
    nb, nplanes, intprec = plane_coder_input(app, name)
    payload, lens, out = benchmark.pedantic(
        round_trip, args=(embedded, nb, nplanes, intprec), rounds=ROUNDS, iterations=1
    )
    ref_payload, ref_lens, ref_out = round_trip(embedded_ref, nb, nplanes, intprec)
    assert payload == ref_payload
    np.testing.assert_array_equal(lens, ref_lens)
    np.testing.assert_array_equal(out, ref_out)

    best = {"new": np.inf, "ref": np.inf}
    for _ in range(ROUNDS):
        for label, coder in (("new", embedded), ("ref", embedded_ref)):
            t0 = time.perf_counter()
            round_trip(coder, nb, nplanes, intprec)
            best[label] = min(best[label], time.perf_counter() - t0)
    speedup = best["ref"] / best["new"]
    benchmark.extra_info.update(
        nbytes=int(nb.shape[0] * nb.shape[1] * 4),
        out_bytes=len(payload),
        ref_s=round(best["ref"], 4),
        new_s=round(best["new"], 4),
        speedup_vs_ref=round(speedup, 2),
    )
    assert speedup >= MIN_SPEEDUP, f"word-packed coder only {speedup:.2f}x the reference"
