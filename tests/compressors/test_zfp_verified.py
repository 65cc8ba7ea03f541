"""``compress_verified`` hands back exactly what ``decompress`` yields.

Accuracy and precision modes build that reconstruction from the encoder's
own coefficients, masked to the coded planes, without decoding the
stream; fixed rate round-trips.  Either way the array must match the
decoder's bit for bit, or the outer relative verify checks the wrong data.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.compressors import (
    AbsoluteBound,
    PrecisionBound,
    RateBound,
    RelativeBound,
    ZFPCompressor,
)
from repro.core.pwr import make_zfp_t

shapes = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)


def field(seed, shape, dtype, decades=30):
    """Mixed magnitudes, whole zero blocks and denormal-only blocks."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-decades, decades + 1, size=shape)
    flat = x.reshape(-1)
    flat[rng.random(flat.size) < 0.15] = 0.0
    x = x.astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    if x.ndim and x.shape[0] > 4:
        x[:4] = 0.0  # an all-zero leading block row
    if x.ndim and x.shape[-1] > 4:
        x[..., -1:] = (rng.integers(-3, 4, size=x[..., -1:].shape) * tiny).astype(dtype)
    return x


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))


@given(
    seed=st.integers(0, 2**31 - 1),
    shape=shapes,
    dtype=st.sampled_from([np.float32, np.float64]),
    tolerance=st.sampled_from([1e-300, 1e-40, 1e-12, 1e-6, 1e-3, 1.0, 1e6]),
)
def test_accuracy_reconstruction_matches_decode(seed, shape, dtype, tolerance):
    comp = ZFPCompressor("accuracy")
    x = field(seed, shape, dtype)
    blob, recon = comp.compress_verified(x, AbsoluteBound(tolerance))
    assert blob == comp.compress(x, AbsoluteBound(tolerance))
    assert_bits_equal(recon, comp.decompress(blob))


@given(
    seed=st.integers(0, 2**31 - 1),
    shape=shapes,
    dtype=st.sampled_from([np.float32, np.float64]),
    bits=st.integers(2, 64),
)
def test_precision_reconstruction_matches_decode(seed, shape, dtype, bits):
    comp = ZFPCompressor("precision")
    x = field(seed, shape, dtype)
    blob, recon = comp.compress_verified(x, PrecisionBound(bits))
    assert_bits_equal(recon, comp.decompress(blob))


@given(
    seed=st.integers(0, 2**31 - 1),
    shape=shapes,
    dtype=st.sampled_from([np.float32, np.float64]),
    rate=st.sampled_from([0.5, 1.0, 3.25, 8.0, 24.0, 64.0]),
)
def test_rate_reconstruction_matches_decode(seed, shape, dtype, rate):
    comp = ZFPCompressor("rate")
    x = field(seed, shape, dtype)
    blob, recon = comp.compress_verified(x, RateBound(rate))
    assert_bits_equal(recon, comp.decompress(blob))


@given(
    seed=st.integers(0, 2**31 - 1),
    shape=shapes,
    dtype=st.sampled_from([np.float32, np.float64]),
    br=st.sampled_from([1e-1, 1e-2, 1e-3]),
)
def test_zfp_t_reconstruction_matches_decode(seed, shape, dtype, br):
    comp = make_zfp_t()
    x = field(seed, shape, dtype, decades=3)
    blob, recon = comp.compress_verified(x, RelativeBound(br))
    assert_bits_equal(recon, comp.decompress(blob))


def test_all_zero_and_denormal_only_fields():
    comp = ZFPCompressor("accuracy")
    for dtype in (np.float32, np.float64):
        tiny = np.finfo(dtype).smallest_subnormal
        for x in (
            np.zeros((5, 6), dtype=dtype),
            np.full((9, 3, 2), tiny, dtype=dtype),
            (np.arange(-8, 9) * tiny).astype(dtype),
        ):
            for tol in (float(np.finfo(dtype).smallest_normal) / 1024, 1e-30, 1.0):
                blob, recon = comp.compress_verified(x, AbsoluteBound(tol))
                assert_bits_equal(recon, comp.decompress(blob))


def test_verified_compress_does_not_decode(monkeypatch):
    """Accuracy mode builds the reconstruction without the plane decoder."""
    from repro.compressors.zfp import zfp

    def fail(*args, **kwargs):
        raise AssertionError("decode_blocks called during compress_verified")

    monkeypatch.setattr(zfp, "decode_blocks", fail)
    x = field(3, (17, 9), np.float32)
    blob, _ = ZFPCompressor("accuracy").compress_verified(x, AbsoluteBound(1e-3))
    make_zfp_t().compress_verified(x, RelativeBound(1e-3))
    assert blob
