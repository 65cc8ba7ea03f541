"""Pinned ZFP stream digests: any byte drift in ZFP_A/P/R/T fails loudly.

The digests were recorded with the bit-per-byte plane coder (now
:mod:`repro.compressors.zfp.embedded_ref`) before the word-packed coder
replaced it.  Inputs come from integer hashing and exact power-of-two
scaling only, so they are identical on every platform and numpy version.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from repro import AbsoluteBound, PrecisionBound, RateBound, RelativeBound, get_compressor

_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def golden_field(shape: tuple[int, ...], seed: int, dtype) -> np.ndarray:
    """A smooth ramp plus hashed noise over 24 binades, with exact zeros."""
    n = int(np.prod(shape))
    with np.errstate(over="ignore"):
        h = (np.arange(n, dtype=np.uint64) + np.uint64(seed)) * _MIX[0]
        h = (h ^ (h >> np.uint64(30))) * _MIX[1]
        h = (h ^ (h >> np.uint64(27))) * _MIX[2]
        h ^= h >> np.uint64(31)
    mant = 1.0 + (h >> np.uint64(40)).astype(np.float64) / 2.0**24
    exp = ((h >> np.uint64(8)) & np.uint64(7)).astype(np.int64) - 4
    sign = np.where(h & np.uint64(1), -1.0, 1.0)
    ramp = (np.arange(n) % 97).astype(np.float64) / 8.0
    x = ramp + sign * np.ldexp(mant, exp)
    x[(h >> np.uint64(4)) & np.uint64(15) == 0] = 0.0
    return x.reshape(shape).astype(dtype)


CASES = {
    "zfp_a-f32-2d": ("ZFP_A", AbsoluteBound(1e-3), (30, 21), np.float32),
    "zfp_a-f64-3d": ("ZFP_A", AbsoluteBound(1e-7), (9, 10, 11), np.float64),
    "zfp_p-f32-3d": ("ZFP_P", PrecisionBound(14), (9, 10, 11), np.float32),
    "zfp_p-f64-1d": ("ZFP_P", PrecisionBound(40), (203,), np.float64),
    "zfp_r-f32-1d": ("ZFP_R", RateBound(6), (203,), np.float32),
    "zfp_r-f64-2d": ("ZFP_R", RateBound(20.5), (30, 21), np.float64),
    "zfp_t-f32-3d": ("ZFP_T", RelativeBound(1e-3), (9, 10, 11), np.float32),
    "zfp_t-f64-2d": ("ZFP_T", RelativeBound(1e-5), (30, 21), np.float64),
}

GOLDEN = {
    "zfp_a-f32-2d": "d2d560fc4ad00fb1daab85ecee2f947734385990681ade157db4ee768f26abb1",  # 1838 B
    "zfp_a-f64-3d": "5d03c1fec3626a8f7496a3ec11af06319bcbebfb235e36b4898fedd462a39e4a",  # 6595 B
    "zfp_p-f32-3d": "338ee0c5094c2cff137b9a0f54fb54a4164a64c53f7ea96c85825d050cdcec9c",  # 1964 B
    "zfp_p-f64-1d": "8cedf9946361a712cdd8e3403eb5aa66851412ff79240a614ce5c0a9df4b1196",  # 1198 B
    "zfp_r-f32-1d": "b7a979c7828b708db594e47fb3d3b76b95ece1e1e079518f047e07b3c2d21367",  # 331 B
    "zfp_r-f64-2d": "4c64cb7078331bb9561fcb9b5ed8bf562c46e9b056e36724ebe7c0387f32dbf8",  # 2135 B
    "zfp_t-f32-3d": "a404ca7d016b22d443899f2a2da1f62ced1fcc19e50ffcbe54f986de8107ad9c",  # 4509 B
    "zfp_t-f64-2d": "2d3696335c76679343d198e85751f0205919c1096cf2bf0d29c364bfa881b760",  # 2980 B
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_digest_pinned(name):
    codec, bound, shape, dtype = CASES[name]
    x = golden_field(shape, seed=zlib.crc32(name.encode()), dtype=dtype)
    blob = get_compressor(codec).compress(x, bound)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[name]
