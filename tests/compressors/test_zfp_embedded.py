"""Embedded group-tested coder: exactness at full precision, prefix property."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compressors.zfp.embedded import decode_blocks, encode_blocks


def roundtrip(nb, nplanes, intprec):
    payload, lens = encode_blocks(nb, nplanes, intprec)
    return decode_blocks(payload, lens, nplanes, intprec, nb.shape[1]), lens


class TestExactRoundtrip:
    def test_full_planes_lossless(self):
        rng = np.random.default_rng(0)
        nb = rng.integers(0, 2**32, size=(40, 16)).astype(np.uint64)
        nplanes = np.full(40, 32, dtype=np.int64)
        out, _ = roundtrip(nb, nplanes, 32)
        np.testing.assert_array_equal(out, nb)

    def test_64_coefficients_3d_blocks(self):
        rng = np.random.default_rng(1)
        nb = rng.integers(0, 2**30, size=(10, 64)).astype(np.uint64)
        nplanes = np.full(10, 30, dtype=np.int64)
        out, _ = roundtrip(nb, nplanes, 30)
        np.testing.assert_array_equal(out, nb)

    def test_empty_blocks_emit_nothing(self):
        nb = np.zeros((5, 16), dtype=np.uint64)
        nplanes = np.zeros(5, dtype=np.int64)
        payload, lens = encode_blocks(nb, nplanes, 32)
        assert payload == b""
        np.testing.assert_array_equal(lens, 0)
        out = decode_blocks(payload, lens, nplanes, 32, 16)
        np.testing.assert_array_equal(out, 0)

    def test_mixed_plane_counts(self):
        rng = np.random.default_rng(2)
        nb = rng.integers(0, 2**20, size=(8, 16)).astype(np.uint64)
        nplanes = np.array([0, 5, 10, 20, 20, 3, 0, 20], dtype=np.int64)
        out, _ = roundtrip(nb, nplanes, 20)
        for b in range(8):
            kmin = 20 - nplanes[b]
            mask = ~np.uint64((1 << kmin) - 1)
            np.testing.assert_array_equal(out[b], nb[b] & mask)

    def test_single_block_single_coeff(self):
        nb = np.array([[7]], dtype=np.uint64)
        out, _ = roundtrip(nb, np.array([3]), 3)
        np.testing.assert_array_equal(out, nb)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),
        st.sampled_from([4, 16, 64]),
    )
    def test_property_truncation_prefix(self, seed, planes, ncoef):
        """Decoding p planes recovers exactly the top-p bit planes."""
        intprec = 16
        rng = np.random.default_rng(seed)
        nb = rng.integers(0, 1 << intprec, size=(6, ncoef)).astype(np.uint64)
        nplanes = np.full(6, planes, dtype=np.int64)
        out, _ = roundtrip(nb, nplanes, intprec)
        kmin = intprec - planes
        mask = ~np.uint64((1 << kmin) - 1)
        np.testing.assert_array_equal(out, nb & mask)


class TestBitBudget:
    def test_sparse_planes_cost_little(self):
        # One significant coefficient: group testing should emit far fewer
        # bits than verbatim coding would.
        nb = np.zeros((1, 64), dtype=np.uint64)
        nb[0, 0] = 1 << 29
        nplanes = np.array([30], dtype=np.int64)
        _, lens = encode_blocks(nb, nplanes, 30)
        assert int(lens[0]) < 30 * 64 / 4

    def test_dense_blocks_cost_more_than_sparse(self):
        rng = np.random.default_rng(3)
        sparse = np.zeros((1, 64), dtype=np.uint64)
        sparse[0, :2] = rng.integers(1 << 28, 1 << 29, 2)
        dense = rng.integers(1 << 28, 1 << 29, size=(1, 64)).astype(np.uint64)
        nplanes = np.array([30], dtype=np.int64)
        _, lens_sparse = encode_blocks(sparse, nplanes, 30)
        _, lens_dense = encode_blocks(dense, nplanes, 30)
        assert int(lens_dense[0]) > int(lens_sparse[0])

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ValueError):
            encode_blocks(np.zeros((1, 65), dtype=np.uint64), np.array([1]), 32)

    def test_lens_match_payload(self):
        rng = np.random.default_rng(4)
        nb = rng.integers(0, 2**16, size=(12, 16)).astype(np.uint64)
        nplanes = np.full(12, 16, dtype=np.int64)
        payload, lens = encode_blocks(nb, nplanes, 16)
        assert len(payload) == -(-int(lens.sum()) // 8)


def random_blocks(rng, nblocks, ncoef, intprec):
    """Coefficients spread over every magnitude, with zeros and tiny blocks."""
    nb = rng.integers(0, 2**intprec, size=(nblocks, ncoef), dtype=np.uint64)
    nb >>= rng.integers(0, intprec + 1, size=(nblocks, ncoef)).astype(np.uint64)
    nb[rng.random((nblocks, ncoef)) < 0.2] = 0
    nb[rng.random(nblocks) < 0.1] = 0
    return nb


class TestReferenceEquivalence:
    """The word-packed coder against the retained bit-per-byte one.

    ``embedded_ref`` is the frozen specification of the ZFP payload: every
    stream the word-packed encoder writes must be byte-identical to the
    reference's, and the decoders must agree on it.
    """

    @given(
        seed=st.integers(0, 2**31 - 1),
        nblocks=st.integers(1, 40),
        ncoef=st.sampled_from([4, 16, 64]),
        intprec=st.sampled_from([32, 62]),
        fixed_rate=st.booleans(),
        batch=st.sampled_from([64, 1 << 15]),
    )
    def test_property_matches_reference(self, seed, nblocks, ncoef, intprec, fixed_rate, batch):
        from repro.compressors.zfp import embedded, embedded_ref

        rng = np.random.default_rng(seed)
        nb = random_blocks(rng, nblocks, ncoef, intprec)
        nplanes = rng.integers(0, intprec + 1, size=nblocks)
        maxbits = int(rng.integers(1, 2 * intprec * (ncoef + 1))) if fixed_rate else None
        old = embedded._BATCH_CELLS
        embedded._BATCH_CELLS = batch  # small batches: unaligned batch joins
        try:
            payload, lens = encode_blocks(nb, nplanes, intprec, maxbits=maxbits)
        finally:
            embedded._BATCH_CELLS = old
        ref_payload, ref_lens = embedded_ref.encode_blocks(nb, nplanes, intprec, maxbits=maxbits)
        assert payload == ref_payload
        np.testing.assert_array_equal(lens, ref_lens)
        assert lens.dtype == ref_lens.dtype

        out = decode_blocks(payload, lens, nplanes, intprec, ncoef, maxbits=maxbits)
        if maxbits is None:
            expect = embedded_ref.decode_blocks(ref_payload, ref_lens, nplanes, intprec, ncoef)
        else:
            wide, wide_lens = embedded_ref.expand_fixed_rate(
                ref_payload, nblocks, maxbits, nplanes, ncoef
            )
            expect = embedded_ref.decode_blocks(wide, wide_lens, nplanes, intprec, ncoef)
        np.testing.assert_array_equal(out, expect)

    def test_many_batches_match_reference(self):
        from repro.compressors.zfp import embedded_ref

        rng = np.random.default_rng(5)
        nb = random_blocks(rng, 20_000, 4, 32)
        nplanes = rng.integers(0, 33, size=nb.shape[0])
        payload, lens = encode_blocks(nb, nplanes, 32)
        ref_payload, ref_lens = embedded_ref.encode_blocks(nb, nplanes, 32)
        assert payload == ref_payload
        np.testing.assert_array_equal(lens, ref_lens)
        keep = ~((np.uint64(1) << (32 - nplanes).astype(np.uint64)) - np.uint64(1))
        np.testing.assert_array_equal(
            decode_blocks(payload, lens, nplanes, 32, 4), nb & keep[:, None]
        )


class TestCorruptPayload:
    """Inconsistent payloads raise ``ValueError``, never decode silently."""

    def stream(self):
        rng = np.random.default_rng(6)
        nb = rng.integers(0, 2**32, size=(100, 16)).astype(np.uint64)
        nplanes = np.full(100, 32, dtype=np.int64)
        payload, lens = encode_blocks(nb, nplanes, 32)
        return payload, lens, nplanes

    def test_truncated_payload(self):
        payload, lens, nplanes = self.stream()
        with pytest.raises(ValueError, match="corrupt ZFP stream"):
            decode_blocks(payload[: len(payload) // 2], lens, nplanes, 32, 16)

    def test_corrupted_lens(self):
        payload, lens, nplanes = self.stream()
        ones = np.ones_like(lens)
        with pytest.raises(ValueError, match="corrupt ZFP stream"):
            decode_blocks(payload, ones, nplanes, 32, 16)
        # Same total, wrong split: cursors must stop at their block's end.
        with pytest.raises(ValueError, match="corrupt ZFP stream"):
            decode_blocks(payload[:13], ones, nplanes, 32, 16)
        shuffled = lens.copy()
        shuffled[0] += 5
        shuffled[1] -= 5
        with pytest.raises(ValueError, match="corrupt ZFP stream"):
            decode_blocks(payload, shuffled, nplanes, 32, 16)

    def test_fixed_rate_block_of_wrong_size(self):
        nb = np.zeros((4, 16), dtype=np.uint64)
        nplanes = np.full(4, 32, dtype=np.int64)
        payload, lens = encode_blocks(nb, nplanes, 32, maxbits=40)
        lens = lens.copy()
        lens[0], lens[1] = 30, 50
        with pytest.raises(ValueError, match="corrupt ZFP stream"):
            decode_blocks(payload, lens, nplanes, 32, 16, maxbits=40)
