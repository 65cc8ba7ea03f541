"""Corruption robustness: damaged streams must fail loudly, not crash.

Every decoder in the library reports damage through the
:class:`~repro.StreamError` hierarchy -- ``ContainerError`` for structure,
``ChecksumError`` for CRC mismatches, ``TruncatedStreamError`` for early
ends.  Leaked internals (``IndexError`` deep in numpy, ``zlib.error``,
``struct.error``) are bugs: they would be indistinguishable from library
defects, so they are no longer acceptable here.  Since the v2 container
checksums every stream, payload bit-flips are *detected*, not silently
decoded to a wrong array.
"""

import numpy as np
import pytest

from repro import (
    AbsoluteBound,
    ChecksumError,
    PrecisionBound,
    RelativeBound,
    StreamError,
    get_compressor,
)

ACCEPTABLE = (StreamError,)


def bounds_for(name):
    return {
        "SZ_ABS": AbsoluteBound(1e-2),
        "SZ2_ABS": AbsoluteBound(1e-2),
        "ZFP_A": AbsoluteBound(1e-2),
        "SZ_PWR": RelativeBound(1e-2),
        "ISABELA": RelativeBound(1e-2),
        "SZ_T": RelativeBound(1e-2),
        "ZFP_T": RelativeBound(1e-2),
        "FPZIP": PrecisionBound(19),
    }[name]


@pytest.fixture(scope="module")
def payloads(smooth_positive_3d):
    blobs = {}
    for name in ("SZ_ABS", "SZ_T", "ZFP_A", "FPZIP", "ISABELA", "SZ_PWR", "SZ2_ABS"):
        comp = get_compressor(name)
        blobs[name] = comp.compress(smooth_positive_3d, bounds_for(name))
    return blobs


class TestTruncation:
    @pytest.mark.parametrize("name", ["SZ_ABS", "SZ_T", "ZFP_A", "FPZIP", "ISABELA"])
    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9, 0.99])
    def test_truncated_stream_fails_cleanly(self, payloads, name, keep):
        blob = payloads[name]
        cut = blob[: int(len(blob) * keep)]
        comp = get_compressor(name)
        with pytest.raises(ACCEPTABLE):
            comp.decompress(cut)

    def test_empty_stream(self):
        with pytest.raises(ACCEPTABLE):
            get_compressor("SZ_T").decompress(b"")


class TestBitFlips:
    @pytest.mark.parametrize("name", ["SZ_ABS", "SZ_T", "ZFP_A", "FPZIP", "SZ_PWR", "SZ2_ABS"])
    def test_random_byte_corruption_always_detected(self, payloads, name):
        rng = np.random.default_rng(sum(name.encode()))
        blob = bytearray(payloads[name])
        comp = get_compressor(name)
        for _ in range(20):
            damaged = bytearray(blob)
            # distinct positions so two flips can never cancel each other
            for pos in rng.choice(np.arange(5, len(damaged)), size=3, replace=False):
                damaged[pos] ^= int(rng.integers(1, 256))
            # v2 streams are checksummed: corruption past the 5-byte header
            # always surfaces as ChecksumError, never as a wrong array.
            with pytest.raises(ChecksumError):
                comp.decompress(bytes(damaged))

    def test_header_corruption_detected(self, payloads):
        blob = bytearray(payloads["SZ_T"])
        blob[0] ^= 0xFF  # break the magic
        with pytest.raises(ACCEPTABLE):
            get_compressor("SZ_T").decompress(bytes(blob))

    def test_swapped_codec_rejected(self, payloads):
        with pytest.raises(ACCEPTABLE):
            get_compressor("ZFP_A").decompress(payloads["SZ_ABS"])


def _flip_msb(blob, key, last=False):
    """Set/clear the top bit of the first (or last) payload byte of ``key``."""
    from repro.encoding.container import section_byte_ranges
    from repro.testing.faults import flip_bit

    start, stop = section_byte_ranges(blob)[key]
    return flip_bit(blob, 8 * (stop - 1 if last else start))


@pytest.fixture(scope="module")
def ladder_blob(smooth_positive_3d):
    from repro.core.chunked import ChunkedCompressor

    comp = ChunkedCompressor(
        "SZ_T", chunk_bytes=1 << 14, executor="serial", policy="ladder=SZ_T>GZIP"
    )
    return comp.compress(smooth_positive_3d, RelativeBound(1e-2))


class TestMalformedMetadata:
    """One flipped byte in a typed metadata section is damage to report,
    never a raw ``ValueError``/``UnicodeDecodeError``/``struct.error``."""

    def test_typed_accessors_raise_container_error(self):
        from repro.encoding.container import Container, ContainerError

        box = Container("X")
        box.put("shape", b"\x03\x18\x18\x98")  # last varint never ends
        box.put("text", b"\xd3Z")
        box.put("short", b"\x01\x02\x03")
        for call in (
            lambda: box.get_shape("shape"),
            lambda: box.get_str("text"),
            lambda: box.get_u64("short"),
            lambda: box.get_i64("short"),
            lambda: box.get_f64("short"),
        ):
            with pytest.raises(ContainerError):
                call()

    def test_shape_flip_is_a_verify_problem_on_chunked(self, ladder_blob):
        from repro import verify_stream

        report = verify_stream(_flip_msb(ladder_blob, "shape", last=True))
        assert not report.ok
        assert any("'shape'" in p for p in report.problems)

    @pytest.mark.parametrize("name", ["SZ_T", "ZFP_T"])
    def test_shape_flip_explains_as_damaged(self, smooth_positive_3d, tmp_path, capsys, name):
        from repro.cli import main

        blob = get_compressor(name).compress(smooth_positive_3d, RelativeBound(1e-2))
        path = tmp_path / "bad.rpz"
        path.write_bytes(_flip_msb(blob, "shape", last=True))
        assert main(["explain", str(path)]) == 2
        assert "status: **DAMAGED**" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["ladder", "chunk_codecs"])
    def test_ladder_record_flip_explains_as_damaged(self, ladder_blob, key):
        from repro.observe.quality import explain_stream

        report = explain_stream(_flip_msb(ladder_blob, key))
        assert not report.ok
        assert any(key in note for note in report.notes)
        report.format()
