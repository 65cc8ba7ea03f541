"""Container framing: typed sections, serialization, corruption handling."""

import numpy as np
import pytest

from repro.encoding import (
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
    TruncatedStreamError,
    section_byte_ranges,
)


class TestSections:
    def test_basic_roundtrip(self):
        box = Container("TEST")
        box.put("a", b"hello")
        box.put("b", b"")
        out = Container.from_bytes(box.to_bytes())
        assert out.codec == "TEST"
        assert out.get("a") == b"hello"
        assert out.get("b") == b""
        assert list(out.keys()) == ["a", "b"]

    def test_duplicate_key_rejected(self):
        box = Container("TEST")
        box.put("a", b"x")
        with pytest.raises(ContainerError):
            box.put("a", b"y")

    def test_missing_key_raises_with_codec_name(self):
        box = Container("MYCODEC")
        with pytest.raises(ContainerError, match="MYCODEC"):
            box.get("nope")

    def test_contains_and_iter(self):
        box = Container("TEST")
        box.put("k", b"v")
        assert "k" in box and "x" not in box
        assert list(box) == ["k"]

    def test_empty_codec_rejected(self):
        with pytest.raises(ValueError):
            Container("")


class TestTypedHelpers:
    def test_scalars(self):
        box = Container("T")
        box.put_u64("u", 2**40)
        box.put_i64("i", -7)
        box.put_f64("f", 3.5)
        box.put_str("s", "héllo")
        out = Container.from_bytes(box.to_bytes())
        assert out.get_u64("u") == 2**40
        assert out.get_i64("i") == -7
        assert out.get_f64("f") == 3.5
        assert out.get_str("s") == "héllo"

    def test_shape_and_dtype(self):
        box = Container("T")
        box.put_shape("sh", (3, 4, 5))
        box.put_shape("sh0", ())
        box.put_dtype("dt", np.float32)
        out = Container.from_bytes(box.to_bytes())
        assert out.get_shape("sh") == (3, 4, 5)
        assert out.get_shape("sh0") == ()
        assert out.get_dtype("dt") == np.float32

    def test_unsupported_dtype_rejected(self):
        box = Container("T")
        with pytest.raises(ContainerError):
            box.put_dtype("dt", np.complex128)

    def test_array_roundtrip(self):
        box = Container("T")
        arr = np.array([1.5, -2.5, 0.0], dtype=np.float64)
        box.put_array("a", arr)
        out = Container.from_bytes(box.to_bytes()).get_array("a")
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.float64


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            Container.from_bytes(b"XXXX\x01")

    def test_bad_version(self):
        blob = bytearray(Container("T").to_bytes())
        blob[4] = 99
        with pytest.raises(ContainerError, match="version"):
            Container.from_bytes(bytes(blob))

    def test_truncated_section_v1(self):
        box = Container("T")
        box.put("a", b"0123456789")
        blob = box.to_bytes(checksums=False)[:-5]
        with pytest.raises(ContainerError, match="truncated"):
            Container.from_bytes(blob)

    def test_truncated_v2_fails_checksum(self):
        box = Container("T")
        box.put("a", b"0123456789")
        blob = box.to_bytes()[:-5]
        with pytest.raises(ChecksumError):
            Container.from_bytes(blob)

    def test_truncated_v2_structural_without_verification(self):
        box = Container("T")
        box.put("a", b"0123456789")
        blob = box.to_bytes()[:-5]
        with pytest.raises(TruncatedStreamError):
            Container.from_bytes(blob, verify_checksums=False)

    def test_nbytes_matches_serialization(self):
        box = Container("T")
        box.put("a", b"abc")
        assert box.nbytes == len(box.to_bytes())


class TestScanChecksums:
    """One pass yields the whole-stream CRC and the damaged sections."""

    @staticmethod
    def blob():
        box = Container("T")
        box.put("small", b"xy")
        box.put("empty", b"")
        box.put("big", np.arange(5000, dtype=np.uint32).tobytes())
        box.put("tail", b"0123456789" * 10)
        return box.to_bytes()

    def test_clean_stream_matches_direct_crc(self):
        from repro.encoding.crc import crc32c

        blob = self.blob()
        crc, damaged = Container.from_bytes(blob).scan_checksums(blob)
        assert crc == crc32c(blob[:-4])
        assert damaged == []

    def test_damaged_section_is_named(self):
        from repro.encoding.crc import crc32c

        blob = bytearray(self.blob())
        box = Container.from_bytes(bytes(blob))
        big = box.get("big")
        at = bytes(blob).index(big) + 1234
        blob[at] ^= 0x10
        damaged_box = Container.from_bytes(bytes(blob), verify_checksums=False)
        crc, damaged = damaged_box.scan_checksums(bytes(blob))
        assert damaged == ["big"]
        assert crc == crc32c(bytes(blob[:-4]))

    def test_every_byte_hashed_once(self, monkeypatch):
        from repro.encoding import container

        blob = self.blob()
        box = Container.from_bytes(blob)
        hashed = []
        real = container.crc32c
        monkeypatch.setattr(container, "crc32c", lambda d, v=0: hashed.append(len(d)) or real(d, v))
        box.scan_checksums(blob)
        assert sum(hashed) == len(blob) - 4
