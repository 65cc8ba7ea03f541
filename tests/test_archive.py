"""Multi-field archive API."""

import numpy as np
import pytest

from repro import AbsoluteBound, RelativeBound
from repro.archive import archive_manifest, compress_dataset, decompress_dataset


@pytest.fixture()
def fields(smooth_positive_3d, signed_2d):
    return {"density": smooth_positive_3d, "velocity": signed_2d}


class TestArchive:
    def test_roundtrip_uniform_settings(self, fields):
        blob = compress_dataset(fields, RelativeBound(1e-2))
        out = decompress_dataset(blob)
        assert list(out) == ["density", "velocity"]
        for name, data in fields.items():
            x = data.astype(np.float64)
            xd = out[name].astype(np.float64)
            nz = x != 0
            assert (np.abs(xd[nz] - x[nz]) / np.abs(x[nz])).max() <= 1e-2

    def test_per_field_settings(self, fields):
        blob = compress_dataset(
            fields,
            bound={"density": RelativeBound(1e-3),
                   "velocity": AbsoluteBound(1.0)},
            compressor={"density": "SZ_T", "velocity": "ZFP_A"},
        )
        manifest = archive_manifest(blob)
        assert manifest["density"]["codec"] == "SZ_T"
        assert manifest["velocity"]["codec"] == "ZFP_A"
        out = decompress_dataset(blob)
        assert np.abs(out["velocity"].astype(np.float64)
                      - fields["velocity"].astype(np.float64)).max() <= 1.0

    def test_manifest_metadata(self, fields):
        blob = compress_dataset(fields, RelativeBound(1e-2))
        manifest = archive_manifest(blob)
        assert manifest["density"]["shape"] == fields["density"].shape
        assert manifest["density"]["dtype"] == "float32"
        assert manifest["density"]["nbytes"] > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compress_dataset({}, RelativeBound(1e-2))

    def test_non_archive_stream_rejected(self, fields):
        from repro import compress

        plain = compress(fields["density"], RelativeBound(1e-2))
        with pytest.raises(ValueError, match="archive"):
            decompress_dataset(plain)
        with pytest.raises(ValueError, match="archive"):
            archive_manifest(plain)


class TestArchiveViews:
    def test_info_lists_every_field(self, fields, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "snap.rpz"
        path.write_bytes(compress_dataset(fields, RelativeBound(1e-2)))
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "codec:  ARCHIVE" in out
        manifest = archive_manifest(path.read_bytes())
        for name, entry in manifest.items():
            assert (
                f"field {name}: {entry['codec']} {entry['shape']} "
                f"{entry['dtype']}, {entry['nbytes']} B"
            ) in out

    def test_attribution_recurses_into_fields(self, fields):
        from repro.observe.quality import attribute_bytes, section_kind_map

        blob = compress_dataset(fields, RelativeBound(1e-2))
        tree = attribute_bytes(blob)
        tree.check_exhaustive()
        sections = {c.name: c for c in tree.children if c.kind == "section"}
        for name in fields:
            payload = sections[f"field:{name}"].children[1]
            assert payload.kind == "container"
            assert payload.children[0].note == "magic+version+codec(SZ_T)+nsec"
        kinds = section_kind_map(tree)
        assert all(kinds[f"field:{name}"].startswith("entropy") for name in fields)
