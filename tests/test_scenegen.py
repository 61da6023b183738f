"""Scene generator and compositor tests: determinism, bias realization,
pixel provenance, manifest round trips and file-format errors."""

import json

import numpy as np
import pytest
from scipy import stats

from maskpool_lab import scenegen
from maskpool_lab.errors import ConfigurationError, ParseError


class TestBiasSpec:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            scenegen.BiasSpec(np.array([[0.5, 0.4]]))

    def test_entries_nonnegative(self):
        with pytest.raises(ConfigurationError):
            scenegen.BiasSpec(np.array([[1.5, -0.5]]))

    def test_concentrated_shape(self):
        b = scenegen.BiasSpec.concentrated(3, 4, 0.85)
        assert b.matrix.shape == (3, 4)
        assert np.allclose(b.matrix.sum(axis=1), 1.0)
        assert all(b.matrix[c, c % 4] == 0.85 for c in range(3))


class TestGeneration:
    def test_identity_like_bias_pins_texture(self):
        eye = np.zeros((3, 4))
        eye[np.arange(3), np.arange(3)] = 1.0
        recs = scenegen.generate_dataset(40, 96, bias=scenegen.BiasSpec(eye), seed=3)
        for rec in recs:
            for inst in rec.instances:
                assert inst.texture_id == inst.class_id

    def test_uniform_bias_chi_square(self):
        recs = scenegen.generate_dataset(
            2000, 96, bias=scenegen.BiasSpec.uniform(3, 4), seed=11, size_range=(14, 32))
        counts = np.zeros((3, 4))
        for rec in recs:
            for inst in rec.instances:
                counts[inst.class_id, inst.texture_id] += 1
        for c in range(3):
            _, p = stats.chisquare(counts[c])
            assert p > 0.01

    def test_same_seed_bitwise_identical(self, tmp_path):
        a = scenegen.generate_dataset(6, 96, seed=7, out_dir=tmp_path / "a")
        b = scenegen.generate_dataset(6, 96, seed=7, out_dir=tmp_path / "b")
        for ea, eb in zip(a.images, b.images):
            assert (a.root / ea["file"]).read_bytes() == (b.root / eb["file"]).read_bytes()
            assert (a.root / ea["mask_file"]).read_bytes() == (b.root / eb["mask_file"]).read_bytes()
        assert (a.root / "manifest.json").read_bytes() == (b.root / "manifest.json").read_bytes()

    def test_record_invariants(self):
        recs = scenegen.generate_dataset(25, 128, seed=2)
        for rec in recs:
            rec.validate()  # boxes inside bounds, boxes touch FG, mask binary
            assert rec.instances
            boxes = [i.box for i in rec.instances]
            for i, a in enumerate(boxes):
                for b in boxes[i + 1:]:
                    assert scenegen._box_overlap_frac(a, b) <= 0.3

    def test_boxes_are_tight(self):
        recs = scenegen.generate_dataset(10, 96, seed=9, objects_per_image=(1, 1))
        for rec in recs:
            (inst,) = rec.instances
            x0, y0, x1, y1 = (int(v) for v in inst.box)
            sub = rec.fg_mask[y0:y1, x0:x1]
            assert sub.any()
            assert sub[0].any() and sub[-1].any()
            assert sub[:, 0].any() and sub[:, -1].any()

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            scenegen.generate_dataset(0, 96)
        with pytest.raises(ConfigurationError):
            scenegen.generate_dataset(1, 96, objects_per_image=(0, 3))
        with pytest.raises(ConfigurationError):
            scenegen.generate_dataset(1, 32, size_range=(16, 44))

    def test_unplaceable_objects_warn_and_skip(self):
        with pytest.warns(UserWarning, match="skipped"):
            recs = scenegen.generate_dataset(3, 48, seed=4, size_range=(30, 34),
                                             objects_per_image=(4, 4))
        for rec in recs:
            assert 1 <= len(rec.instances) <= 4


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        manifest = scenegen.generate_dataset(4, 96, seed=1, out_dir=tmp_path)
        loaded = scenegen.load_dataset(tmp_path)
        assert loaded.classes == manifest.classes
        assert loaded.images == manifest.images
        assert loaded.seed == manifest.seed and loaded.bias == manifest.bias
        for i in range(4):
            a, b = manifest.load_record(i), loaded.load_record(i)
            assert a.image_id == b.image_id
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.fg_mask, b.fg_mask)
            assert [(x.class_id, x.box) for x in a.instances] == \
                   [(x.class_id, x.box) for x in b.instances]

    def test_truncated_mask_is_parse_error(self, tmp_path):
        manifest = scenegen.generate_dataset(1, 64, seed=1, out_dir=tmp_path)
        mask_path = tmp_path / manifest.images[0]["mask_file"]
        mask_path.write_bytes(mask_path.read_bytes()[:-100])
        with pytest.raises(ParseError, match="truncated"):
            scenegen.load_dataset(tmp_path).load_record(0)

    def test_non_binary_mask_rejected(self, tmp_path):
        manifest = scenegen.generate_dataset(1, 64, seed=1, out_dir=tmp_path)
        mask_path = tmp_path / manifest.images[0]["mask_file"]
        data = bytearray(mask_path.read_bytes())
        data[-1] = 7
        mask_path.write_bytes(bytes(data))
        with pytest.raises(ConfigurationError, match="non-binary mask"):
            scenegen.load_dataset(tmp_path).load_record(0)

    def test_bad_magic_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ParseError):
            scenegen.read_ppm(p)

    def test_header_offset_reported(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 x\n255\n\x00\x00\x00\x00")
        with pytest.raises(ParseError) as e:
            scenegen.read_mask_pgm(p)
        assert e.value.offset == 5

    def test_missing_file_reported(self, tmp_path):
        manifest = scenegen.generate_dataset(1, 64, seed=1, out_dir=tmp_path)
        (tmp_path / manifest.images[0]["file"]).unlink()
        with pytest.raises(ConfigurationError, match="missing image file"):
            scenegen.load_dataset(tmp_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = scenegen.generate_dataset(2, 64, seed=1, out_dir=tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["images"][1]["id"] = doc["images"][0]["id"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="duplicate"):
            scenegen.load_dataset(tmp_path)

    @pytest.mark.parametrize("entry, error", [({"width": 65}, "pixel size differs"),
                                              ({"instances": [{"class_id": 0, "bbox": [1, 1, 90, 9]}]},
                                               "outside 64x64 image")])
    def test_entry_disagreeing_with_its_files_names_dataset_and_image(self, tmp_path, entry, error):
        scenegen.generate_dataset(1, 64, seed=1, out_dir=tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["images"][0].update(entry)
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError) as e:
            scenegen.load_dataset(tmp_path).load_all()
        assert f"dataset {tmp_path}: image {doc['images'][0]['id']!r}:" in str(e.value)
        assert error in str(e.value)

    @pytest.mark.parametrize("case", ["entry without id", "instance without class_id",
                                      "non-numeric bbox", "instances not a list",
                                      "images not a list", "class_id past the classes",
                                      "negative class_id"])
    def test_malformed_manifest_is_parse_error(self, tmp_path, case):
        scenegen.generate_dataset(1, 64, seed=1, out_dir=tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        entry = doc["images"][0]
        named = f"image {entry['id']!r}:"
        if case == "entry without id":
            del entry["id"]
            named = "image entry 0:"
        elif case == "instance without class_id":
            del entry["instances"][0]["class_id"]
        elif case == "non-numeric bbox":
            entry["instances"][0]["bbox"] = ["a", 1, 2, 3]
        elif case == "instances not a list":
            entry["instances"] = 5
        elif case.endswith("class_id"):
            entry["instances"][0]["class_id"] = len(doc["classes"]) if "past" in case else -1
        else:
            doc["images"] = 3
            named = "'images' is not a list"
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError) as e:
            scenegen.load_dataset(tmp_path)
        assert e.value.path == str(tmp_path / "manifest.json") and e.value.offset == 0
        assert named in str(e.value)

    def test_comment_in_header_ok(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        m = scenegen.read_mask_pgm(p)
        assert m.tolist() == [[0, 1]]


def record_fixture(seed=0, size=64):
    return scenegen.generate_dataset(1, size, seed=seed)[0]


class TestCompositing:
    def test_all_fg_mask_keeps_input(self, rng):
        rec = record_fixture()
        rec2 = scenegen.ImageRecord(rec.image_id, rec.image, np.ones_like(rec.fg_mask),
                                    rec.instances)
        bg = rng.integers(0, 255, (64, 64, 3)).astype(np.uint8)
        out = scenegen.composite_with_bg(rec2, bg)
        assert np.array_equal(out.image, rec.image)

    def test_all_bg_mask_is_bg_image(self, rng):
        bg = rng.integers(0, 255, (64, 64, 3)).astype(np.uint8)
        rec = scenegen.ImageRecord("x", np.zeros((64, 64, 3), np.uint8),
                                   np.zeros((64, 64), np.uint8), [])
        out = scenegen.composite_with_bg(rec, bg)
        assert np.array_equal(out.image, bg)

    def test_pixel_provenance_hard_paste(self, rng):
        rec = record_fixture()
        bg = rng.integers(0, 255, (64, 64, 3)).astype(np.uint8)
        out = scenegen.composite_with_bg(rec, bg)
        fg = rec.fg_mask.astype(bool)
        assert np.array_equal(out.image[fg], rec.image[fg])
        assert np.array_equal(out.image[~fg], bg[~fg])

    def test_ground_truth_untouched(self, rng):
        rec = record_fixture()
        bg = rng.integers(0, 255, (100, 30, 3)).astype(np.uint8)
        out = scenegen.composite_with_bg(rec, bg, feather_radius=2, id_suffix="+x")
        assert out.image_id == rec.image_id + "+x"
        assert np.array_equal(out.fg_mask, rec.fg_mask)
        assert [(i.class_id, i.box) for i in out.instances] == \
               [(i.class_id, i.box) for i in rec.instances]

    def test_feather_blends_but_mask_binary(self, rng):
        rec = record_fixture()
        bg = rng.integers(0, 255, (64, 64, 3)).astype(np.uint8)
        out = scenegen.composite_with_bg(rec, bg, feather_radius=2)
        assert set(np.unique(out.fg_mask)) <= {0, 1}
        assert not np.array_equal(out.image, scenegen.composite_with_bg(rec, bg).image)

    def test_random_bg_pure_function_of_seed_and_id(self, rng):
        rec = record_fixture()
        pool = [rng.integers(0, 255, (64, 64, 3)).astype(np.uint8) for _ in range(5)]
        a = scenegen.composite_random_bg(rec, pool, seed=4)
        b = scenegen.composite_random_bg(rec, pool, seed=4)
        assert np.array_equal(a.image, b.image)
        assert a.image_id == rec.image_id + "+rbg"

    def test_random_bg_empty_pool(self):
        with pytest.raises(ConfigurationError):
            scenegen.composite_random_bg(record_fixture(), [], seed=0)

    def test_fixed_bg_shares_background(self, rng):
        recs = scenegen.generate_dataset(2, 64, seed=3)
        bg = rng.integers(0, 255, (64, 64, 3)).astype(np.uint8)
        outs = scenegen.composite_fixed_bg(recs, bg)
        assert [o.image_id for o in outs] == [r.image_id + "+1bg" for r in recs]
        both_bg = (recs[0].fg_mask == 0) & (recs[1].fg_mask == 0)
        assert np.array_equal(outs[0].image[both_bg], outs[1].image[both_bg])

    def test_fit_bg_scales_and_crops(self, rng):
        bg = rng.integers(0, 255, (30, 90, 3)).astype(np.uint8)
        fitted = scenegen._fit_bg(bg, 64, 64)
        assert fitted.shape == (64, 64, 3)

    def test_bg_pool_generation_deterministic(self):
        a = scenegen.generate_bg_pool(3, 64, seed=5)
        b = scenegen.generate_bg_pool(3, 64, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
