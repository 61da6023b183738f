"""sha256 pins of in-memory ``scenegen.generate_dataset`` output.

Each case hashes every record's id, image and mask bytes (with dtype and
shape) and every instance's class id, box and texture id, in order.  The
cases cover four image sizes, each texture alone, uniform and concentrated
bias, one and many objects per image, a small size range, and a crowded
64 px config whose placements give up after 100 tries.  Any change to the
renderer, the rasterizer, the placement loop or the order of the RNG draws
moves a digest.  Only a change that alters the generated scenes on purpose
re-records them.  The generator is also compared, record by record, with the
full-grid one it replaced (``scenegen_reference``), over more sizes and seeds.
"""

import hashlib
import warnings

import numpy as np
import pytest
import scenegen_reference

from maskpool_lab import scenegen

# name -> generate_dataset keyword arguments
CASES = {
    "size64": dict(n_images=12, image_size=64, seed=151),
    "size96": dict(n_images=12, image_size=96, seed=152),
    "size128": dict(n_images=12, image_size=128, seed=153),
    "size160": dict(n_images=8, image_size=160, seed=154),
    "stripes": dict(n_images=10, image_size=96, textures=("stripes",), seed=155),
    "checker": dict(n_images=10, image_size=96, textures=("checker",), seed=156),
    "noise": dict(n_images=10, image_size=96, textures=("noise",), seed=157),
    "gradient": dict(n_images=10, image_size=96, textures=("gradient",), seed=158),
    "uniform": dict(n_images=12, image_size=128, bias=scenegen.BiasSpec.uniform(3, 4), seed=159),
    "concentrated": dict(n_images=12, image_size=128, bias=scenegen.BiasSpec.concentrated(3, 4),
                         seed=160),
    "one_object": dict(n_images=12, image_size=96, objects_per_image=(1, 1), seed=161),
    "many_objects": dict(n_images=12, image_size=128, objects_per_image=(3, 6), seed=162),
    "small_objects": dict(n_images=12, image_size=64, size_range=(3, 8), seed=163),
    "crowded": dict(n_images=12, image_size=64, objects_per_image=(4, 4), size_range=(40, 44),
                    seed=164),
}
# name -> (sha256 of the records, "no non-overlapping placement" warnings)
PINS = {
    "size64": ("52744b3bd36a3d3fdefbe6ddbc2c260a838b59f2f5379fb5aec7f4c4414c74c1", 2),
    "size96": ("9389b28b13512357b99dbb72a501a12af28dcb689dcbd1a55811801fd4550d0e", 0),
    "size128": ("ffecb5d775ad921b3839b1c67e12242695153a07fd00ca8fb20ece22ebc6c6a5", 0),
    "size160": ("9819fddf38f9984a95caaf939c281052b5e321336f8813025887ffd5c915b1d6", 0),
    "stripes": ("74324caa6a8e6b19c5268eda7f3351f2a07fa843d5bc8859177357f7671d3eb9", 0),
    "checker": ("132278da01965fb71238f0bd8e7082183836cc899248a49efabef06a83099f76", 0),
    "noise": ("ab1e58cc152a4093478aa66a1d285286a727cd0a85c92654a939a4c1bb20de05", 0),
    "gradient": ("a0482a1f9219b9e66c0e1667c44441b24fcf69212b44dcabfba0bc8950241c22", 0),
    "uniform": ("13203b8172e014b8b1a337cf7e14586611b18b71906eebf642f9fc368732e629", 0),
    "concentrated": ("12a4d26876eac719359875b710456927bf18966c9d3bb40e0e40d9647a007986", 0),
    "one_object": ("15d312ffd998e5e5db57101cb15acbde263aa20ea76ea946a3b88cb5d86533e1", 0),
    "many_objects": ("f8e5be38c590e17283a01161eaa7cb68510ee115b4f1f73f10f83c9e04868f0a", 0),
    "small_objects": ("f1cae01bafafa884c47acbfe6830a74dd4fd236341f1e202bc78bc504a160093", 0),
    "crowded": ("a3a92749813ef45f00e9e86ff3f6f81d53c21f650b743f8694d644a48f4f56c6", 36),
}


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.image_id.encode())
        for arr in (rec.image, rec.fg_mask):
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
        for inst in rec.instances:
            h.update(repr((inst.class_id, inst.box, inst.texture_id)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_records_match_pins(name):
    pin, n_skipped = PINS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = scenegen.generate_dataset(**CASES[name])
    skipped = [w for w in caught if "no non-overlapping placement after 100 tries" in str(w.message)]
    assert len(skipped) == n_skipped
    assert digest(records) == pin


def same_record(a, b) -> bool:
    return (a.image_id == b.image_id and digest([a]) == digest([b])
            and a.image.flags.c_contiguous and a.fg_mask.flags.c_contiguous)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("size, size_range, objects, bias", [
    (48, (8, 30), (1, 4), "uniform"),
    (128, (16, 44), (1, 4), "concentrated"),
    (130, (2, 9), (3, 6), "uniform"),
    (300, (16, 80), (1, 8), "concentrated"),
])
def test_records_match_full_grid_reference(seed, size, size_range, objects, bias):
    spec = getattr(scenegen.BiasSpec, bias)(3, 4)
    args = (size, scenegen.DEFAULT_CLASSES, scenegen.DEFAULT_TEXTURES, spec, objects, size_range, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index in range(4):
            assert same_record(scenegen._generate_record(index, *args),
                               scenegen_reference.generate_record(index, *args))


@pytest.mark.parametrize("texture", scenegen.DEFAULT_TEXTURES)
@pytest.mark.parametrize("h, w", [(1, 1), (7, 300), (129, 64), (257, 260)])
def test_textures_match_full_grid_reference(texture, h, w):
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = scenegen._render_texture(texture, h, w, rng)
        want = scenegen_reference.render_texture(texture, h, w, ref_rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws


def test_shapes_and_boxes_match_full_grid_reference():
    rng = np.random.default_rng(0)
    for _ in range(600):
        h, w = (int(v) for v in rng.integers(3, 150, 2))
        shape = scenegen.DEFAULT_CLASSES[int(rng.integers(3))]
        size = float(rng.integers(1, 60)) if rng.random() < 0.7 else float(rng.uniform(0.5, 60))
        cx, cy = float(rng.uniform(-10, w + 10)), float(rng.uniform(-10, h + 10))
        got = scenegen._rasterize_shape(shape, cx, cy, size, h, w)
        want = scenegen_reference.rasterize_shape(shape, cx, cy, size, h, w)
        assert got.shape == want.shape and (got == want).all()
        assert scenegen._tight_box(got) == scenegen_reference.tight_box(want)


@pytest.mark.parametrize("period", [6, 7, 8])
def test_stripe_remainder_matches_numpy_near_every_boundary(period):
    """The stripes' floor-division remainder against numpy's ``%`` at values one ulp
    around each multiple of the period and each line edge, of both signs."""
    edges = np.arange(-400, 400, dtype=np.float64) * period
    edges = np.concatenate([edges, edges + 1.5, [1e-17, -1e-17, 5e-324, -5e-324]])
    coord = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    rest = coord - np.floor(coord / period) * period
    assert (((rest >= 0) & (rest < 1.5)) == ((coord % period) < 1.5)).all()


def test_stripes_follow_numpy_remainder_through_the_renderer(monkeypatch):
    """At 0 degrees the stripe coordinate is the x axis itself, so patched axes feed the
    renderer values one ulp around each line edge and multiple of the period, of both
    signs, and subnormal ones, whose quotient by the period underflows to zero."""
    def draws(seed):  # the renderer's first two stripe draws: period, angle
        rng = np.random.default_rng(seed)
        return int(rng.integers(6, 9)), float(rng.choice((0.0, 45.0, 90.0, 135.0)))

    seed = next(s for s in range(200) if draws(s)[1] == 0.0)
    period = draws(seed)[0]
    edges = np.arange(-40, 40, dtype=np.float64) * period
    edges = np.concatenate([edges, edges + 1.5, [1e-17, -1e-17, 5e-324, -5e-324, -1e-310]])
    xx = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    monkeypatch.setattr(scenegen, "_grid", lambda h, w, offset=0.0: (xx, np.zeros((1, 1))))
    image = scenegen._render_texture("stripes", 1, xx.size, np.random.default_rng(seed))
    assert ((image[0] == 255).all(axis=1) == ((xx % period) < 1.5)).all()


class _ScriptedRng:
    """Stands in for the generator's Generator: the low end of every integer range,
    index 0 of every choice, and the scripted values of ``uniform`` in turn."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def integers(self, low, high=None, size=None):
        value = 0 if high is None else low
        return value if size is None else np.full(size, value)

    def choice(self, a, p=None):
        return 0

    def uniform(self, low, high, size=None):
        return next(self.uniforms)


def test_pixels_equidistant_from_two_objects_take_the_first_objects_texture(monkeypatch):
    """Two circles centred at x = 10 and x = 30 on row 20: every pixel of column 20 is
    exactly as far from both, and ``argmin``'s first-minimum rule gives it the first."""
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _ScriptedRng([10.0, 20.0, 30.0, 20.0]))
    textures = iter((11, 22))
    monkeypatch.setattr(scenegen, "_render_texture",
                        lambda name, h, w, rng: np.full((h, w, 3), next(textures), np.uint8))
    rec = scenegen._generate_record(0, 64, scenegen.DEFAULT_CLASSES, scenegen.DEFAULT_TEXTURES,
                                    scenegen.BiasSpec.uniform(3, 4), (2, 2), (8, 8), 0)
    assert [i.box for i in rec.instances] == [(6, 16, 14, 24), (26, 16, 34, 24)]
    bg = rec.fg_mask == 0
    assert bg[:, 20].all()
    assert (rec.image[:, :21][bg[:, :21]] == 11).all() and (rec.image[:, 21:][bg[:, 21:]] == 22).all()
