"""Synthetic context-biased scenes and background-swap compositing.

A scene is a textured canvas with 1..k geometric foreground objects (circle,
square, triangle).  Each object sits on a local texture patch whose texture
is drawn from a per-class distribution, which is what creates a controllable
class <-> background correlation.  The union of the objects' exact analytic
silhouettes is the scene's foreground mask.

On disk a dataset is a manifest JSON plus one binary PPM (P6) per image and
one binary PGM (P5) per mask (0 = background, 255 = foreground); all paths
are relative to the manifest file.

Compositing (random or fixed background swap) touches pixels only: instances
and the binary mask are carried over verbatim, which is what makes the
intervention well-defined against an unchanged ground truth.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, load_json, write_json

DEFAULT_CLASSES = ("circle", "square", "triangle")
DEFAULT_TEXTURES = ("stripes", "checker", "noise", "gradient")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    class_id: int
    box: tuple  # (x_min, y_min, x_max, y_max), half-open pixels
    texture_id: int | None = None  # texture drawn for this object's local patch

    def validate(self, width: int, height: int):
        x0, y0, x1, y1 = self.box
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            raise ConfigurationError(f"instance box {self.box} outside {width}x{height} image")


@dataclass
class ImageRecord:
    image_id: str
    image: np.ndarray   # (h, w, 3) uint8
    fg_mask: np.ndarray  # (h, w) uint8 in {0, 1}
    instances: list

    def validate(self):
        h, w = self.fg_mask.shape
        if self.image.shape != (h, w, 3):
            raise ConfigurationError(f"image/mask shape mismatch in {self.image_id}")
        if not np.isin(self.fg_mask, (0, 1)).all():
            raise ConfigurationError(f"non-binary mask in {self.image_id}")
        for inst in self.instances:
            inst.validate(w, h)
            x0, y0, x1, y1 = (int(v) for v in inst.box)
            if not self.fg_mask[y0:y1, x0:x1].any():
                raise ConfigurationError(
                    f"instance box {inst.box} touches no FG pixel in {self.image_id}")


@dataclass
class BiasSpec:
    """Row-stochastic P(texture | class) matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ConfigurationError("bias matrix must be 2-d (classes x textures)")
        if (m < 0).any():
            raise ConfigurationError("bias matrix entries must be non-negative")
        if not np.allclose(m.sum(axis=1), 1.0, atol=1e-9):
            raise ConfigurationError("bias matrix rows must sum to 1")
        self.matrix = m

    @classmethod
    def uniform(cls, num_classes: int, num_textures: int) -> "BiasSpec":
        return cls(np.full((num_classes, num_textures), 1.0 / num_textures))

    @classmethod
    def concentrated(cls, num_classes: int, num_textures: int, p: float = 0.85) -> "BiasSpec":
        """Each class prefers texture (class mod num_textures) with probability p."""
        if num_textures < 2:
            raise ConfigurationError("need at least 2 textures for a concentrated bias")
        m = np.full((num_classes, num_textures), (1.0 - p) / (num_textures - 1))
        for c in range(num_classes):
            m[c, c % num_textures] = p
        return cls(m)


@dataclass
class DatasetManifest:
    root: Path
    classes: list
    images: list  # manifest entries: {"id", "file", "mask_file", "width", "height", "instances"}
    seed: int | None = None
    bias: list | None = None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def __len__(self):
        return len(self.images)

    def load_record(self, index: int) -> ImageRecord:
        entry = self.images[index]
        image = read_ppm(self.root / entry["file"])
        mask = read_mask_pgm(self.root / entry["mask_file"])
        try:  # an entry that disagrees with its files
            if image.shape[:2] != (entry["height"], entry["width"]):
                raise ConfigurationError(f"{entry['file']}: pixel size differs from manifest entry")
            instances = [Instance(int(i["class_id"]), tuple(i["bbox"]), i.get("texture_id"))
                         for i in entry["instances"]]
            rec = ImageRecord(entry["id"], image, mask, instances)
            rec.validate()
        except ConfigurationError as e:
            raise ConfigurationError(f"dataset {self.root}: image {entry['id']!r}: {e}") from None
        return rec

    def load_all(self) -> list:
        return [self.load_record(i) for i in range(len(self.images))]


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------

def _parse_pnm_header(data: bytes, path, magic: bytes):
    if data[:2] != magic:
        raise ParseError(path, 0, f"expected {magic.decode()} file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos:pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise ParseError(path, pos, "expected integer in header")
        fields.append(int(data[start:pos]))
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ParseError(path, pos, "missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ParseError(path, pos, f"unsupported maxval {maxval}")
    return width, height, pos


def read_ppm(path) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    w, h, pos = _parse_pnm_header(data, path, b"P6")
    need = w * h * 3
    if len(data) - pos < need:
        raise ParseError(path, len(data), f"truncated pixel data: need {need} bytes, have {len(data) - pos}")
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3).copy()


def write_ppm(path, image: np.ndarray) -> None:
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w, _ = image.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def read_mask_pgm(path) -> np.ndarray:
    """Read a P5 mask; 0 -> background, 255 -> foreground; anything else is invalid."""
    path = Path(path)
    data = path.read_bytes()
    w, h, pos = _parse_pnm_header(data, path, b"P5")
    need = w * h
    if len(data) - pos < need:
        raise ParseError(path, len(data), f"truncated pixel data: need {need} bytes, have {len(data) - pos}")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(h, w)
    if not np.isin(raw, (0, 255)).all():
        bad = int(raw[~np.isin(raw, (0, 255))][0])
        raise ConfigurationError(f"{path}: non-binary mask (value {bad})")
    return (raw == 255).astype(np.uint8)


def write_mask_pgm(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    if not np.isin(mask, (0, 1)).all():
        raise ConfigurationError("non-binary mask")
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write((mask.astype(np.uint8) * 255).tobytes())


def read_image_any(path) -> np.ndarray:
    """Read PPM natively; PNG/JPEG via Pillow when available."""
    path = Path(path)
    if path.suffix.lower() == ".ppm":
        return read_ppm(path)
    try:
        from PIL import Image
    except ImportError as e:
        raise ConfigurationError(
            f"{path}: only .ppm supported without Pillow (install the 'png' extra)") from e
    return np.asarray(Image.open(path).convert("RGB"), dtype=np.uint8)


# ---------------------------------------------------------------------------
# textures and shapes
# ---------------------------------------------------------------------------

def _render_texture(texture: str, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Textures share a mid-gray mean but differ in their bright-peak structure,
    so window maxima identify them far more crisply than window means do."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    if texture == "stripes":
        period = int(rng.integers(6, 9))
        theta = float(rng.choice((0.0, 45.0, 90.0, 135.0))) * math.pi / 180.0
        coord = xx * math.cos(theta) + yy * math.sin(theta)
        on = (coord % period) < 1.5  # thin near-white lines on a mid base
        base = rng.integers(100, 121, 3)
        img = np.where(on[..., None], np.array([255, 255, 255]), base)
    elif texture == "checker":
        cell = int(rng.integers(4, 9))
        on = ((xx // cell + yy // cell) % 2) == 0
        lo = rng.integers(95, 111, 3)
        hi = rng.integers(135, 151, 3)
        img = np.where(on[..., None], hi, lo)
    elif texture == "noise":
        img = rng.integers(40, 201, (h, w, 3))
    elif texture == "gradient":
        theta = rng.uniform(0, 2 * math.pi)
        coord = xx * math.cos(theta) + yy * math.sin(theta)
        lo, hi = coord.min(), coord.max()
        ramp = (coord - lo) / max(hi - lo, 1e-9)
        img = (95 + ramp[..., None] * 50) * rng.uniform(0.9, 1.05, 3)
    else:
        raise ConfigurationError(f"unknown texture {texture!r}")
    return np.clip(img, 0, 255).astype(np.uint8)


def _rasterize_shape(shape: str, cx: float, cy: float, size: float, h: int, w: int) -> np.ndarray:
    """Exact silhouette via pixel-center tests; ``size`` is the nominal diameter."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64) + 0.5
    half = size / 2.0
    if shape == "circle":
        return ((xx - cx) ** 2 + (yy - cy) ** 2 <= half ** 2)
    if shape == "square":
        return (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
    if shape == "triangle":
        # upward triangle: apex (cx, cy-half), base corners (cx +- half, cy+half)
        inside = yy <= cy + half
        # left edge from apex to (cx-half, cy+half):  x >= cx - (y - (cy-half)) / 2
        t = (yy - (cy - half)) / 2.0
        inside &= xx >= cx - t
        inside &= xx <= cx + t
        inside &= yy >= cy - half
        return inside
    raise ConfigurationError(f"unknown shape {shape!r}")


def _tight_box(sil: np.ndarray):
    ys, xs = np.nonzero(sil)
    if ys.size == 0:
        return None
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def _box_overlap_frac(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    smaller = min((a[2] - a[0]) * (a[3] - a[1]), (b[2] - b[0]) * (b[3] - b[1]))
    return iw * ih / smaller


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _generate_record(index: int, image_size: int, classes, textures, bias: BiasSpec,
                     objects_per_image, size_range, seed: int) -> ImageRecord:
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    h = w = image_size
    n_objects = int(rng.integers(objects_per_image[0], objects_per_image[1] + 1))

    placed = []  # (class_id, texture_id, silhouette, box, center)
    boxes = []
    for _ in range(n_objects):
        class_id = int(rng.integers(len(classes)))
        texture_id = int(rng.choice(len(textures), p=bias.matrix[class_id]))
        ok = False
        for _attempt in range(100):
            size = float(rng.integers(size_range[0], size_range[1] + 1))
            margin = size / 2 + 2
            cx = float(rng.uniform(margin, w - margin))
            cy = float(rng.uniform(margin, h - margin))
            sil = _rasterize_shape(classes[class_id], cx, cy, size, h, w)
            box = _tight_box(sil)
            if box is None:
                continue
            if all(_box_overlap_frac(box, other) <= 0.3 for other in boxes):
                ok = True
                break
        if not ok:
            warnings.warn(f"image {index}: no non-overlapping placement after 100 tries, object skipped")
            continue
        placed.append((class_id, texture_id, sil, box, (cy, cx)))
        boxes.append(box)

    # background: each pixel takes the texture of its nearest object, so every
    # object sits inside its own correlated texture region with no seam
    # between texture and some neutral canvas to give the location away
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dists = np.stack([(yy - cy) ** 2 + (xx - cx) ** 2 for _, _, _, _, (cy, cx) in placed])
    nearest = dists.argmin(axis=0)
    image = np.zeros((h, w, 3), dtype=np.uint8)
    for i, (_cls, texture_id, _sil, _box, _c) in enumerate(placed):
        region = nearest == i
        image[region] = _render_texture(textures[texture_id], h, w, rng)[region]

    fg_mask = np.zeros((h, w), dtype=np.uint8)
    instances = []
    for class_id, texture_id, sil, box, _c in placed:
        color = rng.integers(90, 181, 3).astype(np.uint8)
        image[sil] = color
        fg_mask |= sil.astype(np.uint8)
        instances.append(Instance(class_id, box, texture_id))

    rec = ImageRecord(f"img{index:05d}", image, fg_mask, instances)
    rec.validate()
    return rec


def generate_dataset(n_images: int, image_size: int = 128,
                     classes=DEFAULT_CLASSES, textures=DEFAULT_TEXTURES,
                     bias: BiasSpec | None = None,
                     objects_per_image=(1, 4), seed: int = 0,
                     out_dir=None, size_range=(16, 44)) -> "DatasetManifest | list":
    """Generate a biased dataset; writes it under out_dir when given, else
    returns the list of in-memory records."""
    if n_images < 1:
        raise ConfigurationError("n_images must be >= 1")
    if objects_per_image[0] < 1 or objects_per_image[0] > objects_per_image[1]:
        raise ConfigurationError(f"bad objects_per_image range {objects_per_image}")
    if size_range[1] >= image_size - 4:
        raise ConfigurationError("object size range does not fit the image")
    bias = bias or BiasSpec.uniform(len(classes), len(textures))
    if bias.matrix.shape != (len(classes), len(textures)):
        raise ConfigurationError(f"bias matrix shape {bias.matrix.shape} != "
                                 f"({len(classes)}, {len(textures)})")
    records = [_generate_record(i, image_size, classes, textures, bias,
                                objects_per_image, size_range, seed)
               for i in range(n_images)]
    if out_dir is None:
        return records
    return save_dataset(records, classes, out_dir, seed=seed, bias=bias.matrix.tolist())


# ---------------------------------------------------------------------------
# manifest I/O
# ---------------------------------------------------------------------------

def save_dataset(records, classes, out_dir, seed=None, bias=None) -> DatasetManifest:
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    entries = []
    seen = set()
    for rec in records:
        if rec.image_id in seen:
            raise ConfigurationError(f"duplicate image id {rec.image_id}")
        seen.add(rec.image_id)
        rec.validate()
        img_rel = f"images/{rec.image_id}.ppm"
        mask_rel = f"masks/{rec.image_id}.pgm"
        write_ppm(out_dir / img_rel, rec.image)
        write_mask_pgm(out_dir / mask_rel, rec.fg_mask)
        entries.append({
            "id": rec.image_id,
            "file": img_rel,
            "mask_file": mask_rel,
            "width": int(rec.image.shape[1]),
            "height": int(rec.image.shape[0]),
            "instances": [
                {"class_id": int(i.class_id),
                 "bbox": [float(v) for v in i.box],
                 **({"texture_id": int(i.texture_id)} if i.texture_id is not None else {})}
                for i in rec.instances
            ],
        })
    doc = {"classes": list(classes), "seed": seed, "bias": bias, "images": entries}
    write_json(out_dir / "manifest.json", doc)
    return DatasetManifest(root=out_dir, classes=list(classes), images=entries,
                           seed=seed, bias=bias)


def _entry_error(index: int, e, num_classes: int) -> str | None:
    """Why manifest image entry ``index`` cannot become an ImageRecord, or None."""
    if not isinstance(e, dict):
        return f"image entry {index} is not an object"
    name = f"image {e['id']!r}" if isinstance(e.get("id"), str) else f"image entry {index}"
    for key in ("id", "file", "mask_file", "width", "height", "instances"):
        if key not in e:
            return f"{name}: image entry missing key {key!r}"
    if not (all(isinstance(e[k], str) for k in ("id", "file", "mask_file"))
            and isinstance(e["instances"], list)):
        return f"{name}: id, file and mask_file must be strings and instances a list"
    for inst in e["instances"]:
        box = inst.get("bbox") if isinstance(inst, dict) else None
        if not (isinstance(box, list) and len(box) == 4 and isinstance(inst.get("class_id"), int)
                and all(isinstance(v, (int, float)) for v in box)):
            return f"{name}: instance {inst!r} needs an integer class_id and 4 numbers in bbox"
        if not 0 <= inst["class_id"] < num_classes:
            return f"{name}: instance class_id {inst['class_id']} is outside the {num_classes} classes"
    return None


def load_dataset(path) -> DatasetManifest:
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path
    doc = load_json(manifest_path, f"no manifest at {manifest_path}")
    for key in ("classes", "images"):
        if not isinstance(doc, dict) or key not in doc:
            raise ParseError(manifest_path, 0, f"manifest missing key {key!r}")
        if not isinstance(doc[key], list):
            raise ParseError(manifest_path, 0, f"manifest key {key!r} is not a list")
    root = manifest_path.parent
    for index, e in enumerate(doc["images"]):
        error = _entry_error(index, e, len(doc["classes"]))
        if error:
            raise ParseError(manifest_path, 0, error)
        if not (root / e["file"]).exists():
            raise ConfigurationError(f"missing image file {e['file']} (referenced by {manifest_path})")
        if not (root / e["mask_file"]).exists():
            raise ConfigurationError(f"missing mask file {e['mask_file']} (referenced by {manifest_path})")
    ids = [e["id"] for e in doc["images"]]
    if len(ids) != len(set(ids)):
        raise ConfigurationError(f"{manifest_path}: duplicate image ids")
    return DatasetManifest(root=root, classes=list(doc["classes"]), images=doc["images"],
                           seed=doc.get("seed"), bias=doc.get("bias"))


# ---------------------------------------------------------------------------
# background pools and compositing
# ---------------------------------------------------------------------------

def _bilinear_resize(img: np.ndarray, h: int, w: int) -> np.ndarray:
    src = img.astype(np.float64)
    sh, sw = src.shape[:2]
    ys = np.linspace(0, sh - 1, h)
    xs = np.linspace(0, sw - 1, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, sh - 1)
    x1 = np.minimum(x0 + 1, sw - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def generate_bg_pool(n: int, size: int, seed: int = 0) -> list:
    """Smooth low-frequency color fields, deliberately unlike the training textures."""
    pool = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i, 97)))
        coarse = rng.uniform(0, 255, (5, 5, 3))
        img = np.clip(_bilinear_resize(coarse, size, size), 0, 255).astype(np.uint8)
        pool.append(img)
    return pool


def load_bg_pool(directory) -> list:
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in (".ppm", ".png", ".jpg", ".jpeg"))
    if not paths:
        raise ConfigurationError(f"no background images found in {directory}")
    return [read_image_any(p) for p in paths]


def _fit_bg(bg: np.ndarray, h: int, w: int) -> np.ndarray:
    """Aspect-preserving scale (nearest neighbor) then center crop."""
    bh, bw = bg.shape[:2]
    scale = max(h / bh, w / bw)
    nh, nw = max(h, math.ceil(bh * scale)), max(w, math.ceil(bw * scale))
    rows = np.minimum((np.arange(nh) * bh) // nh, bh - 1).astype(int)
    cols = np.minimum((np.arange(nw) * bw) // nw, bw - 1).astype(int)
    scaled = bg[rows][:, cols]
    y0 = (nh - h) // 2
    x0 = (nw - w) // 2
    return scaled[y0:y0 + h, x0:x0 + w]


def _box_blur_2d(a: np.ndarray, radius: int) -> np.ndarray:
    """Separable mean filter with truncated (renormalized) edge windows."""
    def blur_axis(v, axis):
        n = v.shape[axis]
        c = np.cumsum(v, axis=axis, dtype=np.float64)
        c = np.concatenate([np.zeros_like(np.take(c, [0], axis=axis)), c], axis=axis)
        idx_hi = np.minimum(np.arange(n) + radius + 1, n)
        idx_lo = np.maximum(np.arange(n) - radius, 0)
        sums = np.take(c, idx_hi, axis=axis) - np.take(c, idx_lo, axis=axis)
        return sums / (idx_hi - idx_lo).reshape([-1 if d == axis else 1 for d in range(v.ndim)])
    return blur_axis(blur_axis(a.astype(np.float64), 0), 1)


def composite_with_bg(record: ImageRecord, bg_image: np.ndarray,
                      feather_radius: int = 0, id_suffix: str = "") -> ImageRecord:
    """Paste record's FG onto bg_image.  Pixels only: instances and the binary
    mask are copied verbatim; feathering blends pixel values near mask edges."""
    h, w = record.fg_mask.shape
    bg = _fit_bg(np.asarray(bg_image, dtype=np.uint8), h, w)
    if feather_radius > 0:
        alpha = _box_blur_2d(record.fg_mask.astype(np.float64), feather_radius)[..., None]
        out = np.clip(np.rint(alpha * record.image + (1 - alpha) * bg), 0, 255).astype(np.uint8)
    else:
        out = np.where(record.fg_mask[..., None] == 1, record.image, bg)
    return ImageRecord(record.image_id + id_suffix, out, record.fg_mask.copy(),
                       [Instance(i.class_id, tuple(i.box), i.texture_id) for i in record.instances])


def _bg_index(seed: int, image_id: str, pool_size: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{image_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % pool_size


def composite_random_bg(record: ImageRecord, bg_pool, seed: int,
                        feather_radius: int = 0) -> ImageRecord:
    """Swap the record's background for a pool image chosen purely by (seed, image_id)."""
    if not bg_pool:
        raise ConfigurationError("background pool is empty")
    bg = bg_pool[_bg_index(seed, record.image_id, len(bg_pool))]
    return composite_with_bg(record, bg, feather_radius, id_suffix="+rbg")


def composite_fixed_bg(records, bg_image, feather_radius: int = 0,
                       id_suffix: str = "+1bg") -> list:
    """One shared background for every record."""
    return [composite_with_bg(r, bg_image, feather_radius, id_suffix) for r in records]
