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

import functools
import hashlib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, check_numbers, load_json, write_json

DEFAULT_CLASSES = ("circle", "square", "triangle")
DEFAULT_TEXTURES = ("stripes", "checker", "noise", "gradient")
DEFAULT_SIZE_RANGE = (16, 44)  # object sizes in px


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
        if not ((self.fg_mask == 0) | (self.fg_mask == 1)).all():
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
        m[np.arange(num_classes), np.arange(num_classes) % num_textures] = p
        return cls(m)


@dataclass
class DatasetManifest:
    root: Path
    classes: list
    images: list  # manifest entries: {"id", "file", "mask_file", "width", "height", "instances"}
    seed: int | None = None
    bias: list | None = None

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

def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """The (h, w, channels) pixels of a binary PNM file, a read-only view of its bytes."""
    path = Path(path)
    data = path.read_bytes()
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
    need = width * height * channels
    if len(data) - pos < need:
        raise ParseError(path, len(data), f"truncated pixel data: need {need} bytes, have {len(data) - pos}")
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(height, width, channels)


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3).copy()


def write_ppm(path, image: np.ndarray) -> None:
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w, _ = image.shape
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + image.tobytes())


def read_mask_pgm(path) -> np.ndarray:
    """Read a P5 mask; 0 -> background, 255 -> foreground; anything else is invalid."""
    raw = _read_pnm(path, b"P5", 1)[..., 0]
    fg = raw == 255
    ok = fg | (raw == 0)
    if not ok.all():
        raise ConfigurationError(f"{path}: non-binary mask (value {int(raw[~ok][0])})")
    return fg.astype(np.uint8)


def write_mask_pgm(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    if not ((mask == 0) | (mask == 1)).all():
        raise ConfigurationError("non-binary mask")
    h, w = mask.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + (mask.astype(np.uint8) * 255).tobytes())


# ---------------------------------------------------------------------------
# textures and shapes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _grid(h: int, w: int, offset: float = 0.0):
    """Read-only float64 pixel coordinates plus ``offset`` as a (w,) row and an (h, 1)
    column: broadcast, they give each pixel the values of ``np.mgrid`` + ``offset``."""
    xx, yy = np.arange(w, dtype=np.float64) + offset, np.arange(h, dtype=np.float64)[:, None] + offset
    xx.flags.writeable = yy.flags.writeable = False
    return xx, yy


def _render_texture(texture: str, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Textures share a mid-gray mean but differ in their bright-peak structure,
    so window maxima identify them far more crisply than window means do."""
    xx, yy = _grid(h, w)
    if texture == "stripes":
        period = int(rng.integers(6, 9))
        theta = float(rng.choice((0.0, 45.0, 90.0, 135.0))) * math.pi / 180.0
        coord = xx * math.cos(theta) + yy * math.sin(theta)
        # numpy's coord % period from one floor division: where coord / period rounds up
        # to the next integer, rest is a tiny negative number (numpy's remainder: ~period)
        rest = coord - np.floor(coord / period) * period
        on = (rest >= 0) & (rest < 1.5)  # thin near-white lines on a mid base
        base = rng.integers(100, 121, 3)
        return np.take(np.array([base, (255, 255, 255)], dtype=np.uint8), on.view(np.uint8), axis=0)
    if texture == "checker":
        cell = int(rng.integers(4, 9))
        lo = rng.integers(95, 111, 3)
        hi = rng.integers(135, 151, 3)
        # a cell is bright where its column and row indices have the same parity,
        # so the image has two distinct rows: one per row-of-cells parity
        odd = (np.arange(w) // cell) & 1
        rows = np.take(np.array([hi, lo], dtype=np.uint8), (odd, odd ^ 1), axis=0)
        return np.take(rows, (np.arange(h) // cell) & 1, axis=0)
    if texture == "noise":
        return rng.integers(40, 201, (h, w, 3)).astype(np.uint8)
    if texture == "gradient":
        theta = rng.uniform(0, 2 * math.pi)
        coord = xx * math.cos(theta) + yy * math.sin(theta)
        lo, hi = coord.min(), coord.max()
        ramp = (coord - lo) / max(hi - lo, 1e-9)
        img = (95 + ramp[..., None] * 50) * rng.uniform(0.9, 1.05, 3)
        return np.clip(img, 0, 255).astype(np.uint8)
    raise ConfigurationError(f"unknown texture {texture!r}")


def _rasterize_shape(shape: str, cx: float, cy: float, size: float, h: int, w: int) -> np.ndarray:
    """Exact silhouette via pixel-center tests; ``size`` is the nominal diameter."""
    xx, yy = _grid(h, w, 0.5)
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
        inside = inside & (xx >= cx - t)
        inside &= xx <= cx + t
        inside &= yy >= cy - half
        return inside
    raise ConfigurationError(f"unknown shape {shape!r}")


def _tight_box(sil: np.ndarray):
    ys, xs = np.flatnonzero(sil.any(axis=1)), np.flatnonzero(sil.any(axis=0))
    if ys.size == 0:
        return None
    return (int(xs[0]), int(ys[0]), int(xs[-1]) + 1, int(ys[-1]) + 1)


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
    # between texture and some neutral canvas to give the location away.
    # A strictly nearer object repaints a pixel, so ties go to the first one.
    xx, yy = _grid(h, w)
    image, nearest = np.zeros((h, w, 3), dtype=np.uint8), np.full((h, w), np.inf)
    pixels = image.view("V3")[..., 0]  # (h, w) 3-byte pixels: one move per masked pixel
    for _cls, texture_id, _sil, _box, (cy, cx) in placed:
        texture = _render_texture(textures[texture_id], h, w, rng)
        dist = (yy - cy) ** 2 + (xx - cx) ** 2
        closer = dist < nearest
        np.copyto(pixels, texture.view("V3")[..., 0], where=closer)
        np.copyto(nearest, dist, where=closer)

    fg_mask = np.zeros((h, w), dtype=np.uint8)
    instances = []
    for class_id, texture_id, sil, box, _c in placed:
        color = rng.integers(90, 181, 3).astype(np.uint8)
        np.copyto(pixels, color.view("V3"), where=sil)
        np.copyto(fg_mask, 1, where=sil)
        instances.append(Instance(class_id, box, texture_id))

    rec = ImageRecord(f"img{index:05d}", image, fg_mask, instances)
    rec.validate()
    return rec


def check_size_range(image_size: int, size_range=DEFAULT_SIZE_RANGE) -> None:
    """ConfigurationError unless objects up to ``size_range[1]`` px fit with a 4 px margin."""
    if size_range[1] >= image_size - 4:
        raise ConfigurationError(f"image_size {image_size} leaves no room for objects of {size_range[1]} px")


def check_names(key: str, names, known) -> tuple:
    """``names`` as a tuple; ConfigurationError unless it is a non-empty list of ``known`` names."""
    if not (isinstance(names, (list, tuple)) and names and all(n in known for n in names)):
        raise ConfigurationError(f"{key} must be a non-empty list of names from {list(known)}, got {names!r}")
    return tuple(names)


def generate_dataset(n_images: int, image_size: int = 128,
                     classes=DEFAULT_CLASSES, textures=DEFAULT_TEXTURES,
                     bias: BiasSpec | None = None,
                     objects_per_image=(1, 4), seed: int = 0,
                     out_dir=None, size_range=DEFAULT_SIZE_RANGE) -> "DatasetManifest | list":
    """Generate a biased dataset; writes it under out_dir when given, else
    returns the list of in-memory records."""
    if n_images < 1:
        raise ConfigurationError("n_images must be >= 1")
    for key, lo_hi in (("objects_per_image", objects_per_image), ("size_range", size_range)):
        lo_hi = check_numbers(lo_hi, key, integer=True, minimum=1)
        if len(lo_hi) != 2 or lo_hi[0] > lo_hi[1]:
            raise ConfigurationError(f"{key} must be two integers lo <= hi, got {list(lo_hi)}")
    check_size_range(image_size, size_range)
    classes = check_names("classes", classes, DEFAULT_CLASSES)
    textures = check_names("textures", textures, DEFAULT_TEXTURES)
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
        for key, kind in (("file", "image"), ("mask_file", "mask")):
            if not (root / e[key]).exists():
                raise ConfigurationError(f"missing {kind} file {e[key]} (referenced by {manifest_path})")
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
        # C order: compositing reads the image as it is, and a strided one is 4x slower there
        pool.append(np.clip(_bilinear_resize(coarse, size, size), 0, 255).astype(np.uint8, order="C"))
    return pool


def load_bg_pool(directory) -> list:
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in (".ppm", ".png", ".jpg", ".jpeg") and p.is_file())
    if not paths:
        raise ConfigurationError(f"no background images found in {directory}")
    bad = next((p for p in paths if p.suffix.lower() != ".ppm"), None)
    if bad:
        raise ConfigurationError(f"{bad}: only .ppm backgrounds are read")
    return [read_ppm(p) for p in paths]


def _fit_bg(bg: np.ndarray, h: int, w: int) -> np.ndarray:
    """Aspect-preserving scale (nearest neighbor) then center crop; a ``bg`` of
    size (h, w) comes back as it is (the same pixels the scale would give)."""
    bh, bw = bg.shape[:2]
    if (bh, bw) == (h, w):
        return bg
    scale = max(h / bh, w / bw)
    nh, nw = max(h, math.ceil(bh * scale)), max(w, math.ceil(bw * scale))
    rows = np.minimum((np.arange(nh) * bh) // nh, bh - 1).astype(int)
    cols = np.minimum((np.arange(nw) * bw) // nw, bw - 1).astype(int)
    scaled = bg[rows][:, cols]
    y0 = (nh - h) // 2
    x0 = (nw - w) // 2
    return scaled[y0:y0 + h, x0:x0 + w]


def composite_with_bg(record: ImageRecord, bg_image: np.ndarray, id_suffix: str = "") -> ImageRecord:
    """Paste record's FG onto bg_image: every FG pixel, the binary mask and the
    instances are copied verbatim."""
    h, w = record.fg_mask.shape
    bg = _fit_bg(np.asarray(bg_image, dtype=np.uint8), h, w)
    # np.where(mask == 1, image, bg) as a bit select: pick is 255 where the mask is 1,
    # repeated over the channels because a broadcast last axis is several times slower
    pick = np.repeat(-(record.fg_mask == 1).view(np.uint8)[..., None], 3, axis=2)
    out = bg ^ ((record.image ^ bg) & pick)
    return ImageRecord(record.image_id + id_suffix, out, record.fg_mask.copy(),
                       [Instance(i.class_id, tuple(i.box), i.texture_id) for i in record.instances])


def _bg_index(seed: int, image_id: str, pool_size: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{image_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % pool_size


def composite_random_bg(record: ImageRecord, bg_pool, seed: int) -> ImageRecord:
    """Swap the record's background for a pool image chosen purely by (seed, image_id)."""
    if not bg_pool:
        raise ConfigurationError("background pool is empty")
    bg = bg_pool[_bg_index(seed, record.image_id, len(bg_pool))]
    return composite_with_bg(record, bg, id_suffix="+rbg")


def composite_fixed_bg(records, bg_image) -> list:
    """One shared background for every record."""
    return [composite_with_bg(r, bg_image, id_suffix="+1bg") for r in records]
