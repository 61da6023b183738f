"""The full-grid scene generator ``scenegen`` used to ship, kept as the bitwise
reference for the broadcast one.

Every texture and silhouette here is computed over (h, w) ``np.mgrid``
coordinates, textures are built in int64 or float64 and clipped, the nearest
object comes from ``argmin`` over a stack of distance fields, and regions and
silhouettes are written by boolean indexing.  The library's generator must
return the same records, byte for byte, and draw the same random numbers in
the same order.
"""

import math
import warnings

import numpy as np

from maskpool_lab.scenegen import ImageRecord, Instance, _box_overlap_frac


def render_texture(texture, h, w, rng):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    if texture == "stripes":
        period = int(rng.integers(6, 9))
        theta = float(rng.choice((0.0, 45.0, 90.0, 135.0))) * math.pi / 180.0
        coord = xx * math.cos(theta) + yy * math.sin(theta)
        on = (coord % period) < 1.5
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
        raise ValueError(texture)
    return np.clip(img, 0, 255).astype(np.uint8)


def rasterize_shape(shape, cx, cy, size, h, w):
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64) + 0.5
    half = size / 2.0
    if shape == "circle":
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= half ** 2
    if shape == "square":
        return (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
    if shape == "triangle":
        inside = yy <= cy + half
        t = (yy - (cy - half)) / 2.0
        inside &= xx >= cx - t
        inside &= xx <= cx + t
        inside &= yy >= cy - half
        return inside
    raise ValueError(shape)


def tight_box(sil):
    ys, xs = np.nonzero(sil)
    if ys.size == 0:
        return None
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def generate_record(index, image_size, classes, textures, bias, objects_per_image, size_range, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    h = w = image_size
    n_objects = int(rng.integers(objects_per_image[0], objects_per_image[1] + 1))
    placed, boxes = [], []
    for _ in range(n_objects):
        class_id = int(rng.integers(len(classes)))
        texture_id = int(rng.choice(len(textures), p=bias.matrix[class_id]))
        ok = False
        for _attempt in range(100):
            size = float(rng.integers(size_range[0], size_range[1] + 1))
            margin = size / 2 + 2
            cx = float(rng.uniform(margin, w - margin))
            cy = float(rng.uniform(margin, h - margin))
            sil = rasterize_shape(classes[class_id], cx, cy, size, h, w)
            box = tight_box(sil)
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
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dists = np.stack([(yy - cy) ** 2 + (xx - cx) ** 2 for _, _, _, _, (cy, cx) in placed])
    nearest = dists.argmin(axis=0)
    image = np.zeros((h, w, 3), dtype=np.uint8)
    for i, (_cls, texture_id, _sil, _box, _c) in enumerate(placed):
        region = nearest == i
        image[region] = render_texture(textures[texture_id], h, w, rng)[region]
    fg_mask = np.zeros((h, w), dtype=np.uint8)
    instances = []
    for class_id, texture_id, sil, box, _c in placed:
        image[sil] = rng.integers(90, 181, 3).astype(np.uint8)
        fg_mask |= sil.astype(np.uint8)
        instances.append(Instance(class_id, box, texture_id))
    return ImageRecord(f"img{index:05d}", image, fg_mask, instances)
