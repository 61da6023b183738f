"""Detection evaluation: IoU matrix, greedy matching, AP@0.5, mAP50 and hierarchical F1.

Boxes are (x_min, y_min, x_max, y_max) in pixels, half-open.  Detections and
ground truths may be dataclass-like objects or dicts following the detections
file schema ({"image_id", "class_id", "score", "bbox"}).

``iou_matrix`` is the one IoU (``detector.nms`` imports it) and ``score`` the one
scorer: from a dataset's detections and ground truths as arrays (the rows NMS
keeps, in ``experiments.evaluate_records``) and one IoU pass over the same-image
pairs, it matches class-aware and class-agnostic, then gives the all-points AP per
class and the hierarchical-F1 counts.  ``match_detections``, ``average_precision``,
``map50`` and ``hierarchical_f1`` are adapters that read their entries once and
call it.  The tests check AP against a brute-force oracle (``tests/ap_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import ConfigurationError


def _column(entries, name):
    """Field ``name`` of every entry: a dict's key (its box under ``"bbox"``) or an
    attribute (an object without ``box`` may name it ``bbox``)."""
    if name != "box":
        return [e[name] if isinstance(e, dict) else getattr(e, name) for e in entries]
    return [e["bbox"] if isinstance(e, dict) else e.box if hasattr(e, "box") else e.bbox
            for e in entries]


def _numbers(entries, name, kind):
    return np.array([kind(v) for v in _column(entries, name)], dtype=kind)


def _boxes(entries):
    return np.array(_column(entries, "box"), dtype=np.float64).reshape(len(entries), 4)


def _by_image(dets_by_image: dict, gts_by_image: dict):
    """The detections and the ground truths, each flattened with its image's code."""
    images, out = {}, []
    for by_image in (dets_by_image, gts_by_image):
        pairs = [(images.setdefault(img, len(images)), e) for img, es in by_image.items() for e in es]
        out.append((np.array([i for i, _ in pairs], dtype=int), [e for _, e in pairs]))
    return out


def iou_matrix(a, b) -> np.ndarray:
    """``out[..., i, j]``: intersection over union of boxes ``a[..., i, :]`` and
    ``b[..., j, :]`` for ``a`` (..., m, 4) and ``b`` (..., k, 4), in float64.

    A pair whose intersection width, height or union is <= 0 (disjoint or
    degenerate) scores 0.0.  Integer boxes with coordinates in [0, 2**25) are
    exact, as in integer arithmetic."""
    a = np.asarray(a, dtype=np.float64)[..., :, None, :]  # (..., m, 1, 4)
    b = np.asarray(b, dtype=np.float64)[..., None, :, :]  # (..., 1, k, 4)
    ax0, ay0, ax1, ay1 = a.transpose(-1, *range(a.ndim - 1))  # not 4 edges: ValueError
    bx0, by0, bx1, by1 = b.transpose(-1, *range(b.ndim - 1))
    with np.errstate(all="ignore"):
        # Python's min/max of (a's edge, b's edge): b's only where strictly past a's, so
        # a NaN edge of a survives, one of b does not, and of equal zeros a's sign wins
        iw = np.where(bx1 < ax1, bx1, ax1) - np.where(bx0 > ax0, bx0, ax0)
        ih = np.where(by1 < ay1, by1, ay1) - np.where(by0 > ay0, by0, ay0)
        inter = iw * ih
        union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
        iou = inter / union
    return np.where((iw <= 0) | (ih <= 0) | (union <= 0), 0.0, iou)


# ---------------------------------------------------------------------------
# the scorer
# ---------------------------------------------------------------------------

@dataclass
class Scores:
    aware: tuple     # class-aware matching: each detection's gt (-1: none) and IoU
    agnostic: tuple  # the same, matching by IoU alone
    ap: dict         # class -> AP in [0, 1], None for a class with neither gts nor dets
    hf: dict         # label -> (hP, hR, hF)

    @property
    def map50(self):
        """(mean of the defined per-class APs, per-class AP), in percent."""
        per_class = {c: None if v is None else 100.0 * v for c, v in self.ap.items()}
        return float(np.mean([v for v in per_class.values() if v is not None])), per_class


def score(dets, gts, iou_thresh: float = 0.5, num_classes: int = 0, class_names=None,
          hierarchy=None) -> Scores:
    """Greedy matching, AP per class and hierarchical-F1 counts of a dataset: ``dets``
    are (image, class, score, box) arrays and ``gts`` (image, class, box), with integer
    image codes and (n, 4) boxes.  Each detection, by descending score (ties in input
    order), takes the highest-IoU still-unmatched gt of its image (and class, when
    class-aware) with IoU >= threshold and > 0; IoU ties go to the lower gt index.
    AP covers ``range(num_classes)``, where some class must have a gt.  Given a
    ``hierarchy``, hierarchical F1 reads class ids through ``class_names``."""
    img, cls, scores, box = dets
    gt_img, gt_cls, gt_box = gts
    # every same-image (det, gt) pair, each detection's gts in input order
    by_image = np.argsort(gt_img, kind="stable")
    lo = np.searchsorted(gt_img[by_image], img, "left")
    n = np.searchsorted(gt_img[by_image], img, "right") - lo
    pair_det = np.repeat(np.arange(img.size), n)
    pair_gt = by_image[np.arange(pair_det.size) - np.repeat(np.cumsum(n) - n - lo, n)]
    iou = iou_matrix(box[pair_det, None], gt_box[pair_gt, None])[:, 0, 0]
    hit = (iou >= iou_thresh) & (iou > 0)  # NaN never qualifies
    pair_det, pair_gt, iou = pair_det[hit], pair_gt[hit], iou[hit]
    rank = np.argsort(np.argsort(-scores, kind="stable"))  # by descending score, ties in input order
    same = cls[pair_det] == gt_cls[pair_gt]
    aware = _greedy(rank, pair_det[same], pair_gt[same], iou[same], gt_img.size)
    agnostic = _greedy(rank, pair_det, pair_gt, iou, gt_img.size)
    n_gt = np.bincount(gt_cls[(gt_cls >= 0) & (gt_cls < num_classes)], minlength=num_classes)
    if num_classes and not n_gt.any():
        raise ConfigurationError("mAP50 undefined: no class has any ground truth")
    order = np.lexsort((-scores, cls))  # by class, then by descending score
    tp = aware[0][order] >= 0
    bounds = np.searchsorted(cls[order], np.arange(num_classes + 1)).tolist()
    ap = {c: _average_precision(scores[order[bounds[c]:bounds[c + 1]]], tp[bounds[c]:bounds[c + 1]],
                                int(n_gt[c])) for c in range(num_classes)}
    hf = {} if hierarchy is None else _hierarchical(agnostic[0], cls, gt_cls, class_names, hierarchy)
    return Scores(aware, agnostic, ap, hf)


def _greedy(rank, pair_det, pair_gt, iou, n_gt):
    """Each detection's gt (-1: none) and IoU: detections in ``rank`` order, each
    taking the first of its best (det, gt, iou) hit pairs whose gt is still free."""
    gt, best_iou = np.full(rank.size, -1), np.zeros(rank.size)
    taken = [False] * n_gt
    order = np.lexsort((pair_gt, rank[pair_det]))
    pairs = zip(pair_det[order].tolist(), pair_gt[order].tolist(), iou[order].tolist())
    for d, candidates in groupby(pairs, key=itemgetter(0)):
        best, best_g = 0.0, -1
        for _, g, v in candidates:  # strict >: the first maximum
            if v > best and not taken[g]:
                best, best_g = v, g
        if best_g >= 0:
            taken[best_g] = True
            gt[d], best_iou[d] = best_g, best
    return gt, best_iou


def _average_precision(scores, tp, n_gt):
    """AP of one class from its detections' scores, in descending order, and
    true-positive flags: a score-tie group adds one precision/recall point, so the
    order inside a group does not matter.  The area under the precision envelope
    sums its terms one after another, from 0.0."""
    if not (n_gt and tp.size):
        return 0.0 if n_gt or tp.size else None
    last = np.append(scores[1:] != scores[:-1], True)  # the last detection of each tie group
    hits = np.cumsum(tp)[last]
    recall, precision = hits / n_gt, hits / (np.flatnonzero(last) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]  # max precision at recall >= r
    step = np.diff(recall, prepend=0.0)
    up = step > 0
    return float(np.cumsum(step[up] * envelope[up])[-1]) if up.any() else 0.0


# ---------------------------------------------------------------------------
# adapters: entries in, arrays to ``score``
# ---------------------------------------------------------------------------

@dataclass
class MatchResult:
    pairs: list = field(default_factory=list)        # (det_index, gt_index, iou)
    unmatched_dets: list = field(default_factory=list)
    unmatched_gts: list = field(default_factory=list)


def match_detections(dets, gts, iou_thresh: float = 0.5, class_agnostic: bool = False) -> MatchResult:
    """Greedy matching of one image's detections by descending score (see ``score``);
    pairs and unmatched detections come in that order."""
    dets, gts = list(dets), list(gts)
    cls, gt_cls = (np.zeros(len(es), int) if class_agnostic else _numbers(es, "class_id", int)
                   for es in (dets, gts))
    scores = _numbers(dets, "score", float)
    gt, iou = score((np.zeros_like(cls), cls, scores, _boxes(dets)),
                    (np.zeros_like(gt_cls), gt_cls, _boxes(gts)), iou_thresh).aware
    gt, iou = gt.tolist(), iou.tolist()
    order = np.argsort(-scores, kind="stable").tolist()
    return MatchResult([(d, gt[d], iou[d]) for d in order if gt[d] >= 0],
                       [d for d in order if gt[d] < 0], sorted(set(range(len(gts))) - set(gt)))


def average_precision(dets, gts, iou_thresh: float = 0.5):
    """All-points interpolated AP for one class across the dataset.

    Returns None when there are neither ground truths nor detections (the
    class is excluded from any mean); 0.0 for detections without ground truth.
    Score-tied detections enter the precision/recall sweep as one group.
    """
    dets, gts = list(dets), list(gts)
    if not gts:
        return None if not dets else 0.0
    images = {}
    img, gt_img = (np.array([images.setdefault(i, len(images)) for i in _column(es, "image_id")], dtype=int)
                   for es in (dets, gts))
    return score((img, np.zeros_like(img), _numbers(dets, "score", float), _boxes(dets)),
                 (gt_img, np.zeros_like(gt_img), _boxes(gts)), iou_thresh, 1).ap[0]


def map50(dets_by_image: dict, gts_by_image: dict, num_classes: int,
          iou_thresh: float = 0.5):
    """Mean of the defined per-class APs, in percent.

    Returns (mAP50, per_class_ap) with every AP already scaled to percent;
    classes with neither gts nor dets carry None and are excluded from the
    mean.  A dataset with no ground truth at all is an error.  Class ids
    outside ``range(num_classes)`` are ignored.
    """
    (img, dets), (gt_img, gts) = _by_image(dets_by_image, gts_by_image)
    return score((img, _numbers(dets, "class_id", int), _numbers(dets, "score", float), _boxes(dets)),
                 (gt_img, _numbers(gts, "class_id", int), _boxes(gts)), iou_thresh, num_classes).map50


# ---------------------------------------------------------------------------
# hierarchical F1
# ---------------------------------------------------------------------------

@dataclass
class ClassHierarchy:
    """Single-rooted class tree given as child -> parent (root maps to None)."""

    parent: dict

    def __post_init__(self):
        roots = [c for c, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise ConfigurationError(f"hierarchy must have exactly one root, found {roots}")
        self.root = roots[0]
        for c in self.parent:
            self.ancestors(c)  # raises on cycles / dangling parents

    def ancestors(self, node):
        """Path from node's parent up to (excluding) the root."""
        if node not in self.parent:
            raise ConfigurationError(f"class {node!r} missing from hierarchy")
        out, seen = [], {node}
        p = self.parent[node]
        while p is not None:
            if p in seen:
                raise ConfigurationError(f"cycle in hierarchy at {p!r}")
            seen.add(p)
            if p not in self.parent:
                raise ConfigurationError(f"node {p!r} has no parent entry")
            out.append(p)
            p = self.parent[p]
        return [a for a in out if a != self.root]

    def label_set(self, node) -> frozenset:
        """node plus its ancestors, root excluded."""
        return frozenset([node, *self.ancestors(node)])


def default_hierarchy(class_names=("circle", "square", "triangle")) -> ClassHierarchy:
    """root -> {round -> circle, angular -> {square, triangle}}."""
    parent = {"root": None, "round": "root", "angular": "root"}
    for name in class_names:
        parent[name] = "round" if name == "circle" else "angular"
    return ClassHierarchy(parent)


def hierarchy_for(class_names) -> ClassHierarchy:
    """The synthetic shape tree when the names match it, else a flat root -> leaf tree."""
    if set(class_names) == {"circle", "square", "triangle"}:
        return default_hierarchy(class_names)
    root = "root" if "root" not in class_names else "__root__"
    parent = {root: None}
    for name in class_names:
        parent[name] = root
    return ClassHierarchy(parent)


def hierarchical_f1(dets_by_image: dict, gts_by_image: dict, hierarchy: ClassHierarchy,
                    iou_thresh: float = 0.5, class_names=None):
    """Per-class hierarchical precision/recall/F1 over ancestor-augmented labels.

    Spatial matching is class-agnostic (greedy by IoU alone); each matched
    (det, gt) pair contributes its predicted and true label sets to the gt
    class's row.  Unmatched gts add |T| to that class's recall denominator;
    unmatched dets add |P| to the predicted class's precision denominator.
    Class ids are read through ``class_names``, or are the labels themselves.

    Returns {class: (hP, hR, hF)} over the classes that were touched.
    """
    (img, dets), (gt_img, gts) = _by_image(dets_by_image, gts_by_image)
    labels = {}  # each distinct label -> its code, the class id ``score`` sees
    d, g = (np.array([labels.setdefault(c if class_names is None else class_names[int(c)], len(labels))
                      for c in _column(es, "class_id")], dtype=int) for es in (dets, gts))
    return score((img, d, _numbers(dets, "score", float), _boxes(dets)), (gt_img, g, _boxes(gts)), iou_thresh,
                 class_names=list(labels), hierarchy=hierarchy).hf


def _hierarchical(gt_of_det, cls, gt_cls, class_names, hierarchy):
    """``hierarchical_f1``'s rows from the class-agnostic matching ``gt_of_det``.  A row
    exists for the label of every gt and of every unmatched detection."""
    labels = {}  # class names that are equal share a row
    code = np.array([labels.setdefault(x, len(labels)) for x in class_names], dtype=int)
    det_label, gt_label = code[cls], code[gt_cls]
    sets = [hierarchy.label_set(x) for x in labels]
    k = len(sets)
    size = np.array([len(s) for s in sets], dtype=int)
    common = np.array([[len(p & t) for t in sets] for p in sets], dtype=int).reshape(k, k)
    matched = gt_of_det >= 0
    row = det_label.copy()
    row[matched] = gt_label[gt_of_det[matched]]  # a matched detection counts in its gt's row
    # integer sums, exact in the float64 that bincount's weights give
    inter = np.bincount(row[matched], common[det_label, row][matched], k).tolist()
    pred_den = np.bincount(row, size[det_label], k).tolist()
    true_den = np.bincount(gt_label, size[gt_label], k).tolist()
    names, out = list(labels), {}
    for r in sorted(set(gt_label.tolist()) | set(det_label[~matched].tolist()), key=lambda r: str(names[r])):
        hp = inter[r] / pred_den[r] if pred_den[r] else 0.0
        hr = inter[r] / true_den[r] if true_den[r] else 0.0
        hf = 2 * hp * hr / (hp + hr) if hp + hr > 0 else 0.0
        out[names[r]] = (hp, hr, hf)
    return out

