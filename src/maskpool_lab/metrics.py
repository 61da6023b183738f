"""Detection evaluation: IoU matrix, greedy matching, AP@0.5, mAP50 and hierarchical F1.

Boxes are (x_min, y_min, x_max, y_max) in pixels, half-open.  Detections and
ground truths may be dataclass-like objects or dicts following the detections
file schema ({"image_id", "class_id", "score", "bbox"}).

``iou_matrix`` is the one IoU (``detector.nms`` imports it) and
``match_detections`` the one greedy matcher.  AP and mAP50 take their true
positives from it (class-aware), hierarchical F1 its pairs (class-agnostic);
they match all images of a call at once, with one IoU computation.
``average_precision`` is the all-points interpolated AP; the tests check it
against a brute-force oracle (``tests/ap_oracle.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
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


@dataclass
class MatchResult:
    pairs: list = field(default_factory=list)        # (det_index, gt_index, iou)
    unmatched_dets: list = field(default_factory=list)
    unmatched_gts: list = field(default_factory=list)


def match_detections(dets, gts, iou_thresh: float = 0.5, class_agnostic: bool = False) -> MatchResult:
    """Greedy matching by descending score.

    Each detection takes the highest-IoU still-unmatched ground truth (of its
    own class unless ``class_agnostic``) with IoU >= threshold and > 0; IoU
    ties go to the lower gt index.  Score ties keep input order.
    """
    return next(_match_images([(dets, gts)], iou_thresh, class_agnostic))


def _match_images(images, iou_thresh, class_agnostic):
    """``match_detections`` of each (dets, gts) image in turn, with one ``iou_matrix`` call
    for the same-image pairs of all of them: each numpy call has a fixed cost of
    microseconds, which one call per image would pay for a few dozen pairs."""
    images = [(list(dets), list(gts)) for dets, gts in images]
    blocks = [(dets, gts) for dets, gts in images if dets and gts]
    candidates = {}  # detection (numbered across blocks) -> [(gt in its image, IoU)], by gt
    if blocks:  # pair p: detection pair_det[p] against gt pair_gt[p] of the same image
        n_det = np.array([len(dets) for dets, _ in blocks])
        n_gt = np.array([len(gts) for _, gts in blocks])
        pairs_of_det = np.repeat(n_gt, n_det)
        pair_det = np.repeat(np.arange(n_det.sum()), pairs_of_det)
        # the gt's place in its image is the pair's place in its detection's run of pairs
        pair_gt = np.arange(len(pair_det)) - np.repeat(np.cumsum(pairs_of_det) - pairs_of_det, pairs_of_det)
        gt_row = np.repeat(np.cumsum(n_gt) - n_gt, n_det)[pair_det] + pair_gt  # in gt_boxes
        det_boxes = np.asarray([b for dets, _ in blocks for b in _column(dets, "box")], dtype=np.float64)
        gt_boxes = np.asarray([b for _, gts in blocks for b in _column(gts, "box")], dtype=np.float64)
        iou = iou_matrix(det_boxes[pair_det, None], gt_boxes[gt_row, None]).ravel()
        hit = iou >= iou_thresh  # NaN never qualifies; 0.0 does at thresholds <= 0, but never wins
        if not class_agnostic:
            det_cls = np.array([int(c) for dets, _ in blocks for c in _column(dets, "class_id")])
            gt_cls = np.array([int(c) for _, gts in blocks for c in _column(gts, "class_id")])
            hit &= det_cls[pair_det] == gt_cls[gt_row]
        for d, g, v in zip(pair_det[hit].tolist(), pair_gt[hit].tolist(), iou[hit].tolist()):
            candidates.setdefault(d, []).append((g, v))
    first_det = 0  # the number in candidates of the image's first detection (images with gts)
    for dets, gts in images:
        neg_scores = [-float(v) for v in _column(dets, "score")]
        order = sorted(range(len(dets)), key=neg_scores.__getitem__)  # stable: ties keep input order
        taken = [False] * len(gts)
        result = MatchResult()
        for di in order:
            best, best_gi = 0.0, -1
            for gi, v in candidates.get(first_det + di, ()) if gts else ():  # strict >: first maximum
                if v > best and not taken[gi]:
                    best, best_gi = v, gi
            if best_gi >= 0:
                taken[best_gi] = True
                result.pairs.append((di, best_gi, best))
            else:
                result.unmatched_dets.append(di)
        result.unmatched_gts = [gi for gi, t in enumerate(taken) if not t]
        yield result
        if gts:
            first_det += len(dets)


def _scored_matches(images, iou_thresh, class_agnostic):
    """(score, matched) of every detection of the (dets, gts) images, in input order."""
    images = [(list(dets), gts) for dets, gts in images]
    out = []
    for (dets, _gts), m in zip(images, _match_images(images, iou_thresh, class_agnostic)):
        matched = {di for di, _gi, _v in m.pairs}
        out += ((float(s), di in matched) for di, s in enumerate(_column(dets, "score")))
    return out


# ---------------------------------------------------------------------------
# average precision (single class, whole dataset)
# ---------------------------------------------------------------------------

def _area_under_envelope(points):
    """Area under the precision envelope of (recall, precision) operating points.

    Points must be ordered by non-decreasing recall (threshold order).  The
    envelope at recall r is the max precision among points with recall >= r.
    """
    if not points:
        return 0.0
    env = list(accumulate((p for _r, p in reversed(points)), max, initial=0.0))[:0:-1]
    ap = 0.0
    prev_r = 0.0
    for (r, _p), e in zip(points, env):
        if r > prev_r:
            ap += (r - prev_r) * e
            prev_r = r
    return ap


def _ap_from_matches(matches, n_gt):
    """AP of one class from its detections' (score, matched) in any order: a
    score-tie group adds one precision/recall point, whatever its order."""
    if n_gt == 0:
        return None if not matches else 0.0
    if not matches:
        return 0.0
    matches = sorted(matches, key=itemgetter(0), reverse=True)  # stable
    points = []
    tp = fp = 0
    for k, (s, is_tp) in enumerate(matches):
        tp += is_tp
        fp += not is_tp
        last_of_group = k + 1 == len(matches) or matches[k + 1][0] != s
        if last_of_group:
            points.append((tp / n_gt, tp / (tp + fp)))
    return _area_under_envelope(points)


def average_precision(dets, gts, iou_thresh: float = 0.5):
    """All-points interpolated AP for one class across the dataset.

    Returns None when there are neither ground truths nor detections (the
    class is excluded from any mean); 0.0 for detections without ground truth.
    Score-tied detections enter the precision/recall sweep as one group.
    """
    dets, gts = list(dets), list(gts)
    by_image = {}
    for d, img in zip(dets, _column(dets, "image_id")):
        by_image.setdefault(img, ([], []))[0].append(d)
    for g, img in zip(gts, _column(gts, "image_id")):
        by_image.setdefault(img, ([], []))[1].append(g)
    return _ap_from_matches(_scored_matches(by_image.values(), iou_thresh, True), len(gts))


def map50(dets_by_image: dict, gts_by_image: dict, num_classes: int,
          iou_thresh: float = 0.5):
    """Mean of the defined per-class APs, in percent.

    Returns (mAP50, per_class_ap) with every AP already scaled to percent;
    classes with neither gts nor dets carry None and are excluded from the
    mean.  A dataset with no ground truth at all is an error.  Class ids
    outside ``range(num_classes)`` are ignored.
    """
    images = [(list(dets), gts_by_image.get(img, ())) for img, dets in dets_by_image.items()]
    classes = [c for dets, _gts in images for c in _column(dets, "class_id")]
    matches = {c: [] for c in range(num_classes)}
    for c, m in zip(classes, _scored_matches(images, iou_thresh, False)):
        matches.get(int(c), []).append(m)  # ids outside range(num_classes) are dropped
    n_gt = Counter(int(c) for gs in gts_by_image.values() for c in _column(gs, "class_id"))
    if not any(n_gt[c] for c in matches):
        raise ConfigurationError("mAP50 undefined: no class has any ground truth")
    per_class = {}
    for c, class_matches in matches.items():
        ap = _ap_from_matches(class_matches, n_gt[c])
        per_class[c] = None if ap is None else 100.0 * ap
    defined = [v for v in per_class.values() if v is not None]
    return float(np.mean(defined)), per_class


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

    Returns {class: (hP, hR, hF)} over the classes that were touched.
    """
    def leaf(class_id):
        return class_names[int(class_id)] if class_names is not None else class_id

    label_set = lru_cache(maxsize=None)(hierarchy.label_set)  # one tree walk per class
    inter, pred_den, true_den = Counter(), Counter(), Counter()
    images = [(list(dets_by_image.get(img, ())), list(gts_by_image.get(img, ())))
              for img in sorted(set(dets_by_image) | set(gts_by_image))]
    for (dets, gts), m in zip(images, _match_images(images, iou_thresh, class_agnostic=True)):
        pred = [leaf(c) for c in _column(dets, "class_id")]
        true = [leaf(c) for c in _column(gts, "class_id")]
        for di, gi, _v in m.pairs:
            p_set, t_set = label_set(pred[di]), label_set(true[gi])
            inter[true[gi]] += len(p_set & t_set)
            pred_den[true[gi]] += len(p_set)
            true_den[true[gi]] += len(t_set)
        for gi in m.unmatched_gts:
            true_den[true[gi]] += len(label_set(true[gi]))
            inter[true[gi]] += 0  # the row exists, with nothing in common
        for di in m.unmatched_dets:
            pred_den[pred[di]] += len(label_set(pred[di]))
            inter[pred[di]] += 0

    out = {}
    for row in sorted(inter, key=str):
        hp = inter[row] / pred_den[row] if pred_den[row] else 0.0
        hr = inter[row] / true_den[row] if true_den[row] else 0.0
        hf = 2 * hp * hr / (hp + hr) if hp + hr > 0 else 0.0
        out[row] = (hp, hr, hf)
    return out


def f1_diff(report_a: dict, report_b: dict):
    """Per-class hF difference table: {class: (hF_a, hF_b, diff)}.

    Accepts per-class triples or bare hF floats.  Classes missing from one
    side carry None entries (rendered as dashes downstream).
    """
    def hf(report, cls):
        if cls not in report:
            return None
        v = report[cls]
        return float(v[2]) if isinstance(v, (tuple, list)) else float(v)

    rows = {}
    for cls in sorted(set(report_a) | set(report_b), key=str):
        a, b = hf(report_a, cls), hf(report_b, cls)
        diff = (b - a) if (a is not None and b is not None) else None
        rows[cls] = (a, b, diff)
    return rows
