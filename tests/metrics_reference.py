"""The metrics code the library shipped before matching moved onto one IoU
matrix, kept as a bitwise reference for ``maskpool_lab.metrics``.

``iou`` is the scalar IoU; ``match_detections`` scans the ground truths of
each detection one by one; ``_tp_labels`` re-implements that greedy matching
across images for one class; ``map50`` rebuilds one dict per detection per
class and calls ``average_precision`` per class.  The library versions must
return the same values, compared through ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from maskpool_lab.errors import ConfigurationError
from maskpool_lab.metrics import ClassHierarchy


def _get(entry, name):
    if isinstance(entry, dict):
        return entry["bbox" if name == "box" else name]
    if name == "box" and not hasattr(entry, "box"):
        return getattr(entry, "bbox")
    return getattr(entry, name)


def iou(a, b) -> float:
    """Intersection over union of two half-open pixel boxes; 0 for degenerate boxes."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0:
        return 0.0
    return inter / union


@dataclass
class MatchResult:
    pairs: list = field(default_factory=list)        # (det_index, gt_index, iou)
    unmatched_dets: list = field(default_factory=list)
    unmatched_gts: list = field(default_factory=list)


def match_detections(dets, gts, iou_thresh: float = 0.5, class_agnostic: bool = False) -> MatchResult:
    """Greedy matching by descending score.

    Each detection takes the highest-IoU still-unmatched ground truth (of its
    own class unless ``class_agnostic``) with IoU >= threshold; IoU ties go to
    the lower gt index.  Score ties keep input order.
    """
    dets = list(dets)
    gts = list(gts)
    order = sorted(range(len(dets)), key=lambda i: (-float(_get(dets[i], "score")), i))
    taken = [False] * len(gts)
    result = MatchResult()
    for di in order:
        d_cls = int(_get(dets[di], "class_id"))
        d_box = _get(dets[di], "box")
        best_iou, best_gi = 0.0, -1
        for gi, g in enumerate(gts):
            if taken[gi]:
                continue
            if not class_agnostic and int(_get(g, "class_id")) != d_cls:
                continue
            v = iou(d_box, _get(g, "box"))
            if v >= iou_thresh and v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi >= 0:
            taken[best_gi] = True
            result.pairs.append((di, best_gi, best_iou))
        else:
            result.unmatched_dets.append(di)
    result.unmatched_gts = [gi for gi, t in enumerate(taken) if not t]
    return result


# ---------------------------------------------------------------------------
# average precision (single class, whole dataset)
# ---------------------------------------------------------------------------

def _canonical_order(dets):
    scores = [float(_get(d, "score")) for d in dets]
    return sorted(range(len(dets)), key=lambda i: (-scores[i], i)), scores


def _tp_labels(dets, gts, iou_thresh):
    """True/false-positive labels for one class's detections, greedy in score order."""
    order, scores = _canonical_order(dets)
    gts_by_image = {}
    for gi, g in enumerate(gts):
        gts_by_image.setdefault(_get(g, "image_id"), []).append((gi, _get(g, "box")))
    taken = set()
    labels = []
    for di in order:
        img = _get(dets[di], "image_id")
        box = _get(dets[di], "box")
        best_iou, best_gi = 0.0, -1
        for gi, gbox in gts_by_image.get(img, ()):
            if gi in taken:
                continue
            v = iou(box, gbox)
            if v >= iou_thresh and v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi >= 0:
            taken.add(best_gi)
            labels.append(True)
        else:
            labels.append(False)
    return order, [scores[i] for i in order], labels


def _area_under_envelope(points):
    """Area under the precision envelope of (recall, precision) operating points.

    Points must be ordered by non-decreasing recall (threshold order).  The
    envelope at recall r is the max precision among points with recall >= r.
    """
    if not points:
        return 0.0
    env = [0.0] * len(points)
    running = 0.0
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        env[i] = running
    ap = 0.0
    prev_r = 0.0
    for (r, _p), e in zip(points, env):
        if r > prev_r:
            ap += (r - prev_r) * e
            prev_r = r
    return ap


def average_precision(dets, gts, iou_thresh: float = 0.5):
    """All-points interpolated AP for one class across the dataset.

    Returns None when there are neither ground truths nor detections (the
    class is excluded from any mean); 0.0 for detections without ground truth.
    Score-tied detections enter the precision/recall sweep as one group.
    """
    dets, gts = list(dets), list(gts)
    n_gt = len(gts)
    if n_gt == 0:
        return None if not dets else 0.0
    if not dets:
        return 0.0
    _, sorted_scores, labels = _tp_labels(dets, gts, iou_thresh)
    points = []
    tp = fp = 0
    for k, (s, is_tp) in enumerate(zip(sorted_scores, labels)):
        tp += is_tp
        fp += not is_tp
        last_of_group = k + 1 == len(labels) or sorted_scores[k + 1] != s
        if last_of_group:
            points.append((tp / n_gt, tp / (tp + fp)))
    return _area_under_envelope(points)


def map50(dets_by_image: dict, gts_by_image: dict, num_classes: int,
          iou_thresh: float = 0.5):
    """Mean of the defined per-class APs, in percent.

    Returns (mAP50, per_class_ap) with every AP already scaled to percent;
    classes with neither gts nor dets carry None and are excluded from the
    mean.  A dataset with no ground truth at all is an error.
    """
    per_class = {}
    total_gts = 0
    for c in range(num_classes):
        cdets, cgts = [], []
        for img, ds in dets_by_image.items():
            for d in ds:
                if int(_get(d, "class_id")) == c:
                    cdets.append({"image_id": img, "score": float(_get(d, "score")),
                                  "bbox": _get(d, "box")})
        for img, gs in gts_by_image.items():
            for g in gs:
                if int(_get(g, "class_id")) == c:
                    cgts.append({"image_id": img, "bbox": _get(g, "box")})
        total_gts += len(cgts)
        ap = average_precision(cdets, cgts, iou_thresh)
        per_class[c] = None if ap is None else 100.0 * ap
    if total_gts == 0:
        raise ConfigurationError("mAP50 undefined: no class has any ground truth")
    defined = [v for v in per_class.values() if v is not None]
    return float(np.mean(defined)), per_class


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

    inter = {}
    pred_den = {}
    true_den = {}

    def bump(table, key, value):
        table[key] = table.get(key, 0) + value

    images = sorted(set(dets_by_image) | set(gts_by_image))
    for img in images:
        dets = list(dets_by_image.get(img, ()))
        gts = list(gts_by_image.get(img, ()))
        m = match_detections(dets, gts, iou_thresh, class_agnostic=True)
        for di, gi, _v in m.pairs:
            p_set = hierarchy.label_set(leaf(_get(dets[di], "class_id")))
            t_set = hierarchy.label_set(leaf(_get(gts[gi], "class_id")))
            row = leaf(_get(gts[gi], "class_id"))
            bump(inter, row, len(p_set & t_set))
            bump(pred_den, row, len(p_set))
            bump(true_den, row, len(t_set))
        for gi in m.unmatched_gts:
            row = leaf(_get(gts[gi], "class_id"))
            bump(true_den, row, len(hierarchy.label_set(row)))
            bump(inter, row, 0)
        for di in m.unmatched_dets:
            row = leaf(_get(dets[di], "class_id"))
            bump(pred_den, row, len(hierarchy.label_set(row)))
            bump(inter, row, 0)

    out = {}
    for row in sorted(inter, key=str):
        num = inter.get(row, 0)
        hp = num / pred_den[row] if pred_den.get(row) else 0.0
        hr = num / true_den[row] if true_den.get(row) else 0.0
        hf = 2 * hp * hr / (hp + hr) if hp + hr > 0 else 0.0
        out[row] = (hp, hr, hf)
    return out
