"""Brute-force AP oracle for ``metrics.average_precision``: re-evaluates
precision and recall from scratch at every distinct score threshold.

Its matching and envelope come from ``tests/metrics_reference.py``, the former
scalar metrics code, so the oracle does not share code with the library."""

from maskpool_lab.errors import ConfigurationError
from metrics_reference import _area_under_envelope, _get, _tp_labels, match_detections


def brute_force_ap(dets, gts, iou_thresh: float = 0.5):
    """Test oracle: re-evaluates precision/recall from scratch at every distinct
    score threshold, then integrates the envelope.  Refuses large inputs."""
    dets, gts = list(dets), list(gts)
    if len(dets) > 1000 or len(gts) > 1000:
        raise ConfigurationError("brute_force_ap is a test oracle; inputs capped at 1000")
    n_gt = len(gts)
    if n_gt == 0:
        return None if not dets else 0.0
    if not dets:
        return 0.0
    order, sorted_scores, _ = _tp_labels(dets, gts, iou_thresh)
    thresholds = sorted(set(sorted_scores), reverse=True)
    points = []
    for tau in thresholds:
        subset = [dets[i] for i in order if float(_get(dets[i], "score")) >= tau]
        by_image_d = {}
        for d in subset:
            by_image_d.setdefault(_get(d, "image_id"), []).append(d)
        by_image_g = {}
        for g in gts:
            by_image_g.setdefault(_get(g, "image_id"), []).append(g)
        tp = 0
        for img, ds in by_image_d.items():
            m = match_detections(ds, by_image_g.get(img, []), iou_thresh, class_agnostic=True)
            tp += len(m.pairs)
        points.append((tp / n_gt, tp / len(subset)))
    return _area_under_envelope(points)
