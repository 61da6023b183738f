"""The scalar decode and per-class NMS the detector used to ship, kept as
bitwise references for the array versions in ``detector``.

``decode`` walks each image's ``np.argwhere`` cells one at a time and clips
with Python ``max``/``min``; ``nms`` groups by class, sorts each group by
(-score, cell) and keeps a detection when its ``metrics.iou`` with every
already chosen one is below the threshold.  The array versions must return
the same ``Detection`` values, in the same order, with the same field types.
"""

import numpy as np

from maskpool_lab.detector import Detection
from maskpool_lab.metrics import iou as box_iou


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x.astype(np.float64)))


def decode(head, cfg):
    """Per image: every (cell, class) with sigmoid(obj)*softmax(class) above the
    score threshold emits a box; degenerate (zero-extent) boxes are dropped."""
    n, num_classes, g, _ = head.class_logits.shape
    stride = cfg.grid_stride
    obj = _sigmoid(head.objectness)[:, 0]
    z = head.class_logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    scores = obj[:, None] * probs  # (n, C, g, g)
    out = []
    size = float(cfg.image_size)
    for i in range(n):
        dets = []
        for c, row, col in np.argwhere(scores[i] >= cfg.score_threshold):
            l, t, r, b = np.maximum(head.box_reg[i, :, row, col], 0.0)
            ccx, ccy = (col + 0.5) * stride, (row + 0.5) * stride
            x0, y0 = max(ccx - l, 0.0), max(ccy - t, 0.0)
            x1, y1 = min(ccx + r, size), min(ccy + b, size)
            if x1 <= x0 or y1 <= y0:
                continue
            dets.append(Detection(class_id=int(c), score=float(scores[i, c, row, col]),
                                  box=(float(x0), float(y0), float(x1), float(y1)),
                                  cell=int(row) * g + int(col)))
        out.append(dets)
    return out


def nms(dets, iou_thresh: float):
    """Greedy per-class NMS by descending score; score ties broken by lower cell index."""
    kept = []
    by_class = {}
    for d in dets:
        by_class.setdefault(d.class_id, []).append(d)
    for c in sorted(by_class):
        group = sorted(by_class[c], key=lambda d: (-d.score, d.cell))
        chosen = []
        for d in group:
            if all(box_iou(d.box, k.box) < iou_thresh for k in chosen):
                chosen.append(d)
        kept.extend(chosen)
    return sorted(kept, key=lambda d: (-d.score, d.cell, d.class_id))
