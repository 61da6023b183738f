"""Matching, AP, mAP50 and hierarchical F1 against the scalar versions in
tests/metrics_reference.py: the same values compared through ``repr`` (which
round-trips every float, including -0.0, inf and nan, and shows ``None``
entries and field types), on Hypothesis-drawn detections and ground truths,
plus one report compared byte for byte.

Integer boxes use coordinates in [0, 2**25): every width is below 2**25, every
area and every sum of two areas below 2**51, so integer IoU arithmetic is exact
in float64 as it is with Python ints.  Scores are never NaN: a NaN score has no
place in a (-score, index) order, for the reference as for the library.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as ref
from maskpool_lab import detector, experiments, metrics, nn, scenegen

INF, NAN = math.inf, math.nan
INT_LIMIT = 2 ** 25
# edges on a small grid make IoUs tie and meet thresholds exactly (1/2, 1/3, 1)
GRID_EDGES = [0, 1, 2, 3, 4, 6, 8]
FLOAT_EDGES = [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 1 / 3, 1e-300, 1e200, 1e308,
               INF, -INF, NAN]
THRESHOLDS = [0.0, 0.5, 1 / 3, 0.25, 2 / 3, 1.0]
SCORES = [1.0, 0.9, 0.5, 0.25, 0.0, -0.0, INF, -INF]
IMAGES = ["a", "b", "c"]
CLASS_NAMES = ["circle", "square", "triangle"]


@dataclass
class GroundTruth:
    """A ground-truth instance that names its box ``bbox``, as detection files do."""

    class_id: int
    bbox: tuple
    image_id: str = ""


@dataclass
class ImageDetection:
    """A detection dataclass that carries its image, for the flat-list API."""

    class_id: int
    score: float
    box: tuple
    image_id: str = ""


edge = st.one_of(st.sampled_from(GRID_EDGES), st.sampled_from(FLOAT_EDGES),
                 st.integers(0, INT_LIMIT - 1), st.floats(-4, 12),
                 st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def boxes(draw):
    kind = draw(st.sampled_from(["grid", "int", "float", "mixed"]))
    if kind == "grid":
        x0, y0 = draw(st.sampled_from(GRID_EDGES)), draw(st.sampled_from(GRID_EDGES))
        return (x0, y0, x0 + draw(st.sampled_from([1, 2, 4])), y0 + draw(st.sampled_from([1, 2, 4])))
    if kind == "int":
        return tuple(draw(st.lists(st.integers(0, INT_LIMIT - 1), min_size=4, max_size=4)))
    if kind == "float":
        x0, y0 = draw(st.floats(0, 8)), draw(st.floats(0, 8))
        return (x0, y0, x0 + draw(st.floats(0, 6)), y0 + draw(st.floats(0, 6)))
    return tuple(draw(st.lists(edge, min_size=4, max_size=4)))


score = st.one_of(st.sampled_from(SCORES), st.floats(0, 1))
class_id = st.integers(-1, 3)


@st.composite
def detection(draw, image_id=None):
    cls, s, box = draw(class_id), draw(score), draw(boxes())
    img = draw(st.sampled_from(IMAGES)) if image_id is None else image_id
    form = draw(st.sampled_from(["dict", "dataclass", "detection"]))
    if form == "dict":
        return {"image_id": img, "class_id": cls, "score": s, "bbox": box}
    if form == "detection" and image_id is not None:  # the library's own type has no image_id
        return detector.Detection(cls, s, box, cell=draw(st.integers(0, 63)))
    return ImageDetection(cls, s, box, img)


@st.composite
def ground_truth(draw, image_id=None):
    cls, box = draw(class_id), draw(boxes())
    img = draw(st.sampled_from(IMAGES)) if image_id is None else image_id
    form = draw(st.sampled_from(["dict", "bbox", "instance"]))
    if form == "dict":
        return {"image_id": img, "class_id": cls, "bbox": box}
    if form == "instance" and image_id is not None:
        return scenegen.Instance(cls, box)
    return GroundTruth(cls, box, img)


@st.composite
def per_image(draw, entry, max_size):
    """{image: [entries]}; some images empty, some absent, in drawn key order."""
    keys = draw(st.lists(st.sampled_from(IMAGES), unique=True, max_size=len(IMAGES)))
    return {k: draw(st.lists(entry(image_id=k), max_size=max_size)) for k in keys}


def outcome(fn, *args, **kwargs):
    """repr of the result, or the exception type: both sides must agree on either."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return f"raised {type(e).__name__}"


def same(name, *args, **kwargs):
    with np.errstate(all="ignore"):
        new = outcome(getattr(metrics, name), *args, **kwargs)
    old = outcome(getattr(ref, name), *args, **kwargs)
    assert new == old
    return new


def match_repr(m):
    return repr((m.pairs, m.unmatched_dets, m.unmatched_gts))


@given(dets=st.lists(detection(image_id="a"), max_size=10),
       gts=st.lists(ground_truth(image_id="a"), max_size=6),
       thr=st.one_of(st.sampled_from(THRESHOLDS), st.floats(0, 1)),
       agnostic=st.booleans())
@settings(max_examples=300)
def test_match_detections(dets, gts, thr, agnostic):
    with np.errstate(all="ignore"):
        new = match_repr(metrics.match_detections(dets, gts, thr, class_agnostic=agnostic))
    assert new == match_repr(ref.match_detections(dets, gts, thr, class_agnostic=agnostic))


@given(dets=st.lists(detection(), max_size=14), gts=st.lists(ground_truth(), max_size=8),
       thr=st.sampled_from(THRESHOLDS))
@settings(max_examples=300)
def test_average_precision(dets, gts, thr):
    same("average_precision", dets, gts, thr)


@given(dets=per_image(detection, 8), gts=per_image(ground_truth, 5),
       num_classes=st.integers(1, 3), thr=st.sampled_from(THRESHOLDS))
@settings(max_examples=300)
def test_map50(dets, gts, num_classes, thr):
    same("map50", dets, gts, num_classes, thr)


@given(dets=per_image(detection, 8), gts=per_image(ground_truth, 5),
       thr=st.sampled_from(THRESHOLDS))
@settings(max_examples=200)
def test_hierarchical_f1(dets, gts, thr):
    names = CLASS_NAMES + ["circle"]  # class ids -1 and 3 both read "circle"
    same("hierarchical_f1", dets, gts, metrics.hierarchy_for(names), thr, class_names=names)
    same("hierarchical_f1", dets, gts, metrics.hierarchy_for([-1, 0, 1, 2, 3]), thr)


# hand cases: each one pins a rule that random draws reach only by luck

def d(img, cls, s, box):
    return {"image_id": img, "class_id": cls, "score": s, "bbox": box}


def g(img, cls, box):
    return {"image_id": img, "class_id": cls, "bbox": box}


@pytest.mark.parametrize("thr", [0.0, 1 / 3, 0.5, 1.0])
def test_iou_ties_and_exact_thresholds(thr):
    # (1, 0, 5, 2) has IoU 3/5 with both gts; (0, 0, 2, 2) has IoU 1/2 with the first
    gts = [g("a", 0, (0, 0, 4, 2)), g("a", 0, (2, 0, 6, 2)), g("a", 0, (0, 0, 2, 2))]
    dets = [d("a", 0, 0.5, (1, 0, 5, 2)), d("a", 0, 0.5, (0, 0, 2, 2)),
            d("a", 0, 0.9, (0, 0, 2, 2)), d("a", 0, 0.5, (1, 0, 5, 2))]
    same("match_detections", dets, gts, thr)
    same("average_precision", dets, gts, thr)
    same("map50", {"a": dets}, {"a": gts}, 1, thr)


def test_non_finite_edges_every_ordered_pair():
    finite = [(0, 0, 10, 10), (5, 5, 15, 15), (0, 0, 10, 5), (20, 0, 30, 10)]
    boxes_ = finite + [b[:k] + (v,) + b[k + 1:] for b in finite[:2] for k in range(4)
                       for v in (NAN, INF, -INF)]
    for a in boxes_:
        for b in boxes_:
            for thr in (0.0, 0.5, 1.0):
                same("match_detections", [d("a", 0, 0.9, a)], [g("a", 0, b)], thr)
                same("match_detections", [d("a", 0, 0.9, a), d("a", 0, 0.8, b)],
                     [g("a", 0, b), g("a", 0, a)], thr)


def test_images_with_only_dets_or_only_gts():
    dets = {"a": [d("a", 0, 0.9, (0, 0, 4, 4))], "b": [d("b", 1, 0.8, (0, 0, 4, 4))], "c": []}
    gts = {"a": [g("a", 0, (0, 0, 4, 4))], "d": [g("d", 1, (0, 0, 4, 4))], "c": []}
    same("map50", dets, gts, 2)
    same("hierarchical_f1", dets, gts, metrics.hierarchy_for(CLASS_NAMES), class_names=CLASS_NAMES)


def test_image_key_wins_over_image_id_field():
    # map50 groups by the dict key; the entries' own image_id is not read
    dets = {"a": [d("zzz", 0, 0.9, (0, 0, 4, 4))]}
    gts = {"a": [g("yyy", 0, (0, 0, 4, 4))]}
    assert same("map50", dets, gts, 1) == repr((100.0, {0: 100.0}))


def test_class_ids_outside_num_classes_are_ignored():
    dets = {"a": [d("a", 5, 0.9, (0, 0, 4, 4)), d("a", -1, 0.9, (0, 0, 4, 4)),
                  d("a", 0, 0.8, (0, 0, 4, 4))]}
    gts = {"a": [g("a", 5, (0, 0, 4, 4)), g("a", 0, (0, 0, 4, 4))]}
    assert same("map50", dets, gts, 2) == repr((100.0, {0: 100.0, 1: None}))
    same("map50", dets, {"a": [g("a", 5, (0, 0, 4, 4))]}, 2)  # no gt in range: an error


def test_detection_matched_to_another_class_adds_no_row_of_its_own():
    # the triangle detection takes the square gt in the class-agnostic matching: it
    # counts in the square row, and with no triangle gt and no unmatched triangle
    # detection there is no triangle row
    dets = {"a": [d("a", 2, 0.9, (0, 0, 4, 4))]}
    gts = {"a": [g("a", 1, (0, 0, 4, 4))]}
    hf = same("hierarchical_f1", dets, gts, metrics.hierarchy_for(CLASS_NAMES), class_names=CLASS_NAMES)
    assert hf == repr({"square": (0.5, 0.5, 0.5)})  # {triangle, angular} against {square, angular}
    assert same("hierarchical_f1", dets, gts, metrics.hierarchy_for([0, 1, 2])) == repr({1: (0.0, 0.0, 0.0)})


def test_no_ground_truth_anywhere_raises_the_same():
    assert same("map50", {"a": [d("a", 0, 0.9, (0, 0, 4, 4))]}, {}, 3) == "raised ConfigurationError"


def reference_score(dets, gts, iou_thresh=0.5, num_classes=0, class_names=None, hierarchy=None):
    """``metrics.score`` as evaluation calls it, computed by the reference ``map50`` and
    ``hierarchical_f1`` on per-image dicts built from its arrays."""
    dets_by_image, gts_by_image = {}, {}
    for img, cls, s, box in zip(*(a.tolist() for a in dets)):
        dets_by_image.setdefault(img, []).append({"class_id": cls, "score": s, "bbox": tuple(box)})
    for img, cls, box in zip(*(a.tolist() for a in gts)):
        gts_by_image.setdefault(img, []).append({"class_id": cls, "bbox": tuple(box)})
    return SimpleNamespace(
        map50=ref.map50(dets_by_image, gts_by_image, num_classes, iou_thresh),
        hf=ref.hierarchical_f1(dets_by_image, gts_by_image, hierarchy, iou_thresh, class_names))


def test_random_bg_report_bytes_match_reference(tmp_path, monkeypatch):
    records = scenegen.generate_dataset(6, 64, seed=21, size_range=(12, 28),
                                        bias=scenegen.BiasSpec.concentrated(3, 4, 0.85))
    cfg = detector.ModelConfig(pooling_variant="max", image_size=64, channels=(8, 16, 24, 24))
    ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=30, seed=2)
    ckpt.tensors["head.bias"][0] += 3.0  # raise objectness so that cells emit boxes
    pool = scenegen.generate_bg_pool(4, 64, seed=1)
    kept_rows, kept, scored = detector.kept_rows, [], []

    def counting_kept_rows(head, model_cfg):  # a batch with any candidate keeps at least one
        out = kept_rows(head, model_cfg)
        kept.append(int(out[0].sum()))
        return out

    def counting_reference_score(*args, **kwargs):
        scored.append(1)
        return reference_score(*args, **kwargs)

    def report_bytes(name):
        rep = experiments.run_random_bg_eval(ckpt, records, pool, repetitions=2, seed=5)
        rep.write_json(tmp_path / name)
        return (tmp_path / name).read_bytes()

    monkeypatch.setattr(detector, "kept_rows", counting_kept_rows)
    new = report_bytes("new.json")
    assert sum(kept) > 0
    monkeypatch.setattr(metrics, "score", counting_reference_score)
    assert report_bytes("ref.json") == new
    assert len(scored) == 2  # one evaluation per repetition, scored by the reference
