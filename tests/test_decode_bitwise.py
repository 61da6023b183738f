"""Decode, per-class NMS and the fused ``kept_rows`` against the scalar versions in
tests/decode_reference.py: the same detections, in the same order, with the
same plain Python field types, compared through ``repr`` (which round-trips
every float, including -0.0, inf and nan) and object identity, on random
heads and hand-built detection lists, plus one report compared byte for byte."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import decode_reference as ref
from maskpool_lab import detector, experiments, nn, scenegen
from metrics_reference import iou

INF, NAN = math.inf, math.nan
# repeated values make scores tie across cells; the extremes overflow exp()
LOGITS = [-1e4, -88.7, -30.0, -4.0, -1.0, 0.0, 0.5, 2.0, 30.0, 88.7, 1e4,
          3.4e38, -3.4e38, INF, -INF, NAN]
# 4 and 8 meet the cell border (cell centres sit at 4 + 8k), 100 and the
# infinities clip at the image border, 0 and -3 give zero-extent boxes
BOX_REG = [0.0, -0.0, -3.0, 1.0, 4.0, 7.5, 8.0, 100.0, 1e30, INF, -INF, NAN]
THRESHOLDS = [0.5, 0.25, 1 / 3, 0.1, 1.0]
SCORES = [0.9, 0.5, 0.25, 0.1, 0.0]


def fingerprint(dets):
    return [(repr(d), type(d.class_id), type(d.score), tuple(map(type, d.box)), type(d.box),
             type(d.cell)) for d in dets]


def assert_same_decode(head, cfg):
    with np.errstate(all="ignore"):
        new, old = detector.decode(head, cfg), ref.decode(head, cfg)
    assert isinstance(new, list) and len(new) == len(old)
    for a, b in zip(new, old):
        assert isinstance(a, list)
        assert fingerprint(a) == fingerprint(b)
        for d in a:
            assert type(d.class_id) is int and type(d.cell) is int
            assert type(d.score) is float and all(type(v) is float for v in d.box)
    return new


def assert_same_nms(dets, thr):
    with np.errstate(all="ignore"):
        new, old = detector.nms(dets, thr), ref.nms(dets, thr)
    assert isinstance(new, list)
    assert [id(d) for d in new] == [id(d) for d in old]  # the caller's objects, same order
    assert fingerprint(new) == fingerprint(old)
    return new


@st.composite
def heads(draw):
    n, c, g = draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    logit = st.one_of(st.sampled_from(LOGITS), st.floats(-60, 60, width=32))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    obj = draw(hnp.arrays(np.float32, (n, 1, g, g), elements=logit))
    cls = draw(hnp.arrays(np.float32, (n, c, g, g), elements=logit))
    box = draw(hnp.arrays(dtype, (n, 4, g, g),
                          elements=st.one_of(st.sampled_from(BOX_REG),
                                             st.floats(-40, 40, width=32))))
    cfg = detector.ModelConfig(image_size=8 * g, num_classes=c, score_threshold=draw(
        st.one_of(st.sampled_from([0.0, 0.01, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))))
    return detector.DetHeadOutput(obj, cls, box), cfg


int_box = st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 8),
                    st.integers(0, 8)).map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
float_box = st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 0.5, 4.0, 10.0, 12.5, INF, -INF, NAN]),
                                  st.floats(-2, 16))] * 4)


@st.composite
def detection_lists(draw):
    """Few distinct classes, scores and cells, so exact key ties are common."""
    det = st.builds(detector.Detection, class_id=st.integers(0, 3),
                    score=st.one_of(st.sampled_from(SCORES), st.floats(0.0, 1.0)),
                    box=st.one_of(int_box, float_box), cell=st.integers(0, 5))
    dets = draw(st.lists(det, max_size=60))
    thr = draw(st.one_of(st.sampled_from(THRESHOLDS),
                         st.floats(0.0, 1.0, exclude_min=True)))
    if len(dets) >= 2 and draw(st.booleans()):  # a threshold some pair meets exactly
        a, b = draw(st.sampled_from(dets)), draw(st.sampled_from(dets))
        q = iou(a.box, b.box)
        if 0 < q <= 1:
            thr = q
    return dets, thr


@settings(max_examples=120)
@given(heads(), st.one_of(st.sampled_from(THRESHOLDS), st.floats(0.0, 1.0, exclude_min=True)))
def test_decode_then_nms_match_reference(case, thr):
    head, cfg = case
    for dets in assert_same_decode(head, cfg):
        assert_same_nms(dets, thr)


@settings(max_examples=200)
@given(detection_lists())
def test_nms_matches_reference_on_hand_built_lists(case):
    assert_same_nms(*case)


@settings(max_examples=60)
@given(detection_lists())
def test_nms_at_threshold_zero_matches_reference(case):
    # no pair can be skipped: IoU 0.0 is not below 0.0, so every pair suppresses
    assert_same_nms(case[0], 0.0)


@settings(max_examples=120)
@given(heads(), st.one_of(st.sampled_from(THRESHOLDS), st.floats(0.0, 1.0, exclude_min=True)))
def test_detect_matches_reference_decode_then_nms(case, thr):
    head, cfg = case
    cfg = dataclasses.replace(cfg, nms_iou=thr)
    with np.errstate(all="ignore"):
        new = detector.to_detections(*detector.kept_rows(head, cfg))
        old = [ref.nms(d, cfg.nms_iou) for d in ref.decode(head, cfg)]
    assert isinstance(new, list) and len(new) == len(old)
    for a, b in zip(new, old):
        assert isinstance(a, list) and fingerprint(a) == fingerprint(b)


def test_suppression_chain_keeps_every_other_box():
    # 10 px boxes shifted 3 px: only neighbours reach IoU 0.5 (7/13), so each kept
    # box frees the next but one, and the fixed point takes a round per link
    dets = [detector.Detection(0, 1.0 - k / 100, (3.0 * k, 0.0, 3.0 * k + 10, 10.0), cell=k)
            for k in range(40)]
    assert assert_same_nms(dets, 0.5) == dets[0::2]


def test_empty_and_single():
    cfg = detector.ModelConfig(image_size=16)
    empty = np.zeros((0, 1, 2, 2), np.float32)
    head = detector.DetHeadOutput(empty, np.zeros((0, 3, 2, 2), np.float32),
                                  np.zeros((0, 4, 2, 2), np.float32))
    assert assert_same_decode(head, cfg) == []
    assert assert_same_nms([], 0.5) == []
    d = detector.Detection(1, 0.5, (0.0, 0.0, 4.0, 4.0), cell=3)
    assert assert_same_nms([d], 0.5)[0] is d


def test_iou_exactly_at_threshold_suppresses():
    a = detector.Detection(0, 0.9, (0, 0, 10, 10), cell=0)
    b = detector.Detection(0, 0.8, (0, 0, 10, 5), cell=1)  # IoU 50/100
    assert assert_same_nms([a, b], 0.5) == [a]
    assert assert_same_nms([a, b], 0.5000001) == [a, b]


def test_nan_box_iou_operand_order():
    # IoU(candidate, chosen) as the scalar iou computes it: max(nan, 20) is nan,
    # max(20, nan) is 20, so a nan box is suppressed by a disjoint chosen box
    # but does not suppress a disjoint candidate itself
    finite = detector.Detection(0, 0.9, (20.0, 0.0, 30.0, 10.0), cell=0)
    nan_box = detector.Detection(0, 0.8, (NAN, 0.0, 10.0, 10.0), cell=1)
    assert assert_same_nms([finite, nan_box], 0.5) == [finite]
    nan_first = detector.Detection(0, 0.95, (NAN, 0.0, 10.0, 10.0), cell=1)
    assert assert_same_nms([nan_first, finite], 0.5) == [nan_first, finite]


def test_non_finite_edges_every_ordered_pair():
    # each edge of two boxes made nan, inf or -inf, against disjoint, nested,
    # overlapping and half-covering partners, in both score orders
    finite = [(0, 0, 10, 10), (20, 0, 30, 10), (0, 20, 10, 30), (5, 5, 15, 15), (0, 0, 10, 5)]
    boxes = finite + [b[:k] + (v,) + b[k + 1:] for b in finite[:2] for k in range(4)
                      for v in (NAN, INF, -INF)]
    for hi in boxes:
        for lo in boxes:
            pair = [detector.Detection(0, 0.9, hi, cell=0), detector.Detection(0, 0.8, lo, cell=1)]
            for thr in (0.5, 1.0):
                assert_same_nms(pair, thr)


def test_classes_suppress_only_their_own():
    box = (0.0, 0.0, 10.0, 10.0)
    dets = [detector.Detection(c, s, box, cell=c) for s in (0.9, 0.8) for c in (2, 0, 1)]
    assert assert_same_nms(dets, 0.5) == [dets[1], dets[2], dets[0]]  # by cell


def test_exact_key_ties_keep_input_order():
    # equal class, score and cell, disjoint boxes: every one is kept, in input order
    dets = [detector.Detection(k % 2, 0.5, (12.0 * k, 0.0, 12.0 * k + 10, 10.0), cell=3)
            for k in range(40)]
    kept = assert_same_nms(dets, 0.5)
    assert kept == dets[0::2] + dets[1::2]


def reference_kept_rows(head, cfg):
    """``detector.kept_rows`` from the reference ``decode`` and ``nms``."""
    per_image = [ref.nms(d, cfg.nms_iou) for d in ref.decode(head, cfg)]
    dets = [d for kept in per_image for d in kept]
    counts = [len(kept) for kept in per_image]
    return (np.array(counts, dtype=np.int64), np.array([d.class_id for d in dets], dtype=np.int64),
            np.array([d.score for d in dets], dtype=np.float64),
            np.array([d.cell for d in dets], dtype=np.int64),
            np.array([d.box for d in dets], dtype=np.float64).reshape(len(dets), 4))


def test_random_bg_report_bytes_match_reference(tmp_path, monkeypatch):
    records = scenegen.generate_dataset(6, 64, seed=21, size_range=(12, 28),
                                        bias=scenegen.BiasSpec.concentrated(3, 4, 0.85))
    cfg = detector.ModelConfig(pooling_variant="max", image_size=64, channels=(8, 16, 24, 24))
    ckpt = detector.train(records, cfg, nn.OptimizerConfig(), iterations=30, seed=2)
    ckpt.tensors["head.bias"][0] += 3.0  # raise objectness so that cells emit boxes
    pool = scenegen.generate_bg_pool(4, 64, seed=1)
    kept = []

    def counting(kept_rows):  # a batch with any candidate keeps at least one
        def counting_kept_rows(head, model_cfg):
            out = kept_rows(head, model_cfg)
            kept.append(int(out[0].sum()))
            return out
        return counting_kept_rows

    def report_bytes(name):
        rep = experiments.run_random_bg_eval(ckpt, records, pool, repetitions=2, seed=5)
        rep.write_json(tmp_path / name)
        return (tmp_path / name).read_bytes()

    monkeypatch.setattr(detector, "kept_rows", counting(detector.kept_rows))
    new = report_bytes("new.json")
    assert sum(kept) > 0
    kept.clear()
    monkeypatch.setattr(detector, "kept_rows", counting(reference_kept_rows))
    assert report_bytes("ref.json") == new
    assert sum(kept) > 0
