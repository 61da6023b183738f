"""Evaluation-metric tests: IoU/matching hand cases, AP vs the brute-force
threshold oracle, mAP50 fixtures, and hierarchical F1 aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap_oracle
from maskpool_lab import metrics
from maskpool_lab.errors import ConfigurationError


def det(image_id, class_id, score, box):
    return {"image_id": image_id, "class_id": class_id, "score": score, "bbox": box}


def gt(image_id, class_id, box):
    return {"image_id": image_id, "class_id": class_id, "bbox": box}


class TestIoU:
    def iou(self, a, b):
        return metrics.iou_matrix([a], [b])[0, 0]

    def test_identical(self):
        assert self.iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0

    def test_disjoint(self):
        assert self.iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_overlap_one_seventh(self):
        assert self.iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_degenerate_zero_area(self):
        assert self.iou((1, 1, 1, 3), (0, 0, 2, 2)) == 0.0


class TestMatching:
    def test_exact_match(self):
        m = metrics.match_detections([det("a", 0, 0.9, (0, 0, 2, 2))],
                                     [gt("a", 0, (0, 0, 2, 2))])
        assert m.pairs == [(0, 0, 1.0)] and not m.unmatched_dets and not m.unmatched_gts

    def test_second_det_on_same_gt_is_fp(self):
        dets = [det("a", 0, 0.9, (0, 0, 2, 2)), det("a", 0, 0.8, (0, 0, 2, 2))]
        m = metrics.match_detections(dets, [gt("a", 0, (0, 0, 2, 2))])
        assert [p[0] for p in m.pairs] == [0]
        assert m.unmatched_dets == [1]

    def test_wrong_class_not_matched(self):
        m = metrics.match_detections([det("a", 1, 0.9, (0, 0, 2, 2))],
                                     [gt("a", 0, (0, 0, 2, 2))])
        assert not m.pairs and m.unmatched_dets == [0] and m.unmatched_gts == [0]

    def test_iou_tie_takes_lower_gt_index(self):
        g = [gt("a", 0, (0, 0, 4, 2)), gt("a", 0, (2, 0, 6, 2))]
        d = [det("a", 0, 0.9, (1, 0, 5, 2))]  # IoU 0.6 with both gts
        m = metrics.match_detections(d, g)
        assert m.pairs[0][1] == 0 and m.pairs[0][2] == pytest.approx(0.6)

    def test_class_agnostic_mode(self):
        m = metrics.match_detections([det("a", 1, 0.9, (0, 0, 2, 2))],
                                     [gt("a", 0, (0, 0, 2, 2))], class_agnostic=True)
        assert len(m.pairs) == 1


def random_ap_fixture(rng, with_ties=True):
    images = ["a", "b"]
    scores = [0.1, 0.2, 0.3, 0.5, 0.5, 0.7, 0.9] if with_ties else None

    def rand_box():
        x0 = float(rng.uniform(0, 16))
        y0 = float(rng.uniform(0, 16))
        return (x0, y0, x0 + float(rng.uniform(1, 8)), y0 + float(rng.uniform(1, 8)))

    dets = [det(str(rng.choice(images)), 0,
                float(rng.choice(scores)) if with_ties else float(rng.uniform(0, 1)),
                rand_box())
            for _ in range(int(rng.integers(0, 7)))]
    gts = [gt(str(rng.choice(images)), 0, rand_box()) for _ in range(int(rng.integers(0, 5)))]
    return dets, gts


class TestAveragePrecision:
    def test_single_true_positive(self):
        assert metrics.average_precision([det("a", 0, 0.9, (0, 0, 2, 2))],
                                         [gt("a", 0, (0, 0, 2, 2))]) == 1.0

    def test_fp_before_tp_halves_ap(self):
        dets = [det("a", 0, 0.9, (10, 10, 12, 12)), det("a", 0, 0.8, (0, 0, 2, 2))]
        assert metrics.average_precision(dets, [gt("a", 0, (0, 0, 2, 2))]) == 0.5

    def test_undefined_and_zero_cases(self):
        assert metrics.average_precision([], []) is None
        assert metrics.average_precision([det("a", 0, 0.9, (0, 0, 2, 2))], []) == 0.0
        assert metrics.average_precision([], [gt("a", 0, (0, 0, 2, 2))]) == 0.0

    def test_oracle_equivalence_random_fixtures(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(400):
            dets, gts = random_ap_fixture(rng)
            ap = metrics.average_precision(dets, gts)
            ref = ap_oracle.brute_force_ap(dets, gts)
            assert ap == ref  # exact, including the None case
            checked += 1
        assert checked == 400

    def test_brute_force_refuses_large_inputs(self):
        dets = [det("a", 0, 0.5, (0, 0, 2, 2))] * 1001
        with pytest.raises(ConfigurationError):
            ap_oracle.brute_force_ap(dets, [gt("a", 0, (0, 0, 2, 2))])

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.5, 3), power=st.sampled_from([1, 3]))
    @settings(max_examples=40)
    def test_monotone_score_transform_invariance(self, seed, scale, power):
        rng = np.random.default_rng(seed)
        dets, gts = random_ap_fixture(rng)
        base = metrics.average_precision(dets, gts)
        warped = [dict(d, score=scale * d["score"] ** power) for d in dets]
        assert metrics.average_precision(warped, gts) == base


class TestMap50:
    def test_perfect_detcolctions(self):
        gts = {"a": [gt("a", 0, (0, 0, 4, 4)), gt("a", 1, (8, 8, 12, 12))]}
        dets = {"a": [det("a", 0, 0.9, (0, 0, 4, 4)), det("a", 1, 0.9, (8, 8, 12, 12))]}
        m, per_class = metrics.map50(dets, gts, num_classes=2)
        assert m == 100.0
        assert per_class == {0: 100.0, 1: 100.0}

    def test_no_detections(self):
        gts = {"a": [gt("a", 0, (0, 0, 4, 4))]}
        m, per_class = metrics.map50({"a": []}, gts, num_classes=2)
        assert m == 0.0
        assert per_class[0] == 0.0 and per_class[1] is None

    def test_two_class_hand_mixture(self):
        gts = {"a": [gt("a", 0, (0, 0, 4, 4)), gt("a", 1, (8, 8, 12, 12))]}
        dets = {"a": [det("a", 0, 0.9, (0, 0, 4, 4)),
                      det("a", 1, 0.9, (20, 20, 24, 24)),   # FP first
                      det("a", 1, 0.8, (8, 8, 12, 12))]}    # then TP
        m, per_class = metrics.map50(dets, gts, num_classes=2)
        assert per_class == {0: 100.0, 1: 50.0}
        assert m == pytest.approx(75.0)

    def test_requires_ground_truth(self):
        with pytest.raises(ConfigurationError):
            metrics.map50({"a": []}, {"a": []}, num_classes=2)

    def test_duplicated_dataset_invariance(self, rng):
        gts, dets = {}, {}
        for img in ("a", "b"):
            gts[img] = [gt(img, c, (float(4 * c), 0, float(4 * c + 3), 3)) for c in range(2)]
            dets[img] = [det(img, c, float(rng.uniform(0.2, 0.9)),
                             (4 * c + float(rng.uniform(-1, 1)), 0, 4 * c + 3, 3))
                         for c in range(2)]
        base, _ = metrics.map50(dets, gts, 2)
        dets2 = dict(dets, **{f"{k}#2": [dict(d, image_id=f"{k}#2") for d in v] for k, v in dets.items()})
        gts2 = dict(gts, **{f"{k}#2": [dict(g, image_id=f"{k}#2") for g in v] for k, v in gts.items()})
        doubled, _ = metrics.map50(dets2, gts2, 2)
        assert doubled == base


class TestHierarchy:
    def vehicle_tree(self):
        return metrics.ClassHierarchy({"root": None, "vehicle": "root",
                                       "car": "vehicle", "truck": "vehicle"})

    def test_ancestors_exclude_root(self):
        h = self.vehicle_tree()
        assert h.ancestors("car") == ["vehicle"]
        assert h.label_set("car") == {"car", "vehicle"}

    def test_single_root_enforced(self):
        with pytest.raises(ConfigurationError):
            metrics.ClassHierarchy({"a": None, "b": None})

    def test_cycle_detected(self):
        with pytest.raises(ConfigurationError):
            metrics.ClassHierarchy({"root": None, "a": "b", "b": "a"})

    def test_missing_class_raises(self):
        h = self.vehicle_tree()
        with pytest.raises(ConfigurationError):
            h.label_set("bike")

    def test_default_hierarchy_shape(self):
        h = metrics.default_hierarchy()
        assert h.ancestors("circle") == ["round"]
        assert h.ancestors("square") == ["angular"]
        assert h.ancestors("triangle") == ["angular"]


class TestHierarchicalF1:
    def vehicle_tree(self):
        return metrics.ClassHierarchy({"root": None, "vehicle": "root",
                                       "car": "vehicle", "truck": "vehicle"})

    def test_exact_leaf_match_scores_one(self):
        h = self.vehicle_tree()
        dets = {"a": [det("a", 0, 0.9, (0, 0, 4, 4))]}
        gts = {"a": [gt("a", 0, (0, 0, 4, 4))]}
        out = metrics.hierarchical_f1(dets, gts, h, class_names=["car", "truck"])
        assert out["car"] == (1.0, 1.0, 1.0)

    def test_sibling_confusion_scores_half(self):
        h = self.vehicle_tree()
        dets = {"a": [det("a", 0, 0.9, (0, 0, 4, 4))]}   # predicts car
        gts = {"a": [gt("a", 1, (0, 0, 4, 4))]}          # truth is truck
        out = metrics.hierarchical_f1(dets, gts, h, class_names=["car", "truck"])
        assert out["truck"] == (0.5, 0.5, 0.5)

    def test_unmatched_gt_lowers_recall_only(self):
        h = self.vehicle_tree()
        dets = {"a": [det("a", 0, 0.9, (0, 0, 4, 4))]}
        gts = {"a": [gt("a", 0, (0, 0, 4, 4)), gt("a", 0, (10, 10, 14, 14))]}
        hp, hr, hf = metrics.hierarchical_f1(dets, gts, h, class_names=["car", "truck"])["car"]
        assert hp == 1.0
        assert hr == 0.5
        assert hf == pytest.approx(2 / 3)

    def test_unmatched_det_lowers_precision_of_predicted_class(self):
        h = self.vehicle_tree()
        dets = {"a": [det("a", 0, 0.9, (0, 0, 4, 4)), det("a", 1, 0.8, (20, 20, 24, 24))]}
        gts = {"a": [gt("a", 0, (0, 0, 4, 4))]}
        out = metrics.hierarchical_f1(dets, gts, h, class_names=["car", "truck"])
        assert out["car"] == (1.0, 1.0, 1.0)
        assert out["truck"] == (0.0, 0.0, 0.0)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30)
    def test_scores_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        h = self.vehicle_tree()
        dets, gts = {}, {}
        for img in ("a", "b"):
            dets[img] = [det(img, int(rng.integers(2)), float(rng.uniform(0.1, 1)),
                             (float(rng.uniform(0, 10)), 0, float(rng.uniform(11, 20)), 5))
                         for _ in range(int(rng.integers(0, 4)))]
            gts[img] = [gt(img, int(rng.integers(2)),
                           (float(rng.uniform(0, 10)), 0, float(rng.uniform(11, 20)), 5))
                        for _ in range(int(rng.integers(0, 4)))]
        for hp, hr, hf in metrics.hierarchical_f1(dets, gts, h, class_names=["car", "truck"]).values():
            assert 0.0 <= hp <= 1.0 and 0.0 <= hr <= 1.0 and 0.0 <= hf <= 1.0
