import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairkit import evaluation as ev
from fairkit.errors import EvaluationDegenerateError, LabelDomainError, ShapeError


def _masked_counts(pred_pos, true_pos, mask):
    tp = int(np.sum(pred_pos & true_pos & mask))
    fp = int(np.sum(pred_pos & ~true_pos & mask))
    fn = int(np.sum(~pred_pos & true_pos & mask))
    return (tp, fp, int(np.sum(mask)) - tp - fp - fn, fn)


def reference_tally(predictions, y, g, num_classes, num_groups):
    """One-vs-rest counts from one masked pass per (class, group) cell."""
    counts, overall = {}, {}
    everyone = np.ones(len(y), dtype=bool)
    for c in range(num_classes):
        pred_pos, true_pos = predictions == c, y == c
        overall[c] = _masked_counts(pred_pos, true_pos, everyone)
        for gr in range(num_groups):
            counts[(c, gr)] = _masked_counts(pred_pos, true_pos, g == gr)
    return counts, overall


@st.composite
def labelled_rows(draw):
    num_classes = draw(st.integers(1, 5))
    num_groups = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    column = lambda hi: np.array(draw(st.lists(st.integers(0, hi - 1), min_size=n,
                                               max_size=n)), dtype=int)
    return (column(num_classes), column(num_classes), column(num_groups),
            num_classes, num_groups)


class TestConfusionByGroup:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 0, 1, 1])
        g = np.array([0, 0, 1, 1, 0])
        gc = ev.confusion_by_group(y, y, g, 2, 2)
        for counts in gc.counts.values():
            _, fp, _, fn = counts
            assert fp == 0 and fn == 0

    def test_all_predict_class0_hand_tally(self):
        # group 0: 3 instances, one positive (y=1); group 1: 2 instances, one positive
        y = np.array([0, 0, 1, 0, 1])
        g = np.array([0, 0, 0, 1, 1])
        preds = np.zeros(5, dtype=int)
        gc = ev.confusion_by_group(preds, y, g, 2, 2)
        # class 1 one-vs-rest: nothing predicted positive
        assert gc.counts[(1, 0)] == (0, 0, 2, 1)
        assert gc.counts[(1, 1)] == (0, 0, 1, 1)
        # class 0 one-vs-rest: everything predicted positive
        assert gc.counts[(0, 0)] == (2, 1, 0, 0)
        assert gc.counts[(0, 1)] == (1, 1, 0, 0)

    def test_singleton_correct_positive(self):
        gc = ev.confusion_by_group([1], [1], [0], 2, 1)
        assert gc.counts[(1, 0)] == (1, 0, 0, 0)
        assert gc.counts[(0, 0)] == (0, 0, 1, 0)

    def test_group_sum_consistency(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, 50)
        g = rng.integers(0, 2, 50)
        preds = rng.integers(0, 3, 50)
        gc = ev.confusion_by_group(preds, y, g, 3, 2)
        for c in range(3):
            summed = tuple(sum(gc.counts[(c, gr)][i] for gr in range(2)) for i in range(4))
            assert summed == gc.overall[c]
        for (c, gr), counts in gc.counts.items():
            assert sum(counts) == int(np.sum(g == gr))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ev.confusion_by_group([0, 1], [0], [0], 2, 1)

    @pytest.mark.parametrize("preds, y, g", [
        ([2, 0], [0, 1], [0, 1]),    # prediction >= C
        ([0, 1], [-1, 1], [0, 1]),   # class label < 0
        ([0, 1], [0, 2], [0, 1]),    # class label >= C
        ([0, 1], [0, 1], [0, 2]),    # group label >= G
        ([0, 1], [0, 1], [-1, 0]),   # group label < 0
    ])
    def test_label_outside_domain_raises(self, preds, y, g):
        with pytest.raises(LabelDomainError):
            ev.confusion_by_group(preds, y, g, 2, 2)

    @given(labelled_rows())
    def test_counts_match_reference_tally(self, rows):
        preds, y, g, num_classes, num_groups = rows
        gc = ev.confusion_by_group(preds, y, g, num_classes, num_groups)
        assert (gc.counts, gc.overall) == reference_tally(preds, y, g, num_classes, num_groups)
        try:
            report = ev.evaluate_predictions(preds, y, g, num_classes, num_groups)
        except EvaluationDegenerateError:
            return
        assert report.performance == float(np.mean(preds == y))
        assert report.rawlsian_min == min(float(np.mean(preds[g == gr] == y[g == gr]))
                                          for gr in range(num_groups) if np.any(g == gr))


class TestCmMetric:
    def test_tpr(self):
        assert ev.cm_metric((3, 0, 0, 1), "tpr") == pytest.approx(0.75)

    def test_tpr_undefined(self):
        assert ev.cm_metric((0, 5, 5, 0), "tpr") is None

    def test_direct_formulas(self):
        counts = (2, 2, 4, 2)
        assert ev.cm_metric(counts, "positive_rate") == pytest.approx(0.4)
        assert ev.cm_metric(counts, "fpr") == pytest.approx(1 / 3)
        assert ev.cm_metric(counts, "precision") == pytest.approx(0.5)
        assert ev.cm_metric(counts, "npv") == pytest.approx(2 / 3)

    def test_custom_callable(self):
        f1 = lambda tp, fp, tn, fn: 2 * tp / (2 * tp + fp + fn)
        assert ev.cm_metric((2, 1, 0, 1), f1) == pytest.approx(2 / 3)

    def test_complements_when_defined(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, tn, fn = rng.integers(0, 10, 4)
            tpr = ev.cm_metric((tp, fp, tn, fn), "tpr")
            fnr = ev.cm_metric((fn, tn, fp, tp), "tpr")  # FNR = FN/(FN+TP) via relabel
            if tpr is not None:
                assert 0.0 <= tpr <= 1.0
                assert tpr + fnr == pytest.approx(1.0)


class TestGapAndFairness:
    def test_perfect_parity(self):
        y = np.array([0, 1, 0, 1])
        g = np.array([0, 0, 1, 1])
        gc = ev.confusion_by_group(y, y, g, 2, 2)
        gap, fairness, _ = ev.gap_and_fairness(gc, "tpr")
        assert gap == pytest.approx(0.0)
        assert fairness == pytest.approx(1.0)

    def test_hand_computed_two_group_binary(self):
        # group 0: 5 positives, TPR 0.8; group 1: 5 positives, TPR 0.6 -> overall 0.7
        y = np.array([1] * 10 + [0] * 10)
        g = np.array([0] * 5 + [1] * 5 + [0] * 5 + [1] * 5)
        preds = np.array([1, 1, 1, 1, 0,  1, 1, 1, 0, 0] + [0] * 10)
        gc = ev.confusion_by_group(preds, y, g, 2, 2)
        assert ev.cm_metric(gc.counts[(1, 0)], "tpr") == pytest.approx(0.8)
        assert ev.cm_metric(gc.counts[(1, 1)], "tpr") == pytest.approx(0.6)
        gap, fairness, _ = ev.gap_and_fairness(gc, "tpr")
        # class 1 gap: |0.8-0.7| + |0.6-0.7| = 0.2
        # class 0 (negatives as positives): TPRs 1.0, 1.0, overall 1.0 -> gap 0
        assert gap == pytest.approx(math.sqrt((0.2 ** 2 + 0.0) / 2))
        assert fairness == pytest.approx(1.0 - gap)

    def test_undefined_cell_excluded(self):
        # class 1 has no instances in group 1 -> that cell undefined
        y = np.array([1, 1, 0, 0])
        g = np.array([0, 0, 1, 1])
        preds = np.array([1, 0, 0, 0])
        gc = ev.confusion_by_group(preds, y, g, 2, 2)
        gap, fairness, per_group = ev.gap_and_fairness(gc, "tpr")
        assert (1, 1) not in per_group
        assert np.isfinite(gap)

    def test_group_relabel_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 60)
        g = rng.integers(0, 3, 60)
        preds = rng.integers(0, 2, 60)
        gc = ev.confusion_by_group(preds, y, g, 2, 3)
        gap1, _, _ = ev.gap_and_fairness(gc, "tpr")
        perm = np.array([2, 0, 1])
        gc2 = ev.confusion_by_group(preds, y, perm[g], 2, 3)
        gap2, _, _ = ev.gap_and_fairness(gc2, "tpr")
        assert gap1 == pytest.approx(gap2, abs=1e-12)

    def test_fairness_one_iff_parity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.integers(0, 2, 30)
            g = rng.integers(0, 2, 30)
            preds = rng.integers(0, 2, 30)
            gc = ev.confusion_by_group(preds, y, g, 2, 2)
            try:
                gap, fairness, per_group = ev.gap_and_fairness(gc, "tpr")
            except EvaluationDegenerateError:
                continue
            parity = all(
                ev.cm_metric(gc.counts[(c, gr)], "tpr") == ev.cm_metric(gc.overall[c], "tpr")
                for (c, gr) in per_group)
            assert (fairness == pytest.approx(1.0, abs=1e-12)) == parity


class TestRawlsianAndViolation:
    def test_rawlsian_min(self):
        assert ev.rawlsian_min({0: 0.9, 1: 0.7}) == pytest.approx(0.7)
        assert ev.rawlsian_min({0: 0.5}) == pytest.approx(0.5)
        assert ev.rawlsian_min({0: 0.6, 1: 0.6}) == pytest.approx(0.6)
        with pytest.raises(EvaluationDegenerateError):
            ev.rawlsian_min({})

    def test_max_violation_parity(self):
        y = np.array([0, 1, 0, 1])
        g = np.array([0, 0, 1, 1])
        gc = ev.confusion_by_group(y, y, g, 2, 2)
        assert ev.max_violation(gc, "tpr") == pytest.approx(0.0)

    def test_max_violation_dominates_all_gaps(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 80)
        g = rng.integers(0, 3, 80)
        preds = rng.integers(0, 2, 80)
        gc = ev.confusion_by_group(preds, y, g, 2, 3)
        mv = ev.max_violation(gc, "tpr")
        for c in range(2):
            m_overall = ev.cm_metric(gc.overall[c], "tpr")
            for gr in range(3):
                m = ev.cm_metric(gc.counts[(c, gr)], "tpr")
                if m is not None and m_overall is not None:
                    assert abs(m - m_overall) <= mv + 1e-12


# (performance mean %, fairness mean %, reported DTO) for each method on both
# benchmark tasks; the means are the arithmetic ground truth for dto().
REPORTED = [
    (72.2981, 61.1870, 47.6849),
    (75.3927, 87.7469, 27.4892),
    (75.6414, 89.3286, 26.5936),
    (75.5464, 90.4023, 26.27),
    (75.0163, 90.8679, 26.6004),
    (75.0638, 90.5537, 26.6655),
    (75.7314, 87.8219, 27.1527),
    (75.2763, 89.2255, 26.9694),
    (73.3433, 85.5982, 30.2983),
    (82.2512, 85.1071, 23.1694),
    (83.8326, 90.5370, 18.73),
    (81.6637, 90.7356, 20.5438),
    (81.8480, 90.6376, 20.4242),
    (81.9136, 88.9603, 21.1894),
    (82.2382, 89.4995, 20.6335),
    (82.0594, 84.2735, 23.8577),
    (81.7773, 88.8683, 21.3537),
    (82.3032, 88.6249, 21.0373),
]


class TestDto:
    @pytest.mark.parametrize("perf,fair,expected", REPORTED)
    def test_reported_values(self, perf, fair, expected):
        assert ev.dto((perf, fair), utopia=(100.0, 100.0)) == pytest.approx(expected, abs=0.01)

    def test_utopia_point_is_zero(self):
        assert ev.dto((1.0, 1.0)) == 0.0


class TestEvaluatePredictions:
    def test_report_fields_and_json(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 40)
        g = rng.integers(0, 2, 40)
        preds = rng.integers(0, 2, 40)
        report = ev.evaluate_predictions(preds, y, g, 2, 2)
        assert 0.0 <= report.performance <= 1.0
        assert report.fairness == pytest.approx(1.0 - report.gap)
        d = report.to_json_dict()
        assert set(d) >= {"accuracy", "TPR_GAP", "fairness", "rawlsian_min", "max_violation"}
