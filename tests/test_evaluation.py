import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkit import evaluation as ev
from fairkit.errors import EvaluationDegenerateError, LabelDomainError, ShapeError
from test_data import _readme_block


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


def as_dicts(counts):
    """A [C, G, 4] counts table as reference_tally's (per-cell, per-class) dicts."""
    C, G, _ = counts.shape
    overall = counts.sum(axis=1)
    return ({(c, gr): tuple(counts[c, gr].tolist()) for c in range(C) for gr in range(G)},
            {c: tuple(overall[c].tolist()) for c in range(C)})


# The reference evaluation the [C, G] arrays must equal exactly: cell by
# cell over dicts, with every sum added left to right by Python. The report
# scores TPR; FPR is README's custom criterion.
REFERENCE_RATIOS = {
    "tpr": (lambda tp, fp, tn, fn: tp, lambda tp, fp, tn, fn: tp + fn),
    "fpr": (lambda tp, fp, tn, fn: fp, lambda tp, fp, tn, fn: fp + tn),
}


def reference_metric(counts, kind="tpr"):
    num, den = (f(*counts) for f in REFERENCE_RATIOS[kind])
    return None if den == 0 else num / den


def tpr_cells(counts):
    """reference_metric of each cell of counts [..., 4], NaN where undefined."""
    counts = np.asarray(counts)
    return np.array([reference_metric(cell) for cell in counts.reshape(-1, 4).tolist()],
                    dtype=float).reshape(counts.shape[:-1])


def gap_and_cells(counts):
    """gap_and_fairness of counts' TPR deviation table, and the TPR cells it
    leaves defined."""
    cells = tpr_cells(counts)
    deviations = np.abs(cells - tpr_cells(counts.sum(axis=1))[:, None])
    return (*ev.gap_and_fairness(deviations), np.where(np.isnan(deviations), np.nan, cells))


def reference_report(predictions, y, g, num_classes, num_groups, kind="tpr"):
    """to_json_dict() of the report, from per-cell dicts and Python sums."""
    counts, overall = reference_tally(predictions, y, g, num_classes, num_groups)
    per_group, class_gaps = {}, []
    for c in range(num_classes):
        m_overall = reference_metric(overall[c], kind)
        deviations = []
        for gr in range(num_groups):
            m = reference_metric(counts[(c, gr)], kind)
            if m is None or m_overall is None:
                continue
            per_group[(c, gr)] = m
            deviations.append(abs(m - m_overall))
        if deviations:
            class_gaps.append(sum(deviations))
    if not class_gaps:
        raise EvaluationDegenerateError("no defined (class, group) metric cell")
    gap = math.sqrt(sum(v * v for v in class_gaps) / len(class_gaps))
    overall_m = {c: reference_metric(overall[c], kind) for c in range(num_classes)}
    correct = [sum(counts[(c, gr)][0] for c in range(num_classes)) for gr in range(num_groups)]
    rows = [sum(counts[(0, gr)]) for gr in range(num_groups)]
    report = {
        "accuracy": sum(correct) / sum(rows),
        "TPR_GAP": gap,
        "fairness": 1.0 - gap,
        "rawlsian_min": min(correct[gr] / rows[gr] for gr in range(num_groups) if rows[gr]),
        "max_violation": max(abs(m - overall_m[c]) for (c, _), m in per_group.items()),
    }
    for (c, gr), v in sorted(per_group.items()):
        report[f"{kind}_class{c}_group{gr}"] = v
    return report


@st.composite
def report_cases(draw):
    """2-8 classes, 1-6 groups and up to 150 rows, drawn uniformly from a
    seed: the orders of sums only show with many classes and defined cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_classes, num_groups = int(rng.integers(2, 9)), int(rng.integers(1, 7))
    n = int(rng.integers(0, 151))
    # predictions right about half the time, so metric cells take many values
    y = rng.integers(0, num_classes, n)
    predictions = np.where(rng.random(n) < 0.5, y, rng.integers(0, num_classes, n))
    return predictions, y, rng.integers(0, num_groups, n), num_classes, num_groups


@given(report_cases())
@settings(max_examples=500)
def test_report_equals_dict_reference(case):
    """Every number of the report, GAP, max violation and Rawlsian minimum
    included, equals the cell-by-cell reference exactly."""
    try:
        expected = reference_report(*case)
    except EvaluationDegenerateError:
        with pytest.raises(EvaluationDegenerateError):
            ev.evaluate_predictions(*case)
        return
    assert ev.evaluate_predictions(*case).to_json_dict() == expected


@given(report_cases(), st.integers(1, 4))
@settings(max_examples=200)
def test_counts_over_a_leading_axis_equal_each_report(case, k):
    """evaluate_counts on k stacked cubes (Gate-soft's priors) gives, at each
    index, the scores of evaluate_predictions on that cube's predictions."""
    predictions, y, g, num_classes, num_groups = case
    rng = np.random.default_rng(len(y) + k)
    batch = [np.where(rng.random(len(y)) < 0.5, predictions, rng.integers(0, num_classes, len(y)))
             for _ in range(k)]
    try:
        reports = [ev.evaluate_predictions(p, y, g, num_classes, num_groups) for p in batch]
    except EvaluationDegenerateError:
        return
    cubes = np.array([ev.confusion_cube(p, y, g, num_classes, num_groups) for p in batch])
    stacked = ev.evaluate_counts(ev.cube_counts(cubes))
    for i, report in enumerate(reports):
        for name in ("performance", "gap", "fairness", "rawlsian_min", "max_violation"):
            assert getattr(stacked, name)[i] == getattr(report, name), name
        np.testing.assert_array_equal(stacked.per_group_metric[i], report.per_group_metric)


class TestConfusionByGroup:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 0, 1, 1])
        g = np.array([0, 0, 1, 1, 0])
        gc = ev.confusion_by_group(y, y, g, 2, 2)
        for counts in gc.reshape(-1, 4):
            _, fp, _, fn = counts
            assert fp == 0 and fn == 0

    def test_all_predict_class0_hand_tally(self):
        # group 0: 3 instances, one positive (y=1); group 1: 2 instances, one positive
        y = np.array([0, 0, 1, 0, 1])
        g = np.array([0, 0, 0, 1, 1])
        preds = np.zeros(5, dtype=int)
        gc = ev.confusion_by_group(preds, y, g, 2, 2)
        # class 1 one-vs-rest: nothing predicted positive
        assert tuple(gc[1, 0]) == (0, 0, 2, 1)
        assert tuple(gc[1, 1]) == (0, 0, 1, 1)
        # class 0 one-vs-rest: everything predicted positive
        assert tuple(gc[0, 0]) == (2, 1, 0, 0)
        assert tuple(gc[0, 1]) == (1, 1, 0, 0)

    def test_singleton_correct_positive(self):
        gc = ev.confusion_by_group([1], [1], [0], 2, 1)
        assert tuple(gc[1, 0]) == (1, 0, 0, 0)
        assert tuple(gc[0, 0]) == (0, 0, 1, 0)

    def test_group_sum_consistency(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, 50)
        g = rng.integers(0, 2, 50)
        preds = rng.integers(0, 3, 50)
        counts_by_cell, overall = as_dicts(ev.confusion_by_group(preds, y, g, 3, 2))
        for c in range(3):
            summed = tuple(sum(counts_by_cell[(c, gr)][i] for gr in range(2)) for i in range(4))
            assert summed == overall[c]
        for (c, gr), counts in counts_by_cell.items():
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
        assert as_dicts(gc) == reference_tally(preds, y, g, num_classes, num_groups)
        try:
            report = ev.evaluate_predictions(preds, y, g, num_classes, num_groups)
        except EvaluationDegenerateError:
            return
        assert report.performance == float(np.mean(preds == y))
        assert report.rawlsian_min == min(float(np.mean(preds[g == gr] == y[g == gr]))
                                          for gr in range(num_groups) if np.any(g == gr))


class TestCmMetric:
    """The report's confusion-matrix metric, the TPR of counts [..., 4]."""

    def test_tpr(self):
        assert ev._tpr(np.array([3, 0, 0, 1])) == pytest.approx(0.75)

    def test_tpr_undefined(self):
        assert np.isnan(ev._tpr(np.array([0, 5, 5, 0])))

    def test_complements_when_defined(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, tn, fn = rng.integers(0, 10, 4)
            tpr = ev._tpr(np.array([tp, fp, tn, fn]))
            fnr = ev._tpr(np.array([fn, tn, fp, tp]))  # FNR = FN/(FN+TP) via relabel
            if not np.isnan(tpr):
                assert 0.0 <= tpr <= 1.0
                assert tpr + fnr == pytest.approx(1.0)


class TestGapAndFairness:
    def test_perfect_parity(self):
        y = np.array([0, 1, 0, 1])
        g = np.array([0, 0, 1, 1])
        gc = ev.confusion_by_group(y, y, g, 2, 2)
        gap, fairness, _ = gap_and_cells(gc)
        assert gap == pytest.approx(0.0)
        assert fairness == pytest.approx(1.0)

    def test_hand_computed_two_group_binary(self):
        # group 0: 5 positives, TPR 0.8; group 1: 5 positives, TPR 0.6 -> overall 0.7
        y = np.array([1] * 10 + [0] * 10)
        g = np.array([0] * 5 + [1] * 5 + [0] * 5 + [1] * 5)
        preds = np.array([1, 1, 1, 1, 0,  1, 1, 1, 0, 0] + [0] * 10)
        gc = ev.confusion_by_group(preds, y, g, 2, 2)
        assert reference_metric(gc[1, 0]) == pytest.approx(0.8)
        assert reference_metric(gc[1, 1]) == pytest.approx(0.6)
        gap, fairness, _ = gap_and_cells(gc)
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
        gap, fairness, per_group = gap_and_cells(gc)
        assert np.isnan(per_group[1, 1])
        assert np.isfinite(gap)

    def test_group_relabel_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 60)
        g = rng.integers(0, 3, 60)
        preds = rng.integers(0, 2, 60)
        gc = ev.confusion_by_group(preds, y, g, 2, 3)
        gap1, _, _ = gap_and_cells(gc)
        perm = np.array([2, 0, 1])
        gc2 = ev.confusion_by_group(preds, y, perm[g], 2, 3)
        gap2, _, _ = gap_and_cells(gc2)
        assert gap1 == pytest.approx(gap2, abs=1e-12)

    def test_fairness_one_iff_parity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.integers(0, 2, 30)
            g = rng.integers(0, 2, 30)
            preds = rng.integers(0, 2, 30)
            gc = ev.confusion_by_group(preds, y, g, 2, 2)
            try:
                gap, fairness, per_group = gap_and_cells(gc)
            except EvaluationDegenerateError:
                continue
            parity = all(
                reference_metric(gc[c, gr]) == reference_metric(gc.sum(axis=1)[c])
                for c, gr in zip(*np.nonzero(~np.isnan(per_group))))
            assert (fairness == pytest.approx(1.0, abs=1e-12)) == parity


class TestRawlsianAndViolation:
    def test_rawlsian_min(self):
        assert ev.rawlsian_min(np.array([0.9, 0.7])) == pytest.approx(0.7)
        assert ev.rawlsian_min(np.array([0.5])) == pytest.approx(0.5)
        assert ev.rawlsian_min(np.array([0.6, 0.6])) == pytest.approx(0.6)
        with pytest.raises(EvaluationDegenerateError):
            ev.rawlsian_min(np.array([]))

    def test_max_violation_parity(self):
        y = np.array([0, 1, 0, 1])
        g = np.array([0, 0, 1, 1])
        assert ev.evaluate_predictions(y, y, g, 2, 2).max_violation == pytest.approx(0.0)

    def test_max_violation_dominates_all_gaps(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 80)
        g = rng.integers(0, 3, 80)
        preds = rng.integers(0, 2, 80)
        gc = ev.confusion_by_group(preds, y, g, 2, 3)
        mv = ev.evaluate_predictions(preds, y, g, 2, 3).max_violation
        for c in range(2):
            m_overall = reference_metric(gc.sum(axis=1)[c])
            for gr in range(3):
                m = reference_metric(gc[c, gr])
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


@given(report_cases())
@settings(max_examples=200)
def test_readme_custom_criterion_equals_dict_reference(case):
    """README's FPR GAP, built from the counts table and gap_and_fairness,
    equals the cell-by-cell FPR reference exactly."""
    readme = {}
    exec(_readme_block("custom-criterion"), readme)
    try:
        expected = reference_report(*case, kind="fpr")
    except EvaluationDegenerateError:
        with pytest.raises(EvaluationDegenerateError):
            readme["fpr_gap"](*case)
        return
    gap, fairness, cells = readme["fpr_gap"](*case)
    assert (gap, fairness) == (expected["TPR_GAP"], expected["fairness"])  # the FPR GAP here
    assert {f"fpr_class{c}_group{gr}": float(v) for (c, gr), v in np.ndenumerate(cells)
            if not np.isnan(v)} == {k: v for k, v in expected.items() if k.startswith("fpr_")}
