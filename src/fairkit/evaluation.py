"""Group fairness evaluation from confusion matrices.

All metrics are one-vs-rest per class, computed per protected group and
overall. The fairness score is 1 - GAP, where GAP aggregates per-group
deviations from the per-class overall metric: sum of absolute deviations
within a class, root-mean-square across classes. 0/0 metric cells are
"undefined" and excluded rather than imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDegenerateError, LabelDomainError, ShapeError

# Each named metric as (numerator, denominator) of (TP, FP, TN, FN)
_RATIOS = {
    "positive_rate": (lambda tp, fp, tn, fn: tp + fp, lambda tp, fp, tn, fn: tp + fp + tn + fn),
    "tpr": (lambda tp, fp, tn, fn: tp, lambda tp, fp, tn, fn: tp + fn),
    "fpr": (lambda tp, fp, tn, fn: fp, lambda tp, fp, tn, fn: fp + tn),
    "precision": (lambda tp, fp, tn, fn: tp, lambda tp, fp, tn, fn: tp + fp),
    "npv": (lambda tp, fp, tn, fn: tn, lambda tp, fp, tn, fn: tn + fn),
}
METRICS = tuple(_RATIOS)
UTOPIA = (1.0, 1.0)  # the (performance, fairness) corner DTO is measured from

Counts = tuple[int, int, int, int]  # TP, FP, TN, FN


@dataclass
class GroupedConfusion:
    """One-vs-rest counts per (class, group) and per class overall."""

    counts: dict[tuple[int, int], Counts]
    overall: dict[int, Counts]
    num_classes: int
    num_groups: int


def confusion_by_group(predictions, y, g, num_classes: int, num_groups: int) -> GroupedConfusion:
    predictions = np.asarray(predictions, dtype=int)
    y = np.asarray(y, dtype=int)
    g = np.asarray(g, dtype=int)
    if not (predictions.shape == y.shape == g.shape):
        raise ShapeError("predictions, y, g must have equal length")
    # an out-of-range label would be counted in another cell of the cube
    for name, labels, bound in (("prediction", predictions, num_classes),
                                ("class label", y, num_classes),
                                ("group label", g, num_groups)):
        if labels.size and (labels.min() < 0 or labels.max() >= bound):
            raise LabelDomainError(f"{name} outside [0, {bound})")
    C, G = num_classes, num_groups
    cube = np.bincount((predictions * C + y) * G + g,
                       minlength=C * C * G).reshape(C, C, G)  # [predicted, true, group]
    tp = np.diagonal(cube).T  # [class, group]
    fp = cube.sum(axis=1) - tp
    fn = cube.sum(axis=0) - tp
    tn = cube.sum(axis=(0, 1)) - tp - fp - fn
    cells = np.stack([tp, fp, tn, fn], axis=-1)  # [class, group, (TP, FP, TN, FN)]
    by_cell, by_class = cells.tolist(), cells.sum(axis=1).tolist()
    return GroupedConfusion(
        counts={(c, gr): tuple(by_cell[c][gr]) for c in range(C) for gr in range(G)},
        overall={c: tuple(by_class[c]) for c in range(C)},
        num_classes=C, num_groups=G)


def cm_metric(counts: Counts, kind) -> float | None:
    """Confusion-matrix metric; returns None (undefined) on 0/0.

    kind is a registry name or a callable of (TP, FP, TN, FN)."""
    if callable(kind):
        return kind(*counts)
    if kind not in _RATIOS:
        raise ValueError(f"unknown metric kind {kind!r}; known: {METRICS}")
    num, den = (f(*counts) for f in _RATIOS[kind])
    if den == 0:
        return None
    return num / den


def gap_and_fairness(gc: GroupedConfusion, kind="tpr"
                     ) -> tuple[float, float, dict[tuple[int, int], float]]:
    """(GAP, fairness = 1 - GAP, per-(class, group) metric over defined cells)."""
    per_group: dict[tuple[int, int], float] = {}
    class_gaps = []
    for c in range(gc.num_classes):
        m_overall = cm_metric(gc.overall[c], kind)
        deviations = []
        for gr in range(gc.num_groups):
            m = cm_metric(gc.counts[(c, gr)], kind)
            if m is None or m_overall is None:
                continue
            per_group[(c, gr)] = m
            deviations.append(abs(m - m_overall))
        if deviations:
            class_gaps.append(sum(deviations))
    if not class_gaps:
        raise EvaluationDegenerateError("no defined (class, group) metric cell")
    gap = math.sqrt(sum(v * v for v in class_gaps) / len(class_gaps))
    return gap, 1.0 - gap, per_group


def rawlsian_min(per_group_performance: dict) -> float:
    if not per_group_performance:
        raise EvaluationDegenerateError("no groups to take the minimum over")
    return min(per_group_performance.values())


def _max_violation(gc: GroupedConfusion, per_group: dict[tuple[int, int], float], kind) -> float:
    """Largest |per-(class, group) metric - per-class overall metric| over
    the defined cells that gap_and_fairness returned."""
    overall = {c: cm_metric(gc.overall[c], kind) for c in range(gc.num_classes)}
    return max(abs(m - overall[c]) for (c, _), m in per_group.items())


def max_violation(gc: GroupedConfusion, kind="tpr") -> float:
    """Largest single |per-(class, group) metric - per-class overall metric|."""
    return _max_violation(gc, gap_and_fairness(gc, kind)[2], kind)


def dto(point, utopia: tuple[float, float] = UTOPIA) -> float:
    """Euclidean distance of (performance, fairness) to the utopia corner; lower is better."""
    perf, fair = point
    return math.hypot(utopia[0] - perf, utopia[1] - fair)


@dataclass
class FairnessReport:
    performance: float
    per_group_metric: dict[tuple[int, int], float]
    gap: float
    fairness: float
    rawlsian_min: float
    max_violation: float
    metric_kind: str = "tpr"

    def to_json_dict(self) -> dict:
        d = {
            "accuracy": self.performance,
            "TPR_GAP": self.gap,
            "fairness": self.fairness,
            "rawlsian_min": self.rawlsian_min,
            "max_violation": self.max_violation,
        }
        for (c, gr), v in sorted(self.per_group_metric.items()):
            d[f"{self.metric_kind}_class{c}_group{gr}"] = v
        return d


def evaluate_predictions(predictions, y, g, num_classes: int, num_groups: int,
                         kind: str = "tpr") -> FairnessReport:
    """Accuracy + group fairness in one report (the standard per-epoch eval)."""
    gc = confusion_by_group(predictions, y, g, num_classes, num_groups)
    gap, fairness, per_group = gap_and_fairness(gc, kind)
    # correct rows are the TPs summed over classes; one division = np.mean's float
    correct = [sum(gc.counts[(c, gr)][0] for c in range(num_classes))
               for gr in range(num_groups)]
    rows = [sum(gc.counts[(0, gr)]) for gr in range(num_groups)]
    groups_acc = {gr: correct[gr] / rows[gr] for gr in range(num_groups) if rows[gr]}
    return FairnessReport(
        performance=sum(correct) / sum(rows),
        per_group_metric=per_group,
        gap=gap,
        fairness=fairness,
        rawlsian_min=rawlsian_min(groups_acc),
        max_violation=_max_violation(gc, per_group, kind),
        metric_kind=kind if isinstance(kind, str) else "custom",
    )
