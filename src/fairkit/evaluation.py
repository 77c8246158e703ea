"""Group fairness evaluation from confusion matrices.

The metric is the TPR (equal opportunity), one-vs-rest per class, computed
per protected group and overall, as [num_classes, num_groups] tables: the
[C, G, 4] (TP, FP, TN, FN) counts of confusion_by_group, and the TPR cells
TP / (TP + FN), NaN where 0/0 ("undefined", excluded rather than imputed).
The fairness score is 1 - GAP: the sum over groups of each cell's absolute
deviation from its class's overall TPR, root-mean-square over classes.
Another criterion is built from the counts table and gap_and_fairness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EvaluationDegenerateError, LabelDomainError, ShapeError

UTOPIA = (1.0, 1.0)  # the (performance, fairness) corner DTO is measured from


def confusion_cube(predictions, y, g, num_classes: int, num_groups: int) -> np.ndarray:
    """Row counts per (predicted class, true class, group): a [C, C, G] array."""
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
    return np.bincount((predictions * C + y) * G + g,
                       minlength=C * C * G).reshape(C, C, G)


def cube_counts(cube: np.ndarray) -> np.ndarray:
    """One-vs-rest counts of confusion cubes [..., C, C, G]: a [..., C, G, 4]
    (TP, FP, TN, FN) array per (class, group)."""
    tp = np.diagonal(cube, axis1=-3, axis2=-2).swapaxes(-1, -2)  # [..., class, group]
    fp = cube.sum(axis=-2) - tp
    fn = cube.sum(axis=-3) - tp
    tn = cube.sum(axis=(-3, -2))[..., None, :] - tp - fp - fn
    return np.stack([tp, fp, tn, fn], axis=-1)


def confusion_by_group(predictions, y, g, num_classes: int, num_groups: int) -> np.ndarray:
    """One-vs-rest counts per (class, group): a [C, G, 4] (TP, FP, TN, FN) array."""
    return cube_counts(confusion_cube(predictions, y, g, num_classes, num_groups))


def _tpr(counts: np.ndarray) -> np.ndarray:
    """TP / (TP + FN) of counts [..., 4] (TP, FP, TN, FN); NaN (undefined) on 0/0."""
    tp = counts[..., 0]
    den = tp + counts[..., 3]
    return np.divide(tp, den, out=np.full(den.shape, np.nan), where=den != 0)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as Python's sum() would;
    ndarray.sum adds 8 or more terms pairwise, which rounds differently."""
    return np.cumsum(a, axis=-1)[..., -1]


def gap_and_fairness(deviations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(GAP, fairness = 1 - GAP) of each [..., C, G] |cell metric - class
    metric| table, NaN where undefined: the sum over the groups, then the RMS
    over the classes that have a defined cell."""
    defined = ~np.isnan(deviations)
    has_cell = defined.any(axis=-1)
    if not has_cell.any(axis=-1).all():
        raise EvaluationDegenerateError("no defined (class, group) metric cell")
    # adding a class without cells as 0 leaves the running sums unchanged
    class_gaps = _row_sums(np.where(defined, deviations, 0.0))
    gap = np.sqrt(_row_sums(np.where(has_cell, class_gaps * class_gaps, 0.0))
                  / has_cell.sum(axis=-1))
    return gap, 1.0 - gap


def rawlsian_min(per_group_performance: np.ndarray) -> np.ndarray:
    """The worst group's performance over the last axis; NaN marks a group without rows."""
    worst = np.fmin.reduce(per_group_performance, axis=-1, initial=np.nan)
    if np.isnan(worst).any():
        raise EvaluationDegenerateError("no groups to take the minimum over")
    return worst


def dto(point, utopia: tuple[float, float] = UTOPIA) -> float:
    """Euclidean distance of (performance, fairness) to the utopia corner; lower is better."""
    perf, fair = point
    return math.hypot(utopia[0] - perf, utopia[1] - fair)


# The FairnessReport fields that hold one number per counts table
_SCORES = ("performance", "gap", "fairness", "rawlsian_min", "max_violation")


@dataclass
class FairnessReport:
    performance: float
    per_group_metric: np.ndarray  # [C, G], NaN where undefined
    gap: float
    fairness: float
    rawlsian_min: float
    max_violation: float

    def to_json_dict(self) -> dict:
        d = {
            "accuracy": self.performance,
            "TPR_GAP": self.gap,
            "fairness": self.fairness,
            "rawlsian_min": self.rawlsian_min,
            "max_violation": self.max_violation,
        }
        for (c, gr), v in np.ndenumerate(self.per_group_metric):
            if not np.isnan(v):
                d[f"tpr_class{c}_group{gr}"] = float(v)
        return d


def evaluate_counts(counts: np.ndarray) -> FairnessReport:
    """The report of one-vs-rest counts [..., C, G, 4]; each score is an
    array over the leading axes (a numpy float for one [C, G, 4] table)."""
    cells = _tpr(counts)
    deviations = np.abs(cells - _tpr(counts.sum(axis=-2))[..., None])
    gap, fairness = gap_and_fairness(deviations)
    # correct rows are the TPs summed over classes; one division = np.mean's float
    correct = counts[..., 0].sum(axis=-2)
    rows = counts[..., 0, :, :].sum(axis=-1)
    return FairnessReport(
        performance=correct.sum(axis=-1) / rows.sum(axis=-1),
        per_group_metric=np.where(np.isnan(deviations), np.nan, cells),
        gap=gap,
        fairness=fairness,
        rawlsian_min=rawlsian_min(
            np.divide(correct, rows, out=np.full(rows.shape, np.nan), where=rows > 0)),
        max_violation=np.fmax.reduce(deviations.reshape(*deviations.shape[:-2], -1), axis=-1),
    )


def evaluate_predictions(predictions, y, g, num_classes: int, num_groups: int) -> FairnessReport:
    """Accuracy + group fairness in one report (the standard per-epoch eval)."""
    report = evaluate_counts(confusion_by_group(predictions, y, g, num_classes, num_groups))
    return replace(report, **{name: float(getattr(report, name)) for name in _SCORES})
