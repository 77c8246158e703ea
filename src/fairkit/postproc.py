"""Post-processing debiasing on a trained model.

INLP: iteratively fit linear probes for the protected attribute on frozen
hidden representations, project their row space out, and refit the final
classifier on the projected representations; the refit classifier is a
network whose output layer is the refit head folded with the projection.
Gate-soft: grid-search a prior over group-specific heads at inference time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .errors import DegenerateProbeError, MethodInapplicableError, ShapeError
from .evaluation import confusion_cube, cube_counts, dto, evaluate_counts
from .training import head_blocks

# Every linear probe and refit head minimizes the mean cross-entropy plus
# PROBE_L2/2 times the squared norm of [W b]. PROBE_L2 = 0.02 is the ridge
# that 500 early-stopped descent steps at rate 0.1 imply (1 / (rate * steps));
# a weaker ridge lets the converged refit head overfit and raises test DTO.
PROBE_L2, PROBE_TOL, PROBE_MAX_STEPS = 0.02, 1e-6, 1000

# ---------------------------------------------------------------------------
# Linear probes (L2-regularized multinomial logistic regression)

class Rows:
    """The rows a probe or refit is fit on: hidden states H [n, h], row i
    standing for m[i] rows of the fit (1 each if m is None, 0 for a row
    left out), so the fit is the one on the rows repeated. gram is
    [H 1]^T diag(m) [H 1], formed once here for every fit on these rows."""

    def __init__(self, H: np.ndarray, m: np.ndarray | None = None):
        self.H = np.asarray(H, dtype=float)
        n, h = self.H.shape
        self.m = np.ones(n, dtype=np.int64) if m is None else np.asarray(m, dtype=np.int64)
        weighted = self.H if m is None else self.H * self.m[:, None]
        self.gram = np.empty((h + 1, h + 1))
        np.matmul(self.H.T, weighted, out=self.gram[:h, :h])
        self.gram[h, :h] = self.gram[:h, h] = weighted.sum(axis=0)
        self.gram[h, h] = self.n = int(self.m.sum())


def _rows(H: np.ndarray | Rows) -> Rows:
    return H if isinstance(H, Rows) else Rows(H)


def fit_softmax_head(H: np.ndarray | Rows, labels: np.ndarray, num_classes: int,
                     P: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Zero-initialized ridge multinomial logistic regression on the rows H
    (each weighted by its multiplicity when H is a Rows), projected by P
    when it is given: the features are then H @ P.T, though that product is
    never formed. Returns (W, b, steps, grad_norm): steps counts the
    gradients taken, one softmax each, and grad_norm is the last one's norm,
    below PROBE_TOL exactly when the fit converged.

    Boehning's bound (Ann. Inst. Stat. Math. 44:197, 1992): the Hessian of
    the cross-entropy is bounded by 0.5 * X'X/n for every W, so the step
    preconditioned by M = inv(0.5 * X'X/n + PROBE_L2 * I) is a safe descent
    step. M is inverted once; no K*(h+1) Hessian is formed. With X = [H 1]
    Q^T, Q = diag(P, 1), X'X is Q gram Q^T, the logits are H (W P)^T + b
    and the gradient's data term is ((S - Y)^T diag(m) [H 1]) Q^T. Each step
    is taken from a Nesterov-extrapolated point Z, with the momentum reset
    whenever the step's gradient points along the last move (gradient
    restart, O'Donoghue & Candes, arXiv 1204.3982). So the objective can
    rise for a step, but far fewer steps are needed. Stops when the gradient
    norm at Z falls below PROBE_TOL, returning Z, or after PROBE_MAX_STEPS
    steps, returning the last step's result. One softmax per step.

    Zero init and zero-sum gradient rows keep the class rows of W summing to
    zero, so for binary labels the row space has rank 1 (sound for nullspace
    removal)."""
    rows = _rows(H)
    H, n = rows.H, rows.n
    h = H.shape[1]
    labels = np.asarray(labels, dtype=int)
    gram = rows.gram
    if P is not None:
        Q = np.eye(h + 1)
        Q[:h, :h] = P
        gram = Q @ gram @ Q.T
    M = np.linalg.inv(0.5 * gram / n + PROBE_L2 * np.eye(h + 1))
    onehot = np.zeros((H.shape[0], num_classes))
    live = np.flatnonzero(rows.m)  # a row the fit leaves out may hold any label
    onehot[live, labels[live]] = 1.0
    m = rows.m[:, None]
    Wb = Z = np.zeros((num_classes, h + 1))  # the last step's result; the gradient point
    G = np.empty_like(Z)  # the gradient at Z
    theta = 1.0
    for steps in range(1, PROBE_MAX_STEPS + 1):
        R = (nn.softmax(H @ (Z[:, :h] if P is None else Z[:, :h] @ P).T + Z[:, h])
             - onehot) * m
        np.matmul(R.T, H, out=G[:, :h])
        if P is not None:
            G[:, :h] = G[:, :h] @ P.T
        R.sum(axis=0, out=G[:, h])
        G /= n
        G += PROBE_L2 * Z
        grad_norm = float(np.linalg.norm(G))
        if grad_norm < PROBE_TOL:
            Wb = Z
            break
        new = Z - G @ M
        move = new - Wb
        if np.vdot(G, move) > 0:
            theta = 1.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        Z = new + (theta - 1.0) / theta_next * move
        Wb, theta = new, theta_next
    return Wb[:, :h], Wb[:, h], steps, grad_norm


def probe_classes(g: np.ndarray) -> int:
    """The number of classes a probe of group labels g predicts, the largest
    label + 1; raises DegenerateProbeError unless two groups are present and
    there are at least as many labels as classes."""
    g = np.asarray(g, dtype=int)
    if np.unique(g).size < 2:
        raise DegenerateProbeError("probe needs at least two groups present")
    num_groups = int(g.max()) + 1
    if g.size < num_groups:
        raise DegenerateProbeError("fewer instances than groups")
    return num_groups


def fit_linear_probe(H: np.ndarray | Rows, g: np.ndarray, fits: list | None = None,
                     P: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Protected-attribute probe on the rows H, projected by P if it is
    given (see fit_softmax_head); returns (W [num_groups x h], train
    accuracy over the rows, each counted its multiplicity times). The
    solver's (steps, grad_norm) is appended to fits if it is given."""
    rows = _rows(H)
    g = np.asarray(g, dtype=int)
    W, b, steps, grad_norm = fit_softmax_head(rows, g, probe_classes(np.repeat(g, rows.m)), P)
    if fits is not None:
        fits.append((steps, grad_norm))
    preds = (rows.H @ (W if P is None else W @ P).T + b).argmax(axis=1)
    return W, float(rows.m @ (preds == g) / rows.n)


def majority_baseline(labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=int)
    return float(np.bincount(labels).max() / labels.size)


# ---------------------------------------------------------------------------
# Nullspace projection

def _orthonormal_rows(W: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Modified Gram-Schmidt with re-orthogonalization; dependent rows dropped."""
    basis: list[np.ndarray] = []
    for row in np.asarray(W, dtype=float):
        v = row.copy()
        for _ in range(2):  # re-orthogonalize for numerical robustness
            for q in basis:
                v -= (q @ v) * q
        norm = np.linalg.norm(v)
        if norm > tol:
            basis.append(v / norm)
    return np.array(basis) if basis else np.zeros((0, W.shape[1]))


def nullspace_projection(W: np.ndarray) -> np.ndarray:
    """Projection onto the orthogonal complement of rowspace(W)."""
    W = np.asarray(W, dtype=float)
    h = W.shape[1]
    if np.linalg.norm(W) < 1e-12:
        warnings.warn("probe weights are numerically zero; returning identity")
        return np.eye(h)
    B = _orthonormal_rows(W)
    return np.eye(h) - B.T @ B


@dataclass
class Projection:
    P: np.ndarray
    iterations_applied: int
    probe_accuracies: list[float] = field(default_factory=list)
    probe_fits: list[tuple[int, float]] = field(default_factory=list)  # (steps, grad_norm)


def inlp(H_train: np.ndarray | Rows, g_train: np.ndarray, max_iterations: int) -> Projection:
    """Iterative nullspace projection over frozen representations.

    Each iteration probes the projected data, records the probe accuracy,
    and removes the probe's row space (accumulated in the original space, so
    the returned P is an exact symmetric idempotent projection). Every probe
    is fit from the one Gram matrix of the rows (see Rows)."""
    rows = _rows(H_train)
    P = np.eye(rows.H.shape[1])
    directions: list[np.ndarray] = []
    accs: list[float] = []
    fits: list[tuple[int, float]] = []
    for _ in range(max_iterations):
        # P is I at first
        W, acc = fit_linear_probe(rows, g_train, fits, P if directions else None)
        accs.append(acc)
        if np.linalg.norm(W) < 1e-12:
            break
        directions.extend(W @ P)  # probe directions mapped back to the original space
        P = nullspace_projection(np.array(directions))
    return Projection(P=P, iterations_applied=len(accs), probe_accuracies=accs, probe_fits=fits)


def apply_inlp_and_refit(model: nn.Network, P: np.ndarray, H_train: np.ndarray | Rows,
                         y_train: np.ndarray, num_classes: int
                         ) -> tuple[nn.Network, int, float]:
    """Fit a fresh final layer on the P-projected train hidden states
    H_train of model; the original model is untouched. Returns (network,
    steps, grad_norm): the network has model's hidden layers and, with no
    group heads, the output layer W @ P, b of the head W, b fit on
    H_train @ P.T (from the rows' one Gram matrix, see fit_softmax_head),
    so hidden states are never projected; steps and grad_norm are the refit
    solver's."""
    rows = _rows(H_train)
    h = rows.H.shape[1]
    if P.shape != (h, h):
        raise ShapeError(f"projection shape {P.shape} does not match hidden dim {h}")
    W, b, steps, grad_norm = fit_softmax_head(rows, y_train, num_classes, P)
    refit = nn.Network(replace(model.spec, output_dim=num_classes, group_heads=0))
    for k in range(model.n_layers - 1):
        refit.weights[k][...], refit.biases[k][...] = model.weights[k], model.biases[k]
    refit.weights[-1][...], refit.biases[-1][...] = W @ P, b
    return refit, steps, grad_norm


def save_projection(path, projection: Projection):
    with open(path, "wb") as f:
        np.savez(f, magic=np.array("fairkit-inlp-v1"), P=projection.P,
                 iterations=np.array(projection.iterations_applied),
                 probe_accuracies=np.array(projection.probe_accuracies))


# ---------------------------------------------------------------------------
# Gate-soft prior search

def _grid_mixes(heads: list[np.ndarray], resolution: int):
    """Yield (prior, gate_logits(heads, prior)) for every prior on the group
    simplex with coordinates k/(resolution-1), in lexicographic order of k.
    A prefix of the prior is mixed once for all priors sharing it: the mix
    adds p_g * heads[1 + g] in group order, as gate_logits does."""
    total, last = resolution - 1, len(heads) - 2

    def rec(level, mixed, remaining, prior):
        for k in ((remaining,) if level == last else range(remaining + 1)):
            p = k / total
            step = mixed + p * heads[1 + level]
            if level == last:
                yield (*prior, p), step
            else:
                yield from rec(level + 1, step, remaining - k, (*prior, p))

    return rec(0, heads[0], total, ())


def gate_soft_search(model: nn.Network, dev_ds, grid_resolution: int = 11,
                     logits: np.ndarray | None = None) -> tuple[tuple[float, ...], float]:
    """Grid search over the group simplex minimizing dev DTO; ties broken
    toward the uniform prior. Returns (prior, best DTO). logits are the
    model's dev logits if the caller has them; otherwise the network runs
    once. Each prior's predictions are counted into one confusion cube, and
    every cube is scored at once by evaluate_counts."""
    num_groups = model.spec.group_heads
    if num_groups < 1:
        raise MethodInapplicableError("gate-soft needs a model with group heads")
    if grid_resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    if logits is None:
        logits = nn.infer(model, dev_ds.X)[1]
    # contiguous copies: the walk reads them faster than strided views of logits
    heads = [np.ascontiguousarray(h) for h in head_blocks(model, logits)]
    priors, cubes = [], []
    for prior, mixed in _grid_mixes(heads, grid_resolution):
        priors.append(prior)
        cubes.append(confusion_cube(mixed.argmax(axis=1), dev_ds.y, dev_ds.g,
                                    dev_ds.num_classes, dev_ds.num_groups))
    report = evaluate_counts(cube_counts(np.array(cubes)))
    dtos = [dto(point) for point in zip(report.performance.tolist(), report.fairness.tolist())]
    uniform = np.full(num_groups, 1.0 / num_groups)
    keys = [(d, float(np.linalg.norm(np.array(prior) - uniform)))
            for d, prior in zip(dtos, priors)]
    best = min(range(len(priors)), key=keys.__getitem__)  # the first of equal keys
    return priors[best], keys[best][0]
