"""Minimal feed-forward network machinery.

Everything here is plain numpy: forward/backward passes with explicit
activation traces, cross entropy, SGD/Adam over any model's parameter
list, and a supervised contrastive loss. The backward pass accepts extra gradients
injected at any hidden activation, which is how the adversarial,
contrastive, and gate branches feed into the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContrastiveDegenerateError,
    DegenerateWeightsError,
    ShapeError,
    TrainingDivergedError,
)

ACTIVATIONS = ("relu", "tanh")
OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def flatten(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate arrays into one vector, in list order."""
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_into(arrays: list[np.ndarray], flat: np.ndarray):
    """Inverse of flatten: copy flat into the arrays in place.

    Raises ShapeError unless flat is a vector of exactly their total size."""
    total = sum(a.size for a in arrays)
    if flat.shape != (total,):
        raise ShapeError(f"flat vector has shape {flat.shape}, expected ({total},)")
    for a, part in zip(arrays, _views(flat, arrays)):
        a[...] = part


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive slices of flat shaped like each array of like; writing
    to a slice writes to flat."""
    views, end = [], 0
    for a in like:
        end += a.size
        views.append(flat[end - a.size:end].reshape(a.shape))
    return views


@dataclass(frozen=True)
class MlpSpec:
    """Architecture + init seed. Same (spec, seed) -> identical parameters."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


class Network:
    """An MLP: weights[k] is [out x in], biases[k] is [out].

    The final layer is linear (no activation); hidden layers use
    spec.activation. The penultimate activation (input to the final
    layer) is the "hidden representation" consumed by debiasing methods.
    """

    def __init__(self, spec: MlpSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self._check_shapes()

    def _check_shapes(self):
        expect = self.spec.layer_dims
        if len(self.weights) != len(expect) or len(self.biases) != len(expect):
            raise ShapeError("layer count does not match spec")
        for k, (out_d, in_d) in enumerate(expect):
            if self.weights[k].shape != (out_d, in_d):
                raise ShapeError(f"layer {k}: weight shape {self.weights[k].shape} != {(out_d, in_d)}")
            if self.biases[k].shape != (out_d,):
                raise ShapeError(f"layer {k}: bias shape {self.biases[k].shape} != {(out_d,)}")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def hidden_dim(self) -> int:
        """Dimension of the representation entering the final layer."""
        return self.weights[-1].shape[1]

    @property
    def params(self) -> list[np.ndarray]:
        """Every parameter array: the weights, then the biases."""
        return self.weights + self.biases

    def param_names(self) -> list[str]:
        """A readable name for each entry of params."""
        return ([f"layer {k} weight" for k in range(self.n_layers)]
                + [f"layer {k} bias" for k in range(self.n_layers)])

    def flat_params(self) -> np.ndarray:
        return flatten(self.params)

    def set_flat_params(self, theta: np.ndarray):
        unflatten_into(self.params, theta)


def init_network(spec: MlpSpec) -> Network:
    """Glorot-uniform init (+zero biases) from the spec's seeded generator."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    weights, biases = [], []
    for out_d, in_d in spec.layer_dims:
        bound = np.sqrt(6.0 / (in_d + out_d))
        weights.append(rng.uniform(-bound, bound, size=(out_d, in_d)))
        biases.append(np.zeros(out_d))
    return Network(spec, weights, biases)


@dataclass
class ActivationTrace:
    """Everything the backward pass needs: inputs and per-layer pre/post activations."""

    X: np.ndarray
    pre: list[np.ndarray]   # z_k for every layer, k = 0..L-1
    post: list[np.ndarray]  # act(z_k) for hidden layers, k = 0..L-2
    logits: np.ndarray

    @property
    def hidden(self) -> np.ndarray:
        """Representation entering the final layer (X itself for a 1-layer net)."""
        return self.post[-1] if self.post else self.X


@dataclass
class Gradients:
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_X: np.ndarray

    @property
    def params(self) -> list[np.ndarray]:
        """Parameter gradients in Network.params order."""
        return self.d_weights + self.d_biases

    def flat(self) -> np.ndarray:
        return flatten(self.params)


def _act(name: str, z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) if name == "relu" else np.tanh(z)


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    return (z > 0).astype(z.dtype) if name == "relu" else 1.0 - a * a


def forward(net: Network, X: np.ndarray) -> ActivationTrace:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise ShapeError(f"layer 0: input has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
                         f"expected {net.spec.input_dim}")
    a = X
    pre, post = [], []
    for k in range(net.n_layers):
        z = a @ net.weights[k].T + net.biases[k]
        pre.append(z)
        if k < net.n_layers - 1:
            a = _act(net.spec.activation, z)
            post.append(a)
    return ActivationTrace(X=X, pre=pre, post=post, logits=pre[-1])


def backward(net: Network, trace: ActivationTrace, d_logits: np.ndarray,
             extra_post_grads: dict[int, np.ndarray] | None = None) -> Gradients:
    """Exact reverse-mode gradients of forward.

    extra_post_grads maps a hidden-layer index k (0..L-2) to a gradient
    added at post-activation k; injecting at index L-2 targets the
    penultimate ("hidden") representation.
    """
    if d_logits.shape != trace.logits.shape:
        raise ShapeError(f"d_logits shape {d_logits.shape} != logits shape {trace.logits.shape}")
    extra = extra_post_grads or {}
    L = net.n_layers
    d_w = [None] * L
    d_b = [None] * L
    dz = np.asarray(d_logits, dtype=float)
    for k in range(L - 1, -1, -1):
        a_prev = trace.post[k - 1] if k > 0 else trace.X
        d_w[k] = dz.T @ a_prev
        d_b[k] = dz.sum(axis=0)
        da = dz @ net.weights[k]
        if k > 0:
            if (k - 1) in extra:
                da = da + extra[k - 1]
            dz = da * _act_grad(net.spec.activation, trace.pre[k - 1], trace.post[k - 1])
        else:
            d_X = da
    return Gradients(d_weights=d_w, d_biases=d_b, d_X=d_X)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted-mean CE.

    Returns (loss, dLoss/dLogits, per-example unweighted CE). The
    per-example vector is what the loss-gap methods consume.
    """
    logits = np.asarray(logits, dtype=float)
    y = np.asarray(y, dtype=int)
    n, c = logits.shape
    if y.shape != (n,):
        raise ShapeError(f"y shape {y.shape} != ({n},)")
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ShapeError(f"weights shape {weights.shape} != ({n},)")
    wsum = weights.sum()
    if wsum <= 0.0:
        raise DegenerateWeightsError("all instance weights are zero")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    per_example = -log_probs[np.arange(n), y]
    loss = float(weights @ per_example / wsum)
    probs = np.exp(log_probs)
    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad *= (weights / wsum)[:, None]
    return loss, grad, per_example


@dataclass
class OptimizerState:
    """Adam's moments are one flat vector each, flat_m and flat_v, in
    params order; m and v hold one reshaped view of them per parameter."""

    kind: str  # "sgd" | "adam"
    lr: float = 1e-3
    t: int = 0
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def make_optimizer(model, kind: str = "adam", lr: float = 1e-3) -> OptimizerState:
    """Optimizer state for every array in model.params."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"optimizer kind must be one of {OPTIMIZERS}")
    params = model.params
    total = sum(p.size for p in params)
    flat_m, flat_v = np.zeros(total), np.zeros(total)
    return OptimizerState(kind=kind, lr=lr, flat_m=flat_m, flat_v=flat_v,
                          m=_views(flat_m, params), v=_views(flat_v, params))


def optimizer_step(model, grads: list[np.ndarray], state: OptimizerState):
    """In-place deterministic update of model.params, given one gradient
    per parameter in the same order; Adam applies bias correction. Adam
    updates the flat moments in one pass and subtracts each parameter's
    slice of the flat step."""
    params = model.params
    g = flatten(grads)
    if not np.isfinite(g).all():
        for i, gi in enumerate(grads):
            if not np.all(np.isfinite(gi)):
                raise TrainingDivergedError(f"non-finite gradient for {model.param_names()[i]}")
    if state.kind == "sgd":
        for p, gi in zip(params, grads):
            p -= state.lr * gi
        return
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.flat_m, state.flat_v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    for p, s in zip(params, _views(step, params)):
        p -= s


def supervised_contrastive_loss(reprs: np.ndarray, labels: np.ndarray, temperature: float = 0.07,
                                positive_mask: np.ndarray | None = None
                                ) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over L2-normalized representations.

    positive_mask overrides the default same-label positive set (used by
    the fairness variant where positives are same-class, other-group).
    Anchors without positives contribute zero; raises if no anchor has any.
    Returns (loss, exact gradient w.r.t. the unnormalized reprs).
    """
    R = np.asarray(reprs, dtype=float)
    n = R.shape[0]
    if n < 2:
        raise ContrastiveDegenerateError("need at least 2 instances")
    labels = np.asarray(labels, dtype=int)
    if positive_mask is None:
        positive_mask = labels[:, None] == labels[None, :]
    pos = positive_mask & ~np.eye(n, dtype=bool)
    n_pos = pos.sum(axis=1)
    valid = n_pos > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ContrastiveDegenerateError("no anchor has a positive")

    norms = np.linalg.norm(R, axis=1, keepdims=True)
    norms = np.maximum(norms, 1e-12)
    Z = R / norms
    S = (Z @ Z.T) / temperature
    np.fill_diagonal(S, -np.inf)
    smax = S.max(axis=1, keepdims=True)
    expS = np.exp(S - smax)
    denom = expS.sum(axis=1, keepdims=True)
    log_q = (S - smax) - np.log(denom)

    per_anchor = np.zeros(n)
    pos_log_q = np.where(pos, log_q, 0.0)  # diagonal log_q is -inf; mask before summing
    per_anchor[valid] = -pos_log_q.sum(axis=1)[valid] / n_pos[valid]
    loss = float(per_anchor.sum() / n_valid)

    # dLoss/dS for valid anchors: (q_ij - pos_ij/|P_i|) / n_valid
    q = expS / denom
    G = np.zeros_like(q)
    G[valid] = (q[valid] - pos[valid] / n_pos[valid, None]) / n_valid
    np.fill_diagonal(G, 0.0)
    dZ = (G @ Z + G.T @ Z) / temperature
    # through the normalization: d/dR of R/||R||
    dR = (dZ - (Z * dZ).sum(axis=1, keepdims=True) * Z) / norms
    return loss, dR
