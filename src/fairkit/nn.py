"""Minimal feed-forward network machinery.

Everything here is plain numpy: forward/backward passes with explicit
activation traces, a trace-free inference pass, cross entropy, SGD/Adam
over a network's flat parameter vector, and a supervised contrastive loss.
A network's parameters, their gradients and Adam's moments share one flat
layout (see Network). A trace keeps each hidden layer's post-activation
only: forward applies the activation in place, and backward reads each
slope from the post-activation. The backward pass accepts extra gradients
injected at any hidden activation, which is how the adversarial and
contrastive branches feed into the encoder. A network with group heads
(Gate) holds them as extra rows of its output layer. infer_many and
LogitsOnWorker compute logits only; above PARALLEL_MIN_WORK each call
starts one job on a thread of its own (fairkit-infer), which has ended
by the time the call returns or raises.
"""

from __future__ import annotations

import os
import threading
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
# Below it, a product of two numbers is finite: Adam's g * g and v / bc2, and
# a parameter times an activation as large as itself
_MAX_MAGNITUDE = float(np.sqrt(np.finfo(float).max))


def derive_seed(seed: int, stream: int) -> int:
    """A seed of its own for each numbered stream drawn from one seed."""
    return int(np.random.SeedSequence(entropy=(seed, stream)).generate_state(1)[0])


@dataclass(frozen=True)
class MlpSpec:
    """Architecture + init seed. Same (spec, seed) -> identical parameters.

    With group_heads G > 0 the output layer holds output_dim rows for the
    shared head, then output_dim rows for each of the G group heads."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    activation: str = "relu"
    seed: int = 0
    group_heads: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.group_heads < 0:
            raise ValueError("group_heads must be >= 0")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim * (1 + self.group_heads)]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def n_params(self) -> int:
        """The number of parameters, weights and biases, of a network of this spec."""
        return sum(o * i + o for o, i in self.layer_dims)


def _layout(flat: np.ndarray, spec: MlpSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of flat: layer k's [out x in] weight for each k, then layer k's
    [out] bias for each k; writing to a view writes to flat."""
    weights, biases, end = [], [], 0
    for out_d, in_d in spec.layer_dims:
        weights.append(flat[end:end + out_d * in_d].reshape(out_d, in_d))
        end += out_d * in_d
    for out_d, _ in spec.layer_dims:
        biases.append(flat[end:end + out_d])
        end += out_d
    return weights, biases


class Network:
    """An MLP whose parameters are one float64 vector, flat, of
    spec.n_params entries: weights[k] is a [out x in] view into it and
    biases[k] an [out] view, W0..W(L-1) first, then b0..b(L-1). The
    network owns the flat it is given (it is not copied); without one it
    starts at zero.

    The final layer is linear (no activation); hidden layers use
    spec.activation. The penultimate activation (input to the final
    layer) is the "hidden representation" consumed by debiasing methods.
    """

    def __init__(self, spec: MlpSpec, flat: np.ndarray | None = None):
        if flat is None:
            flat = np.zeros(spec.n_params)
        if flat.shape != (spec.n_params,):
            raise ShapeError(f"flat vector has shape {flat.shape}, expected ({spec.n_params},)")
        self.spec, self.flat = spec, flat
        self.weights, self.biases = _layout(flat, spec)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def hidden_dim(self) -> int:
        """Dimension of the representation entering the final layer."""
        return self.weights[-1].shape[1]

    def param_name(self, i: int) -> str:
        """The readable name of the array that holds entry i of flat."""
        for kind, arrays in (("weight", self.weights), ("bias", self.biases)):
            for k, a in enumerate(arrays):
                if i < a.size:
                    return f"layer {k} {kind}"
                i -= a.size


def init_network(spec: MlpSpec) -> Network:
    """Glorot-uniform init (+zero biases) from the spec's seeded generator.
    The group heads' rows take the shared head's bound and come from a
    stream of their own (21)."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    net = Network(spec)
    dims = [spec.input_dim, *spec.hidden_dims, spec.output_dim]
    for W, in_d, out_d in zip(net.weights, dims, dims[1:]):
        bound = np.sqrt(6.0 / (in_d + out_d))
        W[:out_d] = rng.uniform(-bound, bound, size=(out_d, in_d))
    if spec.group_heads:
        heads = np.random.default_rng(np.random.SeedSequence((derive_seed(spec.seed, 21), 3)))
        W[out_d:] = heads.uniform(-bound, bound, size=(spec.group_heads * out_d, in_d))
    return net


@dataclass
class ActivationTrace:
    """Everything the backward pass needs: the input and each hidden layer's post-activation."""

    X: np.ndarray
    post: list[np.ndarray]  # act(z_k) for hidden layers, k = 0..L-2
    logits: np.ndarray

    @property
    def hidden(self) -> np.ndarray:
        """Representation entering the final layer (X itself for a 1-layer net)."""
        return self.post[-1] if self.post else self.X


@dataclass
class Gradients:
    """The parameter gradients as one vector, flat, in Network.flat's
    layout, with d_weights and d_biases its views; and d_X, the gradient
    w.r.t. the input."""

    flat: np.ndarray
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_X: np.ndarray  # [n, 0] when backward was asked not to compute it


def _act_into(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z, written over z."""
    return np.maximum(z, 0.0, out=z) if name == "relu" else np.tanh(z, out=z)


def _act_grad(name: str, a: np.ndarray) -> np.ndarray:
    """The activation's slope where it output a: relu's z > 0 is a > 0, and
    tanh's 1 - tanh(z)^2 is 1 - a^2."""
    return a > 0 if name == "relu" else 1.0 - a * a


def _checked_input(net: Network, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise ShapeError(f"layer 0: input has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
                         f"expected {net.spec.input_dim}")
    return X


def forward(net: Network, X: np.ndarray) -> ActivationTrace:
    X = _checked_input(net, X)
    post = []
    _, logits = _infer_into(net, X, post=post)
    return ActivationTrace(X=X, post=post, logits=logits)


def infer(net: Network, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, logits) of forward, bit for bit, keeping no trace: each
    layer's bias and activation are applied in place, so at most two
    hidden-width arrays are alive at once."""
    return _infer_into(net, _checked_input(net, X))


# infer_many runs inputs on two threads only when the smallest input's rows
# times n_params reach this. Below it the hand-off to a second thread costs
# more than the overlap saves: on a 2-CPU host with one BLAS thread, two
# inputs broke even at 0.7M-1.0M, and this leaves twice that for a busier host.
PARALLEL_MIN_WORK = 2_000_000


def infer_many(net: Network, Xs: list[np.ndarray]) -> list[np.ndarray]:
    """[infer(net, X)[1] for X in Xs], the logits, bit for bit.

    With two or more inputs, each of at least PARALLEL_MIN_WORK rows times
    n_params, and two CPUs to run on, the caller runs the first input as
    infer does while a job on a second thread runs the others. Each input
    stays one GEMM per layer, because a GEMM split by rows or columns rounds
    differently. The caller makes every array the job writes (see
    _outputs), so the job's thread grows no malloc arena of its own, and
    the job calls no public function, so a tracer that wraps them sees
    every call on the calling thread. A wrong input width raises infer's
    ShapeError before any job starts."""
    Xs = [_checked_input(net, X) for X in Xs]
    if not _take_worker(net, Xs):
        return [infer(net, X)[1] for X in Xs]
    job = _Job(_infer_into_all, net, Xs[1:], _outputs(net, Xs[1:]))
    try:
        first = infer(net, Xs[0])[1]
    finally:
        rest = job.wait()
    return [first, *rest]


def _take_worker(net: Network, Xs: list[np.ndarray]) -> bool:
    """Whether Xs run on two threads: two or more inputs, the smallest of at
    least PARALLEL_MIN_WORK rows times n_params, and two CPUs."""
    return (len(Xs) >= 2 and min(X.shape[0] for X in Xs) * net.spec.n_params >= PARALLEL_MIN_WORK
            and _cpus() >= 2)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outputs(net: Network, Xs: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Each layer's output array for each input of Xs, for inputs run one
    after another: the hidden layers write in turn into one or two buffers
    that every input shares, and each input's logits are its own."""
    rows = [X.shape[0] for X in Xs]
    hidden = [np.empty(max(rows) * max(net.spec.hidden_dims))
              for _ in range(min(2, net.n_layers - 1))]
    widths = [W.shape[0] for W in net.weights]
    return [[hidden[k % 2][:n * w].reshape(n, w) for k, w in enumerate(widths[:-1])]
            + [np.empty((n, widths[-1]))] for n in rows]


def _infer_into(net: Network, X: np.ndarray, outs: list[np.ndarray] | None = None,
                post: list[np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """infer of the checked input X, layer k writing into outs[k] if outs
    is given, else into a new array; each hidden layer's output is also
    appended to post if it is given."""
    a = X
    for k in range(net.n_layers):
        W = net.weights[k].T
        z = a @ W if outs is None else np.matmul(a, W, out=outs[k])  # the same bits
        z += net.biases[k]
        if k == net.n_layers - 1:
            return a, z
        a = _act_into(net.spec.activation, z)
        if post is not None:
            post.append(a)


def _infer_into_all(net: Network, Xs: list[np.ndarray], outs: list[list[np.ndarray]]
                    ) -> list[np.ndarray]:
    return [_infer_into(net, X, out)[1] for X, out in zip(Xs, outs)]


class LogitsOnWorker:
    """The logits of a frozen copy of net for each X of Xs, computed on a
    second thread while the caller goes on; bit for bit infer_many(net, Xs)
    at the time of start().

    start() goes ahead exactly when infer_many(net, Xs) would run in
    parallel; below that it returns False and has made nothing. The first
    start() that goes ahead makes, on the calling thread, every array the
    job writes or reads besides Xs: the snapshot (a network of net's spec)
    and the arrays of _outputs. Each start() copies net.flat into the
    snapshot's and starts the job infer_many gives its second thread, so
    the job makes no array and calls no public function."""

    def __init__(self, net: Network, Xs: list[np.ndarray]):
        self.net, self.Xs = net, Xs
        self._snapshot = None

    def start(self) -> bool:
        if not _take_worker(self.net, self.Xs):
            return False
        if self._snapshot is None:
            self._checked = [_checked_input(self.net, X) for X in self.Xs]
            self._snapshot, self._outs = Network(self.net.spec), _outputs(self.net, self._checked)
        np.copyto(self._snapshot.flat, self.net.flat)
        self._job = _Job(_infer_into_all, self._snapshot, self._checked, self._outs)
        return True

    def wait(self) -> list[np.ndarray]:
        """Block until the job of start() ends; each X's logits, which the
        next start() overwrites. Raises what the job raised."""
        return self._job.wait()


class _Job:
    """fn(*args), started at once on a daemon thread of its own, named
    fairkit-infer. wait() joins the thread, so none is left alive, then
    returns what fn returned or raises what it raised."""

    def __init__(self, fn, *args):
        self._outcome = None
        self._thread = threading.Thread(target=self._run, args=(fn, args),
                                        name="fairkit-infer", daemon=True)
        self._thread.start()

    def _run(self, fn, args):
        try:
            self._outcome = (fn(*args), None)
        except BaseException as e:  # re-raised on the caller's thread by wait
            self._outcome = (None, e)

    def wait(self):
        self._thread.join()
        (result, error), self._outcome = self._outcome, None
        if error is not None:
            raise error
        return result


def backward(net: Network, trace: ActivationTrace, d_logits: np.ndarray,
             extra_post_grads: dict[int, np.ndarray] | None = None,
             input_grad: bool = True) -> Gradients:
    """Exact reverse-mode gradients of forward.

    extra_post_grads maps a hidden-layer index k (0..L-2) to a gradient
    added at post-activation k; injecting at index L-2 targets the
    penultimate ("hidden") representation. Each entry is removed from
    extra_post_grads once it has been added, so that its array is not held
    through the rest of the pass. Without input_grad the gradient w.r.t.
    the input is not computed and d_X is an [n, 0] array.
    """
    if d_logits.shape != trace.logits.shape:
        raise ShapeError(f"d_logits shape {d_logits.shape} != logits shape {trace.logits.shape}")
    extra = extra_post_grads or {}
    flat = np.empty(net.spec.n_params)  # every entry is written below
    d_w, d_b = _layout(flat, net.spec)
    dz = np.asarray(d_logits, dtype=float)
    for k in range(net.n_layers - 1, 0, -1):
        a = trace.post[k - 1]
        np.matmul(dz.T, a, out=d_w[k])  # the bits of dz.T @ a
        dz.sum(axis=0, out=d_b[k])
        dz = dz @ net.weights[k]  # the gradient at a, then at z in place
        if (k - 1) in extra:
            dz += extra.pop(k - 1)
        dz *= _act_grad(net.spec.activation, a)
    np.matmul(dz.T, trace.X, out=d_w[0])
    dz.sum(axis=0, out=d_b[0])
    d_X = dz @ net.weights[0] if input_grad else np.empty((dz.shape[0], 0))
    return Gradients(flat=flat, d_weights=d_w, d_biases=d_b, d_X=d_X)


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
    Network.flat's layout."""

    kind: str  # "sgd" | "adam"
    lr: float = 1e-3
    t: int = 0
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def make_optimizer(model: Network, kind: str = "adam", lr: float = 1e-3) -> OptimizerState:
    """Optimizer state for model.flat."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"optimizer kind must be one of {OPTIMIZERS}")
    total = model.spec.n_params
    return OptimizerState(kind=kind, lr=lr, flat_m=np.zeros(total), flat_v=np.zeros(total))


def optimizer_step(model: Network, g: np.ndarray, state: OptimizerState):
    """In-place deterministic update of model.flat, given its gradient g in
    the same layout; Adam applies bias correction. Raises
    TrainingDivergedError for a non-finite entry of g (under Adam, one at
    or above _MAX_MAGNITUDE), naming its parameter, before anything is
    updated; and for a step that overflows, one after which the parameters'
    squared norm is not finite, naming the largest parameter, before
    model.flat is written (Adam's moments have then advanced)."""
    bound = _MAX_MAGNITUDE if state.kind == "adam" else np.inf
    g_max = float(np.abs(g).max())
    if not g_max < bound:  # NaN fails the comparison too
        i = int(np.argmin(np.abs(g) < bound))  # the first refused entry
        raise TrainingDivergedError(f"gradient {g[i]:.3g} (|g| must be below {bound:.3g}) "
                                    f"for {model.param_name(i)}")
    # The update can overflow, and numpy warn, only when lr times |g| (SGD), or
    # times |m / bc1|, which stays below bound (Adam), nears float max
    if state.lr * (g_max if state.kind == "sgd" else bound) < np.finfo(float).max / 8:
        new = _stepped(model.flat, g, state)
    else:
        with np.errstate(over="ignore"):  # an overflowed step is refused below
            new = _stepped(model.flat, g, state)
    if not np.vdot(new, new) < np.inf:  # NaN fails the comparison too
        i = int(np.argmax(np.abs(new)))  # NaN counts as the largest
        raise TrainingDivergedError(
            f"the {state.kind} step at lr {state.lr:.3g} overflowed: it would write {new[i]:.3g} "
            f"(the parameters' norm must be below {_MAX_MAGNITUDE:.3g}) for "
            f"{model.param_name(i)}")
    np.copyto(model.flat, new)


def _stepped(flat: np.ndarray, g: np.ndarray, state: OptimizerState) -> np.ndarray:
    """flat after the step of g, as a new array; Adam's moments advance."""
    if state.kind == "sgd":
        step = state.lr * g
    else:
        state.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** state.t
        bc2 = 1.0 - ADAM_BETA2 ** state.t
        m, v = state.flat_m, state.flat_v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return np.subtract(flat, step, out=step)


def supervised_contrastive_loss(reprs: np.ndarray, terms: list[tuple[float, np.ndarray]],
                                temperature: float = 0.07) -> tuple[float, np.ndarray]:
    """Weighted sum of supervised contrastive losses over L2-normalized
    representations, one per (weight, positive mask) term, all from one
    similarity matrix. A row's positives in a term are the other rows its
    mask marks. Anchors without positives contribute zero, and so does a
    term in which no anchor has any; raises if every term is such a term.
    Returns (loss, exact gradient w.r.t. the unnormalized reprs).
    """
    R = np.asarray(reprs, dtype=float)
    n = R.shape[0]
    if n < 2:
        raise ContrastiveDegenerateError("need at least 2 instances")
    positives = [(weight, mask & ~np.eye(n, dtype=bool)) for weight, mask in terms]
    # (weight, positives, positive count per anchor) of each term with a positive
    live = [(weight, pos, pos.sum(axis=1)) for weight, pos in positives if pos.any()]
    if not live:
        raise ContrastiveDegenerateError("no anchor has a positive")

    norms = np.maximum(np.linalg.norm(R, axis=1, keepdims=True), 1e-12)
    Z = R / norms
    S = (Z @ Z.T) / temperature
    np.fill_diagonal(S, -np.inf)
    smax = S.max(axis=1, keepdims=True)
    expS = np.exp(S - smax)
    denom = expS.sum(axis=1, keepdims=True)
    log_q = (S - smax) - np.log(denom)
    q = expS / denom

    loss = 0.0
    G = np.zeros_like(q)  # dLoss/dS
    for weight, pos, n_pos in live:
        valid = n_pos > 0
        n_valid = int(valid.sum())
        per_anchor = np.zeros(n)
        pos_log_q = np.where(pos, log_q, 0.0)  # diagonal log_q is -inf; mask before summing
        per_anchor[valid] = -pos_log_q.sum(axis=1)[valid] / n_pos[valid]
        loss += weight * float(per_anchor.sum() / n_valid)
        # for valid anchors: (q_ij - pos_ij/|P_i|) / n_valid
        G[valid] += weight * (q[valid] - pos[valid] / n_pos[valid, None]) / n_valid
    np.fill_diagonal(G, 0.0)
    dZ = (G + G.T) @ Z / temperature
    # through the normalization: d/dR of R/||R||
    dR = (dZ - (Z * dZ).sum(axis=1, keepdims=True) * Z) / norms
    return loss, dR
