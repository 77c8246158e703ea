"""Training loop and the at-training-time debiasing methods.

Methods: Standard, the adversarial family (Adv, EAdv, DAdv, AAdv, ADAdv),
Gate (group-specific additive heads), FairBatch (dynamic batch
distribution), FairSCL (contrastive terms), and EO_CLA (loss-gap penalty).
Each method is one record in METHODS: its trade-off weights, whether it
trains an ensemble of discriminators, whether they read the class, and
whether it trains group heads. MethodConfig zeroes every weight its method
does not list, and each loss term runs only when its own weight is > 0, so
a zero weight reproduces the Standard trajectory bit-exactly under the same
seed (FairBatch keeps its initial sampling distribution instead).
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .data import Batch, BatchPlan, Dataset, make_batches
from .errors import (
    ContrastiveDegenerateError,
    FairbatchCollapseError,
    IOErrorWithStage,
    LabelDomainError,
    ShapeError,
    TrainingDivergedError,
)
from .evaluation import evaluate_predictions
from .files import write_atomic


# What one debiasing method does beyond Standard; METHODS holds one per method
@dataclass(frozen=True)
class Method:
    tradeoffs: tuple[str, ...] = ()  # trade-off weights, in sweep-index order
    ensemble: bool = False           # n_discriminators is honoured
    disc_sees_y: bool = False        # discriminators also read the one-hot class
    group_heads: bool = False        # Gate: group-specific additive heads


# A method that lists adv_lambda trains discriminators; one that lists
# fairbatch_alpha draws its batches by FairBatch.
METHODS = {
    "Standard": Method(),
    "Adv": Method(("adv_lambda",)),
    "EAdv": Method(("adv_lambda",), ensemble=True),
    "DAdv": Method(("adv_lambda", "diff_lambda"), ensemble=True),
    "AAdv": Method(("adv_lambda",), disc_sees_y=True),
    "ADAdv": Method(("adv_lambda", "diff_lambda"), ensemble=True, disc_sees_y=True),
    "Gate": Method(group_heads=True),
    "FairBatch": Method(("fairbatch_alpha",)),
    "FairSCL": Method(("fcl_lambda_y", "fcl_lambda_g")),
    "EO_CLA": Method(("eo_cla_lambda",)),
}


@dataclass
class MethodConfig:
    method: str = "Standard"
    adv_lambda: float = 0.0
    n_discriminators: int = 1
    diff_lambda: float = 0.0
    fairbatch_alpha: float = 0.0
    fcl_lambda_y: float = 0.0
    fcl_lambda_g: float = 0.0
    eo_cla_lambda: float = 0.0
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    lr: float = 1e-3
    optimizer: str = "adam"
    hidden_dims: tuple[int, ...] = (16,)
    disc_hidden_dims: tuple[int, ...] = (16,)
    activation: str = "relu"
    temperature: float = 0.07

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {list(METHODS)}")
        tradeoffs = dict.fromkeys(f for m in METHODS.values() for f in m.tradeoffs)
        for name in tradeoffs:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name, low in (("n_discriminators", 1), ("epochs", 0), ("batch_size", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("lr", "temperature"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        self.hidden_dims = tuple(self.hidden_dims)
        self.disc_hidden_dims = tuple(self.disc_hidden_dims)
        if any(h < 1 for h in self.hidden_dims + self.disc_hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        # a weight the method does not list, or an ensemble it does not train, is off
        for name in set(tradeoffs) - set(METHODS[self.method].tradeoffs):
            setattr(self, name, 0.0)
        if not METHODS[self.method].ensemble:
            self.n_discriminators = 1

    @property
    def adversarial(self) -> bool:
        return "adv_lambda" in METHODS[self.method].tradeoffs


# ---------------------------------------------------------------------------
# Gate: shared head plus group-specific additive heads on the hidden state

@dataclass
class GateModel:
    base: nn.Network                 # encoder plus shared head
    head_weights: list[np.ndarray]   # per group, [output_dim x hidden_dim]
    head_biases: list[np.ndarray]

    @property
    def num_groups(self) -> int:
        return len(self.head_weights)

    @property
    def params(self) -> list[np.ndarray]:
        """Base weights and biases, then head weights, then head biases."""
        return self.base.params + self.head_weights + self.head_biases

    def param_names(self) -> list[str]:
        return (self.base.param_names()
                + [f"group {g} head weight" for g in range(self.num_groups)]
                + [f"group {g} head bias" for g in range(self.num_groups)])


def init_gate_model(spec: nn.MlpSpec, num_groups: int, head_seed: int) -> GateModel:
    base = nn.init_network(spec)
    h = base.hidden_dim
    out = spec.output_dim
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(head_seed, 3)))
    bound = np.sqrt(6.0 / (h + out))
    return GateModel(
        base=base,
        head_weights=[rng.uniform(-bound, bound, size=(out, h)) for _ in range(num_groups)],
        head_biases=[np.zeros(out) for _ in range(num_groups)],
    )


def gate_forward(shared_hidden: np.ndarray, g: np.ndarray, shared_logits: np.ndarray,
                 head_weights: list[np.ndarray], head_biases: list[np.ndarray]) -> np.ndarray:
    """logits = shared_logits + head_g(hidden), hard-gated by each instance's group."""
    g = np.asarray(g, dtype=int)
    if g.min() < 0 or g.max() >= len(head_weights):
        raise LabelDomainError(f"group label outside [0, {len(head_weights)})")
    logits = shared_logits.copy()
    for gr in range(len(head_weights)):
        mask = g == gr
        if mask.any():
            logits[mask] += shared_hidden[mask] @ head_weights[gr].T + head_biases[gr]
    return logits


def _forward(model, X: np.ndarray, g: np.ndarray | None) -> tuple[nn.ActivationTrace, np.ndarray]:
    """The encoder's activation trace and the model's logits; a GateModel
    adds the head of each row's group."""
    if not isinstance(model, GateModel):
        trace = nn.forward(model, X)
        return trace, trace.logits
    trace = nn.forward(model.base, X)
    return trace, gate_forward(trace.hidden, g, trace.logits, model.head_weights, model.head_biases)


def gate_head_logits(model: GateModel, hidden: np.ndarray) -> list[np.ndarray]:
    """Each group head's logits h @ W_g.T + b_g, in group order."""
    return [hidden @ w.T + b for w, b in zip(model.head_weights, model.head_biases)]


def mix_gate_heads(shared_logits: np.ndarray, head_logits: list[np.ndarray],
                   prior: np.ndarray) -> np.ndarray:
    """shared_logits + sum_g prior[g] * head_logits[g], summed in group order."""
    logits = shared_logits.copy()
    for gr, head in enumerate(head_logits):
        logits += prior[gr] * head
    return logits


def gate_soft_logits(model: GateModel, X: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Inference logits with group heads mixed by a prior (no g needed)."""
    trace = nn.forward(model.base, X)
    return mix_gate_heads(trace.logits, gate_head_logits(model, trace.hidden), prior)


# ---------------------------------------------------------------------------
# FairBatch

@dataclass
class FairBatchState:
    probs: dict[tuple[int, int], float]
    alpha: float
    per_cell_losses: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        vals = np.array(list(self.probs.values()))
        if np.any(vals < 0) or abs(vals.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be nonnegative and sum to 1")


def init_fairbatch_state(train: Dataset, alpha: float) -> FairBatchState:
    counts = train.cell_counts()
    n = train.n
    return FairBatchState(probs={cell: c / n for cell, c in counts.items()}, alpha=alpha)


def fairbatch_epoch_update(state: FairBatchState,
                           epoch_cell_losses: dict[tuple[int, int], float]) -> FairBatchState:
    """Shift mass toward higher-loss cells: probs[y,g] += alpha * sign(L[y,g] - mean_g L[y,.]),
    clip at 0, renormalize within each class so class marginals are preserved."""
    losses = dict(state.per_cell_losses)
    losses.update(epoch_cell_losses)  # unobserved cells carry over
    classes = sorted({c for c, _ in state.probs})
    new_probs: dict[tuple[int, int], float] = {}
    for c in classes:
        cells = sorted(cell for cell in state.probs if cell[0] == c)
        marginal = sum(state.probs[cell] for cell in cells)
        known = [losses[cell] for cell in cells if cell in losses]
        mean_loss = sum(known) / len(known) if known else 0.0
        raw = {}
        for cell in cells:
            step = 0.0
            if cell in losses:
                diff = losses[cell] - mean_loss
                step = state.alpha * float(np.sign(diff))
            raw[cell] = max(0.0, state.probs[cell] + step)
        total = sum(raw.values())
        if total <= 0.0:
            raise FairbatchCollapseError(f"all sampling probs for class {c} clipped to zero")
        for cell in cells:
            new_probs[cell] = raw[cell] * marginal / total
    return FairBatchState(probs=new_probs, alpha=state.alpha, per_cell_losses=losses)


# ---------------------------------------------------------------------------
# Loss terms

def fairscl_loss(reprs: np.ndarray, y: np.ndarray, g: np.ndarray,
                 fcl_lambda_y: float, fcl_lambda_g: float, temperature: float = 0.07
                 ) -> tuple[float, np.ndarray]:
    """fcl_lambda_y * SCL(same-y positives) + fcl_lambda_g * SCL(same-y,
    other-g positives). Degenerate terms contribute zero."""
    y = np.asarray(y, dtype=int)
    g = np.asarray(g, dtype=int)
    total = 0.0
    grad = np.zeros_like(np.asarray(reprs, dtype=float))
    for lam, other_group in ((fcl_lambda_y, False), (fcl_lambda_g, True)):
        if lam > 0:
            mask = (y[:, None] == y[None, :]) & (g[:, None] != g[None, :]) if other_group else None
            try:
                loss, d = nn.supervised_contrastive_loss(reprs, y, temperature, positive_mask=mask)
                total += lam * loss
                grad += lam * d
            except ContrastiveDegenerateError:
                pass
    return total, grad


def eo_cla_adjusted_loss(per_example_losses: np.ndarray, y: np.ndarray, g: np.ndarray,
                         eo_cla_lambda: float) -> tuple[float, np.ndarray]:
    """Loss-gap penalty: lambda * sum_y sum_g |mean CE of cell (y,g) - mean CE
    of class y| over nonempty batch cells. Returns (addition, per-example
    scale s_i such that d addition / d CE_i = s_i); sign(0) = 0 at ties."""
    ce = np.asarray(per_example_losses, dtype=float)
    y = np.asarray(y, dtype=int)
    g = np.asarray(g, dtype=int)
    n = ce.shape[0]
    scale = np.zeros(n)
    addition = 0.0
    if eo_cla_lambda == 0.0:
        return 0.0, scale
    for c in np.unique(y):
        in_c = y == c
        n_c = int(in_c.sum())
        m_c = ce[in_c].mean()
        sign_sum = 0.0
        for gr in np.unique(g[in_c]):
            in_cell = in_c & (g == gr)
            m_cg = ce[in_cell].mean()
            diff = m_cg - m_c
            # treat float-noise ties as exact ties so equal losses give no step
            s = 0.0 if abs(diff) <= 1e-12 * max(1.0, abs(m_c)) else float(np.sign(diff))
            addition += eo_cla_lambda * abs(diff)
            scale[in_cell] += eo_cla_lambda * s / in_cell.sum()
            sign_sum += s
        scale[in_c] -= eo_cla_lambda * sign_sum / n_c
    return addition, scale


# ---------------------------------------------------------------------------
# Discriminators: plain networks; one whose input is wider than the hidden
# state also reads the one-hot class

def init_discriminators(cfg: MethodConfig, hidden_dim: int, num_classes: int,
                        num_groups: int) -> list[nn.Network]:
    in_dim = hidden_dim + (num_classes if METHODS[cfg.method].disc_sees_y else 0)
    # hidden layer required: the orthogonality penalty reads it
    return [nn.init_network(nn.MlpSpec(input_dim=in_dim,
                                       hidden_dims=cfg.disc_hidden_dims or (hidden_dim,),
                                       output_dim=num_groups, activation=cfg.activation,
                                       seed=_derive_seed(cfg.seed, 11 + k)))
            for k in range(cfg.n_discriminators)]


def _derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, stream)).generate_state(1)[0])


def _disc_inputs(discs: list[nn.Network], hidden: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The discriminators' shared input: hidden, then the one-hot class if
    their input is wider than hidden."""
    num_classes = discs[0].spec.input_dim - hidden.shape[1]
    if num_classes == 0:
        return hidden
    onehot = np.zeros((hidden.shape[0], num_classes))
    onehot[np.arange(hidden.shape[0]), y] = 1.0
    return np.concatenate([hidden, onehot], axis=1)


def adversarial_hidden_grad(discs: list[nn.Network], hidden: np.ndarray, batch: Batch,
                            adv_lambda: float) -> tuple[float, np.ndarray]:
    """Mean discriminator CE and its gradient w.r.t. hidden, reversed and
    scaled by -adv_lambda. The main model descends CE_main - lambda * mean CE_disc."""
    h = hidden.shape[1]
    mean_loss = 0.0
    mean_grad = np.zeros_like(hidden)
    inputs = _disc_inputs(discs, hidden, batch.y)
    for disc in discs:
        trace = nn.forward(disc, inputs)
        loss, d_logits, _ = nn.cross_entropy(trace.logits, batch.g, batch.weights)
        grads = nn.backward(disc, trace, d_logits)
        mean_loss += loss / len(discs)
        mean_grad += grads.d_X[:, :h] / len(discs)
    return mean_loss, -adv_lambda * mean_grad


def discriminator_step(discs: list[nn.Network], opt_states: list[nn.OptimizerState],
                       hidden: np.ndarray, batch: Batch, diff_lambda: float) -> float:
    """Update each discriminator on its own CE; with several discriminators
    and diff_lambda > 0, add the pairwise first-layer orthogonality penalty
    diff_lambda * sum_{i<j} ||H_i^T H_j||_F^2."""
    inputs = _disc_inputs(discs, hidden, batch.y)
    traces = [nn.forward(disc, inputs) for disc in discs]
    first_layer = [t.post[0] for t in traces]
    total = 0.0
    penalty_grads = [np.zeros_like(H) for H in first_layer]
    if diff_lambda > 0 and len(discs) > 1:
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                M = first_layer[i].T @ first_layer[j]
                total += diff_lambda * float(np.sum(M * M))
                penalty_grads[i] += 2.0 * diff_lambda * first_layer[j] @ M.T
                penalty_grads[j] += 2.0 * diff_lambda * first_layer[i] @ M
    for disc, opt, trace, pgrad in zip(discs, opt_states, traces, penalty_grads):
        loss, d_logits, _ = nn.cross_entropy(trace.logits, batch.g, batch.weights)
        total += loss
        extra = {0: pgrad} if np.any(pgrad) else None
        grads = nn.backward(disc, trace, d_logits, extra_post_grads=extra)
        nn.optimizer_step(disc, grads.params, opt)
    return total


def adv_joint_step(main: nn.Network, main_opt: nn.OptimizerState,
                   discs: list[nn.Network], disc_opts: list[nn.OptimizerState],
                   batch: Batch, cfg: MethodConfig) -> float:
    """One joint update: main model gets CE plus the reversed adversarial
    gradient; each discriminator minimizes its own CE (plus orthogonality)."""
    loss, grads, _, hidden = main_loss_and_grads(main, batch, cfg, discs=discs)
    nn.optimizer_step(main, grads, main_opt)
    discriminator_step(discs, disc_opts, hidden, batch, cfg.diff_lambda)
    return loss


# ---------------------------------------------------------------------------
# The main-model objective for one batch (shared by training and the
# finite-difference gradient checks; discriminator parameters are frozen here)

def main_loss_and_grads(model, batch: Batch, cfg: MethodConfig,
                        discs: list[nn.Network] | None = None
                        ) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """Returns (scalar objective, one gradient per entry of model.params,
    per-example CE, hidden representation of the batch before the update).

    model is a Network, or a GateModel for method="Gate".
    """
    is_gate = isinstance(model, GateModel)
    net = model.base if is_gate else model
    trace, logits = _forward(model, batch.X, batch.g)
    hidden = trace.hidden

    loss, d_logits, per_example = nn.cross_entropy(logits, batch.y, batch.weights)

    if cfg.eo_cla_lambda > 0:
        addition, scale = eo_cla_adjusted_loss(per_example, batch.y, batch.g,
                                               cfg.eo_cla_lambda)
        loss += addition
        probs = nn.softmax(logits)
        unweighted = probs.copy()
        unweighted[np.arange(len(batch.y)), batch.y] -= 1.0
        d_logits = d_logits + scale[:, None] * unweighted

    hidden_extra = np.zeros_like(hidden)
    if cfg.fcl_lambda_y > 0 or cfg.fcl_lambda_g > 0:
        scl_loss, scl_grad = fairscl_loss(hidden, batch.y, batch.g,
                                          cfg.fcl_lambda_y, cfg.fcl_lambda_g,
                                          cfg.temperature)
        loss += scl_loss
        hidden_extra += scl_grad
    if cfg.adv_lambda > 0:
        if not discs:
            raise ShapeError("adversarial method requires discriminators")
        disc_loss, rev_grad = adversarial_hidden_grad(discs, hidden, batch, cfg.adv_lambda)
        loss -= cfg.adv_lambda * disc_loss
        hidden_extra += rev_grad

    head_w_grads: list[np.ndarray] = []
    head_b_grads: list[np.ndarray] = []
    if is_gate:  # a group with no rows in the batch gets exact zero head gradients
        for gr in range(model.num_groups):
            mask = batch.g == gr
            head_w_grads.append(d_logits[mask].T @ hidden[mask])
            head_b_grads.append(d_logits[mask].sum(axis=0))
            hidden_extra[mask] += d_logits[mask] @ model.head_weights[gr]

    extra = None
    if np.any(hidden_extra):
        if net.n_layers < 2:
            raise ShapeError("hidden-level loss terms need at least one hidden layer")
        extra = {net.n_layers - 2: hidden_extra}
    grads = nn.backward(net, trace, d_logits, extra_post_grads=extra)
    return loss, grads.params + head_w_grads + head_b_grads, per_example, hidden


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_MAGIC = "fairkit-ckpt-v1"


def save_checkpoint(path, model, opt_state: nn.OptimizerState, epoch: int):
    is_gate = isinstance(model, GateModel)
    net = model.base if is_gate else model
    payload = {
        "magic": np.array(CHECKPOINT_MAGIC),
        "kind": np.array("gate" if is_gate else "mlp"),
        "epoch": np.array(epoch),
        "input_dim": np.array(net.spec.input_dim),
        "hidden_dims": np.array(net.spec.hidden_dims, dtype=int),
        "output_dim": np.array(net.spec.output_dim),
        "activation": np.array(net.spec.activation),
        "seed": np.array(net.spec.seed),
        "params": net.flat_params(),
        "opt_kind": np.array(opt_state.kind),
        "opt_lr": np.array(opt_state.lr),
        "opt_t": np.array(opt_state.t),
        "opt_m": opt_state.flat_m,
        "opt_v": opt_state.flat_v,
    }
    if is_gate:
        payload["num_groups"] = np.array(model.num_groups)
        payload["head_params"] = nn.flatten(model.head_weights + model.head_biases)
    buf = io.BytesIO()
    np.savez(buf, **payload)
    write_atomic(path, buf.getbuffer())


def load_checkpoint(path):
    """Returns (model, opt_state, epoch); model is a Network or GateModel.

    A file that is not a complete checkpoint (not a zip, a missing key, the
    wrong magic, or arrays of the wrong length) raises ParseErrorForCheckpoint."""
    try:
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
            if str(z["magic"]) != CHECKPOINT_MAGIC:
                raise ParseErrorForCheckpoint(path)
            spec = nn.MlpSpec(input_dim=int(z["input_dim"]),
                              hidden_dims=tuple(int(h) for h in z["hidden_dims"]),
                              output_dim=int(z["output_dim"]),
                              activation=str(z["activation"]),
                              seed=int(z["seed"]))
            model = net = nn.init_network(spec)
            if str(z["kind"]) == "gate":
                model = init_gate_model(spec, int(z["num_groups"]), head_seed=0)
                net = model.base
                nn.unflatten_into(model.head_weights + model.head_biases, z["head_params"])
            nn.unflatten_into(net.params, z["params"])
            opt = nn.make_optimizer(model, kind=str(z["opt_kind"]), lr=float(z["opt_lr"]))
            opt.t = int(z["opt_t"])
            nn.unflatten_into(opt.m, z["opt_m"])
            nn.unflatten_into(opt.v, z["opt_v"])
            return model, opt, int(z["epoch"])
    # np.load raises EOFError, ValueError or BadZipFile for a file that is not
    # an .npz, and TypeError for an .npy, which is no context manager
    except (EOFError, KeyError, TypeError, ValueError, ShapeError, zipfile.BadZipFile) as e:
        raise ParseErrorForCheckpoint(path) from e


class ParseErrorForCheckpoint(IOErrorWithStage):
    def __init__(self, path):
        super().__init__(f"{path}: not a recognized checkpoint file")


# ---------------------------------------------------------------------------
# The training loop

@dataclass
class RunRecord:
    rows: list[dict] = field(default_factory=list)
    model: object = None
    fairbatch_state: FairBatchState | None = None


def predict(model, X: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    return _forward(model, X, g)[1].argmax(axis=1)


def _evaluate_split(model, ds: Dataset) -> tuple[float, float]:
    preds = predict(model, ds.X, ds.g)
    report = evaluate_predictions(preds, ds.y, ds.g, ds.num_classes, ds.num_groups)
    return report.performance, report.fairness


def _shuffle_seed(seed: int, epoch: int) -> int:
    return seed * 1_000_003 + epoch


def train(train_ds: Dataset, dev_ds: Dataset, test_ds: Dataset, cfg: MethodConfig,
          run_dir=None) -> RunRecord:
    """Train one model; records per-epoch dev/test (performance, fairness)
    with epoch 0 being the untouched initialization. When run_dir is given,
    epochs.jsonl and checkpoints/epoch_<k> are written as training goes."""
    num_classes = train_ds.num_classes
    num_groups = train_ds.num_groups
    spec = nn.MlpSpec(input_dim=train_ds.dim, hidden_dims=cfg.hidden_dims,
                      output_dim=num_classes, activation=cfg.activation, seed=cfg.seed)
    if METHODS[cfg.method].group_heads:
        model = init_gate_model(spec, num_groups, head_seed=_derive_seed(cfg.seed, 21))
    else:
        model = nn.init_network(spec)
    main_opt = nn.make_optimizer(model, kind=cfg.optimizer, lr=cfg.lr)

    discs = init_discriminators(cfg, model.hidden_dim, num_classes, num_groups) \
        if cfg.adversarial else []
    disc_opts = [nn.make_optimizer(d, kind=cfg.optimizer, lr=cfg.lr) for d in discs]

    fb_state = init_fairbatch_state(train_ds, cfg.fairbatch_alpha) \
        if "fairbatch_alpha" in METHODS[cfg.method].tradeoffs else None

    run_dir = Path(run_dir) if run_dir is not None else None
    epochs_file = None
    if run_dir is not None:
        (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
        epochs_file = run_dir / "epochs.jsonl"
        epochs_file.write_text("")

    record = RunRecord(model=model, fairbatch_state=fb_state)

    def emit(epoch: int):
        dev_p, dev_f = _evaluate_split(model, dev_ds)
        test_p, test_f = _evaluate_split(model, test_ds)
        ckpt = None
        if run_dir is not None:
            ckpt = str(run_dir / "checkpoints" / f"epoch_{epoch}.npz")
            save_checkpoint(ckpt, model, main_opt, epoch)
        row = {"epoch": epoch, "dev_performance": dev_p, "dev_fairness": dev_f,
               "test_performance": test_p, "test_fairness": test_f,
               "checkpoint": ckpt}
        record.rows.append(row)
        if epochs_file is not None:
            with open(epochs_file, "a") as f:
                f.write(json.dumps(row) + "\n")

    emit(0)

    for epoch in range(1, cfg.epochs + 1):
        probs = fb_state.probs if fb_state is not None else None
        plan = BatchPlan(batch_size=min(cfg.batch_size, train_ds.n),
                         shuffle_seed=_shuffle_seed(cfg.seed, epoch),
                         group_sampling_probs=probs)
        batches = make_batches(train_ds, plan)
        batch_losses: list[np.ndarray] = []
        batch_cells: list[np.ndarray] = []
        for b_idx, batch in enumerate(batches):
            if cfg.adversarial:
                loss = adv_joint_step(model, main_opt, discs, disc_opts, batch, cfg)
            else:
                loss, grads, per_example, _ = main_loss_and_grads(model, batch, cfg)
                nn.optimizer_step(model, grads, main_opt)
                if fb_state is not None:
                    batch_losses.append(per_example)
                    batch_cells.append(batch.y * num_groups + batch.g)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}")
        if fb_state is not None and cfg.fairbatch_alpha > 0:
            # bincount adds the weights in row order, as a running sum per cell would
            cells = np.concatenate(batch_cells)
            sums = np.bincount(cells, weights=np.concatenate(batch_losses))
            counts = np.bincount(cells)
            epoch_losses = {divmod(k, num_groups): float(sums[k]) / int(counts[k])
                            for k in np.flatnonzero(counts).tolist()}
            fb_state = fairbatch_epoch_update(fb_state, epoch_losses)
            record.fairbatch_state = fb_state
        emit(epoch)

    return record
