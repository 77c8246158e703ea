"""Training loop and the at-training-time debiasing methods.

Methods: Standard, the adversarial family (Adv, EAdv, DAdv, AAdv, ADAdv),
Gate (group-specific additive heads, held as rows of the output layer),
FairBatch (dynamic batch distribution over (class, group) cells, kept as
[C, G] tables of sampling probabilities and latest mean losses, NaN until a
cell is observed), FairSCL (contrastive terms), and EO_CLA (loss-gap penalty).
Each method is one record in METHODS: its trade-off weights, whether it
trains an ensemble of discriminators, whether they read the class, and
whether it trains group heads. MethodConfig checks the shared Settings and
zeroes every weight its method does not list; each loss term runs only when
its own weight is > 0, so a zero weight reproduces the Standard trajectory
bit-exactly under the same seed (FairBatch keeps its initial sampling
distribution instead). The discriminator ensemble is one network, whose one
backward pass per step gives every discriminator's own gradient and the
hidden gradient the encoder receives reversed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import nn
from .data import Batch, Dataset, make_batches
from .errors import (
    ContrastiveDegenerateError,
    FairbatchCollapseError,
    IOErrorWithStage,
    LabelDomainError,
    ShapeError,
    TrainingDivergedError,
)
from .evaluation import _row_sums, evaluate_predictions


# What one debiasing method does beyond Standard; METHODS holds one per method
@dataclass(frozen=True)
class Method:
    tradeoffs: tuple[str, ...] = ()  # trade-off weights, in sweep-index order
    ensemble: bool = False           # n_discriminators is honoured
    disc_sees_y: bool = False        # discriminators also read the one-hot class
    group_heads: bool = False        # Gate: one additive head per group


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


# Hidden width of every discriminator; the orthogonality penalty reads its layer
DISC_HIDDEN = 16


@dataclass
class Settings:
    """The training settings, with the CLI's defaults; MethodConfig checks them."""
    method: str = "Standard"
    adv_lambda: float = 1.0
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
    hidden_dims: list[int] = field(default_factory=lambda: [16])
    activation: str = "relu"
    temperature: float = 0.07


@dataclass
class MethodConfig(Settings):
    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {list(METHODS)}")
        for f in fields(Settings):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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
        if any(h < 1 for h in self.hidden_dims):
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
# Gate: a row's logits add its own group's head (training, evaluation) or
# the group heads weighed by a prior (Gate-soft) to the shared head

def head_blocks(model: nn.Network, logits: np.ndarray) -> list[np.ndarray]:
    """The output layer's logits as 1 + G blocks of C columns (views): the
    shared head's, then each group head's."""
    C = model.spec.output_dim
    return [logits[:, k * C:(k + 1) * C] for k in range(1 + model.spec.group_heads)]


def gate_logits(heads: list[np.ndarray], mix: np.ndarray) -> np.ndarray:
    """heads[0] + sum_g mix[..., g] * heads[1 + g], added in group order. mix
    is a [G] prior (Gate-soft) or an [n, G] mix per row."""
    logits = heads[0]
    for g, head in enumerate(heads[1:]):
        logits = logits + mix[..., g, None] * head
    return logits


def _own_head(model: nn.Network, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and each row's output-layer block, 1 + its group g."""
    g = np.asarray(g, dtype=int)
    if g.size and (g.min() < 0 or g.max() >= model.spec.group_heads):
        raise LabelDomainError(f"group label outside [0, {model.spec.group_heads})")
    return np.arange(g.shape[0]), 1 + g


def own_head_logits(model: nn.Network, logits: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each row's logits through the shared head plus the head of its group
    g (equal to gate_logits with each row's one-hot group as its mix)."""
    rows, block = _own_head(model, g)
    blocks = logits.reshape(len(rows), -1, model.spec.output_dim)
    return blocks[:, 0] + blocks[rows, block]


# ---------------------------------------------------------------------------
# FairBatch

def fairbatch_epoch_update(probs: np.ndarray, losses: np.ndarray, alpha: float) -> np.ndarray:
    """Shift mass toward higher-loss cells: probs[y,g] += alpha * sign(L[y,g] - mean_g L[y,.]),
    clip at 0, renormalize within each class so class marginals are preserved.

    probs and losses are [C, G] tables; losses holds each cell's latest mean
    loss, NaN for a cell never observed, which keeps its mass and is left
    out of the class mean. A class with no mass (no rows) stays at zero."""
    known = ~np.isnan(losses)
    mean_loss = _row_sums(np.where(known, losses, 0.0)) / np.maximum(known.sum(axis=1), 1)
    step = alpha * np.sign(np.where(known, losses - mean_loss[:, None], 0.0))
    raw = np.maximum(0.0, probs + step)
    marginal, total = _row_sums(probs), _row_sums(raw)
    live = marginal > 0
    collapsed = np.flatnonzero(live & (total <= 0.0))
    if collapsed.size:
        raise FairbatchCollapseError(f"all sampling probs for class {collapsed[0]} clipped to zero")
    return raw * marginal[:, None] / np.where(live, total, 1.0)[:, None]


# ---------------------------------------------------------------------------
# Loss terms

def fairscl_loss(reprs: np.ndarray, y: np.ndarray, g: np.ndarray,
                 fcl_lambda_y: float, fcl_lambda_g: float, temperature: float = 0.07
                 ) -> tuple[float, np.ndarray]:
    """fcl_lambda_y * SCL(same-y positives) + fcl_lambda_g * SCL(same-y,
    other-g positives), from one similarity matrix. Degenerate terms contribute zero."""
    same_y = np.equal.outer(y, y)
    terms = [(lam, mask) for lam, mask in
             ((fcl_lambda_y, same_y), (fcl_lambda_g, same_y & np.not_equal.outer(g, g)))
             if lam > 0]
    try:
        return nn.supervised_contrastive_loss(reprs, terms, temperature)
    except ContrastiveDegenerateError:
        return 0.0, np.zeros_like(np.asarray(reprs, dtype=float))


def eo_cla_adjusted_loss(per_example_losses: np.ndarray, y: np.ndarray, g: np.ndarray,
                         eo_cla_lambda: float) -> tuple[float, np.ndarray]:
    """Loss-gap penalty: lambda * sum_y sum_g |mean CE of cell (y,g) - mean CE
    of class y| over nonempty batch cells, from [C, G] tables of cell sums
    and counts. Returns (addition, per-example scale s_i such that
    d addition / d CE_i = s_i); sign(0) = 0 at ties."""
    ce = np.asarray(per_example_losses, dtype=float)
    y = np.asarray(y, dtype=int)
    g = np.asarray(g, dtype=int)
    if eo_cla_lambda == 0.0:
        return 0.0, np.zeros(ce.shape[0])
    C, G = int(y.max()) + 1, int(g.max()) + 1
    cell = y * G + g
    counts = np.bincount(cell, minlength=C * G).reshape(C, G)
    sums = np.bincount(cell, weights=ce, minlength=C * G).reshape(C, G)
    n_c = np.maximum(counts.sum(axis=1, keepdims=True), 1)
    m_c = sums.sum(axis=1, keepdims=True) / n_c
    diff = np.where(counts > 0, sums / np.maximum(counts, 1) - m_c, 0.0)
    # treat float-noise ties as exact ties so equal losses give no step
    s = np.where(np.abs(diff) <= 1e-12 * np.maximum(1.0, np.abs(m_c)), 0.0, np.sign(diff))
    scale = (eo_cla_lambda * s / np.maximum(counts, 1)
             - eo_cla_lambda * s.sum(axis=1, keepdims=True) / n_c)
    return eo_cla_lambda * float(np.abs(diff).sum()), scale.ravel()[cell]


# ---------------------------------------------------------------------------
# Discriminators: an ensemble of k is one network, the stack. Its first layer
# stacks their first layers ([k*16, in]); its output layer holds their output
# layers as diagonal blocks ([k*G, k*16]), whose off-block weights stay 0. A
# stack whose input is wider than the hidden state also reads the one-hot class.

def init_discriminators(cfg: MethodConfig, hidden_dim: int, num_classes: int,
                        num_groups: int) -> nn.Network:
    """The stack of cfg.n_discriminators discriminators. Block i starts with
    the parameters of a lone discriminator seeded from stream 11 + i."""
    in_dim = hidden_dim + (num_classes if METHODS[cfg.method].disc_sees_y else 0)
    k, H, G = cfg.n_discriminators, DISC_HIDDEN, num_groups
    discs = [nn.init_network(nn.MlpSpec(input_dim=in_dim, hidden_dims=(H,), output_dim=G,
                                        activation=cfg.activation,
                                        seed=nn.derive_seed(cfg.seed, 11 + i)))
             for i in range(k)]
    stack = nn.Network(nn.MlpSpec(input_dim=in_dim, hidden_dims=(k * H,), output_dim=k * G,
                                  activation=cfg.activation, seed=cfg.seed))
    for i, disc in enumerate(discs):
        stack.weights[0][i * H:(i + 1) * H] = disc.weights[0]
        stack.weights[1][i * G:(i + 1) * G, i * H:(i + 1) * H] = disc.weights[1]
    return stack


def _disc_inputs(stack: nn.Network, hidden: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The stack's input: hidden, then the one-hot class if its input is
    wider than hidden."""
    num_classes = stack.spec.input_dim - hidden.shape[1]
    if num_classes == 0:
        return hidden
    onehot = np.zeros((hidden.shape[0], num_classes))
    onehot[np.arange(hidden.shape[0]), y] = 1.0
    return np.concatenate([hidden, onehot], axis=1)


def adversarial_pass(stack: nn.Network, hidden: np.ndarray, batch: Batch,
                     diff_lambda: float) -> tuple[float, np.ndarray, np.ndarray]:
    """One forward and one backward of the stack. Returns the mean of the k
    discriminators' CEs, its gradient w.r.t. hidden, and the stack's parameter
    gradient in stack.flat's layout (block i: discriminator i's own CE;
    off-block: 0). With k > 1 and diff_lambda > 0 these carry the penalty
    on the first-layer outputs H,
    diff_lambda * sum_{i<j} ||H_i^T H_j||^2 = diff_lambda / 2 * (||H^T H||^2 -
    sum_i ||H_i^T H_i||^2), with gradient 2 * diff_lambda * H @ (H^T H off its
    diagonal blocks) at H. The hidden gradient leaves the penalty out."""
    k = stack.spec.hidden_dims[0] // DISC_HIDDEN
    n, G = hidden.shape[0], stack.spec.output_dim // k
    inputs = _disc_inputs(stack, hidden, batch.y)
    trace = nn.forward(stack, inputs)
    # row i*k + j of the [n*k, G] logits is discriminator j on row i: their CE
    # is the mean of the k CEs, and k times its gradient is each one's own
    loss, d_logits, _ = nn.cross_entropy(trace.logits.reshape(n * k, G),
                                         np.repeat(batch.g, k), np.repeat(batch.weights, k))
    grads = nn.backward(stack, trace, k * d_logits.reshape(n, k * G))
    if k > 1:
        unit_block = np.arange(k * DISC_HIDDEN) // DISC_HIDDEN
        grads.d_weights[1] *= (np.arange(k * G) // G)[:, None] == unit_block
        if diff_lambda > 0:
            H = trace.post[0]
            off_block = np.where(unit_block[:, None] != unit_block, H.T @ H, 0.0)
            d_pre = (2.0 * diff_lambda * H @ off_block
                     * nn._act_grad(stack.spec.activation, H))
            grads.d_weights[0] += d_pre.T @ inputs
            grads.d_biases[0] += d_pre.sum(axis=0)
    return loss, grads.d_X[:, :hidden.shape[1]] / k, grads.flat


def adv_joint_step(main: nn.Network, main_opt: nn.OptimizerState,
                   stack: nn.Network, stack_opt: nn.OptimizerState,
                   batch: Batch, cfg: MethodConfig) -> float:
    """One joint update: main model gets CE plus the reversed adversarial
    gradient; the stack descends each discriminator's own CE (plus orthogonality)."""
    loss, grads, _, stack_grads = main_loss_and_grads(main, batch, cfg, discs=stack)
    nn.optimizer_step(main, grads, main_opt)
    nn.optimizer_step(stack, stack_grads, stack_opt)
    return loss


# ---------------------------------------------------------------------------
# The main-model objective for one batch (shared by training and the
# finite-difference gradient checks; discriminator parameters are frozen here)

def main_loss_and_grads(model: nn.Network, batch: Batch, cfg: MethodConfig,
                        discs: nn.Network | None = None
                        ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (scalar objective, its gradient in model.flat's layout,
    per-example CE, the discriminator stack's parameter gradient from
    adversarial_pass, None without discriminators)."""
    trace = nn.forward(model, batch.X)
    hidden, logits = trace.hidden, trace.logits
    if model.spec.group_heads:
        logits = own_head_logits(model, logits, batch.g)

    loss, d_logits, per_example = nn.cross_entropy(logits, batch.y, batch.weights)

    if cfg.eo_cla_lambda > 0:
        addition, scale = eo_cla_adjusted_loss(per_example, batch.y, batch.g,
                                               cfg.eo_cla_lambda)
        loss += addition
        unweighted = nn.softmax(logits)
        unweighted[np.arange(len(batch.y)), batch.y] -= 1.0
        d_logits = d_logits + scale[:, None] * unweighted

    # +0.0 plus each hidden term that runs, in order, as a zero array plus
    # the terms would be; each sum is written over the term's own fresh array
    hidden_extra = 0.0
    if cfg.fcl_lambda_y > 0 or cfg.fcl_lambda_g > 0:
        scl_loss, scl_grad = fairscl_loss(hidden, batch.y, batch.g,
                                          cfg.fcl_lambda_y, cfg.fcl_lambda_g,
                                          cfg.temperature)
        loss += scl_loss
        hidden_extra = np.add(hidden_extra, scl_grad, out=scl_grad)
        del scl_grad
    if cfg.adv_lambda > 0 and discs is None:
        raise ShapeError("adversarial method requires discriminators")
    disc_grads = None
    if discs is not None:  # the discriminators train even when adv_lambda is 0
        disc_loss, disc_hidden_grad, disc_grads = adversarial_pass(discs, hidden, batch,
                                                                   cfg.diff_lambda)
        if cfg.adv_lambda > 0:
            loss -= cfg.adv_lambda * disc_loss
            disc_hidden_grad *= -cfg.adv_lambda
            hidden_extra = np.add(hidden_extra, disc_hidden_grad, out=disc_hidden_grad)
        del disc_hidden_grad

    extra = None
    if np.any(hidden_extra):
        if model.n_layers < 2:
            raise ShapeError("hidden-level loss terms need at least one hidden layer")
        extra = {model.n_layers - 2: hidden_extra}
    del hidden_extra  # extra holds it alone, and backward lets go of it once added
    if model.spec.group_heads:  # the shared block and each row's own head's block
        rows, block = _own_head(model, batch.g)
        d_blocks = np.zeros((len(rows), 1 + model.spec.group_heads, model.spec.output_dim))
        d_blocks[:, 0] = d_blocks[rows, block] = d_logits
        d_logits = d_blocks.reshape(len(rows), -1)
    grads = nn.backward(model, trace, d_logits, extra_post_grads=extra, input_grad=False)
    return loss, grads.flat, per_example, disc_grads


# ---------------------------------------------------------------------------
# Checkpoints: one append-only store per run. A JSON header line holds the
# magic, the MlpSpec fields and n_params; one record of n_params
# little-endian float64 parameters follows per epoch, so record k is epoch k.

CHECKPOINT_MAGIC = "fairkit-ckpt-v3"
CHECKPOINT_HEADER_LIMIT = 1 << 16  # bytes a header line may take, newline included


def _checkpoint_header(spec: nn.MlpSpec) -> bytes:
    header = {"magic": CHECKPOINT_MAGIC, **asdict(spec), "n_params": spec.n_params}
    return (json.dumps(header) + "\n").encode()


def save_checkpoint(path, model: nn.Network, epoch: int):
    """Store model's parameters as record epoch of the store at path. Epoch
    0 starts the store afresh with its header; a later epoch appends its
    record, so no record already written is rewritten."""
    with open(path, "ab" if epoch else "wb") as f:
        if not epoch:
            f.write(_checkpoint_header(model.spec))
        f.write(model.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path, epoch: int) -> nn.Network:
    """The network of record epoch of the store at path.

    The header must be exactly the one save_checkpoint writes for the spec
    it names, and the file must hold all of record epoch. Anything else (a
    damaged header, an .npz of an earlier format, a torn or missing record)
    raises ParseErrorForCheckpoint, before any array of the header's size
    is allocated."""
    try:
        with open(path, "rb") as f:
            line = f.readline(CHECKPOINT_HEADER_LIMIT)
            h = json.loads(line)
            spec = nn.MlpSpec(int(h["input_dim"]), h["hidden_dims"], int(h["output_dim"]),
                              h["activation"], int(h["seed"]), int(h["group_heads"]))
            size = spec.n_params * 8
            offset = len(line) + epoch * size
            if (line != _checkpoint_header(spec) or epoch < 0
                    or os.fstat(f.fileno()).st_size < offset + size):
                raise ParseErrorForCheckpoint(path)
            f.seek(offset)
            # astype copies, so the network owns a writable buffer, not the record's bytes
            return nn.Network(spec, np.frombuffer(f.read(size), dtype="<f8").astype(float))
    # int() of an infinite float raises OverflowError, json.loads of a
    # deeply nested header RecursionError; a record cut short since fstat
    # makes Network raise ShapeError
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ShapeError) as e:
        raise ParseErrorForCheckpoint(path) from e


class ParseErrorForCheckpoint(IOErrorWithStage):
    def __init__(self, path):
        super().__init__(f"{path}: not a recognized checkpoint file")


# ---------------------------------------------------------------------------
# The training loop

@dataclass
class RunRecord:
    rows: list[dict] = field(default_factory=list)
    model: nn.Network | None = None
    fairbatch_probs: np.ndarray | None = None  # [C, G], FairBatch's last distribution


def predict(model: nn.Network, Xs: list[np.ndarray], gs: list[np.ndarray]) -> list[np.ndarray]:
    """Each row's class for each X of Xs, through the head of its group in
    the matching g of gs if the model has group heads. Every X goes through
    one nn.infer_many call."""
    return _classes(model, nn.infer_many(model, Xs), gs)


def _classes(model: nn.Network, logits: list[np.ndarray], gs: list[np.ndarray]
             ) -> list[np.ndarray]:
    """Each row's class for each array of logits, through the head of its
    group in the matching g of gs if the model has group heads."""
    predictions = []
    for z, g in zip(logits, gs, strict=True):
        if model.spec.group_heads:
            z = own_head_logits(model, z, g)
        predictions.append(z.argmax(axis=1))
    return predictions


def _json_finite(value) -> bool:
    """Whether value, a JSON-able row field, holds no NaN or infinity."""
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


def _append_row(epochs_file, row: dict, predictions: list[np.ndarray], dev_ds: Dataset,
                test_ds: Dataset, tail: dict | None = None) -> dict:
    """Add the dev and test scores of predictions (dev's, then test's), then
    tail, to row; append row to epochs_file unless it is None. Returns row."""
    for name, ds, pred in zip(("dev", "test"), (dev_ds, test_ds), predictions, strict=True):
        report = evaluate_predictions(pred, ds.y, ds.g, ds.num_classes, ds.num_groups)
        row[f"{name}_performance"] = report.performance
        row[f"{name}_fairness"] = report.fairness
    row.update(tail or {})
    if epochs_file is not None:
        try:
            line = json.dumps(row, allow_nan=False) + "\n"
        except ValueError:  # a non-finite value; the row is left unwritten
            key = next(k for k, v in row.items() if not _json_finite(v))
            where = f"epoch {row['epoch']}" if "epoch" in row else row["post"]
            raise TrainingDivergedError(f"non-finite {key} in the {where} row") from None
        with open(epochs_file, "a") as f:
            f.write(line)
    return row


def _shuffle_seed(seed: int, epoch: int) -> int:
    return seed * 1_000_003 + epoch


def train(train_ds: Dataset, dev_ds: Dataset, test_ds: Dataset, cfg: MethodConfig,
          run_dir=None) -> RunRecord:
    """Train one model; records per-epoch dev/test (performance, fairness)
    with epoch 0 being the untouched initialization. When run_dir is given,
    epochs.jsonl and the checkpoint store checkpoints.bin are written as
    training goes.

    Epoch k's dev and test logits are computed on a second thread while
    epoch k + 1 trains when nn.infer_many would run them in parallel
    (nn.LogitsOnWorker), else before it trains; the last epoch is scored
    after it. Either way the files are written in one order, record k, row
    k, record k + 1, and a stop leaves the same files: row k is written
    even when epoch k + 1 raises, and an error in scoring epoch k is raised
    before record k + 1, in place of what epoch k + 1 raised."""
    num_classes, num_groups = train_ds.num_classes, train_ds.num_groups
    model = nn.init_network(nn.MlpSpec(
        input_dim=train_ds.dim, hidden_dims=cfg.hidden_dims, output_dim=num_classes,
        activation=cfg.activation, seed=cfg.seed,
        group_heads=num_groups if METHODS[cfg.method].group_heads else 0))
    main_opt = nn.make_optimizer(model, kind=cfg.optimizer, lr=cfg.lr)

    if cfg.adversarial:
        discs = init_discriminators(cfg, model.hidden_dim, num_classes, num_groups)
        disc_opt = nn.make_optimizer(discs, kind=cfg.optimizer, lr=cfg.lr)

    record = RunRecord(model=model)
    fairbatch = "fairbatch_alpha" in METHODS[cfg.method].tradeoffs
    if fairbatch:  # start at each cell's share of the rows
        n_cells = num_classes * num_groups
        counts = np.bincount(train_ds.y * num_groups + train_ds.g, minlength=n_cells)
        record.fairbatch_probs = (counts / train_ds.n).reshape(num_classes, num_groups)
        cell_losses = np.full(n_cells, np.nan)  # each cell's latest mean loss

    epochs_file = ckpt = None
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        epochs_file = run_dir / "epochs.jsonl"
        epochs_file.write_text("")
        ckpt = str(run_dir / "checkpoints.bin")

    Xs, gs = [dev_ds.X, test_ds.X], [dev_ds.g, test_ds.g]

    def checkpoint(epoch: int):
        if run_dir is not None:
            save_checkpoint(ckpt, model, epoch)

    def score(epoch: int, predictions: list[np.ndarray]):
        record.rows.append(_append_row(epochs_file, {"epoch": epoch}, predictions,
                                       dev_ds, test_ds, tail={"checkpoint": ckpt}))

    def train_epoch(epoch: int):
        batches = make_batches(train_ds, min(cfg.batch_size, train_ds.n),
                               _shuffle_seed(cfg.seed, epoch), probs=record.fairbatch_probs)
        batch_losses, batch_cells = [], []  # FairBatch's per-row losses and cells
        for b_idx, batch in enumerate(batches):
            if cfg.adversarial:
                loss = adv_joint_step(model, main_opt, discs, disc_opt, batch, cfg)
            else:
                loss, grads, per_example, _ = main_loss_and_grads(model, batch, cfg)
                nn.optimizer_step(model, grads, main_opt)
                del grads  # not held through the next step's backward
                if fairbatch:
                    batch_losses.append(per_example)
                    batch_cells.append(batch.y * num_groups + batch.g)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}")
        if fairbatch and cfg.fairbatch_alpha > 0:
            # bincount adds the weights in row order, as a running sum per cell would
            cells = np.concatenate(batch_cells)
            sums = np.bincount(cells, weights=np.concatenate(batch_losses), minlength=n_cells)
            counts = np.bincount(cells, minlength=n_cells)
            np.divide(sums, counts, out=cell_losses, where=counts > 0)  # the rest carry over
            record.fairbatch_probs = fairbatch_epoch_update(
                record.fairbatch_probs, cell_losses.reshape(num_classes, num_groups),
                cfg.fairbatch_alpha)

    on_worker = nn.LogitsOnWorker(model, Xs)
    checkpoint(0)
    for epoch in range(1, cfg.epochs + 1):
        overlapped = on_worker.start()  # epoch - 1's logits
        if not overlapped:
            score(epoch - 1, predict(model, Xs, gs))
        try:
            train_epoch(epoch)
        finally:
            if overlapped:
                score(epoch - 1, _classes(model, on_worker.wait(), gs))
        checkpoint(epoch)
    del on_worker  # its arrays are not held while the last epoch is scored
    score(cfg.epochs, predict(model, Xs, gs))
    return record
