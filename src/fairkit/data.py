"""Datasets, file ingestion, synthetic biased data, balancing, and batching.

Balancing objectives (CLI names in parentheses):
  "g"     (BD)   equalize protected-group marginals
  "y"     (CB)   per class, downsample groups to the class minimum
  "joint" (JB)   equalize every (class, group) cell
  "eo"    (BTEO) per class, equalize group counts within the class

Each objective runs in Downsampling, Resampling, or Reweighting mode,
except "y" which is defined by downsampling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    EmptyCellError,
    LabelDomainError,
    ParseError,
    SchemaError,
    SpecError,
)

MODES = ("Resampling", "Reweighting", "Downsampling")
OBJECTIVES = ("g", "y", "joint", "eo")


@dataclass
class Batch:
    X: np.ndarray
    y: np.ndarray
    g: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Immutable vector dataset with target and protected labels."""

    X: np.ndarray
    y: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    split: str = "train"
    num_classes: int = 0
    num_groups: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        g = np.asarray(self.g, dtype=int)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "weights", w)
        n = X.shape[0]
        if n < 1:
            raise SpecError("dataset must have at least one instance")
        if y.shape != (n,) or g.shape != (n,) or w.shape != (n,):
            raise SpecError("X, y, g, weights lengths disagree")
        nc = self.num_classes or int(y.max()) + 1
        ng = self.num_groups or int(g.max()) + 1
        object.__setattr__(self, "num_classes", nc)
        object.__setattr__(self, "num_groups", ng)
        if y.min() < 0 or y.max() >= nc:
            raise LabelDomainError(f"class label outside [0, {nc})")
        if g.min() < 0 or g.max() >= ng:
            raise LabelDomainError(f"group label outside [0, {ng})")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise SpecError("weights must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def cell_indices(self) -> dict[tuple[int, int], np.ndarray]:
        out = {}
        for c in range(self.num_classes):
            for gr in range(self.num_groups):
                idx = np.flatnonzero((self.y == c) & (self.g == gr))
                if idx.size:
                    out[(c, gr)] = idx
        return out

    def cell_counts(self) -> dict[tuple[int, int], int]:
        return {k: v.size for k, v in self.cell_indices().items()}


def dataset_from_arrays(X, y, g, weights=None, split="train",
                        num_classes=0, num_groups=0) -> Dataset:
    X = np.asarray(X, dtype=float)
    if weights is None:
        weights = np.ones(X.shape[0])
    return Dataset(X=X, y=y, g=g, weights=weights, split=split,
                   num_classes=num_classes, num_groups=num_groups)


# ---------------------------------------------------------------------------
# File ingestion

def load_dataset(path, format: str, split: str = "train",
                 num_classes: int = 0, num_groups: int = 0) -> Dataset:
    """Load csv (header row, reserved columns y / protected_label) or jsonl
    (keys X, y, protected_label). Remaining numeric csv columns form X in
    file order. num_classes/num_groups are inferred as max index + 1 unless
    overridden."""
    path = Path(path)
    if format == "csv":
        rows_X, rows_y, rows_g = _read_csv(path)
    elif format == "jsonl":
        rows_X, rows_y, rows_g = _read_jsonl(path)
    else:
        raise ParseError(f"unknown format {format!r}")
    if len(rows_y) == 0:
        raise ParseError(f"{path}: empty file")
    X = np.asarray(rows_X, dtype=float)
    return dataset_from_arrays(X, rows_y, rows_g, split=split,
                               num_classes=num_classes, num_groups=num_groups)


def _read_csv(path: Path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for required in ("y", "protected_label"):
            if required not in header:
                raise SchemaError(f"{path}: missing column {required!r}")
        y_col = header.index("y")
        g_col = header.index("protected_label")
        x_cols = [i for i in range(len(header)) if i not in (y_col, g_col)]
        rows_X, rows_y, rows_g = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows_X.append([float(row[i]) for i in x_cols])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            try:
                rows_y.append(_int_label(row[y_col], "y"))
                rows_g.append(_int_label(row[g_col], "protected_label"))
            except LabelDomainError as e:
                raise LabelDomainError(f"{path}:{lineno}: {e}") from None
    return rows_X, rows_y, rows_g


def _read_jsonl(path: Path):
    """X, y and g of a JSONL file, parsed by one json.loads over its
    non-blank lines joined into an array. A file that does not give
    well-formed rows that way is read again line by line, which names the
    first bad line."""
    lines = path.read_text().split("\n")
    body = [s for s in map(str.strip, lines) if s]
    text = "[" + ",".join(body) + "]"
    # Every line opens with the only "{" it holds and closes with the only
    # "}", so each array element is exactly one line's object
    if (text.count("{") == text.count("}") == len(body)
            and all(s[0] == "{" and s[-1] == "}" for s in body)):
        try:
            objs = json.loads(text)
            X = np.array([o["X"] for o in objs])
            y = np.array([o["y"] for o in objs])
            g = np.array([o["protected_label"] for o in objs])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
        else:
            if (X.ndim == 2 and X.dtype.kind in "biuf" and y.ndim == g.ndim == 1
                    and y.dtype.kind in "iu" and g.dtype.kind in "iu"
                    and y.min() >= 0 and g.min() >= 0):
                return X.astype(float), y, g
    return _read_jsonl_lines(path, lines)


def _read_jsonl_lines(path: Path, lines: list[str]):
    """The line-by-line reading of _read_jsonl; raises for the first bad
    line, naming it as path:lineno."""
    rows_X, rows_y, rows_g = [], [], []
    arity = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            x, y, g = _jsonl_row(json.loads(line))
            if arity is None:
                arity = len(x)
            elif len(x) != arity:
                raise ParseError(f"X has {len(x)} values, expected {arity}")
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        except (SchemaError, ParseError, LabelDomainError) as e:
            raise type(e)(f"{path}:{lineno}: {e}") from None
        rows_X.append(x)
        rows_y.append(y)
        rows_g.append(g)
    return rows_X, rows_y, rows_g


def _jsonl_row(obj) -> tuple[list[float], int, int]:
    """(X, y, protected_label) of one decoded JSONL line."""
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("X", "y", "protected_label"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}")
    if not isinstance(obj["X"], list):
        raise ParseError(f"X must be a list of numbers, got {obj['X']!r}")
    try:
        x = [float(v) for v in obj["X"]]
    except (TypeError, ValueError):
        raise ParseError(f"X must be a list of numbers, got {obj['X']!r}") from None
    return x, _int_label(obj["y"], "y"), _int_label(obj["protected_label"], "protected_label")


def _int_label(value, name: str) -> int:
    try:
        iv = int(value)
        valid = iv == float(value) and iv >= 0
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise LabelDomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return iv


def save_jsonl(dataset: Dataset, path):
    with open(path, "w") as f:
        for i in range(dataset.n):
            f.write(json.dumps({
                "X": [float(v) for v in dataset.X[i]],
                "y": int(dataset.y[i]),
                "protected_label": int(dataset.g[i]),
            }) + "\n")


# ---------------------------------------------------------------------------
# Synthetic biased data

@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian cells: the class shifts axis 0, the group shifts axis 1
    (group_shift is the bias strength), everything else is noise."""

    n_per_cell: dict[tuple[int, int], int]
    d: int = 8
    class_separation: float = 1.0
    group_shift: float = 0.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        cells = {(int(c), int(g)): int(n) for (c, g), n in self.n_per_cell.items()}
        object.__setattr__(self, "n_per_cell", cells)
        classes = {c for c, _ in cells}
        groups = {g for _, g in cells}
        if len(classes) < 2 or len(groups) < 2:
            raise SpecError("need at least 2 classes and 2 groups")
        if any(n < 0 for n in cells.values()):
            raise SpecError("cell counts must be >= 0")
        for c in classes:
            if sum(cells.get((c, g), 0) for g in groups) == 0:
                raise SpecError(f"class {c} has no instances")
        for g in groups:
            if sum(cells.get((c, g), 0) for c in classes) == 0:
                raise SpecError(f"group {g} has no instances")
        if self.d < 2:
            raise SpecError("need d >= 2 (class axis and group axis)")
        if self.noise_sigma <= 0:
            raise SpecError("noise_sigma must be positive")

    @property
    def num_classes(self) -> int:
        return max(c for c, _ in self.n_per_cell) + 1

    @property
    def num_groups(self) -> int:
        return max(g for _, g in self.n_per_cell) + 1


def _axis_position(index: int, count: int) -> float:
    if count == 1:
        return 0.0
    return 2.0 * index / (count - 1) - 1.0


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Three splits with identical cell counts, drawn from derived seeds."""
    datasets = []
    for k, split in enumerate(("train", "dev", "test")):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, k)))
        xs, ys, gs = [], [], []
        for (c, g) in sorted(spec.n_per_cell):
            n = spec.n_per_cell[(c, g)]
            if n == 0:
                continue
            mean = np.zeros(spec.d)
            mean[0] = spec.class_separation * _axis_position(c, spec.num_classes)
            mean[1] = spec.group_shift * _axis_position(g, spec.num_groups)
            xs.append(mean + rng.normal(0.0, spec.noise_sigma, size=(n, spec.d)))
            ys.append(np.full(n, c))
            gs.append(np.full(n, g))
        datasets.append(dataset_from_arrays(
            np.vstack(xs), np.concatenate(ys), np.concatenate(gs), split=split,
            num_classes=spec.num_classes, num_groups=spec.num_groups))
    return tuple(datasets)


def synthetic_spec_from_dict(raw: dict) -> SyntheticSpec:
    raw = dict(raw)
    cells_raw = raw.pop("n_per_cell", None)
    if not cells_raw:
        raise SpecError("synthetic spec needs n_per_cell")
    if not isinstance(cells_raw, dict):
        raise SpecError(f"n_per_cell must map 'y,g' to a count, got {cells_raw!r}")
    cells = {}
    for key, count in cells_raw.items():
        try:
            c, g = key.split(",") if isinstance(key, str) else key
            cells[(int(c), int(g))] = int(count)
        except (TypeError, ValueError):
            raise SpecError(f"n_per_cell entry {key!r}: {count!r} is not an integer "
                            "'y,g' key with an integer count") from None
    known = {"d", "class_separation", "group_shift", "noise_sigma", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise SpecError(f"unknown synthetic spec keys: {sorted(unknown)}")
    return SyntheticSpec(n_per_cell=cells, **raw)


# ---------------------------------------------------------------------------
# Balancing

# The target count of every unit in a set of units that share one target
_TARGET = {
    "Downsampling": min,
    "Resampling": max,
    "Reweighting": lambda sizes: sum(sizes) / len(sizes),
}


def _unit_sets(objective: str, dataset: Dataset) -> list[list[tuple[str, np.ndarray]]]:
    """The sets of units that share one target, each unit as (name, row
    indices), in ascending unit order: all groups for "g", all cells for
    "joint", the cells of each class that has rows for "eo" and "y".
    Raises EmptyCellError for the first empty unit."""
    if objective == "g":
        sets = [[(f"group {gr}", np.flatnonzero(dataset.g == gr))
                 for gr in range(dataset.num_groups)]]
    else:
        sets = [[(f"cell (y={c}, g={gr})", np.flatnonzero((dataset.y == c) & (dataset.g == gr)))
                 for gr in range(dataset.num_groups)] for c in range(dataset.num_classes)]
        if objective == "joint":
            sets = [[unit for units in sets for unit in units]]
        else:
            sets = [units for units in sets if any(idx.size for _, idx in units)]
    for units in sets:
        for name, idx in units:
            if idx.size == 0:
                raise EmptyCellError(f"{name} is empty")
    return sets


def balance(dataset: Dataset, objective: str, mode: str, seed: int = 0) -> Dataset:
    """Apply one balancing objective in one mode; pure in (inputs, seed)."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if dataset.split != "train":
        raise ValueError("balance applies to the train split only")
    if objective == "y" and mode != "Downsampling":
        raise ValueError("the per-class majority-downsampling objective is downsampling-only")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1)))
    w = np.ones(dataset.n)
    keep = []
    for units in _unit_sets(objective, dataset):
        t = _TARGET[mode]([idx.size for _, idx in units])
        for _, idx in units:
            if mode == "Reweighting":
                w[idx] = t / idx.size
            elif mode == "Downsampling":
                keep.append(rng.choice(idx, size=t, replace=False) if t < idx.size else idx)
            else:  # Resampling: keep originals, add extras with replacement
                keep.append(idx)
                if t > idx.size:
                    keep.append(rng.choice(idx, size=t - idx.size, replace=True))
    if mode == "Reweighting":
        return replace(dataset, weights=w / w.mean())
    sel = np.concatenate(keep)
    sel.sort()
    return replace(dataset, X=dataset.X[sel], y=dataset.y[sel], g=dataset.g[sel],
                   weights=np.ones(sel.size))


# ---------------------------------------------------------------------------
# Batching

@dataclass(frozen=True)
class BatchPlan:
    batch_size: int
    shuffle_seed: int = 0
    group_sampling_probs: dict[tuple[int, int], float] | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.group_sampling_probs is not None:
            vals = np.array(list(self.group_sampling_probs.values()))
            if np.any(vals < 0) or abs(vals.sum() - 1.0) > 1e-9:
                raise ValueError("sampling probs must be nonnegative and sum to 1")


def make_batches(dataset: Dataset, plan: BatchPlan) -> list[Batch]:
    """Seeded permutation chunking, or cell-distribution sampling with
    replacement when group_sampling_probs is set (dynamic-batch mode)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(plan.shuffle_seed, 2)))
    n = dataset.n
    n_batches = -(-n // plan.batch_size)
    if plan.group_sampling_probs is None:
        if plan.batch_size > n:
            raise ValueError("batch_size exceeds dataset size")
        perm = rng.permutation(n)
        chunks = [perm[i * plan.batch_size:(i + 1) * plan.batch_size] for i in range(n_batches)]
    else:
        cells = sorted(plan.group_sampling_probs)
        probs = np.array([plan.group_sampling_probs[c] for c in cells])
        cell_idx = dataset.cell_indices()
        for cell, p in zip(cells, probs):
            if p > 0 and cell not in cell_idx:
                raise EmptyCellError(f"cell (y={cell[0]}, g={cell[1]}) has mass but no instances")
        # every cell's rows, end to end; a row drawn from cell k is
        # flat[starts[k] + rng.integers(sizes[k])]
        members = [cell_idx.get(cell, np.empty(0, dtype=int)) for cell in cells]
        flat = np.concatenate(members)
        sizes = np.array([idx.size for idx in members])
        starts = np.cumsum(sizes) - sizes
        chunks = []
        for _ in range(n_batches):
            which = rng.choice(len(cells), size=plan.batch_size, p=probs)
            chunks.append(flat[starts[which] + rng.integers(sizes[which])])
    return [Batch(X=dataset.X[ix], y=dataset.y[ix], g=dataset.g[ix],
                  weights=dataset.weights[ix]) for ix in chunks]
