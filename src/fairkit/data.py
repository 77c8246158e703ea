"""Datasets, file ingestion, synthetic biased data, balancing, and batching.

Balancing objectives (CLI names in parentheses):
  "g"     (BD)   equalize protected-group marginals
  "y"     (CB)   per class, downsample groups to the class minimum
  "joint" (JB)   equalize every (class, group) cell
  "eo"    (BTEO) per class, equalize group counts within the class

Each objective runs in Downsampling, Resampling, or Reweighting mode,
except "y" which is defined by downsampling. generate_synthetic draws dev
and test on two nn._Jobs while the calling thread draws train.
"""

from __future__ import annotations

import math
import numbers
import zipfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import nn
from .errors import (
    EmptyCellError,
    LabelDomainError,
    ParseError,
    SchemaError,
    ShapeError,
    SpecError,
)

MODES = ("Resampling", "Reweighting", "Downsampling")
OBJECTIVES = ("g", "y", "joint", "eo")


@dataclass
class Batch:
    """One training step's rows: their labels and weights, and X, the rows
    of features that rows selects (all of features when rows is None). X is
    gathered each time it is read, so the batches of an epoch hold no copy
    of its features; a step reads it once."""
    features: np.ndarray
    y: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    rows: np.ndarray | None = None

    @property
    def X(self) -> np.ndarray:
        return self.features if self.rows is None else self.features[self.rows]


@dataclass(frozen=True)
class Dataset:
    """Immutable vector dataset with target and protected labels; weights
    default to ones. Row i of the split has features X[i], or X[rows[i]]
    when rows is given: a balanced split keeps the loaded X and indexes it,
    so y, g, weights and n are the split's rows, and X is not copied."""

    X: np.ndarray
    y: np.ndarray
    g: np.ndarray
    weights: np.ndarray | None = None
    split: str = "train"
    num_classes: int = 0
    num_groups: int = 0
    rows: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        g = np.asarray(self.g, dtype=int)
        rows = None if self.rows is None else np.asarray(self.rows, dtype=np.intp)
        n = X.shape[0] if rows is None else rows.shape[0]
        w = np.ones(n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if n < 1:
            raise SpecError("dataset must have at least one instance")
        if y.shape != (n,) or g.shape != (n,) or w.shape != (n,):
            raise SpecError("X, y, g, weights lengths disagree")
        if rows is not None and (rows.min() < 0 or rows.max() >= X.shape[0]):
            raise SpecError(f"rows must index the {X.shape[0]} rows of X")
        nc = self.num_classes or int(y.max()) + 1
        ng = self.num_groups or int(g.max()) + 1
        for name, value in (("X", X), ("y", y), ("g", g), ("weights", w), ("rows", rows),
                            ("num_classes", nc), ("num_groups", ng)):
            object.__setattr__(self, name, value)
        if y.min() < 0 or y.max() >= nc:
            raise LabelDomainError(f"class label outside [0, {nc})")
        if g.min() < 0 or g.max() >= ng:
            raise LabelDomainError(f"group label outside [0, {ng})")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise SpecError("weights must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def rows_of_X(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m, y, g) of each row of X: how many rows of the split it is, and
        its labels, 0 for a row the split leaves out (m = 0)."""
        if self.rows is None:
            return np.ones(self.n, dtype=np.int64), self.y, self.g
        y, g = np.zeros(self.X.shape[0], dtype=int), np.zeros(self.X.shape[0], dtype=int)
        y[self.rows], g[self.rows] = self.y, self.g
        return np.bincount(self.rows, minlength=self.X.shape[0]), y, g


# ---------------------------------------------------------------------------
# File ingestion

def load_dataset(path, split: str = "train") -> Dataset:
    """The split of an .npz archive: X float or integer [n, d], y and
    protected_label integer [n]. num_classes/num_groups are inferred as max
    index + 1. Each member's .npy header is read first, and its shape times
    itemsize must equal the bytes the member holds, so no array is allocated
    at a size the data does not back."""
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            X, y, g = [_npz_member(path, archive, key) for key in _NPZ_KINDS]
    # besides BadZipFile, zipfile raises NotImplementedError for a zip version it
    # does not read, and UnicodeDecodeError for a member name flagged UTF-8 that is not
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError,
            UnicodeDecodeError) as e:
        raise ParseError(f"{path}: not a readable .npz archive: {e}") from None
    if X.ndim != 2:
        raise ParseError(f"{path}: X must be a 2-D array, got shape {X.shape}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: X row {bad[0]} holds a non-finite value")
    for key, a in (("y", y), ("protected_label", g)):
        if a.ndim != 1:
            raise ParseError(f"{path}: {key} must be a 1-D array, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() > np.iinfo(np.int64).max):
            raise LabelDomainError(f"{path}: {key} must hold integers in [0, 2**63), "
                                   f"got {a.min()} to {a.max()}")
    if not (X.shape[0] == y.size == g.size):
        raise ParseError(f"{path}: X, y and protected_label have {X.shape[0]}, {y.size} "
                         f"and {g.size} rows")
    if y.size == 0:
        raise ParseError(f"{path}: holds no rows")
    if X.shape[1] == 0:
        raise ParseError(f"{path}: X has no features")
    return Dataset(X, y, g, split=split)


def save_npz(dataset: Dataset, path):
    """The split as load_dataset reads it: X float64 [n, d], y and
    protected_label int64 [n], in an uncompressed archive. A balanced split
    (one with rows) is not saved."""
    if dataset.rows is not None:
        raise ValueError("a balanced split indexes its X; save the split it was drawn from")
    np.savez(path, X=dataset.X, y=dataset.y, protected_label=dataset.g)


# Each array's allowed dtype kinds, and their name; never bool, complex or object
_NPZ_KINDS = {"X": ("iuf", "float or integer"), "y": ("iu", "integer"),
              "protected_label": ("iu", "integer")}


def _npz_member(path: Path, archive: zipfile.ZipFile, key: str) -> np.ndarray:
    """The array of archive member key.npy, a read-only view of its bytes,
    read with numpy's public header reader and never unpickled."""
    try:
        info = archive.getinfo(f"{key}.npy")
    except KeyError:
        raise SchemaError(f"{path}: missing key {key!r}") from None
    # zipfile seeks to the member's declared offset and reads a stored member
    # in one call of its declared size, so both must lie inside the file
    if (info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED) or info.flag_bits & 1
            or not 0 <= info.header_offset <= path.stat().st_size - info.compress_size):
        raise ParseError(f"{path}: {key}: not a plain or deflated archive member")
    with archive.open(info) as f:
        try:
            # np.save writes a later version only for a header over 64 KiB,
            # which no array of an allowed dtype and at most 2-D needs
            version = np.lib.format.read_magic(f)
            if version != (1, 0):
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
        except ValueError as e:
            raise ParseError(f"{path}: {key}: not a .npy array: {e}") from None
        kinds, kind_name = _NPZ_KINDS[key]
        if dtype.kind not in kinds:
            raise ParseError(f"{path}: {key}: dtype {dtype} is not allowed, "
                             f"{key} must be {kind_name}")
        size = math.prod(shape) * dtype.itemsize
        held = info.file_size - f.tell()
        if size != held:
            raise ParseError(f"{path}: {key}: header declares shape {shape} of {dtype}, "
                             f"{size} bytes, but the member holds {held}")
        buf = f.read(size)
    if len(buf) != size:
        raise ParseError(f"{path}: {key}: member ends after {len(buf)} of {size} bytes")
    return np.frombuffer(buf, dtype=dtype).reshape(shape, order="F" if fortran_order else "C")


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
        # d >= 2: a class axis and a group axis
        for name, low in (("d", 2), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise SpecError(f"{name} must be an integer >= {low}, got {v!r}")
        for name in ("class_separation", "group_shift", "noise_sigma"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise SpecError(f"{name} must be a finite number, got {v!r}")
        cells = {(int(c), int(g)): int(n) for (c, g), n in self.n_per_cell.items()}
        object.__setattr__(self, "n_per_cell", cells)
        for c, g in cells:
            if c < 0 or g < 0:
                raise SpecError(f"n_per_cell key '{c},{g}': class and group must be >= 0")
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
    """Three splits with identical cell counts, drawn from derived seeds.
    Each cell's rows are drawn in place into its block of the split's X.

    The splits' streams are independent, so the calling thread draws train
    while two nn._Jobs draw dev and test, with the bytes of drawing one
    after another. The calling thread makes every array, mean and generator
    first, joins both jobs, and only then raises the first error of any
    draw, in split order. The jobs run _draw_split alone, which calls numpy
    only."""
    items = sorted(spec.n_per_cell.items())
    cells, start = [], 0  # (rows, mean) of each cell
    for (c, g), n in items:
        mean = np.zeros(spec.d)
        mean[0] = spec.class_separation * _axis_position(c, spec.num_classes)
        mean[1] = spec.group_shift * _axis_position(g, spec.num_groups)
        cells.append((slice(start, start + n), mean))
        start += n
    Xs = [np.empty((start, spec.d)) for _ in range(3)]
    draws = [(np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, k))), X, cells,
              spec.noise_sigma) for k, X in enumerate(Xs)]
    jobs = []
    try:
        for k in (1, 2):
            jobs.append(nn._Job(_draw_split, *draws[k], name=f"fairkit-generate-{k}"))
        _draw_split(*draws[0])
    finally:
        for job in jobs:
            job.join()
    for job in jobs:
        job.wait()
    sizes = [n for _, n in items]
    return tuple(Dataset(X, np.repeat([c for (c, _), _ in items], sizes),
                         np.repeat([g for (_, g), _ in items], sizes), split=split,
                         num_classes=spec.num_classes, num_groups=spec.num_groups)
                 for X, split in zip(Xs, ("train", "dev", "test")))


def _draw_split(rng, X: np.ndarray, cells: list, sigma: float):
    """Fill X in place with each cell's draws of rng.normal(mean, sigma), in
    cell order: one draw of the whole split gives the bytes of one draw per
    cell, as the stream runs on from one call to the next. This runs on a
    generation job's thread, so it makes no array of X's size and calls no
    public fairkit function."""
    rng.standard_normal(out=X)
    X *= sigma
    for rows, mean in cells:
        X[rows] += mean


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
    """Apply one balancing objective in one mode; pure in (inputs, seed).
    Reweighting sets weights; Downsampling and Resampling return the drawn
    rows, in row order, as an index into dataset.X (composed with
    dataset.rows if it has them), so no feature is copied."""
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
    return replace(dataset, y=dataset.y[sel], g=dataset.g[sel], weights=np.ones(sel.size),
                   rows=sel if dataset.rows is None else dataset.rows[sel])


# ---------------------------------------------------------------------------
# Batching

def make_batches(dataset: Dataset, batch_size: int, shuffle_seed: int = 0,
                 probs: np.ndarray | None = None) -> list[Batch]:
    """Seeded permutation chunking, or, when probs is a [C, G] table of cell
    probabilities (dynamic-batch mode), batches of cells drawn by probs and
    rows drawn uniformly with replacement within each cell. Each batch
    gathers its X rows when its step reads them."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(shuffle_seed, 2)))
    n = dataset.n
    n_batches = -(-n // batch_size)
    if probs is None:
        if batch_size > n:
            raise ValueError("batch_size exceeds dataset size")
        perm = rng.permutation(n)
        chunks = [perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)]
    else:
        C, G = dataset.num_classes, dataset.num_groups
        if np.shape(probs) != (C, G):
            raise ShapeError(f"probs has shape {np.shape(probs)}, expected {(C, G)}")
        p = np.asarray(probs, dtype=float).ravel()
        cell = dataset.y * G + dataset.g
        sizes = np.bincount(cell, minlength=C * G)
        empty = np.flatnonzero((p > 0) & (sizes == 0))
        if empty.size:
            c, gr = divmod(int(empty[0]), G)
            raise EmptyCellError(f"cell (y={c}, g={gr}) has mass but no instances")
        # every cell's rows in cell order, each cell's in row order; a row
        # drawn from cell k is flat[starts[k] + rng.integers(sizes[k])]
        flat = np.argsort(cell, kind="stable")
        starts = np.cumsum(sizes) - sizes
        chunks = []
        for _ in range(n_batches):
            which = rng.choice(p.size, size=batch_size, p=p)
            chunks.append(flat[starts[which] + rng.integers(sizes[which])])
    return [Batch(features=dataset.X, y=dataset.y[ix], g=dataset.g[ix],
                  weights=dataset.weights[ix],
                  rows=ix if dataset.rows is None else dataset.rows[ix]) for ix in chunks]
