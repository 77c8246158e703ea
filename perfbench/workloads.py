"""The benchmark's workloads: the inputs they write and the fairkit calls of one pass.

Every call goes through ``fairkit.cli.main`` in process. The workload seed
fixes the generated data; the model seeds of a pass are part of its protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Op:
    """One fairkit call. ``kind`` is "train", "analyze" or "generate", and
    ``out_dir`` is where it writes. A train call names the method its
    manifest should record, its epochs, the post stages its epochs.jsonl
    should end with and the number of groups."""

    kind: str
    argv: tuple[str, ...]
    out_dir: Path
    method: str = ""
    epochs: int = 0
    post: tuple[str, ...] = ()
    groups: int = 2


def train_op(results: Path, argv: list[str], method: str, epochs: int,
             post: tuple[str, ...] = (), groups: int = 2) -> Op:
    argv = (*argv, "--results_dir", str(results), "--epochs", str(epochs))
    return Op("train", argv, results, method, epochs, post, groups)


def write_spec(path: Path, cells: dict[tuple[int, int], int], d: int, seed: int,
               class_separation: float, group_shift: float) -> Path:
    spec = {"d": d, "class_separation": class_separation, "group_shift": group_shift,
            "noise_sigma": 1.0, "seed": seed,
            "n_per_cell": {f"{c},{g}": n for (c, g), n in sorted(cells.items())}}
    path.write_text(yaml.safe_dump(spec, sort_keys=True))
    return path


class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    name = ""

    def prepare(self, work_dir: Path, seed: int) -> list[Op]:
        """Writes the inputs that need no fairkit call; returns the fairkit
        calls of set-up (input generation and the warm-up run)."""
        raise NotImplementedError

    def ops(self, work_dir: Path, pass_dir: Path) -> list[Op]:
        """The fairkit calls of one pass; run trees go under ``pass_dir``."""
        raise NotImplementedError


# One 3-point grid per trade-off hyperparameter; Standard and Gate have none.
THREE_DISCRIMINATORS = ("--n_discriminators", "3")
SWEEP_GRID = {
    "Standard": [()],
    "Adv": [("--adv_lambda", v) for v in ("0.1", "1.0", "3.0")],
    "EAdv": [("--adv_lambda", v, *THREE_DISCRIMINATORS) for v in ("0.1", "1.0", "3.0")],
    "DAdv": [("--adv_lambda", v, "--diff_lambda", "0.1", *THREE_DISCRIMINATORS)
             for v in ("0.1", "1.0", "3.0")],
    "AAdv": [("--adv_lambda", v) for v in ("0.1", "1.0", "3.0")],
    "ADAdv": [("--adv_lambda", v, "--diff_lambda", "0.1", *THREE_DISCRIMINATORS)
              for v in ("0.1", "1.0", "3.0")],
    "Gate": [()],
    "FairBatch": [("--fairbatch_alpha", v) for v in ("0.01", "0.05", "0.1")],
    "FairSCL": [("--fcl_lambda_y", v, "--fcl_lambda_g", v) for v in ("0.01", "0.1", "1.0")],
    "EO_CLA": [("--eo_cla_lambda", v) for v in ("0.1", "0.5", "2.0")],
}
SWEEP_CRITERIA = (("DTO", "0.0"), ("ConstrainedFairness", "0.8"),
                  ("ConstrainedPerformance", "0.8"))


class Sweep(Workload):
    """The paper's method sweep at the CLI default scale, read from files
    written once by ``fairkit generate`` (the README flow), then
    ``fairkit analyze`` on the tree under each selection criterion. Only
    at-training-time methods run: see NOTES.md for why the tree holds no
    INLP or BT runs."""

    name = "sweep"

    def __init__(self, seeds=(0, 1), epochs=10, grid=SWEEP_GRID):
        self.seeds, self.epochs, self.grid = seeds, epochs, grid

    def _data_args(self, work_dir: Path) -> list[str]:
        return ["--dataset", "toy", "--data_dir", str(work_dir / "data"),
                "--num_classes", "2", "--num_groups", "2"]

    def prepare(self, work_dir, seed):
        data = work_dir / "data"
        generate = Op("generate", ("generate", "--out_dir", str(data), "--name", "toy",
                                   "--seed", str(seed)), data)
        warmup = train_op(work_dir / "warmup", self._data_args(work_dir) + ["--seed", "0"],
                          "Standard", self.epochs)
        return [generate, warmup]

    def ops(self, work_dir, pass_dir):
        results = pass_dir / "results"
        ops = []
        for method, points in self.grid.items():
            for point in points:
                for s in self.seeds:
                    ops.append(train_op(results, self._data_args(work_dir)
                                        + ["--method", method, *point, "--seed", str(s)],
                                        method, self.epochs))
        for criterion, threshold in SWEEP_CRITERIA:
            out = pass_dir / f"analysis-{criterion}"
            ops.append(Op("analyze", ("analyze", "--results_dir", str(results),
                                      "--output_dir", str(out),
                                      "--selection_criterion", criterion,
                                      "--threshold", threshold), out))
        return ops


class Paper(Workload):
    """Paper-like model scale, in-memory synthetic data: the Standard
    baseline, the README's BT+Adv+INLP pipeline and Gate with Gate-soft.
    The splits are smaller than the paper's so that a run holds several
    passes (see NOTES.md)."""

    name = "paper"
    EPOCHS = 2
    INLP_ITERATIONS = 1

    def __init__(self, rows_per_split=2_000, d=768, hidden=(300, 300), batch_size=1024):
        self.rows, self.d, self.hidden, self.batch_size = rows_per_split, d, hidden, batch_size

    def _cells(self, rows: int) -> dict[tuple[int, int], int]:
        major, minor = round(rows * 0.35), round(rows * 0.15)
        return {(0, 0): major, (0, 1): minor, (1, 0): minor, (1, 1): major}

    def _pipelines(self, spec: Path, results: Path, epochs: int) -> list[Op]:
        common = ["--dataset", "synthetic", "--synthetic_spec", str(spec),
                  "--hidden_dims", *map(str, self.hidden), "--batch_size", str(self.batch_size),
                  "--seed", "0"]
        # The Standard baseline makes three calls of clearly different cost, so
        # that the median call of a pass is one call, not the midpoint of two.
        return [
            train_op(results, common + ["--method", "Standard"], "Standard", epochs),
            train_op(results, common + ["--BT", "Resampling", "--BTObj", "EO", "--adv_debiasing",
                                        "--INLP", "--inlp_iterations", str(self.INLP_ITERATIONS)],
                     "Adv", epochs, ("INLP",)),
            train_op(results, common + ["--method", "Gate", "--gate_soft"], "Gate", epochs,
                     ("Gate-soft",)),
        ]

    def prepare(self, work_dir, seed):
        write_spec(work_dir / "spec.yaml", self._cells(self.rows), self.d, seed, 3.0, 2.0)
        small = write_spec(work_dir / "warmup_spec.yaml", self._cells(400), self.d, seed, 3.0, 2.0)
        return self._pipelines(small, work_dir / "warmup", 1)

    def ops(self, work_dir, pass_dir):
        return self._pipelines(work_dir / "spec.yaml", pass_dir / "results", self.EPOCHS)


class Multigroup(Workload):
    """An intersectional label space: 8 classes x 4 groups (32 cells)."""

    name = "multigroup"
    CLASSES, GROUPS = 8, 4
    PIPELINES = (
        (("--method", "Gate", "--gate_soft"), "Gate", ("Gate-soft",)),
        (("--method", "FairBatch", "--fairbatch_alpha", "0.01"), "FairBatch", ()),
        (("--method", "EO_CLA", "--eo_cla_lambda", "0.5"), "EO_CLA", ()),
        (("--BT", "Resampling", "--BTObj", "joint"), "Standard", ()),
        (("--method", "DAdv", "--adv_lambda", "1.0", "--diff_lambda", "0.1",
          *THREE_DISCRIMINATORS), "DAdv", ()),
    )

    def __init__(self, major=300, minor=110, d=64, hidden=64, batch_size=128, epochs=5,
                 seeds=(0,)):
        self.major, self.minor, self.d, self.hidden = major, minor, d, hidden
        self.batch_size, self.epochs, self.seeds = batch_size, epochs, seeds

    def _cells(self, major: int, minor: int) -> dict[tuple[int, int], int]:
        return {(c, g): major if g == c % self.GROUPS else minor
                for c in range(self.CLASSES) for g in range(self.GROUPS)}

    def _common(self, spec: Path) -> list[str]:
        return ["--dataset", "synthetic", "--synthetic_spec", str(spec),
                "--hidden_dims", str(self.hidden), "--batch_size", str(self.batch_size)]

    def prepare(self, work_dir, seed):
        write_spec(work_dir / "spec.yaml", self._cells(self.major, self.minor),
                   self.d, seed, 8.0, 2.0)
        small = write_spec(work_dir / "warmup_spec.yaml", self._cells(8, 4),
                           self.d, seed, 8.0, 2.0)
        flags, method, post = self.PIPELINES[0]
        return [train_op(work_dir / "warmup", self._common(small) + [*flags, "--seed", "0"],
                         method, 1, post, self.GROUPS)]

    def ops(self, work_dir, pass_dir):
        common = self._common(work_dir / "spec.yaml")
        return [train_op(pass_dir / "results", common + [*flags, "--seed", str(s)], method,
                         self.epochs, post, self.GROUPS)
                for flags, method, post in self.PIPELINES for s in self.seeds]


WORKLOADS = {w.name: w for w in (Sweep, Paper, Multigroup)}
