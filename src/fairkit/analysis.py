"""Post-hoc model selection and result reporting.

Works over runs keyed by pipeline: a run's point is its last post-stage row,
else its best epoch on dev metrics. Picks the best hyperparameter index per
pipeline on seed-averaged dev metrics, aggregates test metrics across seeds
(mean, sample std, DTO of the means), and emits tables and trade-off plot data.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyInputError
from .evaluation import UTOPIA, dto

CRITERIA = ("DTO", "ConstrainedFairness", "ConstrainedPerformance")


@dataclass(frozen=True)
class SelectionCriterion:
    kind: str = "DTO"
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError(f"criterion kind must be one of {CRITERIA}")
        if not math.isfinite(self.threshold):  # DTO ignores it, but selection.json records it
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.kind != "DTO" and not (0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must lie in [0, 1]")


def _best_point(points: list[tuple[float, float]], criterion: SelectionCriterion) -> int:
    """Index of the best (performance, fairness) point; ties go to the
    earliest. Constrained kinds fall back to nearest-to-threshold when no
    point meets the threshold."""
    if not points:
        raise EmptyInputError("no candidate points")
    if criterion.kind == "DTO":
        scores = [dto(p) for p in points]
        return min(range(len(points)), key=lambda i: (scores[i], i))
    if criterion.kind == "ConstrainedFairness":
        constrained, free = 0, 1  # performance must meet the threshold; maximize fairness
    else:
        constrained, free = 1, 0  # fairness must meet the threshold; maximize performance
    feasible = [i for i, p in enumerate(points) if p[constrained] >= criterion.threshold]
    if feasible:
        return min(feasible, key=lambda i: (-points[i][free], i))
    return min(range(len(points)),
               key=lambda i: (criterion.threshold - points[i][constrained], i))


def select_row(rows: list[dict], criterion: SelectionCriterion) -> dict:
    """The row of one run's best epoch by its dev trajectory."""
    if not rows:
        raise EmptyInputError("run has no epochs")
    points = [(r["dev_performance"], r["dev_fairness"]) for r in rows]
    return rows[_best_point(points, criterion)]


def _run_point(run: dict, criterion: SelectionCriterion) -> dict:
    """The row that scores a run: its last post-stage row, else its best epoch."""
    return run["post"][-1] if run.get("post") else select_row(run["rows"], criterion)


def _index_key(index: dict) -> tuple:
    return tuple(sorted(index.items()))


def select_across_hyperparameters(runs: list[dict], criterion: SelectionCriterion) -> dict:
    """Pick one hyperparameter index from a pipeline's sweep.

    Each run dict needs: index (dict), seed, rows, and optionally post (its
    post-stage rows). Per index, each seed's point is chosen on dev; the
    criterion is applied to dev metrics averaged over seeds. Returns the
    chosen index plus per-seed test points at each run's point, naming its
    epoch or post stage. The runs share one index schema, as load_runs
    leaves the runs of each pipeline."""
    if not runs:
        raise EmptyInputError("no runs")
    by_index: dict[tuple, list[dict]] = {}
    for r in runs:
        by_index.setdefault(_index_key(r["index"]), []).append(r)

    index_keys = sorted(by_index)
    dev_means = []
    per_index_details = {}
    for key in index_keys:
        dev_pts, details = [], []
        for r in sorted(by_index[key], key=lambda r: r["seed"]):
            row = _run_point(r, criterion)
            dev_pts.append((row["dev_performance"], row["dev_fairness"]))
            stage = {k: row[k] for k in ("epoch", "post") if k in row}
            details.append({"seed": r["seed"], **stage,
                            "test_performance": row["test_performance"],
                            "test_fairness": row["test_fairness"],
                            "dev_performance": row["dev_performance"],
                            "dev_fairness": row["dev_fairness"]})
        dev_means.append((sum(p for p, _ in dev_pts) / len(dev_pts),
                          sum(f for _, f in dev_pts) / len(dev_pts)))
        per_index_details[key] = details
    chosen = index_keys[_best_point(dev_means, criterion)]
    return {
        "index": dict(chosen),
        "dev_mean": dev_means[index_keys.index(chosen)],
        "per_seed": per_index_details[chosen],
    }


def pareto_frontier(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Points not strictly dominated (another >= in both, > in one);
    duplicates kept once, sorted by performance ascending."""
    unique = sorted(set((p[0], p[1]) for p in points))
    out = []
    for p in unique:
        dominated = any(q[0] >= p[0] and q[1] >= p[1] and q != p for q in unique)
        if not dominated:
            out.append(p)
    return out


def aggregate_runs(per_seed_points: list[tuple[float, float]]) -> dict:
    """Mean, sample std (n-1; absent for a single seed), and DTO of the means."""
    if not per_seed_points:
        raise EmptyInputError("no per-seed results")
    n = len(per_seed_points)
    perf = [p for p, _ in per_seed_points]
    fair = [f for _, f in per_seed_points]
    mean_p, mean_f = sum(perf) / n, sum(fair) / n

    def sample_std(vals, mean):
        if n < 2:
            return None
        return math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))

    return {
        "performance_mean": mean_p,
        "performance_std": sample_std(perf, mean_p),
        "fairness_mean": mean_f,
        "fairness_std": sample_std(fair, mean_f),
        "dto": dto((mean_p, mean_f)),
        "n_seeds": n,
    }


def _fmt(mean: float, std: float | None) -> str:
    s = f"{100.0 * mean:.2f}"
    if std is not None:
        s += f" ± {100.0 * std:.2f}"
    return s


def emit_table(rows: dict[str, dict], format: str = "markdown") -> str:
    """One row per method (method -> aggregate_runs output), sorted; percent
    scale, two decimals; csv carries raw numeric columns."""
    if not rows:
        raise EmptyInputError("empty results table")
    methods = sorted(rows)
    if format == "csv":
        keys = ["performance_mean", "performance_std", "fairness_mean", "fairness_std", "dto"]
        lines = [",".join(["method", *keys])]
        for m in methods:
            values = [rows[m][key] for key in keys]
            lines.append(",".join([m] + ["" if v is None else f"{100.0 * v:.4f}" for v in values]))
        return "\n".join(lines) + "\n"
    cells = [["Method", "Performance", "Fairness", "DTO"]]
    for m in methods:
        r = rows[m]
        cells.append([m, _fmt(r["performance_mean"], r["performance_std"]),
                      _fmt(r["fairness_mean"], r["fairness_std"]), f"{100.0 * r['dto']:.2f}"])
    if format == "markdown":
        head, *body = ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join([head, "| --- | --- | --- | --- |", *body]) + "\n"
    if format == "latex":  # the name cell escapes LaTeX's special characters
        head, *body = [" & ".join([re.sub(r"([_&%#])", r"\\\1", row[0]), *row[1:]]) + r" \\"
                       for row in cells]
        lines = [r"\begin{tabular}{lccc}", r"\toprule", head, r"\midrule", *body,
                 r"\bottomrule", r"\end{tabular}"]
        return "\n".join(lines).replace("±", r"$\pm$") + "\n"
    raise ValueError(f"unknown table format {format!r}")


def emit_tradeoff_data(runs_by_pipeline: dict[str, list[dict]],
                       pareto_only: bool = False,
                       criterion: SelectionCriterion | None = None) -> dict:
    """Structured plot data: one named series per pipeline (sorted), each a
    parallel list of test performance/fairness at each run's point, plus the
    hyperparameter index, seed and epoch (null for a post-stage row) of
    every point."""
    criterion = criterion or SelectionCriterion()
    series = []
    for method in sorted(runs_by_pipeline):
        pts = []
        for r in sorted(runs_by_pipeline[method],
                        key=lambda r: (_index_key(r["index"]), r["seed"])):
            row = _run_point(r, criterion)
            pts.append({"performance": row["test_performance"],
                        "fairness": row["test_fairness"],
                        "index": r["index"], "seed": r["seed"], "epoch": row.get("epoch")})
        if pareto_only:
            frontier = set(pareto_frontier([(p["performance"], p["fairness"]) for p in pts]))
            pts = [p for p in pts if (p["performance"], p["fairness"]) in frontier]
        series.append({
            "method": method,
            "performance": [p["performance"] for p in pts],
            "fairness": [p["fairness"] for p in pts],
            "index": [p["index"] for p in pts],
            "seed": [p["seed"] for p in pts],
            "epoch": [p["epoch"] for p in pts],
        })
    return {"series": series, "pareto_only": pareto_only, "criterion": _criterion_json(criterion)}


def _criterion_json(criterion: SelectionCriterion) -> dict:
    return {"kind": criterion.kind, "threshold": criterion.threshold, "utopia": list(UTOPIA)}


# ---------------------------------------------------------------------------
# Run-directory ingestion

def load_runs(results_dir) -> tuple[list[dict], list[tuple[str, str]]]:
    """Scan a results tree for finalized runs; returns (runs, skipped), with
    (run directory, reason) for each run left out.

    A run directory holds opt.yaml, manifest.json (with finalized=true,
    method, index, seed and stages) and epochs.jsonl. A run is named by its
    method when its stages are that method alone (or absent), else by its
    stages joined with " / ". A run is skipped if it is unfinalized (also
    when it has no manifest.json yet), has no epoch rows, or either file
    cannot be read, does not parse or has a mistyped or non-finite field;
    every run of a pipeline whose runs disagree on the index keys is
    skipped too, so the runs of each pipeline share one index schema."""
    results_dir = Path(results_dir)
    runs, skipped = [], []
    if not results_dir.is_dir():
        return runs, skipped
    run_dirs = {p.parent for name in ("opt.yaml", "manifest.json")
                for p in results_dir.glob(f"*/{name}")}
    for run_dir in sorted(run_dirs):
        run, reason = _load_run(run_dir)
        if run is None:
            skipped.append((str(run_dir), reason))
        else:
            runs.append(run)
    for name, pipeline_runs in group_by_pipeline(runs).items():
        schemas = sorted({tuple(sorted(r["index"])) for r in pipeline_runs})
        if len(schemas) > 1:
            skipped += [(r["dir"], f"the runs of {name} disagree on index keys: {schemas}")
                        for r in pipeline_runs]
    mixed = {run_dir for run_dir, _ in skipped}
    return [r for r in runs if r["dir"] not in mixed], sorted(skipped)


def group_by_pipeline(runs: list[dict]) -> dict[str, list[dict]]:
    """The runs of each pipeline name, in the order given."""
    pipelines: dict[str, list[dict]] = {}
    for r in runs:
        pipelines.setdefault(r["method"], []).append(r)
    return pipelines


_SCORES = ("dev_performance", "dev_fairness", "test_performance", "test_fairness")


def _is_number(value) -> bool:
    # a finite JSON number; a bool is not one
    return type(value) in (int, float) and math.isfinite(value)


def _load_run(run_dir: Path) -> tuple[dict | None, str]:
    """One run, or None and the reason it is skipped."""
    if not (run_dir / "manifest.json").exists():
        return None, "unfinalized"
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    except OSError as e:
        return None, f"manifest.json cannot be read: {e}"
    except (ValueError, RecursionError) as e:  # a UnicodeDecodeError is a ValueError
        return None, f"manifest.json does not parse: {e}"
    if not isinstance(manifest, dict):
        return None, "manifest.json is not a JSON object"
    if not manifest.get("finalized"):
        return None, "unfinalized"
    missing = [key for key in ("method", "index", "seed") if key not in manifest]
    if missing:
        return None, f"manifest.json lacks {', '.join(missing)}"
    method, index, seed = manifest["method"], manifest["index"], manifest["seed"]
    stages = manifest.setdefault("stages", [f"at:{method}"])
    for key, kind, ok in (("method", "a string", type(method) is str),
                          ("index", "an object of numbers", type(index) is dict
                           and all(map(_is_number, index.values()))),
                          ("seed", "an integer", type(seed) is int),
                          ("stages", "a list of strings", type(stages) is list
                           and all(type(s) is str for s in stages))):
        if not ok:
            return None, f"manifest.json {key} is not {kind}: {manifest[key]!r}"
    rows, post = [], []
    epochs_path = run_dir / "epochs.jsonl"
    if epochs_path.exists():
        try:
            lines = epochs_path.read_text(encoding="utf-8").splitlines()
        except OSError as e:
            return None, f"epochs.jsonl cannot be read: {e}"
        except ValueError as e:  # UnicodeDecodeError
            return None, f"epochs.jsonl does not parse: {e}"
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as e:
                    return None, f"epochs.jsonl line {lineno} does not parse: {e}"
                if isinstance(row, dict) and ("epoch" in row or "post" in row):
                    bad = [key for key in _SCORES if not _is_number(row.get(key))]
                    if bad:
                        return None, f"epochs.jsonl line {lineno} has no numeric {', '.join(bad)}"
                    (rows if "epoch" in row else post).append(row)
    if not rows:
        return None, "no epoch rows"
    name = method if stages == [f"at:{method}"] else " / ".join(stages)
    return {"method": name, "index": index, "seed": seed, "rows": rows, "post": post,
            "dir": str(run_dir)}, ""


def analyze_runs(runs_by_pipeline: dict[str, list[dict]],
                 criterion: SelectionCriterion) -> tuple[dict[str, dict], dict]:
    """Per-pipeline sweep selection over group_by_pipeline's runs, cross-seed
    aggregation (the table's rows), and selection metadata."""
    if not runs_by_pipeline:
        raise EmptyInputError("no finalized runs to analyze")
    rows, selection = {}, {}
    for method in sorted(runs_by_pipeline):
        chosen = select_across_hyperparameters(runs_by_pipeline[method], criterion)
        pts = [(d["test_performance"], d["test_fairness"]) for d in chosen["per_seed"]]
        rows[method] = aggregate_runs(pts)
        selection[method] = {"index": chosen["index"],
                             "per_seed": chosen["per_seed"]}
    return rows, {"selection": selection, "criterion": _criterion_json(criterion)}
