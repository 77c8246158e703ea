"""Output checks, read from the files each fairkit call leaves behind.

The selected point and its test DTO are computed here from ``epochs.jsonl``,
not through ``fairkit.analysis``, so that a fault in ``analysis`` cannot
hide itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from perfbench.workloads import Op

SCORES = ("dev_performance", "dev_fairness", "test_performance", "test_fairness")


def dto(performance: float, fairness: float) -> float:
    return math.hypot(1.0 - performance, 1.0 - fairness)


def check_run(run_dir: Path, op: Op) -> tuple[list[str], float]:
    """Checks the run directory of one train call; returns (problems, test
    DTO at the selected point). The selected point is the post-stage row
    when there is one, else the dev-DTO-best epoch, the earliest on ties.

    Performance lies in [0, 1]. Fairness is 1 - GAP, where GAP sums the
    absolute deviations of all groups of a class, so with G groups it lies
    in [2 - G, 1]: [0, 1] for two groups, [-2, 1] for four."""
    problems = []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("finalized") is not True:
        problems.append(f"{run_dir.name}: manifest not finalized")
    if manifest.get("method") != op.method:
        problems.append(f"{run_dir.name}: method {manifest.get('method')!r}, "
                        f"expected {op.method!r}")
    rows = [json.loads(line) for line in (run_dir / "epochs.jsonl").read_text().splitlines()
            if line.strip()]
    epoch_rows = [r for r in rows if "epoch" in r]
    post_rows = [r for r in rows if "post" in r]
    if [r["epoch"] for r in epoch_rows] != list(range(op.epochs + 1)):
        problems.append(f"{run_dir.name}: expected epochs 0..{op.epochs}, "
                        f"found {[r['epoch'] for r in epoch_rows]}")
    if tuple(r["post"] for r in post_rows) != op.post:
        problems.append(f"{run_dir.name}: expected post rows {op.post}, "
                        f"found {[r['post'] for r in post_rows]}")
    if rows != epoch_rows + post_rows:
        problems.append(f"{run_dir.name}: rows out of order or neither epoch nor post rows")
    for row in rows:
        for key in SCORES:
            low = 2.0 - op.groups if key.endswith("fairness") else 0.0
            value = row.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value) \
                    or not low <= value <= 1.0:
                problems.append(f"{run_dir.name}: {key}={value!r} is not a finite value "
                                f"in [{low:g}, 1]")
    if problems or not epoch_rows:
        return problems, math.nan
    if post_rows:
        chosen = post_rows[-1]
    else:
        chosen = min(enumerate(epoch_rows),
                     key=lambda ir: (dto(ir[1]["dev_performance"], ir[1]["dev_fairness"]), ir[0]))[1]
    return problems, dto(chosen["test_performance"], chosen["test_fairness"])


def check_analysis(out_dir: Path, runs_per_method: dict[str, int], printed: str) -> list[str]:
    """Checks the files and the table one ``fairkit analyze`` call produced."""
    problems = []
    for name in ("results_table.md", "results_table.tex", "results_table.csv",
                 "tradeoff.json", "selection.json"):
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"analyze: {name} missing or empty")
    if problems:
        return problems
    selected = set(json.loads((out_dir / "selection.json").read_text())["selection"])
    if selected != set(runs_per_method):
        problems.append(f"analyze: selection covers {sorted(selected)}, "
                        f"expected {sorted(runs_per_method)}")
    series = json.loads((out_dir / "tradeoff.json").read_text())["series"]
    points = {s["method"]: len(s["performance"]) for s in series}
    if points != runs_per_method:
        problems.append(f"analyze: trade-off points per method {points}, expected {runs_per_method}")
    missing = [m for m in runs_per_method if f"| {m} |" not in printed]
    if missing:
        problems.append(f"analyze: printed table lacks {missing}")
    return problems
