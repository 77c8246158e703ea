"""Steadiness of the metrics: sets of runs of the same code.

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.json

Each of ``SETS`` sets runs ``perfbench/run.py --trace 0`` once per seed
(``RUNS`` seeds per set) and workload of BENCHMARK.json, one process at a
time, with ``run_seconds`` from BENCHMARK.json. For every end-to-end metric
it reports the median and quartiles per set (``statistics.quantiles(n=4)``),
the spread (q3 - q1) / median, and how far each set's median lies from the
first set's. Then ``TRACED`` ``--trace 1`` runs per workload record whether
the counts that must repeat exactly did so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import EXACT_COUNTS  # noqa: E402

SETS, RUNS, TRACED = 2, 10, 2


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    """Returns (result object, environment record) of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("# environment:"))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "environment": {}, "sets": []}
    for s in range(SETS):
        values = {w: {m: [] for m in bounds} for w in names}
        checks = {w: {"correct": True, "attempted": 0, "failed": 0} for w in names}
        started = time.strftime("%Y-%m-%dT%H:%M:%S")
        for seed in range(1 + s * RUNS, 1 + (s + 1) * RUNS):
            for w in names:
                out, record["environment"][w] = one_run(w, seed, bench["run_seconds"])
                checks[w]["correct"] &= out["correct"]
                checks[w]["attempted"] += out["attempted"]
                checks[w]["failed"] += out["failed"]
                for m in bounds:
                    values[w][m].append(out["metrics"][m]["value"])
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{m}={out['metrics'][m]['value']:.5g}" for m in bounds), flush=True)
        record["sets"].append({"started": started, "checks": checks, "metrics": {
            w: {m: summarize(v) for m, v in values[w].items()} for w in names}})

    record["traced"] = {}
    for w in names:
        outs = [one_run(w, seed, bench["run_seconds"], trace=1)[0]
                for seed in range(1, TRACED + 1)]
        record["traced"][w] = {
            "correct": all(o["correct"] for o in outs),
            "exact_counts_repeat": all(
                len({o["metrics"][m]["value"] for o in outs}) == 1 for m in EXACT_COUNTS),
            "metrics": {m: statistics.median(o["metrics"][m]["value"] for o in outs)
                        for m in outs[0]["metrics"]}}
        print(f"traced {w}: " + json.dumps(record["traced"][w]), flush=True)

    first = record["sets"][0]["metrics"]
    print(f"\n{'workload':11s} {'metric':17s} {'bound':>5s}  per set: median [q1, q3] spread"
          " drift-from-set-0")
    for w in names:
        for m, bound in bounds.items():
            cells = []
            for st in record["sets"]:
                r = st["metrics"][w][m]
                drift = r["median"] / first[w][m]["median"] - 1.0
                cells.append(f"{r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}] "
                             f"{r['spread']:.3f} {drift:+.3f}")
            print(f"{w:11s} {m:17s} {bound:5.2f}  " + " | ".join(cells))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
