"""Smoke run of the benchmark harness on tiny inputs, so that it cannot rot.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, workloads  # noqa: E402

TINY = {
    "sweep": workloads.Sweep(seeds=(0,), epochs=1, grid={
        "Standard": [()], "DAdv": workloads.SWEEP_GRID["DAdv"][:1],
        "FairBatch": workloads.SWEEP_GRID["FairBatch"][:1]}),
    "paper": workloads.Paper(rows_per_split=200, d=16, hidden=(8, 8), batch_size=32),
    "multigroup": workloads.Multigroup(major=12, minor=6, d=8, hidden=8, batch_size=32,
                                       epochs=1, seeds=(0,)),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def fresh_fairkit():
    """The harness re-imports fairkit; the modules other tests hold come back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "fairkit" or k.startswith("fairkit.")}
    yield
    for k in [k for k in sys.modules if k == "fairkit" or k.startswith("fairkit.")]:
        del sys.modules[k]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_harness_smoke(name, trace, tmp_path, fresh_fairkit):
    result, report, problems = run.measure(TINY[name], seed=3, seconds=0.0, trace=trace,
                                           work_root=tmp_path)
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_benchmark_json():
    assert set(workloads.WORKLOADS) == set(TINY) == {w["name"] for w in BENCHMARK["workloads"]}


class Rejected(workloads.Sweep):
    """A pass whose only call fairkit rejects."""

    def prepare(self, work_dir, seed):
        return []

    def ops(self, work_dir, pass_dir):
        return [workloads.train_op(pass_dir / "results", ["--method", "NoSuchMethod"],
                                   "NoSuchMethod", 1)]


def test_failed_call_is_counted(tmp_path, fresh_fairkit):
    result, _, problems = run.measure(Rejected(), seed=3, seconds=0.0, trace=False,
                                      work_root=tmp_path)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"] and problems
