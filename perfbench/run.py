"""Benchmark for fairkit, run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

It imports fairkit from ``src/`` of the checkout, writes the workload's
inputs from ``--seed``, and repeats passes of the workload for about
``--seconds`` seconds, each pass a sequence of in-process ``fairkit.cli.main``
calls whose outputs are checked. The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics of a traced run, measured after an untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402  (no numpy import)

# One BLAS thread: on a host with few shared cores, a second thread makes
# every matrix product wait for the slower of two cores.
BLAS_THREADS = 1
P90_MIN_RUNS = 100  # a run needs this many train calls for >= 10 to lie beyond its p90
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "run_s_p50": "s",
                    "train_rows_per_s": "rows/s", "test_dto": "ratio", "peak_rss_mb": "MB"}
clock = time.perf_counter


@dataclass
class PassResult:
    wall_s: float
    run_s: list[float]
    train_s: float = 0.0
    train_rows: int = 0
    postproc_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    test_dto: float = math.nan
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None


def import_fairkit() -> dict:
    """Imports fairkit afresh, so each set-up repetition pays its import."""
    for name in [m for m in sys.modules if m == "fairkit" or m.startswith("fairkit.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"fairkit.{layer}") for layer in tracing.LAYERS}


def call(cli, op: workloads.Op) -> tuple[bool, str]:
    """One fairkit call; a non-zero exit or an escaped exception is a failure."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit):  # argparse exits on flags it rejects
        return False, out.getvalue() + traceback.format_exc()
    return rc == 0, out.getvalue() + ("" if rc == 0 else f"exit code {rc}")


def run_ops(modules: dict, ops: list[workloads.Op], timers) -> PassResult:
    """Runs the calls of one pass with ``timers`` installed, then checks
    every output outside the timed section."""
    cli = modules["cli"]
    result = PassResult(wall_s=0.0, run_s=[])
    made: list[Path | None] = []
    printed: list[str] = []
    patches = timers.install(modules) if timers is not None else None
    try:
        start = clock()
        for op in ops:
            before = set(os.listdir(op.out_dir)) if op.out_dir.is_dir() else set()
            t = clock()
            ok, output = call(cli, op)
            if op.kind == "train":
                result.run_s.append(clock() - t)
                new = set(os.listdir(op.out_dir)) - before if op.out_dir.is_dir() else set()
                made.append(op.out_dir / new.pop() if len(new) == 1 else None)
            printed.append(output)
            result.attempted += 1
            if not ok:
                result.failed += 1
                result.problems.append(f"{' '.join(op.argv)} failed: {output.strip()}")
        result.wall_s = clock() - start
    finally:
        if patches is not None:
            patches.restore()
    if isinstance(timers, tracing.StageTimers):
        result.train_s, result.train_rows = timers.train_s, timers.train_rows
        result.postproc_s = timers.postproc_s

    dtos = []
    runs_per_method: dict[str, int] = {}
    for op, run_dir in zip([o for o in ops if o.kind == "train"], made):
        runs_per_method[op.method] = runs_per_method.get(op.method, 0) + 1
        if run_dir is None:
            result.problems.append(f"{' '.join(op.argv)}: no new run directory")
            continue
        problems, test_dto = checks.check_run(run_dir, op)
        result.problems += problems
        dtos.append(test_dto)
    for op, output in zip(ops, printed):
        if op.kind == "analyze":
            result.problems += checks.check_analysis(op.out_dir, runs_per_method, output)
    if dtos:
        result.test_dto = statistics.fmean(dtos)
    return result


def identical(values: list[float]) -> bool:
    return len({repr(v) for v in values}) <= 1  # nan, from a failed call, equals nan


class SetUps:
    """The set-ups of one run. ``again`` makes a fresh one as a fresh process
    would: fairkit imported, inputs written in a fresh directory, warm-up
    calls made. The last one's modules and inputs serve the passes that
    follow. Every set-up's warm-up calls must give the same test DTO."""

    def __init__(self, workload: workloads.Workload, seed: int, work_root: Path):
        self.workload, self.seed, self.work_root = workload, seed, work_root
        self.samples: list[float] = []
        self.test_dtos: list[float] = []
        self.modules: dict = {}
        self.work_dir: Path | None = None

    def again(self):
        self.close()
        start = clock()
        self.modules = import_fairkit()
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-",
                                              dir=self.work_root))
        ops = self.workload.prepare(self.work_dir, self.seed)
        prepared_s = clock() - start
        result = run_ops(self.modules, ops, None)
        if result.problems:
            raise RuntimeError("set-up failed:\n" + "\n".join(result.problems))
        self.samples.append(prepared_s + result.wall_s)
        self.test_dtos.append(result.test_dto)

    def close(self):
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir)
            self.work_dir = None


def run_pass(workload, setups: SetUps, timers, spans_path: Path | None) -> PassResult:
    """One pass in a fresh directory, removed outside its timed section. A
    traced pass writes its spans to ``spans_path``."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=setups.work_dir))
    result = run_ops(setups.modules, workload.ops(setups.work_dir, pass_dir), timers)
    if isinstance(timers, tracing.Recorder):
        result.layers = timers.layer_metrics()
        result.layers["cli.failed"] = result.failed
        result.layers["trace.spans"] = len(timers.spans)
        timers.write(spans_path)
    shutil.rmtree(pass_dir)
    return result


def timed_rounds(workload, setups: SetUps, budget_s: float, timer_kinds: tuple,
                 spans_path: Path | None = None) -> list[list[PassResult]]:
    """Rounds of one pass per timer kind, each followed by a set-up, so
    that the set-up times of a run spread over all of it. Rounds run until
    the next one would end after ``budget_s``; at least one."""
    rounds, took = [], []
    start = clock()
    while True:
        t = clock()
        rounds.append([run_pass(workload, setups, make_timers(), spans_path)
                       for make_timers in timer_kinds])
        setups.again()
        took.append(clock() - t)
        if clock() - start + statistics.median(took) > budget_s:
            return rounds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            work_root: Path) -> tuple[dict, dict, list[str]]:
    """Set-ups, then timed passes. Returns (result object, sample report,
    problems found); temporary files go under ``work_root``.

    With ``trace``, one warm traced pass comes first, so that untraced and
    traced passes both run warm and every run has at least two traced passes
    whose counts must agree; its times enter only ``trace.overhead_s``. Then untraced and traced passes
    alternate, so that each traced pass is compared with an untraced pass
    next to it: the warm pass with the first untraced one, then each round's
    two."""
    import numpy  # noqa: F401  (its own import is not fairkit's set-up; paid once, untimed)

    work_root.mkdir(parents=True, exist_ok=True)
    spans_path = work_root / f"spans-{workload.name}.tsv"
    setups = SetUps(workload, seed, work_root)
    try:
        setups.again()
        if trace:
            span_cost_s = tracing.span_cost()
            warm = [run_pass(workload, setups, tracing.Recorder(), spans_path)]
            kinds = (tracing.StageTimers, tracing.Recorder)
        else:
            warm, kinds = [], (tracing.StageTimers,)
        rounds = timed_rounds(workload, setups, seconds, kinds, spans_path)
    finally:
        setups.close()
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds if len(r) > 1]
    passes = warm + plain + traced

    problems = [p for r in passes for p in r.problems]
    if not identical([r.test_dto for r in passes]):
        problems.append(f"test_dto differs between passes: {[r.test_dto for r in passes]}")
    if not identical(setups.test_dtos):
        problems.append(f"test_dto differs between set-ups: {setups.test_dtos}")
    run_s = [t for r in plain for t in r.run_s]
    report = {
        "passes": len(plain), "traced_passes": len(warm + traced),
        "runs_per_pass": len(plain[0].run_s), "run_samples": len(run_s),
        "setup_s_samples": setups.samples, "wall_s_samples": [r.wall_s for r in plain],
    }
    if trace:
        metrics = {}
        for name in traced[0].layers:
            if name in tracing.EXACT_COUNTS:
                values = [r.layers[name] for r in warm + traced]
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = statistics.median(r.layers[name] for r in traced)
        spans = metrics.pop("trace.spans")
        pairs = [(plain[0], warm[0])] + list(zip(plain, traced))
        metrics["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
        metrics["trace.overhead_est_s"] = span_cost_s * spans
        metrics["postproc_s"] = statistics.median(r.postproc_s for r in plain)
        metrics["run_s_p90"] = percentile(run_s, 90) if len(run_s) >= P90_MIN_RUNS else 0.0
        metrics["run_s_min"] = statistics.median(min(r.run_s) for r in plain)
        metrics["run_s_max"] = statistics.median(max(r.run_s) for r in plain)
        units = {}
    else:
        metrics = {
            "setup_s": statistics.median(setups.samples),
            "wall_s": statistics.median(r.wall_s for r in plain),
            "run_s_p50": statistics.median(run_s),
            "train_rows_per_s": statistics.median(r.train_rows / r.train_s if r.train_s else 0.0
                                                  for r in plain),
            "test_dto": plain[0].test_dto,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {name: {"value": value, "unit": units.get(name) or per_layer_unit(name)}
                    for name, value in metrics.items()},
    }, report, problems


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("run_s_"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    if name in tracing.PER_CALL:
        return "count/call"
    return "count"


def blas_threads_in_use() -> int | None:
    """OpenBLAS's own thread count, where numpy bundles a library that reports it."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_num_threads = getattr(lib, symbol)
                get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                return get_num_threads()
    return None


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": BLAS_THREADS, "blas_threads_reported": blas_threads_in_use()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fairkit" / "__init__.py").is_file():
        print(f"error: no fairkit sources under {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    result, report, problems = measure(workload, args.seed, args.seconds, bool(args.trace),
                                       ROOT / ".perfbench")
    print("# environment: " + json.dumps(environment()))
    print("# samples: " + json.dumps(report))
    for problem in problems:
        print(f"# problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"# {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
