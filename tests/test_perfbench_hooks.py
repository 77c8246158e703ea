"""Every fairkit function that perfbench/tracing.py hooks by name exists,
and each of its counters reads a real return value.

The tracer wraps functions by looking them up as ``layer.function``; after a
rename the lookup finds nothing and the per-layer metric it feeds reads 0
instead of failing, so this test reads tracing.py's source and checks each
name against the package's public functions. A counter that reads a field
its function no longer returns would crash a traced run, so each counter is
also called on what its function returns."""

import ast
import functools
import importlib
import importlib.util
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import yaml

from fairkit import analysis, cli, data, evaluation, nn, postproc, training
from test_training import overlap_job_spy

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SOURCES = ROOT / "src" / "fairkit"


def public_functions(source_dir: Path) -> set[str]:
    """layer.name of each public top-level function of each module that is
    not a generator (the tracer wraps no generator)."""
    names = set()
    for path in source_dir.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and not any(isinstance(n, (ast.Yield, ast.YieldFrom))
                                for n in ast.walk(node))):
                names.add(f"{path.stem}.{node.name}")
    return names


def _dict_keys(tree: ast.Module, name: str) -> list[str]:
    """The string keys of the top-level dict literal assigned to name."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == [name] and isinstance(node.value, ast.Dict):
            return [k.value for k in node.value.keys]
    raise AssertionError(f"no dict literal named {name}")


def _layer_of(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The layer that node names: modules["layer"], or a name bound to it."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "modules" and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def stage_functions(tree: ast.Module) -> list[str]:
    """layer.name of each attribute StageTimers reads off a layer module."""
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "StageTimers"]
    aliases = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            layer = _layer_of(node.value, {})
            if layer and isinstance(node.targets[0], ast.Name):
                aliases[node.targets[0].id] = layer
    return [f"{layer}.{node.attr}" for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and (layer := _layer_of(node.value, aliases)) is not None]


def hooked_names(source: str) -> dict[str, list[str]]:
    tree = ast.parse(source)
    return {"COUNTERS": _dict_keys(tree, "COUNTERS"), "TRACKED": _dict_keys(tree, "TRACKED"),
            "StageTimers": stage_functions(tree)}


def test_every_hooked_name_is_a_public_function():
    public = public_functions(SOURCES)
    hooked = hooked_names(TRACING.read_text())
    assert "training.train" in hooked["StageTimers"]
    assert all(hooked.values()), hooked
    missing = {where: [n for n in names if n not in public] for where, names in hooked.items()}
    assert missing == {"COUNTERS": [], "TRACKED": [], "StageTimers": []}


def test_renamed_function_is_caught(tmp_path):
    for name, body in (("training", "def train():\n    pass\n\ndef _forward():\n    pass\n"),
                       ("data", "def make_batches():\n    yield 1\n")):
        (tmp_path / f"{name}.py").write_text(body)
    source = ('COUNTERS = {"training.train": None, "data.make_batches": None}\n'
              'TRACKED = {"training._forward": 1}\n'
              'class StageTimers:\n'
              '    def install(self, modules):\n'
              '        train = modules["training"].train\n'
              '        cli = modules["cli"]\n'
              '        return cli.run_stage\n')
    hooked = hooked_names(source)
    assert hooked["StageTimers"] == ["training.train", "cli.run_stage"]
    public = public_functions(tmp_path)
    assert public == {"training.train"}
    assert [n for names in hooked.values() for n in names if n not in public] == [
        "data.make_batches", "training._forward", "cli.run_stage"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_counter_reads_its_function_result(tmp_path):
    train_ds, dev_ds, test_ds = data.generate_synthetic(data.SyntheticSpec(
        n_per_cell={(c, g): 10 for c in range(2) for g in range(2)}, d=4, seed=0))
    split_file = tmp_path / "toy_train.npz"
    data.save_npz(train_ds, split_file)
    cfg = training.MethodConfig(epochs=1, hidden_dims=(3,))
    net = nn.init_network(nn.MlpSpec(4, (3,), 2))
    trace = nn.forward(net, train_ds.X)
    results = tmp_path / "results"
    assert cli.main(["--results_dir", str(results), "--epochs", "1"]) == 0
    n = train_ds.n
    # (counter, function, args, kwargs, the count it should record)
    calls = [
        ("data.load_dataset", data.load_dataset, (split_file,), {"split": "train"}, n),
        ("data.make_batches", data.make_batches, (train_ds, 16, 0), {}, n),
        ("nn.forward", nn.forward, (net, train_ds.X), {}, n),
        ("nn.backward", nn.backward, (net, trace, np.ones_like(trace.logits)), {}, n),
        ("nn.backward", nn.backward, (net, trace, np.ones_like(trace.logits)),
         {"input_grad": False}, n),
        ("training.train", training.train, (train_ds, dev_ds, test_ds, cfg), {}, n),
        ("training.save_checkpoint", training.save_checkpoint,
         (tmp_path / "checkpoints.bin", net, 0), {},
         lambda: (tmp_path / "checkpoints.bin").stat().st_size),
        ("evaluation.evaluate_predictions", evaluation.evaluate_predictions,
         (train_ds.y, train_ds.y, train_ds.g, 2, 2), {}, n),
        ("analysis.load_runs", analysis.load_runs, (results,), {}, (1, 2)),
    ]
    counters = load_tracing().COUNTERS
    assert {name for name, *_ in calls} == set(counters)
    for name, function, args, kwargs, expected in calls:
        result = function(*args, **kwargs)
        count = counters[name](args, kwargs, result)
        assert count == (expected() if callable(expected) else expected), name


def test_a_balanced_split_is_counted_by_its_balanced_rows():
    """Dataset.n of a balanced split is its balanced row count, not the rows
    of the X it indexes, so training.train_rows, data.batch_rows and
    train_rows_per_s count the rows training reads."""
    train_ds, dev_ds, test_ds = data.generate_synthetic(data.SyntheticSpec(
        n_per_cell={(0, 0): 30, (0, 1): 10, (1, 0): 10, (1, 1): 30}, d=4, seed=0))
    counters = load_tracing().COUNTERS
    for mode in ("Resampling", "Downsampling"):
        out = data.balance(train_ds, "eo", mode, seed=0)
        assert out.n == out.rows.size == {"Resampling": 120, "Downsampling": 40}[mode]
        assert out.X.shape[0] == train_ds.n == 80
        args = (out, 16, 0)
        assert counters["data.make_batches"](args, {}, data.make_batches(*args)) == out.n
        cfg = training.MethodConfig(epochs=2, hidden_dims=(3,))
        assert counters["training.train"]((out, dev_ds, test_ds, cfg), {}, None) == 2 * out.n


def test_probe_iters_counts_the_softmax_head_steps(tmp_path):
    """postproc.probe_iters of a traced --INLP run equals the nn.softmax
    calls made inside fit_softmax_head, one per step of the probe and refit
    solver. The spies wrap the tracer's wrappers, so both see every call."""
    tracing = load_tracing()
    modules = {layer: importlib.import_module(f"fairkit.{layer}") for layer in tracing.LAYERS}
    recorder = tracing.Recorder()
    patches = recorder.install(modules)
    softmax, fit = nn.softmax, postproc.fit_softmax_head
    steps, depth = [], []

    def counted_softmax(logits):
        if depth:
            steps.append(1)
        return softmax(logits)

    def entered_fit(*args, **kwargs):
        depth.append(1)
        try:
            return fit(*args, **kwargs)
        finally:
            depth.pop()

    try:
        with mock.patch.object(nn, "softmax", counted_softmax), \
                mock.patch.object(postproc, "fit_softmax_head", entered_fit):
            assert cli.main(["--INLP", "--inlp_iterations", "2", "--epochs", "1",
                             "--results_dir", str(tmp_path / "results")]) == 0
    finally:
        patches.restore()
    probe_iters = recorder.layer_metrics()["postproc.probe_iters"]
    assert probe_iters > 0 and probe_iters == len(steps)


def test_every_traced_call_runs_on_the_main_thread(tmp_path):
    """nn.infer_many and nn.LogitsOnWorker run inputs on a thread of their
    own above PARALLEL_MIN_WORK, and data.generate_synthetic draws dev and test
    on two threads of its own; the tracer keeps one span stack for all
    threads, so no public function may run there. Wraps every function the
    tracer wraps during a Gate + Gate-soft run and a BT + Adv + INLP run
    whose scoring is above it, both on synthetic data."""
    tracing = load_tracing()
    modules = {layer: importlib.import_module(f"fairkit.{layer}") for layer in tracing.LAYERS}
    calls = []

    def on_thread(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return recorded

    worker_threads, overlap_threads, draw_threads = [], [], []
    score_blocks, draw = nn._score_blocks, data._draw_split

    def worker_spy(*args):
        worker_threads.append(threading.current_thread())
        return score_blocks(*args)

    def draw_spy(*args):
        draw_threads.append(threading.current_thread())
        draw(*args)

    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"d": 256, "seed": 0, "group_shift": 2.0,
                                    "n_per_cell": {"0,0": 140, "0,1": 60, "1,0": 60,
                                                   "1,1": 140}}))
    assert 400 * nn.MlpSpec(256, (64,), 2).n_params >= nn.PARALLEL_MIN_WORK
    patches = tracing.Patches(modules)
    for layer in tracing.LAYERS:
        for name, fn in tracing.public_functions(layer, modules[layer]):
            patches.wrap(fn, on_thread(name, fn))
    try:
        with mock.patch.object(nn, "_score_blocks", worker_spy), \
                mock.patch.object(nn, "_Job", overlap_job_spy(overlap_threads)), \
                mock.patch.object(data, "_draw_split", draw_spy):
            for flags in (["--method", "Gate", "--gate_soft"],
                          ["--BT", "Resampling", "--BTObj", "EO", "--adv_debiasing",
                           "--INLP", "--inlp_iterations", "1"]):
                assert cli.main(["--synthetic_spec", str(spec), "--hidden_dims", "64",
                                 "--epochs", "2", "--results_dir", str(tmp_path / "results"),
                                 *flags]) == 0
    finally:
        patches.restore()
    assert {"nn.infer_many", "training.predict"} <= {name for name, _ in calls}
    assert [name for name, t in calls if t is not threading.main_thread()] == []
    # each run drew train on the main thread, dev and test on two others
    assert len(draw_threads) == 6 and draw_threads.count(threading.main_thread()) == 2
    if nn._cpus() > 1:  # some scoring did run on the worker
        assert set(worker_threads) - {threading.main_thread()}
        # epochs 0 and 1 of both runs were scored while the next epoch trained
        assert len(overlap_threads) == 4 and threading.main_thread() not in overlap_threads
