"""Timers installed into fairkit from outside, for the untraced and the traced run.

Both replace module attributes with timing wrappers and put the originals
back when the pass ends. A function that a module brought in with
``from ... import`` is a second reference to the same object, so every layer
module that holds the object gets the wrapper; otherwise calls through that
name would silently go unrecorded.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("data", "nn", "training", "evaluation", "postproc", "analysis", "cli")

clock = time.perf_counter


class Patches:
    """Module attributes replaced by wrappers, restorable in one call."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, original, wrapper):
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def restore(self):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()


class StageTimers:
    """The untraced run's only timers besides whole ``cli.main`` calls:
    ``training.train`` and the two post-processing stages of the CLI."""

    def __init__(self):
        self.train_s = 0.0
        self.train_rows = 0
        self.postproc_s = 0.0

    def install(self, modules: dict) -> Patches:
        patches = Patches(modules)
        train = modules["training"].train

        def timed_train(train_ds, dev_ds, test_ds, cfg, *args, **kwargs):
            start = clock()
            try:
                return train(train_ds, dev_ds, test_ds, cfg, *args, **kwargs)
            finally:
                self.train_s += clock() - start
                self.train_rows += train_ds.n * cfg.epochs

        patches.wrap(train, timed_train)
        cli = modules["cli"]
        for stage in (cli.run_inlp_stage, cli.run_gate_soft_stage):
            patches.wrap(stage, self._timed_stage(stage))
        return patches

    def _timed_stage(self, stage):
        def timed(*args, **kwargs):
            start = clock()
            try:
                return stage(*args, **kwargs)
            finally:
                self.postproc_s += clock() - start
        return timed


# Numbers recorded at a span's boundary, from (args, kwargs, result).
COUNTERS = {
    "data.load_dataset": lambda a, k, r: r.n,
    "data.make_batches": lambda a, k, r: sum(len(b.y) for b in r),
    "nn.forward": lambda a, k, r: r.X.shape[0],
    "nn.backward": lambda a, k, r: r.d_X.shape[0],
    "training.train": lambda a, k, r: a[0].n * a[3].epochs,
    "training.save_checkpoint": lambda a, k, r: os.path.getsize(a[0]),
    "evaluation.evaluate_predictions": lambda a, k, r: len(a[1]),
    "analysis.load_runs": lambda a, k, r: (len(r[0]), sum(len(run["rows"]) for run in r[0])),
}

# Spans whose descendants are told apart, one bit each.
TRAIN, ADV_STEP, GATE_SOFT, SOFTMAX_HEAD, PREDICT = 1, 2, 4, 8, 16
TRACKED = {
    "training.train": TRAIN,
    "training.adv_joint_step": ADV_STEP,
    "postproc.gate_soft_search": GATE_SOFT,
    "postproc.fit_softmax_head": SOFTMAX_HEAD,
    "training.predict": PREDICT,
}


def public_functions(layer: str, mod) -> list[tuple[str, object]]:
    return [(f"{layer}.{name}", obj) for name, obj in list(vars(mod).items())
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(obj)]


class Recorder:
    """Spans at every public function boundary of the fairkit layers.

    A span is ``[name, start, end, parent index, count]``. Spans stay in
    memory until the pass ends; ``write`` puts them in a file."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, modules: dict) -> Patches:
        patches = Patches(modules)
        targets = [item for layer in LAYERS for item in public_functions(layer, modules[layer])]
        for name, fn in targets:
            patches.wrap(fn, self._wrapper(name, fn, COUNTERS.get(name)))
        return patches

    def _wrapper(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tcount\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{count}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of one pass. Self time is a span's duration minus
        the time its child spans cover."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        flags = [0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            bit = TRACKED.get(name, 0)
            if parent >= 0:
                child_s[parent] += end - start
                bit |= flags[parent]
            flags[i] = bit

        calls = defaultdict(int)
        total_s = defaultdict(float)
        counted = defaultdict(int)
        cli_self_s = step_self_s = eval_s = 0.0
        under = defaultdict(int)  # (name, bit) -> calls below a tracked span
        fwd_rows_train = fwd_rows_eval = runs_loaded = rows_loaded = 0
        for i, (name, start, end, parent, count) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total_s[name] += dur
            if isinstance(count, tuple):
                runs_loaded += count[0]
                rows_loaded += count[1]
            else:
                counted[name] += count
            f = flags[i]
            if name.startswith("cli."):
                cli_self_s += dur - child_s[i]
            elif (name.startswith("training.") and f & TRAIN
                  and name not in ("training.predict", "training.save_checkpoint")):
                step_self_s += dur - child_s[i]
            if parent >= 0 and spans[parent][0] == "training.train" and name in (
                    "training.predict", "evaluation.evaluate_predictions"):
                eval_s += dur
            for bit in (ADV_STEP, GATE_SOFT, SOFTMAX_HEAD):
                if f & bit:
                    under[name, bit] += 1
            if name == "nn.forward" and f & TRAIN:
                fwd_rows_train += count
                if f & PREDICT:
                    fwd_rows_eval += count

        adv_steps = calls["training.adv_joint_step"]
        searches = calls["postproc.gate_soft_search"]
        return {
            "data.load_s": total_s["data.load_dataset"],
            "data.load_rows": counted["data.load_dataset"],
            "data.generate_s": total_s["data.generate_synthetic"],
            "data.balance_s": total_s["data.balance"],
            "data.batch_s": total_s["data.make_batches"],
            "data.batch_rows": counted["data.make_batches"],
            "nn.forward_s": total_s["nn.forward"],
            "nn.forward_calls": calls["nn.forward"],
            "nn.forward_rows": counted["nn.forward"],
            "nn.backward_s": total_s["nn.backward"],
            "nn.backward_rows": counted["nn.backward"],
            "nn.optimizer_step_s": total_s["nn.optimizer_step"],
            "nn.optimizer_steps": calls["nn.optimizer_step"],
            "nn.loss_s": total_s["nn.cross_entropy"],
            "training.train_s": total_s["training.train"],
            "training.train_rows": counted["training.train"],
            "training.step_self_s": step_self_s,
            "training.forwards_per_adv_step":
                under["nn.forward", ADV_STEP] / adv_steps if adv_steps else 0.0,
            "training.eval_s": eval_s,
            "training.eval_rows": fwd_rows_eval,
            "training.eval_row_share": fwd_rows_eval / fwd_rows_train if fwd_rows_train else 0.0,
            "training.ckpt_s": total_s["training.save_checkpoint"],
            "training.ckpt_bytes": counted["training.save_checkpoint"],
            "training.ckpt_files": calls["training.save_checkpoint"],
            "training.ckpt_load_s": total_s["training.load_checkpoint"],
            "evaluation.report_s": total_s["evaluation.evaluate_predictions"],
            "evaluation.reports": calls["evaluation.evaluate_predictions"],
            "evaluation.rows": counted["evaluation.evaluate_predictions"],
            "postproc.inlp_s": total_s["postproc.inlp"],
            "postproc.probe_fits": calls["postproc.fit_linear_probe"],
            "postproc.probe_iters": under["nn.softmax", SOFTMAX_HEAD],
            "postproc.probe_s": total_s["postproc.fit_linear_probe"],
            "postproc.refit_s": total_s["postproc.apply_inlp_and_refit"],
            "postproc.gate_soft_s": total_s["postproc.gate_soft_search"],
            "postproc.gate_soft_points":
                under["evaluation.evaluate_predictions", GATE_SOFT] / searches if searches else 0.0,
            "postproc.gate_soft_forwards":
                under["nn.forward", GATE_SOFT] / searches if searches else 0.0,
            "analysis.load_s": total_s["analysis.load_runs"],
            "analysis.runs_loaded": runs_loaded,
            "analysis.rows_loaded": rows_loaded,
            "analysis.select_s": total_s["analysis.analyze_runs"] + total_s["analysis.emit_tradeoff_data"],
            "cli.config_s": total_s["cli.parse_config"],
            "cli.self_s": cli_self_s,
            "cli.runs": calls["cli.cmd_train"],
        }


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a Recorder wrapper adds to one call, measured on a no-op
    function: the median over ``repeats`` of ``calls`` wrapped calls less as
    many bare ones."""
    def noop(*args, **kwargs):
        return None

    recorder = Recorder()
    traced = recorder._wrapper("noop", noop, None)
    costs = []
    for _ in range(repeats):
        recorder.spans.clear()
        start = clock()
        for _ in range(calls):
            noop(1, key=2)
        bare_s = clock() - start
        start = clock()
        for _ in range(calls):
            traced(1, key=2)
        costs.append((clock() - start - bare_s) / calls)
    return statistics.median(costs)


# Counts per call of the span named after the metric.
PER_CALL = ("training.forwards_per_adv_step", "postproc.gate_soft_points",
            "postproc.gate_soft_forwards")

# Counts that must repeat exactly from pass to pass and from run to run.
EXACT_COUNTS = ("nn.forward_calls", "training.forwards_per_adv_step", "postproc.probe_iters",
                "postproc.gate_soft_forwards", "training.ckpt_bytes")
