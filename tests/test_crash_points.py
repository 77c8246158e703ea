"""A run directory is finalized and complete, or visibly unfinalized, at
every point where `fairkit train` can be stopped while it writes.

Every write() on a file opened for writing under the results tree and every
os.replace is a crash point, enumerated in the order a run makes them (as
ALICE does; Pillai et al., OSDI 2014). At crash point k the write puts half
of its data on disk and raises Crash, a BaseException that nothing in
fairkit catches; later writes and renames raise Crash too, as in a stopped
process. For each k three things must hold:

- `fairkit analyze` exits 5 and names the run `unfinalized`;
- a re-run of the same config exits 0;
- the re-run's epochs.jsonl rows, less their checkpoint path, equal those of
  a run that was never stopped.

The simulated stop still runs write_atomic's cleanup, which a killed process
would not, so one pipeline also leaves a stray manifest.json.tmp behind, and
the re-run's manifest must list exactly the files on disk.
"""

import builtins
import io
import json
import os
from pathlib import Path

import pytest
import yaml

from fairkit import cli


class Crash(BaseException):
    pass


class CrashPoints:
    """Counts the crash points of the writes under root; stops at point
    crash_at (never when it is None)."""

    def __init__(self, root: Path, crash_at: int | None):
        self.root, self.crash_at = str(root), crash_at
        self.count = 0
        self.stopped = False

    def _point(self) -> bool:
        """True at the crash point; raises Crash past it."""
        if self.stopped:
            raise Crash()
        self.count += 1
        self.stopped = self.count == self.crash_at
        return self.stopped

    def install(self, monkeypatch):
        real_open, real_replace = builtins.open, os.replace
        points = self

        class File:
            def __init__(self, f):
                self._f = f

            def __getattr__(self, name):
                return getattr(self._f, name)

            def __enter__(self):
                self._f.__enter__()
                return self

            def __exit__(self, *exc):
                return self._f.__exit__(*exc)

            def write(self, data):
                if points._point():
                    self._f.write(data[:len(data) // 2])
                    raise Crash()
                return self._f.write(data)

        def crashing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            writes = any(c in mode for c in "wax+")
            return File(f) if writes and str(file).startswith(points.root) else f

        def crashing_replace(src, dst, *args, **kwargs):
            if str(dst).startswith(points.root) and points._point():
                raise Crash()
            return real_replace(src, dst, *args, **kwargs)

        for module in (builtins, io):
            monkeypatch.setattr(module, "open", crashing_open)
        monkeypatch.setattr(os, "replace", crashing_replace)


def _spec(path: Path, d: int, per_cell: int) -> Path:
    path.write_text(yaml.safe_dump({
        "d": d, "class_separation": 2.0, "group_shift": 2.0, "noise_sigma": 1.0, "seed": 0,
        "n_per_cell": {f"{c},{g}": per_cell * (2 if c == g else 1)
                       for c in range(2) for g in range(2)}}))
    return path


# name -> (d, rows in a minority cell, hidden width, flags, whether a stray
# manifest.json.tmp is left beside each stopped run)
PIPELINES = {
    "Standard": (4, 10, 8, ["--method", "Standard"], True),
    "Gate + Gate-soft + INLP": (4, 10, 8, ["--method", "Gate", "--gate_soft", "--INLP",
                                           "--inlp_iterations", "2"], False),
    "BT-EO-Reweighting + DAdv": (4, 10, 8, ["--BT", "Reweighting", "--BTObj", "EO",
                                            "--method", "DAdv", "--diff_lambda", "0.1",
                                            "--n_discriminators", "2"], False),
    # about 400 rows per split, d=256, hidden 64: rows x parameters is above
    # nn.PARALLEL_MIN_WORK, so the per-epoch and Gate-soft scoring run on two threads
    "parallel scoring: Gate + Gate-soft": (256, 67, 64, ["--method", "Gate", "--gate_soft"],
                                           False),
    # the same scale: epoch k's dev and test logits are computed on the worker
    # while epoch k + 1 trains, and its row is written after that epoch
    "overlapped scoring: BT + Adv + INLP": (256, 67, 64, [
        "--BT", "Resampling", "--BTObj", "EO", "--adv_debiasing", "--INLP",
        "--inlp_iterations", "1"], False),
}


def _rows(run_dir: Path) -> list[dict]:
    rows = [json.loads(line) for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
    for row in rows:
        row.pop("checkpoint", None)
    return rows


@pytest.mark.parametrize("name", list(PIPELINES))
def test_every_crash_point_leaves_a_visibly_unfinalized_run(tmp_path, monkeypatch, capsys, name):
    d, per_cell, hidden, flags, stray_tmp = PIPELINES[name]
    spec = _spec(tmp_path / "spec.yaml", d, per_cell)

    def argv(results):
        return ["--synthetic_spec", str(spec), "--emb_size", str(d), "--hidden_dims",
                str(hidden), "--epochs", "3", "--batch_size", "32", *flags,
                "--results_dir", str(results)]

    counter = CrashPoints(tmp_path / "clean", None)
    with monkeypatch.context() as m:
        counter.install(m)
        assert cli.main(argv(tmp_path / "clean")) == 0
    (clean_dir,) = (tmp_path / "clean").iterdir()
    clean = _rows(clean_dir)
    assert counter.count >= 10

    for k in range(1, counter.count + 1):
        results = tmp_path / f"crash{k}"
        with monkeypatch.context() as m:
            CrashPoints(results, k).install(m)
            with pytest.raises(Crash):
                cli.main(argv(results))
        (run_dir,) = results.iterdir()
        if stray_tmp:
            (run_dir / "manifest.json.tmp").write_text('{"finalized": tr')
        capsys.readouterr()
        assert cli.main(["analyze", "--results_dir", str(results),
                         "--output_dir", str(tmp_path / f"tables{k}")]) == 5, k
        assert f"{run_dir}: unfinalized" in capsys.readouterr().err, k
        assert cli.main(argv(results)) == 0, k
        assert _rows(run_dir) == clean, k
        manifest = json.loads((run_dir / "manifest.json").read_text())
        on_disk = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())
        assert manifest["finalized"] and manifest["files"] == on_disk, k
