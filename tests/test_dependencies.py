"""The package's runtime dependencies are numpy and PyYAML only, and every
public top-level function and class in it is used. Importing it starts no
thread; a run below nn.PARALLEL_MIN_WORK starts no fairkit-infer thread,
and a run above it leaves none alive."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fairkit").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "fairkit"}


def foreign_imports(tree: ast.AST) -> list[str]:
    """Top-level names of the modules that tree imports from outside the
    standard library, numpy, yaml and fairkit; relative imports are fairkit's."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "postproc.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_yaml_or_fairkit(path):
    assert foreign_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_foreign_import_is_caught():
    source = ("from . import nn\nimport numpy as np\n"
              "def f():\n    import scipy.linalg\n    from sklearn import svm\n")
    assert foreign_imports(ast.parse(source)) == ["scipy.linalg", "sklearn"]


# Public names nothing in src/ uses, each kept on purpose
UNREFERENCED_ALLOWED = {
    "cli.config_hash": "the run-directory name of a config, for callers locating its outputs",
    "postproc.majority_baseline": "the probe accuracy INLP drives toward, for probe checks",
}


def unreferenced(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each public top-level function or class that no other
    top-level statement of any module names (as a name or an attribute)."""
    statements = [(mod, node) for mod, tree in modules.items() for node in tree.body]
    used = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            for _, node in statements]
    return [f"{mod}.{node.name}" for (mod, node), _ in zip(statements, used)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in names for (_, other), names in zip(statements, used)
                        if other is not node)]


def test_every_public_definition_is_used():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert sorted(unreferenced(modules)) == sorted(UNREFERENCED_ALLOWED)


def test_unused_definition_is_caught():
    modules = {"a": ast.parse("def used():\n    return used()\n\nclass Unused:\n    pass\n"),
               "b": ast.parse("from .a import used\n\nx = used()\n\n"
                              "def _private():\n    pass\n")}
    assert unreferenced(modules) == ["a.Unused"]
    del modules["b"]
    assert unreferenced(modules) == ["a.used", "a.Unused"]


def _python(code: str) -> str:
    """What code prints in a fresh interpreter that imports fairkit from src/."""
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.strip()


def test_import_starts_no_thread_and_no_executor():
    out = _python("import sys, threading\n"
                  "import fairkit, fairkit.cli\n"
                  "print('concurrent.futures' in sys.modules, threading.active_count())")
    assert out == "False 1"


def _threads_of_a_run(argv: list[str]) -> dict:
    """The name of each thread started while cli.main(argv) runs in a fresh
    interpreter, the names of the threads alive after it, and nn._cpus()."""
    return json.loads(_python(
        "import json, threading\n"
        "from fairkit import cli, nn\n"
        "started, start = [], threading.Thread.start\n"
        "def spy(thread):\n"
        "    started.append(thread.name)\n"
        "    start(thread)\n"
        "threading.Thread.start = spy\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(json.dumps({'started': started, 'cpus': nn._cpus(),\n"
        "                  'alive': [t.name for t in threading.enumerate()]}))"))


def test_a_run_below_the_parallel_threshold_starts_no_thread(tmp_path):
    # the CLI default scale: 800 rows x 178 parameters, below nn.PARALLEL_MIN_WORK
    run = _threads_of_a_run(["--epochs", "2", "--results_dir", str(tmp_path)])
    assert "fairkit-infer" not in run["started"]
    assert run["alive"] == ["MainThread"]


def test_a_run_above_the_parallel_threshold_starts_a_thread_per_scoring(tmp_path):
    """Epochs 0 and 1 are scored while the next epoch trains and epoch 2
    after it, each on a thread of its own that has ended by the run's end."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"d": 256, "seed": 0, "group_shift": 2.0,
                                    "n_per_cell": {"0,0": 140, "0,1": 60, "1,0": 60,
                                                   "1,1": 140}}))
    # dev and test: 400 rows x 16.6k parameters, above nn.PARALLEL_MIN_WORK
    epochs = 2
    run = _threads_of_a_run(["--synthetic_spec", str(spec), "--hidden_dims", "64",
                             "--epochs", str(epochs), "--results_dir", str(tmp_path / "out")])
    wanted = epochs + 1 if run["cpus"] > 1 else 0
    assert run["started"].count("fairkit-infer") == wanted
    assert run["alive"] == ["MainThread"]
