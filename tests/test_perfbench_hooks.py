"""Every fairkit function that perfbench/tracing.py hooks by name exists.

The tracer wraps functions by looking them up as ``layer.function``; after a
rename the lookup finds nothing and the per-layer metric it feeds reads 0
instead of failing, so this test reads tracing.py's source and checks each
name against the package's public functions."""

import ast
from pathlib import Path

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
