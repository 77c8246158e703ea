"""The package's runtime dependencies are numpy and PyYAML only."""

import ast
import sys
from pathlib import Path

import pytest

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
