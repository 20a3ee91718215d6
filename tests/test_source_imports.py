"""Every name a soclelab module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "soclelab"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names loaded anywhere, in string annotations, or listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ('from .fplin import FpMatrix, Subspace\n'
              'import numpy as np\n'
              'def f(x: "Subspace") -> int:\n'
              '    return np.int64(0)\n')
    assert unused_imports(source) == ["FpMatrix (line 1)"]
    assert MODULES, "no source modules found"
