"""Every name a soclelab module imports is used in that module."""

import ast
from collections import Counter
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


def private_definitions(tree):
    """(name, node) for each underscore-named function, class or method
    that is not a dunder."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node.name, node


def references(tree):
    """Names loaded, attributes read and names imported, with multiplicity."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private definitions that nothing outside their own body refers to."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    total = sum((references(t) for t in trees.values()), Counter())
    return [f"{module}: {name} (line {node.lineno})"
            for module, tree in trees.items()
            for name, node in private_definitions(tree)
            if total[name] - references(node)[name] == 0]


def test_every_private_definition_is_referenced():
    assert unreferenced_private({p.name: p.read_text() for p in MODULES}) == []


def test_checker_flags_an_unreferenced_private_definition():
    sources = {"a.py": ("def _used(x):\n    return x\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "class _Left:\n    def _method(self):\n        return 0\n"
                        "    def __len__(self):\n        return 0\n"),
               "b.py": "from .a import _used\nprint(_used(1))\n"}
    assert unreferenced_private(sources) == [
        "a.py: _recursive (line 3)", "a.py: _Left (line 5)", "a.py: _method (line 6)"]
