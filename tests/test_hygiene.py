"""Source hygiene: every name a module of the package imports is used in it,
every module-level private function or class is used somewhere in the package,
and the number of settable values is pinned."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oximap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom dataclasses import dataclass, field\n@dataclass\nclass A:\n    x: int\n") == [
        "field (line 2)",
        "os (line 1)",
    ]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(module: str, sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions and classes of `module` that no code in
    `sources` (name -> text) references outside the definition itself."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = [
        node
        for node in trees[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    unused = []
    for d in defs:
        own = range(d.lineno, d.end_lineno + 1)
        used = any(
            (isinstance(node, ast.Name) and node.id == d.name)
            or (isinstance(node, ast.Attribute) and node.attr == d.name)
            or (isinstance(node, ast.alias) and node.name == d.name)
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if not (name == module and getattr(node, "lineno", None) in own)
        )
        if not used:
            unused.append(f"{d.name} (line {d.lineno})")
    return unused


def test_checker_flags_an_unreferenced_private_def():
    sources = {
        "a.py": "def _left():\n    return _left()\n\ndef _kept():\n    pass\n\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _kept\n",
    }
    assert unreferenced_private_defs("a.py", sources) == ["_left (line 1)", "_Gone (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_defs(path):
    assert unreferenced_private_defs(path.name, PACKAGE) == []


def settable_values(source: str) -> int:
    """Dataclass fields plus parameters with a default value (positional or
    keyword-only, lambdas included) in one module."""
    def is_dataclass(dec):
        node = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"

    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(is_dataclass(d) for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def test_checker_counts_settable_values():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: float = 1.0\n"
        "class B:\n    z: int = 0\n"
        "def f(a, b=1, *rest, c, d=2):\n    return lambda e=3: e\n"
    )
    assert settable_values(source) == 5


SETTABLE_VALUES = 119


def test_settable_value_count():
    count = sum(settable_values(text) for text in PACKAGE.values())
    assert count == SETTABLE_VALUES, (
        f"src/oximap has {count} settable values (dataclass fields plus defaulted "
        f"parameters), pinned at {SETTABLE_VALUES}: change the pin in this test and "
        f"give the reason for the change in CHANGES.md"
    )
