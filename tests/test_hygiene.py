"""Source hygiene: every name a module of the package imports is used in it,
every module-level private function or class is used somewhere in the package,
every public one is used or exported by the package, and the number of
settable values is pinned."""

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


def unused_public_defs(module: str, sources: dict[str, str]) -> list[str]:
    """Module-level public functions and classes of `module` that the package
    (name -> text, `__init__.py` included) neither uses nor exports: no other
    module imports them by name (`from .mod import f`) or reads them off the
    module (`ad.f` after `from . import mod as ad`), and `module` names them
    only inside their own definition."""
    stem = module.removesuffix(".py")
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = set()
    for name, tree in trees.items():
        if name == module:
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == stem:
                    refs.update(a.name for a in node.names)
                elif node.module is None:
                    aliases.update(a.asname or a.name for a in node.names if a.name == stem)
        refs.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        )
    unused = []
    for d in trees[module].body:
        if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
            continue
        own = range(d.lineno, d.end_lineno + 1)
        named = any(
            isinstance(node, ast.Name) and node.id == d.name and node.lineno not in own
            for node in ast.walk(trees[module])
        )
        if d.name not in refs and not named:
            unused.append(f"{d.name} (line {d.lineno})")
    return unused


def test_checker_flags_an_unused_public_def():
    sources = {
        "a.py": (
            "def left():\n    return left()\n\ndef called():\n    pass\n\n"
            "def imported():\n    pass\n\nclass Gone:\n    pass\n\ndef local():\n    pass\n\n"
            "def exported():\n    pass\n\nX = local()\n"
        ),
        "b.py": "import numpy as np\nfrom . import a as m\nfrom .a import imported\nm.called()\nnp.left()\n",
        "__init__.py": "from .a import exported\n",
    }
    assert unused_public_defs("a.py", sources) == ["left (line 1)", "Gone (line 10)"]


# the autodiff ops the benchmark's tracer wraps by name, kept while it does
TRACED_OPS = next(
    ast.literal_eval(node.value)
    for node in ast.parse((SRC.parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "AD_OPS"
)


# the traced ops nothing in the package calls, kept only because the tracer
# wraps them by name: the ops to delete once it no longer does. A newly
# unused op, or one that gains a caller, changes this set
TRACER_ONLY_OPS = {
    "absval", "clip_min", "exp", "getitem", "log", "logistic", "matmul", "pad_xy", "softplus",
    "sqrt", "stack_last", "tmean", "transpose", "where",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_public_defs(path):
    unused = unused_public_defs(path.name, PACKAGE)
    if path.name == "autodiff.py":
        assert {entry.split()[0] for entry in unused} & set(TRACED_OPS) == TRACER_ONLY_OPS
        unused = [entry for entry in unused if entry.split()[0] not in TRACED_OPS]
    assert unused == []


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


# 103 since VoxelPrediction holds one heads tensor and its covariance
# width in place of three head tensors; 104 since softplus_parts (and its
# slope default) was deleted and the TV's mask became a required argument
# of _tv_planes; 106 before, since the
# spin-echo index became the zero tau, the two-regime crossover a constant,
# defaults that every caller overrides required, and the tape's
# reshape/sum/mean sugar was deleted (13 values)
SETTABLE_VALUES = 103


def test_settable_value_count():
    count = sum(settable_values(text) for text in PACKAGE.values())
    assert count == SETTABLE_VALUES, (
        f"src/oximap has {count} settable values (dataclass fields plus defaulted "
        f"parameters), pinned at {SETTABLE_VALUES}: change the pin in this test and "
        f"give the reason for the change in CHANGES.md"
    )
