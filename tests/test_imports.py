"""Every name a ``defex`` module imports is used in that module, and every
public module-level function or class has a caller outside the tests or is
listed in ``CLAIM_CODE``.

No linter ships with the project, so this parses each module with ``ast``.
"""

import ast
from pathlib import Path

import pytest

import defex

PACKAGE_DIR = Path(defex.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
BENCH_DIR = Path(__file__).resolve().parent.parent / "zedbench"

# Claim code: its callers are the paper's claims record and the few-shot
# comparison with a supervised baseline (ROADMAP.md, items 2 and 5).
CLAIM_CODE = (
    "chance_baseline",
    "most_popular_baseline",
    "run_ablation",
    "subsample_gold",
    "threshold_sweep",
)


def annotation_names(nodes) -> set[str]:
    """The names inside quoted annotations among ``nodes``."""
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = set()
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    imported = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in nodes if isinstance(node, ast.Name)} | annotation_names(nodes)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unreferenced(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function or class in
    ``package`` (module name -> source) that no code in ``package`` or
    ``callers`` refers to outside the name's own definition.  A reference is
    a name, an attribute or a name in a quoted annotation."""
    defined, used = [], set()
    for module, source, own_package in ([(m, s, True) for m, s in package.items()]
                                        + [(m, s, False) for m, s in callers.items()]):
        for stmt in ast.parse(source).body:
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            names |= annotation_names(nodes)
            if own_package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append((module, stmt.name))
            used |= names
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_and_counts_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: 'Mapping[str, int]') -> Sequence: return sys.argv\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


def test_every_public_name_has_a_caller():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = {p.stem: p.read_text(encoding="utf-8") for p in sorted(BENCH_DIR.glob("*.py"))}
    waiting = [name.split(".")[1] for name in unreferenced(package, callers)]
    assert sorted(waiting) == sorted(CLAIM_CODE)


def test_detects_unreferenced_names():
    package = {"a": (
        "def used(): pass\n"
        "def only_itself(n): return only_itself(n - 1) if n else 0\n"
        "class Quoted: pass\n"
        "def _private(): pass\n"
        "def f(x: 'Quoted') -> None: used()\n"
    )}
    assert unreferenced(package, {"b": "import a\na.f(1)\n"}) == ["a.only_itself"]
    assert unreferenced(package, {}) == ["a.f", "a.only_itself"]
