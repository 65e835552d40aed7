"""Every name a ``defex`` module imports is used in that module.

No linter ships with the project, so this parses each module with ``ast``.
``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import defex

MODULES = sorted(p for p in Path(defex.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    imported = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    # a quoted annotation refers to the names inside the string
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


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
