"""Every name a package module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "monogrid"


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports through __all__, which names its imports as strings
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_scan_sees_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "import numpy as np\n"
                     "@dataclass\nclass A:\n    x: int\n")
    assert _unused_imports(tree) == {"field", "np"}


@pytest.mark.parametrize("name", sorted(p.name for p in _SRC.glob("*.py")))
def test_module_reads_every_name_it_imports(name):
    assert not _unused_imports(ast.parse((_SRC / name).read_text()))
