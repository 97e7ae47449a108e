"""Every name a package module imports is read somewhere in that module, and
no module reaches below its layer."""

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


# The tile layout is private to graphs.py, and int rows go only to the
# oracles' int-mask search: the README's layering claim.  The spec grammar
# needs only graphs.py, so config.py imports nothing from the oracles.
_TILE_FIELDS = {"_tiles", "_keys", "_ptr", "_col"}


def _imports_the_oracles(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "monogrid.oracle" or (
            node.module == "monogrid" and any(a.name == "oracle" for a in node.names))
    return isinstance(node, ast.Import) and any(a.name == "monogrid.oracle"
                                                for a in node.names)


def _layer_breaches(tree: ast.Module, name: str) -> set[str]:
    breaches = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _TILE_FIELDS
                and name != "graphs.py"):
            breaches.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "row" and name not in ("graphs.py", "oracle.py")):
            breaches.add(".row(")
        if name == "config.py" and _imports_the_oracles(node):
            breaches.add("monogrid.oracle")
    return breaches


def test_scan_sees_a_layer_breach():
    tree = ast.parse("def f(G):\n    return G._tiles, G.row(0), G.rows(1)\n")
    assert _layer_breaches(tree, "pipeline.py") == {"_tiles", ".row("}
    assert _layer_breaches(tree, "oracle.py") == {"_tiles"}
    assert _layer_breaches(tree, "graphs.py") == set()


@pytest.mark.parametrize("line", ["from monogrid.oracle import grid_graph",
                                  "from monogrid import graphs, oracle",
                                  "import monogrid.oracle"])
def test_scan_sees_config_import_the_oracles(line):
    tree = ast.parse(line)
    assert _layer_breaches(tree, "config.py") == {"monogrid.oracle"}
    assert _layer_breaches(tree, "cli.py") == set()


@pytest.mark.parametrize("name", sorted(p.name for p in _SRC.glob("*.py")))
def test_module_keeps_to_its_layer(name):
    assert not _layer_breaches(ast.parse((_SRC / name).read_text()), name)
