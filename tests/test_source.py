"""The library's own source: no check is an assert statement, so every
check still runs under python -O."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgewise"


def test_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as "line name"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in imported.items() if name not in read]


def test_unused_import_scan_catches_a_leftover():
    assert unused_imports("from math import prod, factorial\nprod([])\n") == ["1 factorial"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports():
    """Every import in a module is used; the package root only re-exports."""
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    found = [f"{path.name}:{hit}" for path in paths for hit in unused_imports(path.read_text())]
    assert found == []
