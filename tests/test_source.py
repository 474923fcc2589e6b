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
