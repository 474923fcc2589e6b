"""The library's own source: no check is an assert statement, so every
check still runs under python -O; no import goes unread; and every public
name has a caller outside the tests."""

import ast
import re
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


ROOT = SRC.parent.parent
# Public names kept with no caller yet, each for the ROADMAP item that needs it.
AWAITING_CALLERS = {
    "corner_support_partition": "ROADMAP item 5: the face-count census route",
}


def public_definitions(tree: ast.Module):
    """(name, node) of each public top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            heads = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in heads if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def reads(tree: ast.AST, skip: ast.AST | None = None):
    """Names and attributes read in tree, outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def uncalled(trees: dict, texts: list[str]) -> list[str]:
    """Public names of the modules in trees (name -> ast) read nowhere in trees
    outside their own definition and named in none of texts, as "module name"."""
    named = set(re.findall(r"\w+", "\n".join(texts)))
    return [
        f"{module} {name}"
        for module, tree in trees.items()
        if module != "__init__"
        for name, node in public_definitions(tree)
        if name not in named
        and not any(name in reads(other, node) for other in trees.values())
    ]


def test_uncalled_scan_sees_reads_and_texts():
    trees = {
        "a": ast.parse("def f():\n    return f()\ndef g():\n    return 1\nX = g()\nY = 2\n"),
        "b": ast.parse("import a\na.Y\n"),
    }
    assert uncalled(trees, []) == ["a f", "a X"]
    assert uncalled(trees, ["see f and X"]) == []


def test_every_public_name_has_a_caller():
    """Each public name of a module is read elsewhere in the library, or named
    by a script, the benchmark or README; the rest belongs in tests/oracles.py."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    files = [*(ROOT / "scripts").rglob("*"), *(ROOT / "bench").rglob("*"), ROOT / "README.md"]
    texts = [p.read_text() for p in files if p.is_file() and p.suffix in {".py", ".md", ".json"}]
    hits = {hit.split()[1]: hit for hit in uncalled(trees, texts)}
    # A name that gains a caller, or is gone, leaves AWAITING_CALLERS too.
    assert set(AWAITING_CALLERS) <= set(hits)
    assert [hit for name, hit in hits.items() if name not in AWAITING_CALLERS] == []
