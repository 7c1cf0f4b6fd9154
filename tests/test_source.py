from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import polyinfer


def test_no_assert_in_package_source():
    # checks that guard correctness must raise: `python -O` strips assert
    paths = sorted(Path(polyinfer.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _named(node: ast.AST) -> Counter:
    """Every name, attribute, import alias and identifier string in `node`."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
            if n.asname:
                out[n.asname] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def test_every_package_definition_is_named_by_the_program():
    # no dead package code: every function and class defined in the package
    # is named outside its own definition somewhere in src/, perfbench/ or
    # tools/.  Name collisions pass (`CountProfile.rank` would hide a
    # function `rank`).  `parse_lp` is the LP read-back, which only the
    # tests call.
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text())
        for top in ("src", "perfbench", "tools")
        for path in (root / top).rglob("*.py")
    }
    named = sum((_named(tree) for tree in trees.values()), Counter())
    unnamed = sorted(
        f"{path.name}:{node.name}"
        for path in sorted((root / "src" / "polyinfer").glob("*.py"))
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == _named(node)[node.name]
    )
    assert unnamed == ["milp.py:parse_lp"], unnamed
