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


def _nested_functions(fn: ast.AST) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The functions defined directly in `fn`'s body, at any block depth
    but not inside another function or class."""
    out, stack = [], list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _deleted_in_finally(fn: ast.AST) -> set[str]:
    return {
        target.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Try)
        for stmt in node.finalbody
        for inner in ast.walk(stmt)
        if isinstance(inner, ast.Delete)
        for target in inner.targets
        if isinstance(target, ast.Name)
    }


def recursive_closures(source: str) -> list[str]:
    """`outer.inner` for each nested function that can reach itself
    through its siblings' names (itself included), unless `outer` deletes
    it in a `finally`.  Such a function refers to itself through a closure
    cell: every call of `outer` makes a reference cycle, which only the
    cyclic garbage collector frees."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {f.name: f for f in _nested_functions(fn)}
        calls = {
            name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name) and n.id in nested}
            for name, f in nested.items()
        }
        deleted = _deleted_in_finally(fn)
        for name in nested:
            reach, stack = set(), list(calls[name])
            while stack:
                other = stack.pop()
                if other not in reach:
                    reach.add(other)
                    stack.extend(calls[other])
            if name in reach and name not in deleted:
                found.append(f"{fn.name}.{name}")
    return found


def test_recursive_closures_are_found():
    source = '''
def direct():
    def walk(t):
        return [walk(c) for c in t]
    return walk(())

def mutual():
    def even(n):
        return n == 0 or odd(n - 1)
    def odd(n):
        return n != 0 and even(n - 1)
    return even(4)

def released():
    def rec(n):
        return n and rec(n - 1)
    try:
        return rec(3)
    finally:
        del rec

def flat():
    def step(n):
        return n + 1
    return step(step(0))
'''
    assert sorted(recursive_closures(source)) == ["direct.walk", "mutual.even", "mutual.odd"]


def test_no_recursive_closure_in_package_source():
    # a recursive closure on the per-graph path makes a reference cycle per
    # call; recurse at module level, or delete the closure in a `finally`
    paths = sorted(Path(polyinfer.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{name}" for path in paths for name in recursive_closures(path.read_text())]
    assert not found, found


def test_every_config_key_the_cli_reads_is_accepted():
    # `_read_config` refuses a key outside CONFIG_KEYS, so a key that
    # `_merged` or `_budget` reads must be in it, and nothing else may be
    from polyinfer import cli

    calls = [
        node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("_merged", "_budget")
    ]
    keys = {c.args[2].value for c in calls if isinstance(c.args[2], ast.Constant)}
    # the one call with a computed key is `_budget` handing its own key on
    assert [ast.unparse(c) for c in calls if not isinstance(c.args[2], ast.Constant)] == [
        "_merged(args, config, key, default, cast)"
    ]
    assert keys == cli.CONFIG_KEYS
