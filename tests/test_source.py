from __future__ import annotations

import ast
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
