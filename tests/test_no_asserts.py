"""Checks in the package must hold under ``python -O`` as well."""

import ast
from pathlib import Path

import freaco

SOURCES = sorted(Path(freaco.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert len(SOURCES) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
