"""Every name in ``freaco.__all__`` has a caller besides the unit tests.

A caller is another module of the package, the benchmark harness
(``perfbench/``) or the acceptance gate.  A name counts as used where
code reads it as a variable or an attribute; its own definition, an
import or a docstring does not count.
"""

import ast
from pathlib import Path

import freaco

ROOT = Path(__file__).resolve().parents[1]


def caller_files() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "freaco").glob("*.py")) if p.name != "__init__.py"]
    return package + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def references(node: ast.AST, defining: frozenset = frozenset()) -> set[str]:
    """Names read in ``node``, skipping reads of a name inside its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defining = defining | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    found -= defining
    for child in ast.iter_child_nodes(node):
        found |= references(child, defining)
    return found


def test_every_public_name_has_a_caller():
    used = set()
    for path in caller_files():
        used |= references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert sorted(set(freaco.__all__) - used) == []
