"""The package namespace: what ``freaco`` exports, and what it loads.

Every name in ``freaco.__all__`` has a caller besides the unit tests.  A
caller is another module of the package, the benchmark harness
(``perfbench/``) or the acceptance gate.  A name counts as used where
code reads it as a variable or an attribute; its own definition, an
import or a docstring does not count.

Each name is the object its home module defines, and ``import freaco``
loads no layer until a caller first reaches one of its names.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def top_level_definitions(module) -> set[str]:
    """Names a module binds at top level by ``def``, ``class`` or assignment, not by import."""
    found = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
    return found


def test_every_public_name_is_the_object_its_home_module_defines():
    for home, names in freaco._EXPORTS.items():
        module = importlib.import_module(f"freaco.{home}")
        defined = top_level_definitions(module)
        for name in names:
            assert name in defined, f"freaco.{home} does not define {name}"
            assert getattr(freaco, name) is getattr(module, name), name


def test_all_is_sorted_unique_and_listed_by_dir():
    assert freaco.__all__ == sorted(set(freaco.__all__))
    assert len(freaco.__all__) == sum(map(len, freaco._EXPORTS.values()))
    assert set(freaco.__all__) <= set(dir(freaco))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from freaco import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == freaco.__all__
    assert all(namespace[name] is getattr(freaco, name) for name in freaco.__all__)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'freaco' has no attribute 'nope'$"):
        freaco.nope  # noqa: B018


def fresh(script: str):
    """Run ``script`` in a new interpreter; return the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


LOADED = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "freaco")
steps = []
import freaco
steps.append([loaded(), "concurrent.futures.process" in sys.modules])
freaco.builtin_problems()
steps.append([loaded(), "concurrent.futures.process" in sys.modules])
freaco.run
steps.append([loaded(), "concurrent.futures.process" in sys.modules])
print(json.dumps(steps))
"""


def test_each_layer_loads_on_first_use():
    imported, built, solver = fresh(LOADED)
    assert imported == [["freaco"], False]
    layers = ["freaco", "freaco.errors", "freaco.expr", "freaco.fre", "freaco.problems"]
    assert built == [layers, False]
    assert solver == [sorted(layers + ["freaco.engine"]), False]


def test_home_modules_resolve_as_attributes_without_an_import():
    script = "import json, freaco; print(json.dumps([freaco.engine.__name__, freaco.oracle.__name__]))"
    assert fresh(script) == ["freaco.engine", "freaco.oracle"]
