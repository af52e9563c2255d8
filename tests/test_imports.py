"""Every module of the package uses each name it imports, and takes
each private name from the module that defines it.

No linter ships with the package's test dependencies, so these are the
import checks: a name bound by an import must be read somewhere in the
module or listed in its `__all__` (a re-export), and a private (`_`)
name imported from a sibling module must be defined there, not only
imported there in turn.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdelta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}


def unused_imports(text: str) -> list[str]:
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def defined_names(text: str) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def second_hand_privates(text: str, sources: dict[str, str]) -> list[str]:
    """Private names imported from a sibling module (`sources` maps its
    name to its text) that does not define them."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            defined = defined_names(sources[node.module])
            found += [f"{alias.name} from .{node.module} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_") and alias.name not in defined]
    return found


def test_the_check_sees_an_unused_import():
    text = "from math import comb, sqrt\nimport os\n__all__ = ['comb']\nsqrt(2)\n"
    assert unused_imports(text) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_name_taken_second_hand():
    sources = {"a": "def _f():\n    pass\n_X: int = 1\n_Y = 2\n", "b": "from .a import _f\n"}
    text = "from . import a\nfrom .a import _X, _Y, _f\nfrom .b import _f, g\n"
    assert second_hand_privates(text, sources) == ["_f from .b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_takes_private_names_from_where_they_are_defined(path):
    assert second_hand_privates(path.read_text(encoding="utf-8"), SOURCES) == []
