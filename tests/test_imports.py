"""Every module of the package uses each name it imports, takes each
private name from the module that defines it, and exports only names it
binds; the package re-exports only names its modules export.

No linter ships with the package's test dependencies, so these are the
import checks: a name bound by an import must be read somewhere in the
module or listed in its `__all__` (a re-export), a private (`_`) name
imported from a sibling module must be defined there, not only imported
there in turn, every `__all__` entry must be bound in its module, and
`mdelta/__init__.py` imports from each module only names in that
module's `__all__`, so a deleted name leaves no stale export behind.
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
    used.update(exported_names(text))
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


def exported_names(text: str) -> list[str]:
    """A module's `__all__`, or [] if it has none."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unbound_exports(text: str) -> list[str]:
    """`__all__` entries that the module binds neither by a top-level
    definition nor by an import."""
    bound = defined_names(text)
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return [name for name in exported_names(text) if name not in bound]


def unexported_imports(text: str, sources: dict[str, str]) -> list[str]:
    """Names imported from a sibling module (`sources` maps its name to its
    text) that are not in that module's `__all__`."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = exported_names(sources[node.module])
            found += [f"{alias.name} from .{node.module} (line {node.lineno})" for alias in node.names
                      if alias.name not in exported]
    return found


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


def test_the_check_sees_an_export_the_module_does_not_bind():
    text = "from math import sqrt\n__all__ = ['sqrt', 'f', 'X', 'gone']\ndef f():\n    pass\nX = 1\n"
    assert unbound_exports(text) == ["gone"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_binds_every_name_it_exports(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_package_import_of_an_unexported_name():
    sources = {"a": "__all__ = ['f']\ndef f():\n    pass\ndef g():\n    pass\n"}
    assert unexported_imports("from .a import f, g\n", sources) == ["g from .a (line 1)"]


def test_package_imports_only_exported_names():
    assert unexported_imports(SOURCES["__init__"], SOURCES) == []
