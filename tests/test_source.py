"""Source hygiene: every module-level import of the package is used, and
every module-level private function or class is used somewhere in it."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gibbslab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# private names that only the tests reference: the bisection is the tests'
# reference for fixed_point_kappa
TEST_ONLY = {"bounds._bisect_fixed_point"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` (other than
    ``from __future__``) that nothing else in it references."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # a name used as "name.attr" is an ast.Name inside the Attribute
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport os\n\nx = math.pi\n"
    assert unused_imports(source) == ["os (line 3)"]


def _referenced(node: ast.AST) -> set[str]:
    """Every identifier that node reads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level private function or class in
    ``sources`` (module name -> source) that no statement of any of them
    references outside its own definition."""
    definitions = []
    used = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            names = _referenced(statement)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if statement.name.startswith("_"):
                    definitions.append((module, statement.name))
                names.discard(statement.name)
            used |= names
    return sorted(f"{module}.{name}" for module, name in definitions if name not in used)


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == sorted(TEST_ONLY)


def test_an_orphaned_private_name_is_reported():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _orphan():\n    return _orphan()\n",
        "b": "from .a import _used\n\nx = _used()\n",
    }
    assert orphaned_private_names(sources) == ["a._orphan"]
