"""Source hygiene: every import of the package names the standard library,
numpy or the package itself, every module-level import is used, every
private function, class or method is used somewhere in it, every public
name is reached by the package or the benchmark, and no module but
errors.py checks a scalar argument by hand."""

import ast
import pathlib
import sys

import pytest

import gibbslab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gibbslab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# the only third-party package the package may import
RUNTIME_DEPENDENCIES = {"numpy"}
# private names that only the tests reference:
TEST_ONLY = set()
# public names that neither the package nor the benchmark reaches, kept as
# results of the paper:
PAPER_RESULTS = {
    # the exact decomposition gen = I_SKL / gamma - lam * reg_gap of a
    # Gibbs posterior with a data-dependent regularizer (README, "Library");
    # ROADMAP item 10 decides whether it stays
    "regularized_gen",
}


def foreign_imports(source: str) -> list[str]:
    """Every import of ``source``, at module level or inside a function,
    whose top-level package is neither in the standard library, nor numpy,
    nor gibbslab (a relative import)."""
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {"gibbslab"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in allowed]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_a_runtime_dependency(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_a_foreign_import_is_reported():
    source = (
        "import math\nimport numpy as np\nfrom .errors import InvalidInput\n\n\n"
        "def solve():\n    import scipy.linalg\n    from scipy import special\n"
    )
    assert foreign_imports(source) == ["scipy.linalg (line 7)", "scipy (line 8)"]


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
    """Every identifier that node reads, as a bare name, an attribute, an
    imported name or a module it imports from."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
        elif isinstance(child, ast.ImportFrom) and child.module:
            names.update(child.module.split("."))
    return names


def _used_by(statement: ast.stmt) -> set[str]:
    """Every identifier that statement references, less the name a function
    or class statement defines; each statement of a class body counts on
    its own, so a method that only its own body names is not used."""
    if isinstance(statement, ast.ClassDef):
        heading = (*statement.bases, *statement.keywords, *statement.decorator_list)
        names = set().union(*map(_referenced, heading), *map(_used_by, statement.body))
    else:
        names = _referenced(statement)
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names.discard(statement.name)
    return names


def referenced_outside_definitions(sources) -> set[str]:
    """Every identifier that a module-level statement of any of sources
    references outside the definition of the name."""
    return set().union(*(_used_by(statement) for source in sources
                         for statement in ast.parse(source).body))


def _private_definitions(module: str, statements) -> list[tuple[str, str]]:
    """(name, module.qualified name) of each private function or class
    among statements and of each private method of their classes; dunder
    methods are Python's, not the package's."""
    found = []
    for statement in statements:
        if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = statement.name
        if name.startswith("_") and not name.endswith("__"):
            found.append((name, f"{module}.{name}"))
        if isinstance(statement, ast.ClassDef):
            found += _private_definitions(f"{module}.{name}", statement.body)
    return found


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level private function or class, and
    module.Class.name of each private method, in ``sources`` (module name
    -> source) that no statement of any of them references outside its
    own definition."""
    used = referenced_outside_definitions(sources.values())
    return sorted(
        qualified
        for module, source in sources.items()
        for name, qualified in _private_definitions(module, ast.parse(source).body)
        if name not in used
    )


def unreached_public_names(public, sources) -> list[str]:
    """Each of the names public that no statement of sources references
    outside its own definition."""
    return sorted(set(public) - referenced_outside_definitions(sources))


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == sorted(TEST_ONLY)


def test_an_orphaned_private_name_is_reported():
    # in c, a private method that only its own body calls is an orphan, one
    # that a sibling method calls is used, and a dunder method is Python's
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _orphan():\n    return _orphan()\n",
        "b": "from .a import _used\n\nx = _used()\n",
        "c": (
            "class Table:\n"
            "    def __init__(self):\n        self._fill()\n\n"
            "    def _fill(self):\n        return 1\n\n"
            "    def _orphan(self):\n        return self._orphan()\n\n\n"
            "class _Kept:\n    def _step(self):\n        return 0\n\n\n"
            "x = _Kept\n"
        ),
    }
    assert orphaned_private_names(sources) == ["a._orphan", "c.Table._orphan", "c._Kept._step"]


def test_every_public_name_is_reached():
    # a module of the package other than __init__ or a benchmark script
    # must reach each exported name, or it is a result of the paper
    paths = MODULES + sorted((ROOT / "bench").glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in paths]
    assert unreached_public_names(gibbslab.__all__, sources) == sorted(PAPER_RESULTS)


def test_an_unreached_public_name_is_reported():
    sources = [
        "def used():\n    return 1\n\n\ndef orphan():\n    return orphan()\n",
        "from .a import used\n\nx = used()\n",
    ]
    assert unreached_public_names(["used", "orphan"], sources) == ["orphan"]


def _names_a_number_type(node: ast.AST) -> bool:
    return any(isinstance(child, ast.Name) and child.id in ("int", "float")
               for child in ast.walk(node))


def _is_argument(node: ast.AST, parameters: set[str]) -> bool:
    """node is a parameter of the enclosing function or a field of self."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "self"
    return isinstance(node, ast.Name) and node.id in parameters


def _tests_a_number(call: ast.AST, parameters: set[str]) -> bool:
    """call is isinstance(X, <types naming int or float>) or
    math.isfinite(X), X an argument of the enclosing function."""
    if not (isinstance(call, ast.Call) and call.args and _is_argument(call.args[0], parameters)):
        return False
    func = call.func
    if isinstance(func, ast.Name) and func.id == "isinstance":
        return len(call.args) == 2 and _names_a_number_type(call.args[1])
    return (isinstance(func, ast.Attribute) and func.attr == "isfinite"
            and isinstance(func.value, ast.Name) and func.value.id == "math")


def hand_written_number_checks(source: str) -> list[str]:
    """"function (line n)" for each if or elif of ``source`` that tests an
    argument of its function with isinstance against int or float, or with
    math.isfinite, and raises in its body: a check that
    errors.require_real or errors.require_count should make."""
    found = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = function.args
        parameters = {arg.arg for arg in (*arguments.posonlyargs, *arguments.args,
                                          *arguments.kwonlyargs, arguments.vararg,
                                          arguments.kwarg) if arg is not None}
        for node in ast.walk(function):
            if not isinstance(node, ast.If):
                continue
            raises = any(isinstance(child, ast.Raise)
                         for statement in node.body for child in ast.walk(statement))
            if raises and any(_tests_a_number(call, parameters) for call in ast.walk(node.test)):
                found.add((node.lineno, f"{function.name} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "errors.py"],
                         ids=lambda path: path.name)
def test_scalar_arguments_are_checked_by_the_rule(path):
    assert hand_written_number_checks(path.read_text(encoding="utf-8")) == []


def test_a_hand_written_number_check_is_reported():
    source = (
        "import math\n\n\n"
        "def scale(n, x, tail):\n"
        "    if not (isinstance(n, int) and n >= 1):\n        raise ValueError(n)\n"
        "    elif not math.isfinite(x):\n        raise ValueError(x)\n"
        "    if isinstance(tail, Tail):\n        raise ValueError(tail)\n"
        "    if isinstance(x, float):\n        x = int(x)\n"
        "    total = n * x\n"
        "    if not math.isfinite(total):\n        raise ValueError(total)\n\n\n"
        "class Config:\n"
        "    def check(self):\n"
        "        if isinstance(self.d, (bool, float)):\n            raise ValueError(self.d)\n"
    )
    assert hand_written_number_checks(source) == [
        "scale (line 5)", "scale (line 7)", "check (line 20)"]
