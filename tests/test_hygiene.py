"""Static hygiene of the package source, read with the stdlib ``ast``: no
module or function imports a name it does not use, no module-level
private function or constant goes unreferenced, and every rule in
``config.py`` fails as a ``ConfigError``."""

import ast
from pathlib import Path

import pytest

from sidestep import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sidestep"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Every bare name a module reads, including those inside quoted
    annotations such as ``-> "ShiftPolynomial"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(scope):
    """The import statements of a module or function body, outside the
    functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _imported_names(tree):
    """(name, scope) for every name an import binds, where scope is the
    module or the innermost function that holds the import."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    for scope in scopes:
        for node in _scope_imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.asname or alias.name.split(".")[0], scope
            elif node.module != "__future__":
                for alias in node.names:
                    yield alias.asname or alias.name, scope


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    # an import inside a function must be used in that function
    tree = _tree(path)
    unused = [
        name
        for name, scope in _imported_names(tree)
        if name not in _used_names(scope)
    ]
    assert not unused, f"{path.name} imports {unused} without using them"


def test_hygiene_sees_imports_inside_functions():
    tree = ast.parse(
        "import json\n"
        "def f():\n"
        "    import zipfile\n"
        "    from math import ceil, log\n"
        "    return ceil(json.loads('1'))\n"
        "def g():\n"
        "    from math import log\n"
        "    return log(2)\n"
    )
    # log is used in g only, so f's import of it is unused
    unused = [
        name for name, scope in _imported_names(tree) if name not in _used_names(scope)
    ]
    assert sorted(unused) == ["log", "zipfile"]


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree, definition=None):
    """Names a module reads as bare names, attributes or imports, outside
    the node that defines ``definition``."""
    skip = set()
    if definition is not None:
        skip = {id(n) for n in ast.walk(definition)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if id(node) not in skip:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    unreferenced = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(
                name in _references(other, node if other is tree else None)
                for other in trees.values()
            ):
                unreferenced.append(f"{module}:{name}")
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


def _raised(tree):
    """The name each ``raise`` statement in ``tree`` raises or calls, or
    None for a bare re-raise or any other expression."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.id if isinstance(exc, ast.Name) else None


def test_config_raises_only_config_errors():
    # one error path: a rule fails with a ConfigError naming its leaf, by a
    # raise of its own or through _require, whose raise this also reads; an
    # attribute or a bare re-raise reads None, which no class allows
    snippet = ast.parse(
        "def f(x):\n"
        "    try:\n"
        "        g(x)\n"
        "    except OSError as exc:\n"
        "        raise ConfigError('no', 'x') from exc\n"
        "    if x:\n"
        "        raise ValueError\n"
        "    raise errors.ConfigError('no', 'x')\n"
        "    raise\n"
    )
    assert sorted(map(str, _raised(snippet))) == ["ConfigError", "None", "None", "ValueError"]
    allowed = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.ConfigError)
    }
    raised = list(_raised(_tree(PACKAGE / "config.py")))
    assert "ConfigError" in raised
    others = sorted({str(name) for name in raised} - allowed)
    assert not others, f"config.py raises {others}, not ConfigError or a subclass"
