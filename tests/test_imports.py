"""Every module of the package uses each name it imports, imports only the standard library, numpy and
gridlink, and reads each private name it defines."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "gridlink").glob("*.py"))
# The package's __init__ imports names to re-export them, not to use them.
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in source that no expression of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nfrom typing import Literal, Any\nx: Any = sys.argv\n") == [
        "os (line 1)",
        "Literal (line 3)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """The module-level names with one leading underscore that source binds and no expression of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = (name for name in bound if name.startswith("_") and not name.startswith("__"))
    return [f"{name} (line {bound[name]})" for name in private if name not in read]


def test_unread_private_names_are_found():
    # _x is only written, _b is read, and __version__ and x are not private
    source = ("__version__ = '1'\nx = 0\n_x = 1\n_y: int = 2\n_a, _b = 3, 4\n_c = _b\n"
              "def _f():\n    global _x\n    _x = 5\nclass _K:\n    pass\n")
    assert unread_private_names(source) == [
        "_x (line 3)", "_y (line 4)", "_a (line 5)", "_c (line 6)", "_f (line 7)", "_K (line 10)"
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def undeclared_imports(source: str) -> list[str]:
    """The modules source imports that are neither in the standard library, numpy nor gridlink: numpy is the
    one declared dependency, so nothing may start to rely on another installed package, scipy say."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "gridlink"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import stays in the package
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] not in allowed]
    return found


def test_undeclared_imports_are_found():
    source = "import os.path\nimport numpy as np\nimport scipy\nfrom scipy.linalg import eigvals\nfrom . import case\n"
    assert undeclared_imports(source) == ["scipy (line 3)", "scipy.linalg (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    assert undeclared_imports(path.read_text(encoding="utf-8")) == []


def fork_callers(source: str) -> list[str]:
    """The dotted name of the function around each call of os.fork in source, "" at module level."""
    callers = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}".lstrip("."))
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "fork" and ast.unparse(func.value) == "os":
                callers.append(name)
            visit(child, name)

    visit(ast.parse(source), "")
    return callers


def test_fork_callers_are_found():
    source = ("import os\nos.fork()\ndef f():\n    return os.fork() or os.getpid()\n"
              "class K:\n    def g(self):\n        def h():\n            os.fork()\n        fork()\n")
    assert fork_callers(source) == ["", "f", "K.g.h"]


def test_one_function_starts_a_process():
    # planner.fork is the one function under src/gridlink that calls os.fork, so the fork rule (the warning
    # guard, the exit by os._exit, the fallback where no process can be started) has one home
    callers = [f"{path.stem}.{name}" for path in PACKAGE for name in fork_callers(path.read_text(encoding="utf-8"))]
    assert callers == ["planner.fork"]
