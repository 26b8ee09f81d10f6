"""Every module of the package, and the validation script, uses each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
# The package's __init__ imports names to re-export them, not to use them.
SOURCES = sorted(p for p in (ROOT / "src" / "gridlink").glob("*.py") if p.name != "__init__.py")
SOURCES.append(ROOT / "scripts" / "validate_decay.py")


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
