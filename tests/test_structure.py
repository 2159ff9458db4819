"""Design guard: quaternion-linear problems reach the rational eliminator
only through `scalars`, so `linalg` has exactly one importer."""

import ast
from pathlib import Path

import quatca

SOURCE = Path(quatca.__file__).parent


def _imports_linalg(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "linalg":
                return True
            if any(alias.name == "linalg" for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "linalg" for alias in node.names):
                return True
    return False


def test_only_scalars_imports_linalg():
    importers = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if _imports_linalg(ast.parse(path.read_text()))
    )
    assert importers == ["scalars.py"]
