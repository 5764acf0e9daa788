"""Import structure of the package: module-level imports only, and no cycle
from ``annihilators`` back to ``classify``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discordkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_modules(node: ast.AST) -> list[str]:
    """Names of discordkit modules imported by an import statement, else []."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "discordkit"]
    if isinstance(node, ast.ImportFrom):
        if node.level > 0:
            if node.module:
                return [f"discordkit.{node.module}"]
            return [f"discordkit.{a.name}" for a in node.names]
        if (node.module or "").split(".")[0] == "discordkit":
            return [node.module]
    return []


def test_modules_found():
    assert {"annihilators.py", "classify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    tree = ast.parse(path.read_text())
    offenders = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                for name in _imported_modules(node):
                    offenders.append(f"{fn.name}:{node.lineno} imports {name}")
    assert not offenders, offenders


def test_annihilators_does_not_import_classify():
    tree = ast.parse((PACKAGE / "annihilators.py").read_text())
    imported = [name for node in ast.walk(tree) for name in _imported_modules(node)]
    assert "discordkit.classify" not in imported, imported
