"""Import structure of the package: module-level imports only, no unused
import, and no cycle from ``annihilators`` back to ``classify``."""

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


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded in ``source``.

    An import whose lines carry ``# noqa: F401`` is kept on purpose, and
    ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(tau)\n"
    assert _unused_imports(source) == ["1: os", "3: pi"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    unused = _unused_imports(path.read_text())
    assert not unused, unused


def test_annihilators_does_not_import_classify():
    tree = ast.parse((PACKAGE / "annihilators.py").read_text())
    imported = [name for node in ast.walk(tree) for name in _imported_modules(node)]
    assert "discordkit.classify" not in imported, imported
