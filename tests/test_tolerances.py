"""Every tolerance value is written once, in ``discordkit/tolerances.py``.

A float literal between 0 and 1e-5 in magnitude is a threshold or a
cutoff; elsewhere in the package the only ones allowed are the
``max(x, 1e-300)`` guards against division by zero.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discordkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")


def _is_small_float(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-5
    )


def _allowed(tree: ast.AST) -> set[int]:
    """ids of the literal nodes the rule allows in this module."""
    allowed = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "max" and len(node.args) == 2:
            guard = node.args[1]
            if isinstance(guard, ast.Constant) and guard.value == 1e-300:
                allowed.add(id(guard))
    return allowed


def test_tolerances_module_found():
    assert (PACKAGE / "tolerances.py").is_file()
    assert {"annihilators.py", "classify.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_literals_outside_tolerances_module(path):
    tree = ast.parse(path.read_text())
    allowed = _allowed(tree)
    offenders = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if _is_small_float(node) and id(node) not in allowed
    ]
    assert not offenders, offenders


def _constants() -> set[str]:
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _imported_tolerances(path: Path) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "tolerances" and node.level == 1
        for alias in node.names
    }


def test_every_tolerance_has_a_reader():
    constants = _constants()
    assert {"VALIDITY_TOL", "CQ_TOL", "ZERO_CUTOFF"} <= constants
    read = set().union(*(_imported_tolerances(path) for path in MODULES))
    assert not constants - read, sorted(constants - read)
