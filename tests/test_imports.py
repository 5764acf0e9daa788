"""Import structure of the package: module-level imports only, no unused
import or private definition, and no cycle from ``annihilators`` back to
``classify``."""

import ast
from collections import defaultdict
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


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [elt.id for elt in elts if isinstance(elt, ast.Name)]
    return names


def _unused_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of ``sources``
    (module name -> source) that no statement but their own definition loads,
    by name or as an attribute.  Dunder names are not private."""
    defined, loaded = [], defaultdict(set)
    for module, source in sources.items():
        for index, node in enumerate(ast.parse(source).body):
            for name in _bound_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, (module, index)))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loaded[sub.id].add((module, index))
                elif isinstance(sub, ast.Attribute):
                    loaded[sub.attr].add((module, index))
    return [f"{module}: {name}" for module, name, where in defined if not loaded[name] - {where}]


def test_unused_private_is_found():
    sources = {
        "a": "def _loop(n):\n    return _loop(n - 1)\n_LIMIT = 3\ndef _used():\n    pass\n",
        "b": "from a import _loop, _used\nimport a\n_x, _y = 1, a._used\nprint(_y)\n",
    }
    assert _unused_privates(sources) == ["a: _loop", "a: _LIMIT", "b: _x"]


def test_every_private_definition_is_used():
    unused = _unused_privates({p.name: p.read_text() for p in MODULES})
    assert not unused, unused


def test_annihilators_does_not_import_classify():
    tree = ast.parse((PACKAGE / "annihilators.py").read_text())
    imported = [name for node in ast.walk(tree) for name in _imported_modules(node)]
    assert "discordkit.classify" not in imported, imported


def _kraus_constructor_callers(sources: dict[str, str]) -> list[str]:
    """``module: function`` for each call of ``QuantumChannel(...)``, or of
    ``cls(...)`` inside ``class QuantumChannel``, in ``sources``."""
    callers = []

    def visit(node, function, in_channel):
        if isinstance(node, ast.ClassDef):
            in_channel = node.name == "QuantumChannel"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "QuantumChannel" or (in_channel and node.func.id == "cls"):
                callers.append(f"{module}: {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, in_channel)

    for module, source in sources.items():
        visit(ast.parse(source), None, False)
    return callers


def test_kraus_constructor_caller_is_found():
    source = (
        "class QuantumChannel:\n    @classmethod\n    def identity(cls, d):\n"
        "        return cls([d])\n    @classmethod\n    def _of_choi(cls, j):\n"
        "        return cls.__new__(cls)\n"
        "def load():\n    return QuantumChannel([1])\n"
        "class Other:\n    @classmethod\n    def make(cls):\n        return cls()\n"
    )
    assert _kraus_constructor_callers({"m": source}) == ["m: identity", "m: load"]


def test_kraus_operators_enter_only_at_the_file_boundary():
    # Every other channel is built on its Choi matrix.
    callers = _kraus_constructor_callers({p.name: p.read_text() for p in MODULES})
    assert sorted(callers) == ["channels.py: random_channel", "serialize.py: load_channel"]


PROBE_BUILDERS = {"_ginibre_density", "bell_state", "max_entangled"}


def _probe_builder_callers(sources: dict[str, str]) -> list[str]:
    """``module: function`` for each call of a probe builder in ``sources``, by
    name or as an attribute, named after the module-level function that holds
    it (None at module level)."""
    callers = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            function = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in PROBE_BUILDERS:
                        callers.append(f"{module}: {function}")
    return callers


def test_probe_builder_caller_is_found():
    source = (
        "import states\n"
        "def stream(n):\n    def head():\n        yield bell_state(0)\n"
        "    return head()\n"
        "def draw(rng):\n    return states._ginibre_density(2, 2, rng)\n"
        "def other():\n    return bell_state\n"
        "PROBE = max_entangled(2)\n"
    )
    assert _probe_builder_callers({"m": source}) == ["m: stream", "m: draw", "m: None"]


def test_one_probe_generator():
    # Every probe state comes from the probe stream or from random_density.
    callers = _probe_builder_callers({p.name: p.read_text() for p in MODULES})
    assert sorted(set(callers)) == ["annihilators.py: _probe_stream", "states.py: random_density"]
