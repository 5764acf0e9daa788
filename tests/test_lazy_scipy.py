"""scipy loads only where it is used.

No CLI path calls scipy, so a CLI process never imports it: ``minimize``
resolves through ``discordkit.discord``'s module ``__getattr__`` (the
benchmark tracer wraps it by name), and ``nnls`` is imported inside the
``Hull`` membership check, its one caller.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter with the work directory as argv[1]: one
# discord, gen-da, classify --side AB and tetra-sweep call, then a Hull
# membership check.  Prints one JSON line.
SCRIPT = """
import contextlib, io, json, sys

import numpy as np

from discordkit.cli import main
from discordkit.cqsets import ConvexCQSubsetSpec, Hull, Rank1Entry, membership
from discordkit.serialize import save_state
from discordkit.states import BipartiteState, DensityOperator, basis_ket, bell_state

work = sys.argv[1]
state, channel = f"{work}/bell.json", f"{work}/da.json"
save_state(bell_state(0), state)
codes = []
for argv in (
    ["discord", state],
    ["gen-da", "--random", "2x2", "--out", channel, "--spec-out", f"{work}/spec.json"],
    ["classify", channel, "--side", "AB", "--dims", "2x2"],
    ["tetra-sweep", "--step", "0.5", "--side", "A"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
after_cli = "scipy" in sys.modules

gens = (DensityOperator.diagonal([1.0, 0.0]), DensityOperator.diagonal([0.0, 1.0]))
spec = ConvexCQSubsetSpec(2, 2, (Rank1Entry(basis_ket(2, 0), Hull(gens)),))
inside = BipartiteState.from_matrix(np.kron(np.diag([1.0, 0.0]), np.diag([0.4, 0.6])), 2, 2)
outside = BipartiteState.from_matrix(np.kron(np.diag([1.0, 0.0]), np.ones((2, 2)) / 2), 2, 2)
hull = [membership(spec, inside), membership(spec, outside)]
print(json.dumps({"codes": codes, "scipy_after_cli": after_cli,
                  "hull": hull, "scipy_after_hull": "scipy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("lazy_scipy")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(work)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_calls_import_no_scipy(fresh_run):
    assert fresh_run["codes"] == [0, 0, 0, 0]
    assert not fresh_run["scipy_after_cli"]


def test_hull_membership_loads_nnls_on_first_use(fresh_run):
    assert fresh_run["hull"] == [True, False]
    assert fresh_run["scipy_after_hull"]


def test_minimize_resolves_lazily():
    from scipy.optimize import minimize

    module = importlib.import_module("discordkit.discord")
    assert module.minimize is minimize


def test_other_missing_names_still_raise():
    module = importlib.import_module("discordkit.discord")
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
