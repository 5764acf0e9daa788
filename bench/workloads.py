"""The four workloads: which CLI operations a run repeats, on which inputs.

A workload is one pass: a list of operations on distinct inputs, built from
cycles that hold one operation of every kind the workload mixes.  The kinds
and their order are the same for every seed; the seed only changes the
inputs.  Each workload stresses different layers, and each optimisation the
roadmap plans bypasses at least one of them:

* ``qubit_discord``: ``discord`` (Hybrid) on 2xN states and unital-qubit
  channel outputs; the grid plus Nelder-Mead path.
* ``qudit_discord``: ``discord --strategy multistart --restarts 2`` on
  3x2 and 3x3 states; the only workload on the Givens/MultiStart path.
* ``da_accept``: ``gen-da --spec`` -> ``verify-da`` -> ``classify --side
  AB`` on annihilating channels; full certification and structural
  recovery, no discord optimiser.
* ``channel_reject``: the early exits of the same layers: AB rejection,
  failing ``verify-da``, side A/B witness search and the tetrahedron sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus

WHY = {
    "qubit_discord": "Hybrid grid plus Nelder-Mead discord on qubit-A states; no channel code runs",
    "qudit_discord": "MultiStart discord on 3x2 and 3x3 states, the only Givens/multistart path",
    "da_accept": "gen-da, verify-da and classify AB on annihilating channels: certification and structural match",
    "channel_reject": "early exits: AB rejection, failing verify-da, side A/B witness search, tetrahedron sweep",
}
DA_DIMS = ("2x2", "2x3", "3x2", "3x3", "4x2")
# The partition of A per dA.  ``gen-da --random`` would draw it, and a
# random partition and pre-channel rank moved the cost of a 3x3 operation
# by half from one seed to the next; it would also let a change to the
# library's sampler change the corpus.
DA_BLOCKS = {
    2: ((1, "identity"), (1, "point")),
    3: ((1, "identity"), (2, "point")),
    4: ((1, "identity"), (1, "point"), (2, "point")),
}
DISCORD_PATTERNS = {
    "qubit_discord": ("hs2x2", "hs2x3", "hs2x4", "bell_unital", "product_unital"),
    "qudit_discord": ("hs3x2", "hs3x3"),
}
# Cycles per pass: a pass takes 3-8 s on a 2-core x86 host, so a 15 s run
# repeats every operation two to five times.  Cycle r of a discord
# workload uses pool member r of each kind.
CYCLES = {"qubit_discord": 8, "qudit_discord": 4, "da_accept": 1, "channel_reject": 2}
# Two restarts (the CLI default is 20) keep a call near 0.5 s; the work per
# restart is the same.  Long calls steadied worse against the host probe,
# which runs between calls: 12 calls of 1.3 s (five restarts) spread 0.07.
MULTISTART = ("--strategy", "multistart", "--restarts", "2")
MIX_WEIGHT = 0.05
# Kraus ranks and partitions are fixed, so that the seed changes the
# channels but not their cost.
RANDOM_RANK = 2
MIX_BLOCKS = {(3, 3): ((1, "identity"), (2, "point")), (2, 3): ((1, "identity"), (1, "point"))}
SWEEP_STEP = 0.125
REFERENCE = Path(__file__).resolve().parent / "reference_j.json"


@dataclass
class Op:
    kind: str  # selects the check in checks.CHECKS
    steps: list  # argv lists passed to discordkit.cli.main in turn
    ctx: dict  # what the check needs besides the output


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def discord_op(kind: str, index: int, work: Path, refs: dict, rng=None) -> Op:
    """``discord`` on pool member ``index``, turned on B by a unitary drawn
    from ``rng`` if given: Hybrid for qubit A, else MultiStart."""
    dims, matrix = corpus.discord_input(kind, index)
    if rng is not None:
        matrix = corpus.rotate_b(rng, dims, matrix)
    member = f"{kind}:{index}"
    path = corpus.write_state(work / f"{kind}_{index}.json", dims, matrix)
    ctx = {"dims": dims, "matrix": matrix, "member": member, "ref_j": refs.get(member)}
    extra = () if dims[0] == 2 else MULTISTART
    return Op("discord", [["discord", path, *extra]], ctx)


def _discord_cycles(rng, pattern, cycles, work, refs):
    return [discord_op(kind, r, work, refs, rng) for r in range(cycles) for kind in pattern]


def _kraus_file(work: Path, name: str, ops) -> dict:
    return {"kraus": ops, "path": corpus.write_kraus(work / f"{name}.json", ops)}


def _reject_cycle(rng, work: Path) -> list[Op]:
    def random_ab(name, dims):
        da, db = dims
        d = da * db
        return _kraus_file(work, name, corpus.random_kraus(rng, d, d, RANDOM_RANK))

    def da_mix(name, dims):
        d = dims[0] * dims[1]
        ops = corpus.mix_kraus(
            MIX_WEIGHT,
            corpus.random_da_kraus(rng, *dims, MIX_BLOCKS[dims]),
            corpus.random_kraus(rng, d, d, RANDOM_RANK),
        )
        return _kraus_file(work, name, ops)

    ops = []
    for name, make, dims in (("ab_random", random_ab, (2, 2)), ("ab_mix", da_mix, (3, 3))):
        ctx = {**make(name, dims), "dims": dims}
        ops.append(Op("reject_ab", [["classify", ctx["path"], "--side", "AB", "--dims", "%dx%d" % dims]], ctx))
    for name, make, dims in (("verify_random", random_ab, (3, 2)), ("verify_mix", da_mix, (2, 3))):
        ctx = {**make(name, dims), "dims": dims, "witness_out": str(work / f"{name}_witness.json")}
        argv = ["verify-da", "--channel", ctx["path"], "--dims", "%dx%d" % dims,
                "--witness-out", ctx["witness_out"]]
        ops.append(Op("reject_verify", [argv], ctx))
    for d in (2, 3):
        for side in ("A", "B"):
            name = f"side{side}_{d}"
            ctx = {**_kraus_file(work, name, corpus.random_kraus(rng, d, d, RANDOM_RANK)),
                   "side": side, "dim_other": 2}
            ops.append(Op("classify_side", [["classify", ctx["path"], "--side", side, "--dim-other", "2"]], ctx))
    for side in ("A", "B"):
        argv = ["tetra-sweep", "--step", str(SWEEP_STEP), "--side", side]
        ops.append(Op("sweep", [argv], {"side": side, "step": SWEEP_STEP}))
    return ops


def _da_cycle(rng, work: Path) -> list[Op]:
    ops = []
    for dims in DA_DIMS:
        da, db = (int(d) for d in dims.split("x"))
        spec = corpus.write_json(work / f"da_{dims}_spec.json", corpus.da_spec(rng, da, db, DA_BLOCKS[da]))
        seed = str(int(rng.integers(2**31)))
        channel = str(work / f"da_{dims}.json")
        steps = [
            ["gen-da", "--spec", spec, "--out", channel],
            ["verify-da", "--channel", channel, "--dims", dims, "--seed", seed,
             "--witness-out", str(work / f"da_{dims}_witness.json")],
            ["classify", channel, "--side", "AB", "--dims", dims, "--seed", seed],
        ]
        ops.append(Op("da_accept", steps, {"dims": dims}))
    return ops


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """One pass of the workload, with inputs written under ``work``."""
    rng = np.random.default_rng([list(WHY).index(workload), seed])
    cycles = CYCLES[workload]
    if workload in DISCORD_PATTERNS:
        return _discord_cycles(rng, DISCORD_PATTERNS[workload], cycles, work, load_reference())
    make_cycle = _da_cycle if workload == "da_accept" else _reject_cycle
    ops = []
    for r in range(cycles):
        (work / f"cycle{r}").mkdir()
        ops += make_cycle(rng, work / f"cycle{r}")
    return ops
