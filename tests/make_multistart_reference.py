"""Write ``multistart_reference.json``: MultiStart(2) J on a fixed corpus.

The table holds the J that the per-restart scipy Nelder-Mead optimiser
(commit d1897b5, the last one that had it) certified for 8 seeded
Hilbert-Schmidt states at each of 3x2, 3x3 and 4x2, at ``seed=42``.  Run it
from the repository root against that commit's sources::

    REF=$(mktemp -d) && git archive d1897b5 src | tar -x -C "$REF"
    PYTHONPATH="$REF/src" python3 tests/make_multistart_reference.py

``tests/test_discord.py`` then requires the current MultiStart(2) to reach
at least each J less 1e-12.
"""

import json
from pathlib import Path

from discordkit.discord import MultiStart, classical_correlation
from discordkit.states import random_bipartite

COMMAND = (
    'REF=$(mktemp -d) && git archive d1897b5 src | tar -x -C "$REF" && '
    'PYTHONPATH="$REF/src" python3 tests/make_multistart_reference.py'
)
DIMS = [(3, 2), (3, 3), (4, 2)]
STATES = 8


def state_seed(dim_a: int, dim_b: int, index: int) -> int:
    return 1000 * dim_a + 100 * dim_b + index


def main():
    rows = []
    for dim_a, dim_b in DIMS:
        for index in range(STATES):
            seed = state_seed(dim_a, dim_b, index)
            j, _ = classical_correlation(
                random_bipartite(dim_a, dim_b, seed), MultiStart(restarts=2), seed=42
            )
            rows.append({"dims": f"{dim_a}x{dim_b}", "state_seed": seed, "j": j})
    table = {"command": COMMAND, "restarts": 2, "seed": 42, "states": rows}
    path = Path(__file__).with_name("multistart_reference.json")
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
