"""Regenerate ``reference_j.json``: the certified J of every discord pool member.

Run from the repository root at the commit whose optimiser is the
reference (never at a commit that changes the optimiser)::

    python3 bench/make_reference.py

It calls ``discordkit.cli.main`` with the same arguments as the discord
workloads and records ``classical_correlation`` per pool member, unrotated
(a rotation on B leaves J unchanged).  The discord checks then require
J >= reference - checks.J_TOL.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from run import SRC, limit_blas_threads


def main() -> int:
    limit_blas_threads()
    import workloads

    sys.path.insert(0, str(SRC))
    from discordkit.cli import main as cli_main

    refs = {}
    with tempfile.TemporaryDirectory(dir=workloads.REFERENCE.parent) as tmp:
        for workload, pattern in workloads.DISCORD_PATTERNS.items():
            for kind in pattern:
                for index in range(workloads.CYCLES[workload]):
                    op = workloads.discord_op(kind, index, Path(tmp), {})
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli_main(op.steps[0])
                    if code != 0:
                        raise SystemExit(f"{op.ctx['member']}: exit {code}")
                    refs[op.ctx["member"]] = json.loads(out.getvalue())["classical_correlation"]
                print(kind, "done", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
