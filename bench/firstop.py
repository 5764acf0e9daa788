"""Set-up probe: a fresh interpreter imports discordkit.cli, then runs one operation.

Usage: ``python3 firstop.py SRC_DIR STEPS_JSON``, where STEPS_JSON is a
JSON list of argv lists (``[]`` to time the import alone).  Prints one
JSON line with the import time and each step's exit code, stdout and stderr.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from discordkit.cli import main as cli_main

    import_s = time.perf_counter() - start
    results = []
    for argv in json.loads(sys.argv[2]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    print(json.dumps({"import_s": import_s, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
