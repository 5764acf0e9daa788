"""discordkit benchmark: drives the CLI in process and checks every output.

Run from the repository root::

    python3 bench/run.py --workload qubit_discord --seed 0 --seconds 15 --trace 0

One client calls ``discordkit.cli.main(argv)`` in a closed loop (the next
call starts when the previous one returns), with stdout captured, over
whole passes of the workload's operations (``workloads.py``) until the
operations have taken ``--seconds``.  One whole pass runs untimed before
the loop: first calls in a process ran slower, so a run's rate depended on
how many passes it held.  ``setup_s`` counts what a fresh process pays.
BLAS gets one thread: the loop has one client, and on a shared 2-core VM a
second BLAS thread made the qubit passes about 20 % slower and their times
spread further.  Every output is checked (``checks.py``); a wrong exit
code, an exception or a failed check counts as a failed operation.

``op_time_ref`` is the mean wall time of a checked operation over the
whole run, in units of the host probe (``hostprobe.py``) run after each
operation: the host's speed drifted too much for a wall-clock rate to
repeat.  ``setup_s`` is the median wall time of fresh interpreters that
import ``discordkit.cli`` and run the first operation, scaled the same way
to seconds on the host the benchmark was tuned on; ``peak_rss_mb`` is this
process's ``ru_maxrss``.  The record also holds the wall-clock set-up time
and ``ops_per_s``, ``op_ms_p50`` and, when a run has at least 100 operation
runs, ``op_ms_p90``; they are not gated, because on that host they spread
by more than any allowed bound from one run to the next.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracing.py``: it runs the pass untraced and with every layer
wrapped, in turn and twice, and reports the layers per traced operation
plus the tracing overhead.  The last stdout line is the JSON result; the full
record, with the environment and sample counts, goes to ``.bench_out/``
and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TRACED_PASSES = 2
P90_MIN_SAMPLES = 100
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"op_time_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def limit_blas_threads() -> None:
    """Give BLAS one thread; must run before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def run_op(cli, op):
    """Run the operation's CLI steps; wall time and (code, stdout, stderr) per step."""
    results = []
    start = time.perf_counter()
    for argv in op.steps:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), err.getvalue()))
        if code not in (0, 3):
            break
    return time.perf_counter() - start, results


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.reasons: list[str] = []

    def record(self, op, results) -> bool:
        self.attempted += 1
        if len(results) < len(op.steps):
            reason = f"step {len(results) - 1} exit {results[-1][0]!r}: {results[-1][2].strip()[:200]}"
        else:
            reason = self.check(op.kind, op.ctx, results)
        if reason is not None:
            self.reasons.append(f"{op.kind}: {reason}")
        return reason is None


def run_passes(cli, ops, tally, seconds=None, tracer=None, probe=None):
    """Run one pass or, given ``seconds``, whole passes until the operations
    have taken that long, sampling ``probe`` after each operation.  Returns,
    per operation of the pass, the wall times of the runs whose output
    checked out."""
    times = [[] for _ in ops]
    busy = 0.0
    while True:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = tally.attempted
            elapsed, results = run_op(cli, op)
            if tracer is not None:
                tracer.op_id = None
            busy += elapsed
            if probe is not None:
                probe.sample(elapsed)
            if tally.record(op, results):
                times[index].append(elapsed)
        if seconds is None or busy >= seconds:
            return times


def fresh_interpreters(op, tally, repeats, probe=None):
    """Wall times of fresh interpreters that import discordkit.cli and run
    ``op`` (or nothing, for None), and their import times; ``probe`` is
    sampled after each."""
    steps = op.steps if op is not None else []
    walls, imports = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "firstop.py"), str(SRC), json.dumps(steps)],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        walls.append(time.perf_counter() - start)
        if probe is not None:
            probe.sample(walls[-1])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        imports.append(report["import_s"])
        if op is not None:
            tally.record(op, [tuple(r) for r in report["results"]])
    return walls, imports


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def measure(cli, ops, args, tally):
    """End-to-end metrics of an untraced run."""
    from hostprobe import REFERENCE_UNIT_S, HostProbe

    setup_probe = HostProbe()
    walls, imports = fresh_interpreters(ops[0], tally, SETUP_REPEATS, setup_probe)
    run_passes(cli, ops, tally)
    probe = HostProbe()
    times = run_passes(cli, ops, tally, seconds=args.seconds, probe=probe)
    every = [x for t in times for x in t]
    if not every:
        raise RuntimeError("no operation passed its check")
    metrics = {
        "op_time_ref": statistics.fmean(every) / probe.unit_s(),
        "setup_s": statistics.median(walls) * REFERENCE_UNIT_S / setup_probe.unit_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    extra = {"ops_per_s": len(every) / sum(every), "probe_unit_ms": 1e3 * probe.unit_s(),
             "probe_units": probe.units, "op_ms_p50": 1e3 * statistics.median(every),
             "op_median_ms": [1e3 * statistics.median(t) if t else None for t in times],
             "setup_import_s": imports, "setup_samples_s": walls,
             "setup_wall_s": statistics.median(walls), "setup_probe_unit_ms": 1e3 * setup_probe.unit_s()}
    samples = {"op_time_ref": len(every), "ops_per_s": len(every), "op_ms_p50": len(every),
               "setup_s": len(walls), "peak_rss_mb": 1}
    if len(every) >= P90_MIN_SAMPLES:
        extra["op_ms_p90"] = 1e3 * statistics.quantiles(every, n=10)[-1]
        samples["op_ms_p90"] = len(every)
    return result, extra, samples


def measure_traced(cli, ops, args, tally, out_dir: Path):
    """Per-layer metrics: after a warm-up pass, untraced and traced passes in
    turn, twice, so that counts repeat exactly for a seed and the overhead
    compares the traced and untraced ``ops_per_s`` of those passes."""
    from tracing import Tracer

    _, imports = fresh_interpreters(None, tally, SETUP_REPEATS)
    run_passes(cli, ops, tally)  # a whole pass, so that no timed pass pays first calls
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(TRACED_PASSES):
        plain += [x for t in run_passes(cli, ops, tally) for x in t]
        tracer.install()
        traced += [x for t in run_passes(cli, ops, tally, tracer=tracer) for x in t]
        tracer.uninstall()
    if not (plain and traced):
        raise RuntimeError("no operation passed its check")
    overhead = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    n_traced = TRACED_PASSES * len(ops)
    result = tracer.metrics(n_traced, statistics.median(imports), overhead)
    spans_path = out_dir / f"SPANS_{args.workload}_seed{args.seed}.json"
    tracer.write_spans(spans_path)
    extra = {"spans": len(tracer.spans), "spans_file": spans_path.name}
    samples = {k: n_traced for k in result}
    samples["cli.import_s"] = len(imports)
    samples["trace_overhead_frac"] = len(plain) + len(traced)
    return result, extra, samples


def main(argv=None) -> int:
    limit_blas_threads()
    import checks  # numpy loads here, after the thread cap
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WHY), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "discordkit" / "cli.py").is_file():
        sys.stderr.write(f"error: no discordkit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import discordkit.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "discordkit":
        sys.stderr.write(f"error: imported discordkit from {cli.__file__}, not {SRC}\n")
        return 2

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally(checks.check)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        if args.trace:
            metrics, extra, samples = measure_traced(cli, ops, args, tally, out_dir)
        else:
            metrics, extra, samples = measure(cli, ops, args, tally)
    finally:
        shutil.rmtree(work)

    failed = len(tally.reasons)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "error_frac": failed / tally.attempted,
        "failures": tally.reasons[:20],
        "metrics": metrics,
        "extra": extra,
        "samples": samples,
        "environment": environment(args.seed),
    }
    (out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
