"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest bench/tests -q``."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from discordkit.cli import main as cli_main  # noqa: E402


def run_steps(op):
    results = []
    for argv in op.steps:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def replace_output(results, index, text):
    code, _, err = results[index]
    results = list(results)
    results[index] = (code, text, err)
    return results


def find(ops, kind, **ctx):
    return next(op for op in ops if op.kind == kind and all(op.ctx.get(k) == v for k, v in ctx.items()))


@pytest.fixture(scope="module")
def reject_ops(tmp_path_factory):
    return workloads.build("channel_reject", 0, tmp_path_factory.mktemp("reject"))


def test_checker_flags_corrupted_label(reject_ops):
    op = find(reject_ops, "reject_ab")
    results = run_steps(op)
    assert checks.check(op.kind, op.ctx, results) is None
    payload = json.loads(results[0][1])
    payload["label"] = "da"
    bad = replace_output(results, 0, json.dumps(payload))
    assert "label" in checks.check(op.kind, op.ctx, bad)


def test_checker_flags_corrupted_side_label(reject_ops):
    op = find(reject_ops, "classify_side", side="B")
    results = run_steps(op)
    assert checks.check(op.kind, op.ctx, results) is None
    payload = json.loads(results[0][1])
    payload["label"] = "db-b"
    assert "label" in checks.check(op.kind, op.ctx, replace_output(results, 0, json.dumps(payload)))


@pytest.mark.parametrize("column", [3, 4])
def test_checker_flags_corrupted_csv_column(column):
    op = workloads.Op("sweep", [["tetra-sweep", "--step", "0.5", "--side", "A"]], {"side": "A", "step": 0.5})
    results = run_steps(op)
    assert checks.check(op.kind, op.ctx, results) is None
    lines = results[0][1].splitlines()
    cells = lines[1].split(",")
    cells[column] = "true" if cells[column] == "false" else "false"
    lines[1] = ",".join(cells)
    reason = checks.check(op.kind, op.ctx, replace_output(results, 0, "\n".join(lines) + "\n"))
    assert reason is not None and ("is_db" in reason or "is_eb" in reason)


def test_checker_flags_lowered_j(tmp_path):
    op = workloads.discord_op("hs2x3", 5, tmp_path, workloads.load_reference())
    results = run_steps(op)
    assert checks.check(op.kind, op.ctx, results) is None
    payload = json.loads(results[0][1])
    payload["classical_correlation"] -= 1e-6
    payload["discord"] += 1e-6  # keep D = I - J so only the reference check can fire
    reason = checks.check(op.kind, op.ctx, replace_output(results, 0, json.dumps(payload)))
    assert "below the reference" in reason


def test_checker_flags_non_finite_discord(tmp_path):
    op = workloads.discord_op("hs2x2", 0, tmp_path, workloads.load_reference())
    results = run_steps(op)
    text = results[0][1].replace(json.dumps(json.loads(results[0][1])["discord"]), "NaN", 1)
    assert "non-finite" in checks.check(op.kind, op.ctx, replace_output(results, 0, text))


def test_checker_flags_changed_rank_multiset(tmp_path):
    op = workloads.build("da_accept", 0, tmp_path)[0]
    results = run_steps(op)
    assert checks.check(op.kind, op.ctx, results) is None
    spec = json.loads(results[0][1])
    spec["entries"] = spec["entries"] + spec["entries"][:1]
    reason = checks.check(op.kind, op.ctx, replace_output(results, 0, json.dumps(spec)))
    assert "recovered ranks" in reason


def _shape(op):
    """The operation with its input files and seeds blanked out."""
    return (op.kind, [[a if not (a.endswith(".json") or a.isdigit()) else "*" for a in argv] for argv in op.steps])


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_seed_changes_inputs_not_operation_mix(workload, tmp_path):
    def make(seed, name):
        (tmp_path / name).mkdir()
        return workloads.build(workload, seed, tmp_path / name)

    def inputs(ops):
        """Seeds on the command lines and the contents of the input files."""
        return [Path(a).read_text() if a.endswith(".json") else a
                for op in ops for argv in op.steps for a in argv
                if a.isdigit() or (a.endswith(".json") and Path(a).exists())]

    first, second, again = make(0, "a"), make(1, "b"), make(0, "c")
    assert [_shape(op) for op in first] == [_shape(op) for op in second]
    assert inputs(first) != inputs(second)
    assert inputs(again) == inputs(first)


def test_untraced_run_imports_no_tracing_code():
    script = (
        "import sys; sys.path.insert(0, 'bench'); import run, contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = run.main(['--workload', 'channel_reject', '--seconds', '0.1'])\n"
        "print(code, 'tracing' in sys.modules, out.getvalue().splitlines()[-1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=170)
    code, traced, result = proc.stdout.split(" ", 2)
    assert (code, traced) == ("0", "False"), proc.stderr
    assert json.loads(result)["correct"] is True


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "qubit_discord"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
