"""Output checks for every benchmark operation.

Each check takes the operation's context and the ``(exit code, stdout,
stderr)`` of each CLI step, and returns ``None`` when the output is right
or a one-line reason when it is not.  The oracles are plain numpy
re-implementations (CQ residual, mutual information, PPT, the closed forms
of the unital-qubit tetrahedron), except that negative verdict witnesses
are re-checked through ``discordkit.classify.recheck_witness`` as the
library documents.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from corpus import decode_matrix

CQ_TOL = 1e-8  # the CLI's default --tol-cq
J_TOL = 1e-8  # a faster optimiser may return J at most this far (bits) below the reference
SWEEP_HEADER = "l1,l2,l3,is_db,is_eb,max_discord"


class CheckFailed(Exception):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def strict_json(text: str):
    """Parse JSON, refusing NaN and infinities."""

    def reject(token):
        raise CheckFailed(f"non-finite JSON value {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON ({exc})") from None


# -- numpy oracles ----------------------------------------------------------------------


def entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def mutual_information(m: np.ndarray, da: int, db: int) -> float:
    r = m.reshape(da, db, da, db)
    rho_a = np.trace(r, axis1=1, axis2=3)
    rho_b = np.trace(r, axis1=0, axis2=2)
    return entropy(rho_a) + entropy(rho_b) - entropy(m)


def cq_residual(m: np.ndarray, da: int, db: int) -> float:
    """Worst normality or commutator defect of the B-indexed blocks, relative
    to the Frobenius norm of the state; zero exactly for CQ states."""
    blocks = m.reshape(da, db, da, db).transpose(1, 3, 0, 2).reshape(db * db, da, da)
    adj = blocks.conj().transpose(0, 2, 1)
    normality = np.linalg.norm(blocks @ adj - adj @ blocks, axis=(1, 2))
    comm = np.linalg.norm(
        blocks[:, None] @ blocks[None, :] - blocks[None, :] @ blocks[:, None], axis=(2, 3)
    )
    return float(max(normality.max(), comm.max()) / np.linalg.norm(m))


def apply_kraus(ops, m: np.ndarray) -> np.ndarray:
    return sum(k @ m @ k.conj().T for k in ops)


def extend(ops, side: str, dim_other: int) -> list[np.ndarray]:
    eye = np.eye(dim_other)
    return [np.kron(k, eye) if side == "A" else np.kron(eye, k) for k in ops]


def ppt_min_eigenvalue(ops) -> float:
    """Smallest eigenvalue of the partial transpose of the normalised Choi matrix."""
    dout, din = ops[0].shape
    vecs = np.stack([k.T.reshape(-1) for k in ops])
    choi = (vecs.T @ vecs.conj()) / din
    pt = choi.reshape(din, dout, din, dout).transpose(0, 3, 2, 1).reshape(choi.shape)
    return float(np.linalg.eigvalsh(pt)[0])


def tetrahedron_grid(step: float):
    values = -1.0 + step * np.arange(int(round(2.0 / step)) + 1)
    return [
        (float(l1), float(l2), float(l3))
        for l1 in values
        for l2 in values
        for l3 in values
        if abs(l1 + l2) <= 1.0 + l3 + 1e-12 and abs(l1 - l2) <= 1.0 - l3 + 1e-12
    ]


def closed_form_row(lam, side: str) -> tuple[bool, bool]:
    """(is_db, is_eb): on A discord breaking iff two contractions vanish, on B
    iff all three do; entanglement breaking iff sum |l_i| <= 1."""
    zeros = sum(1 for v in lam if v == 0.0)
    is_db = zeros >= (2 if side == "A" else 3)
    return is_db, sum(abs(v) for v in lam) <= 1.0 + 1e-12


# -- per-operation checks ---------------------------------------------------------------


def _step(results, index: int, expected_code: int) -> str:
    code, out, err = results[index]
    require(code == expected_code, f"step {index}: exit {code}, expected {expected_code}: {err.strip()[:200]}")
    return out


def check_discord(ctx, results):
    payload = strict_json(_step(results, 0, 0))
    d, i, j = (payload.get(k) for k in ("discord", "mutual_information", "classical_correlation"))
    require(all(isinstance(x, float) and math.isfinite(x) for x in (d, i, j)), "D, I or J missing or not finite")
    require(abs(d - (i - j)) <= 1e-12 * max(1.0, abs(i)), f"D = {d!r} differs from I - J = {i - j!r}")
    da, db = ctx["dims"]
    own_i = mutual_information(ctx["matrix"], da, db)
    require(abs(i - own_i) <= 1e-9, f"I = {i!r}, recomputed {own_i!r}")
    require(j <= i + 1e-9, f"J = {j!r} exceeds I = {i!r}")
    ref = ctx["ref_j"]
    require(ref is not None, f"no reference J for {ctx['member']}")
    require(j >= ref - J_TOL, f"J = {j!r} is below the reference {ref!r} for {ctx['member']}")


def check_sweep(ctx, results):
    lines = _step(results, 0, 0).splitlines()
    require(lines and lines[0] == SWEEP_HEADER, "CSV header differs")
    side = ctx["side"]
    expected = tetrahedron_grid(ctx["step"])
    require(len(lines) - 1 == len(expected), f"{len(lines) - 1} rows, expected {len(expected)}")
    for line, lam in zip(lines[1:], expected):
        cells = line.split(",")
        require(len(cells) == 6, f"row {line!r} does not have 6 columns")
        got = tuple(float(c) for c in cells[:3])
        require(got == lam, f"row {line!r}: expected grid point {lam}")
        is_db, is_eb = closed_form_row(lam, side)
        require(cells[3] == str(is_db).lower(), f"row {line!r}: is_db should be {is_db}")
        require(cells[4] == str(is_eb).lower(), f"row {line!r}: is_eb should be {is_eb}")
        require(cells[5] == "nan", f"row {line!r}: max_discord should be nan without probes")


def _recheck_discordant(ops, witness, dims, side=None, dim_other=None):
    require(witness is not None and witness.get("kind", "discordant-output") == "discordant-output",
            "missing discordant-output witness")
    da, db = dims
    state = decode_matrix(witness["input"]["matrix"], da * db, da * db)
    if side is not None:
        ops = extend(ops, side, dim_other)
    residual = cq_residual(apply_kraus(ops, state), da, db)
    require(residual > CQ_TOL, f"witness output is CQ on re-check (residual {residual:.3e})")
    reported = witness["cq_residual"]
    require(abs(residual - reported) <= 1e-6 * residual, f"witness residual {reported!r}, re-checked {residual!r}")


def check_reject_ab(ctx, results):
    payload = strict_json(_step(results, 0, 0))
    require(payload.get("label") == "not-da", f"label {payload.get('label')!r}, expected 'not-da'")
    require(payload["certification"]["passed"] is False, "certification should fail")
    _recheck_discordant(ctx["kraus"], payload.get("witness"), ctx["dims"])


def check_reject_verify(ctx, results):
    out = _step(results, 0, 3)
    require(out == "", "verify-da printed a report on stdout although it failed")
    report = Path(ctx["witness_out"])
    require(report.exists(), "verify-da wrote no failure report")
    payload = strict_json(report.read_text())
    report.unlink()  # the next repeat must write its own
    require(payload["certification"]["passed"] is False, "certification should fail")
    _recheck_discordant(ctx["kraus"], payload.get("witness"), ctx["dims"])


def _library_witness(witness):
    from discordkit.serialize import load_state

    rebuilt = dict(witness)
    for key in ("input_a", "input_b"):
        if key in rebuilt:
            rebuilt[key] = load_state(rebuilt[key])
    if "vector" in rebuilt:
        rows = len(rebuilt["vector"])
        rebuilt["vector"] = decode_matrix(rebuilt["vector"], rows, 1)[:, 0]
    return rebuilt


def check_classify_side(ctx, results):
    from discordkit.classify import recheck_witness
    from discordkit.serialize import load_channel

    payload = strict_json(_step(results, 0, 0))
    side = ctx["side"]
    label = f"not-db-{side.lower()}"
    require(payload.get("label") == label, f"label {payload.get('label')!r}, expected {label!r}")
    channel = load_channel(ctx["path"])
    db = payload["db"]
    require(db["kind"] == "no" and db.get("witness"), "db verdict should be 'no' with a witness")
    value_key = "commutator_norm" if side == "A" else "distance"
    rechecked = recheck_witness(channel, _library_witness(db["witness"]))
    reported = db["witness"][value_key]
    require(rechecked > CQ_TOL and abs(rechecked - reported) <= 1e-9 * max(1.0, reported),
            f"db witness {reported!r}, re-checked {rechecked!r}")
    ppt = ppt_min_eigenvalue(ctx["kraus"])
    eb = payload["eb"]
    if eb["kind"] == "no":
        rechecked = recheck_witness(channel, _library_witness(eb["witness"]))
        require(ppt < 0 and abs(rechecked + eb["witness"]["eigenvalue"]) <= 1e-9,
                f"eb witness {eb['witness']['eigenvalue']!r}, re-checked {-rechecked!r}")
    else:
        require(ppt >= -1e-9, f"eb verdict {eb['kind']!r} but the Choi matrix is NPT ({ppt:.3e})")
    d = ctx["kraus"][0].shape[1]
    dims = (d, ctx["dim_other"]) if side == "A" else (ctx["dim_other"], d)
    _recheck_discordant(ctx["kraus"], payload.get("witness"), dims, side, ctx["dim_other"])


def rank_multiset(spec: dict) -> list[int]:
    da = spec["dims"][0]
    ranks = []
    for entry in spec["entries"]:
        if entry["kind"] == "rank1":
            ranks.append(1)
        else:
            proj = decode_matrix(entry["projector"], da, da)
            ranks.append(int(round(np.trace(proj).real)))
    return sorted(ranks)


def check_da_accept(ctx, results):
    generated = strict_json(_step(results, 0, 0))
    verified = strict_json(_step(results, 1, 0))
    require(verified["certification"]["passed"] is True, "verify-da certification failed")
    require(verified["screening"]["rank_deficient"] is True, "transfer matrix should be rank deficient")
    payload = strict_json(_step(results, 2, 0))
    require(payload.get("label") == "da", f"label {payload.get('label')!r}, expected 'da'")
    require(payload["certification"]["passed"] is True, "classify certification failed")
    require(payload.get("match_residual", 1.0) <= 1e-6, "structural match residual above 1e-6")
    want, got = rank_multiset(generated), rank_multiset(payload["recovered_spec"])
    require(want == got, f"recovered ranks {got}, generated {want}")


CHECKS = {
    "discord": check_discord,
    "sweep": check_sweep,
    "reject_ab": check_reject_ab,
    "reject_verify": check_reject_verify,
    "classify_side": check_classify_side,
    "da_accept": check_da_accept,
}


def check(kind: str, ctx, results) -> str | None:
    """Run the check for an operation kind; the failure reason, or None."""
    try:
        CHECKS[kind](ctx, results)
    except CheckFailed as exc:
        return str(exc)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
    return None
