"""Decision procedures for discord-destroying channel families.

Point channels (the only channels on B that break discord), quantum-
classical measure-and-prepare channels (the only ones on A that do),
entanglement breaking via the PPT criterion, and the combined classifier
with its tetrahedron sweep over unital qubit channels.  Each family has one
decision function, which takes a stack of Choi matrices: the public verdict
is its one-channel case and the sweep calls it once per slab of grid points.
Every negative verdict adds a witness that can be re-checked independently;
the discordant-output searches and the sweep's probe states take prefixes of
the probe stream of :mod:`discordkit.annihilators`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .annihilators import (
    CertificationReport,
    MatchResult,
    _cq_scan,
    _probe_stream,
    apply_and_certify,
    structural_match,
)
from .channels import (
    QuantumChannel,
    TransferAnalysis,
    _check_trace_preserving,
    _cq_form,
    _in_cptp_tetrahedron,
    _require_dims,
    _swap_slots,
    _unital_qubit_chois,
    analyze_transfer,
    compose,
    extend,
)
from .discord import Hybrid, _cq_conditionals, _cq_draws, _cq_residuals, discord
from .states import (
    BipartiteState,
    DensityOperator,
    _AtLeast,
    _frobenius_norms,
    _validate_states,
    basis_ket,
    partial_trace_matrix,
)
from .tolerances import CQ_TOL, EB_TOL

WITNESS_BUDGET = 500


@dataclass(frozen=True, eq=False)
class Verdict:
    """Yes/no/unknown answer with a re-checkable witness on the negative side."""

    kind: str  # "yes" | "no" | "unknown"
    residual: float
    witness: dict | None = None
    notes: str = ""
    details: dict | None = None


# -- witness probe states -----------------------------------------------------


def witness_probe_states(dim_a: int, dim_b: int, budget: int = WITNESS_BUDGET, seed: int = 137):
    """The first ``budget`` states of the probe stream, validated."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    probes = itertools.islice(_probe_stream(dim_a, dim_b, seed), budget)
    return [BipartiteState.from_matrix(m, dim_a, dim_b) for m in probes]


def _hermitian_probe_inputs(dim: int) -> list[np.ndarray]:
    """Density matrices spanning the Hermitian operators on a ``dim`` space."""
    probes = [np.outer(basis_ket(dim, i), basis_ket(dim, i).conj()) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            plus = (basis_ket(dim, i) + basis_ket(dim, j)) / np.sqrt(2)
            plusi = (basis_ket(dim, i) + 1j * basis_ket(dim, j)) / np.sqrt(2)
            probes.append(np.outer(plus, plus.conj()))
            probes.append(np.outer(plusi, plusi.conj()))
    return probes


# Witnesses made of two probe inputs, by kind: the key their score is
# reported under, and the scores of stacks of output pairs.
_PAIR_WITNESSES = {
    "distinct-outputs": ("distance", lambda x, y: _frobenius_norms(x - y)),
    "noncommuting-outputs": ("commutator_norm", lambda x, y: _frobenius_norms(x @ y - y @ x)),
}


def _probe_pair_witness(channel: QuantumChannel, kind: str) -> dict:
    """The pair of Hermitian probe inputs whose outputs score highest.

    Every pair is scored as one stack, in row-major order of the upper
    triangle, and the first maximising pair wins.
    """
    score_key, score = _PAIR_WITNESSES[kind]
    probes = np.array(_hermitian_probe_inputs(channel.dim_in))
    images = channel.apply_matrix(probes)
    first, second = np.triu_indices(len(probes), 1)
    scores = score(images[first], images[second])
    best = int(np.argmax(scores))
    return {
        "kind": kind,
        "input_a": DensityOperator.from_matrix(probes[first[best]], name="witness input"),
        "input_b": DensityOperator.from_matrix(probes[second[best]], name="witness input"),
        score_key: float(scores[best]),
    }


def _choi_partial_transpose(chois: np.ndarray, dim_in: int) -> np.ndarray:
    """Partial transpose, on the output slot, of each normalised Choi matrix of
    the stack ``(n, d, d)``."""
    n, d = chois.shape[:2]
    dim_out = d // dim_in
    nu = chois / dim_in
    return nu.reshape(n, dim_in, dim_out, dim_in, dim_out).transpose(0, 1, 4, 3, 2).reshape(n, d, d)


# -- family tests --------------------------------------------------------------
# Each decision takes a stack ``(n, d, d)`` of Choi matrices with input
# dimension ``dim_in`` and returns one witness-free verdict per matrix.


def _point_decision(chois: np.ndarray, dim_in: int, tol: float = CQ_TOL) -> list[Verdict]:
    """The decisions of :func:`is_point_channel`, without a witness."""
    dim_out = chois.shape[-1] // dim_in
    sigmas = partial_trace_matrix(chois, dim_in, dim_out, "B") / dim_in
    targets = np.kron(np.eye(dim_in, dtype=complex), sigmas)
    residuals = _frobenius_norms(chois - targets).tolist()
    thresholds = (tol * np.maximum(1.0, _frobenius_norms(chois))).tolist()
    return [
        Verdict(
            kind="yes",
            residual=residual,
            details={"fixed_state": DensityOperator.from_matrix(sigma, name="point target")},
        )
        if residual <= threshold
        else Verdict(kind="no", residual=residual)
        for sigma, residual, threshold in zip(sigmas, residuals, thresholds)
    ]


def _qc_decision(chois: np.ndarray, dim_in: int, tol: float = CQ_TOL) -> list[Verdict]:
    """The decisions of :func:`is_qc_channel`, without a witness: one stacked
    validation and CQ test of the slot-swapped normalised Choi matrices, then
    one stacked rebuild of the channels that pass."""
    dim_out = chois.shape[-1] // dim_in
    nus, error = _validate_states(_swap_slots(chois, dim_in, dim_out) / dim_in, name="swapped Choi")
    if error is not None:
        raise error
    residuals, _ = _cq_residuals(nus, dim_out, dim_in)
    verdicts = [Verdict(kind="no", residual=residual) for residual in residuals]
    cq = np.flatnonzero(np.array(residuals) <= tol)
    if cq.size:
        for row, verdict in zip(cq.tolist(), _qc_rebuild(chois[cq], nus[cq], dim_in, tol)):
            verdicts[row] = verdict
    return verdicts


def _qc_rebuild(chois: np.ndarray, nus: np.ndarray, dim_in: int, tol: float) -> list[Verdict]:
    """The verdicts on channels whose slot-swapped normalised Choi matrices
    ``nus`` are CQ.

    Each draw of the CQ decomposition that reconstructs a channel's ``nu``
    gives a POVM ``F_k = dim_in * p_k * tau_k^T`` and an output basis
    ``|k>``, whose channel has the Choi matrix ``sum_k F_k^T (x) |k><k|``:
    the slot swap of their CQ form, as ``make_qc_channel`` builds it.  The
    answer is "yes" at the first draw whose rebuilt Choi matrix lies within
    ``tol``; otherwise "no" with the smallest rebuild residual, or the last
    reconstruction residual when no draw reconstructs ``nu``.
    """
    n = len(chois)
    dim_out = chois.shape[-1] // dim_in
    scales = np.maximum(1.0, _frobenius_norms(chois))
    verdicts: list[Verdict | None] = [None] * n
    misses: list[list[float]] = [[] for _ in range(n)]
    for relative, accepted, basis, weights, blocks in _cq_draws(nus, dim_out, dim_in, tol):
        rows = np.flatnonzero(accepted & np.array([v is None for v in verdicts], dtype=bool))
        if rows.size:
            probs, conditionals = _cq_conditionals(weights[rows], blocks[rows])
            weighted = (dim_in * probs)[..., None, None] * conditionals  # the F_k^T
            rebuilt = _swap_slots(_cq_form(basis[rows], weighted), dim_out, dim_in)
            residuals = _frobenius_norms(rebuilt - chois[rows]) / scales[rows]
            povms = weighted.transpose(0, 1, 3, 2)
            kets = basis[rows].transpose(0, 2, 1)  # row k is basis[:, k]
            for row, residual, povm, ket in zip(rows.tolist(), residuals.tolist(), povms, kets):
                if residual <= tol:
                    details = {"povm": list(povm), "basis": list(ket)}
                    verdicts[row] = Verdict(kind="yes", residual=residual, details=details)
                else:
                    misses[row].append(residual)
        if all(verdicts):
            break
    return [
        verdict
        or Verdict(
            kind="no",
            residual=min(misses[row], default=float(relative[row])),
            notes="Choi is classical on the output slot but the extracted form "
            "does not reproduce the channel",
        )
        for row, verdict in enumerate(verdicts)
    ]


def _with_witness(verdict: Verdict, channel: QuantumChannel, kind: str) -> Verdict:
    if verdict.kind == "yes":
        return verdict
    return replace(verdict, witness=_probe_pair_witness(channel, kind))


def is_point_channel(channel: QuantumChannel, tol: float = CQ_TOL) -> Verdict:
    """Is the channel constant, ``X -> tr[X] sigma``?

    Tested on the Choi matrix: a point channel has ``J = 1 (x) sigma``
    with ``sigma = tr_in J / dim_in``.  A "no" carries the pair of probe
    inputs whose outputs differ most.
    """
    (verdict,) = _point_decision(channel.choi[None], channel.dim_in, tol)
    return _with_witness(verdict, channel, "distinct-outputs")


def is_qc_channel(channel: QuantumChannel, tol: float = CQ_TOL) -> Verdict:
    """Is the channel measure-and-prepare into a fixed orthonormal basis?

    The Choi matrix of such a channel, read as a bipartite in (x) out
    operator, is classical on the output slot; the test runs the exact
    CQ check on the slot-swapped normalised Choi and, on success, extracts
    the POVM ``F_k = dim_in * (conditional input block)^T`` and basis.
    The answer is "yes" only when the Choi matrix ``sum_k F_k^T (x) |k><k|``
    rebuilt from them lies within ``tol * max(1, ||J||)`` of the channel's
    ``J``.  A "no" carries the pair of probe inputs whose outputs commute
    least.
    """
    (verdict,) = _qc_decision(channel.choi[None], channel.dim_in, tol)
    return _with_witness(verdict, channel, "noncommuting-outputs")


def recheck_witness(channel: QuantumChannel, witness: dict) -> float:
    """Re-evaluate a witness residual from scratch; used to validate verdicts."""
    kind = witness["kind"]
    if kind in _PAIR_WITNESSES:
        out_a = channel.apply_matrix(witness["input_a"].matrix[None])
        out_b = channel.apply_matrix(witness["input_b"].matrix[None])
        return float(_PAIR_WITNESSES[kind][1](out_a, out_b)[0])
    if kind == "npt-eigenvector":
        vec = witness["vector"]
        (pt,) = _choi_partial_transpose(channel.choi[None], channel.dim_in)
        return -float(np.real(vec.conj() @ pt @ vec))
    if kind == "discordant-output":
        raise ValueError("re-check discordant-output witnesses against the extended channel")
    raise ValueError(f"unknown witness kind {kind!r}")


def is_entanglement_breaking(channel: QuantumChannel) -> Verdict:
    """PPT test on the normalised Choi matrix.

    A negative partial-transpose eigenvalue certifies "no" with the
    eigenvector as witness.  PPT is conclusive only for 2x2, 2x3 and 3x2
    in/out dimensions; elsewhere a PPT channel is reported "unknown".
    """
    (verdict,) = _eb_decision(channel.choi[None], channel.dim_in)
    return verdict


def _eb_decision(chois: np.ndarray, dim_in: int) -> list[Verdict]:
    """The verdicts of :func:`is_entanglement_breaking`, from one stacked
    ``eigh`` of the partial transposes."""
    dim_out = chois.shape[-1] // dim_in
    eigvals, eigvecs = np.linalg.eigh(_choi_partial_transpose(chois, dim_in))
    verdicts = []
    for choi, lowest, vecs in zip(chois, eigvals[:, 0].tolist(), eigvecs):
        if lowest < -EB_TOL:
            witness = {"kind": "npt-eigenvector", "eigenvalue": lowest, "vector": vecs[:, 0]}
            verdicts.append(Verdict(kind="no", residual=-lowest, witness=witness))
            continue
        kind, notes = "yes", ""
        if (dim_in, dim_out) not in {(2, 2), (2, 3), (3, 2)}:
            nu = choi / dim_in
            marg_in = partial_trace_matrix(nu, dim_in, dim_out, "A")
            marg_out = partial_trace_matrix(nu, dim_in, dim_out, "B")
            if np.linalg.norm(nu - np.kron(marg_in, marg_out)) <= EB_TOL:
                notes = "Choi matrix is a product state, hence separable in any dimension"
            else:
                kind = "unknown"
                notes = "PPT holds but is not sufficient for separability in these dimensions"
        verdicts.append(Verdict(kind=kind, residual=max(0.0, -lowest), notes=notes))
    return verdicts


# -- combined classification -----------------------------------------------------


@dataclass(frozen=True)
class ActsOnA(_AtLeast):
    dim_b: int


@dataclass(frozen=True)
class ActsOnB(_AtLeast):
    dim_a: int


@dataclass(frozen=True)
class ActsOnAB(_AtLeast):
    dim_a: int
    dim_b: int


Context = ActsOnA | ActsOnB | ActsOnAB


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    context: Context
    label: str
    db_verdict: Verdict | None = None
    eb_verdict: Verdict | None = None
    witness: dict | None = None
    transfer: TransferAnalysis | None = None
    certification: CertificationReport | None = None
    match: MatchResult | None = None


def _discordant_output_witness(
    channel: QuantumChannel, side: str, dim_other: int, seed: int, tol: float
) -> dict | None:
    extended = extend(channel, side, dim_other)
    dims = (channel.dim_in, dim_other) if side == "A" else (dim_other, channel.dim_in)
    out_dims = (channel.dim_out, dim_other) if side == "A" else (dim_other, channel.dim_out)
    probes = itertools.islice(_probe_stream(*dims, seed), WITNESS_BUDGET)
    scan = _cq_scan(extended, probes, dims, tol, out_dims)
    if scan.failing_input is None:
        return None
    return {
        "kind": "discordant-output",
        "input": scan.failing_input,
        "output": scan.failing_output,
        "cq_residual": scan.failing_residual,
    }


def classify_channel(
    channel: QuantumChannel,
    context: Context,
    *,
    seed: int = 0,
    samples: int = 200,
    cq_tol: float = CQ_TOL,
) -> ClassificationReport:
    """Classify a channel in its acting context.

    On A the discord-breaking channels are exactly the measure-and-prepare
    (quantum-classical) channels; on B exactly the point channels.  On the
    joint system the classifier combines the rank screening of the real
    transfer matrix, image certification on random inputs, and structural
    recovery of the annihilating form from the span of the channel's image.
    Every discord decision, on A, on B and in the certification, is judged
    at ``cq_tol``; the recovery draws no inputs and does not depend on
    ``seed``.
    """
    if isinstance(context, (ActsOnA, ActsOnB)):
        if isinstance(context, ActsOnA):
            side, dim_other, verdict = "A", context.dim_b, is_qc_channel(channel, cq_tol)
        else:
            side, dim_other, verdict = "B", context.dim_a, is_point_channel(channel, cq_tol)
        eb = is_entanglement_breaking(channel)
        witness = None
        if verdict.kind != "yes":
            witness = _discordant_output_witness(channel, side, dim_other, 137 + seed, cq_tol)
        label = ("db-" if verdict.kind == "yes" else "not-db-") + side.lower()
        return ClassificationReport(
            context=context, label=label, db_verdict=verdict, eb_verdict=eb, witness=witness
        )
    if isinstance(context, ActsOnAB):
        dim_a, dim_b = context.dim_a, context.dim_b
        analysis = analyze_transfer(channel)
        certification = apply_and_certify(
            channel, dim_a, dim_b, n_samples=samples, seed=seed, tol=cq_tol
        )
        if not certification.passed:
            witness = {
                "kind": "discordant-output",
                "input": certification.failing_input,
                "cq_residual": certification.failing_residual,
            }
            return ClassificationReport(
                context=context,
                label="not-da",
                transfer=analysis,
                certification=certification,
                witness=witness,
            )
        match = structural_match(channel, dim_a, dim_b)
        label = "da" if match.matched else "inconclusive"
        return ClassificationReport(
            context=context,
            label=label,
            transfer=analysis,
            certification=certification,
            match=match,
            witness=None,
        )
    raise TypeError(f"unsupported context {context!r}")


# -- tetrahedron sweep ------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    l1: float
    l2: float
    l3: float
    is_db: bool
    is_eb: bool
    max_discord: float


def _axis_count(step: float) -> int:
    """Grid values per axis of a sweep at ``step``, ``round(2 / step) + 1``.

    Refuses a step outside (0, 1], and one whose count exceeds the largest
    float array numpy can allocate.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    intervals = 2.0 / step  # inf for a subnormal step
    if not intervals < np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ValueError(f"step {step} gives more grid values per axis than numpy can allocate")
    return round(intervals) + 1


def tetrahedron_sweep(
    step: float,
    side: str,
    dim_other: int = 2,
    n_probe_states: int = 0,
    seed: int = 42,
) -> list[SweepRow]:
    """Classify the unital-qubit CPTP tetrahedron on a regular grid.

    Each grid point gets the witness-free decision of ``is_qc_channel`` (side
    A) or ``is_point_channel`` (side B) and its entanglement-breaking
    verdict; when ``n_probe_states`` is positive the maximal
    discord over the probe outputs of the extended channel is reported,
    otherwise NaN.  Rows are ordered by grid index.  The grid is decided one
    ``l1`` slab at a time: the slab's points inside the tetrahedron get one
    Choi stack from the Pauli Choi matrices, one trace-preservation check and
    one call of each stacked decision.
    """
    count = _axis_count(step)
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    _require_dims(dim_other=dim_other)
    values = -1.0 + step * np.arange(count)
    dims = (2, dim_other) if side == "A" else (dim_other, 2)
    probes = witness_probe_states(*dims, budget=n_probe_states, seed=seed) if n_probe_states else []
    decide = _qc_decision if side == "A" else _point_decision
    slab_l2, slab_l3 = (axis.ravel() for axis in np.meshgrid(values, values, indexing="ij"))
    rows = []
    for l1 in values.tolist():
        inside = _in_cptp_tetrahedron(l1, slab_l2, slab_l3)
        l2, l3 = slab_l2[inside], slab_l3[inside]
        chois = _unital_qubit_chois(l1, l2, l3)
        _check_trace_preserving(chois, 2)
        is_db = [verdict.kind == "yes" for verdict in decide(chois, 2)]
        is_eb = [verdict.kind == "yes" for verdict in _eb_decision(chois, 2)]
        for i, (x2, x3) in enumerate(zip(l2.tolist(), l3.tolist())):
            max_discord = float("nan")
            if probes:
                extended = extend(QuantumChannel._of_choi(chois[i], 2, 2), side, dim_other)
                discords = [discord(extended.apply(p), Hybrid()).value for p in probes]
                max_discord = max([0.0] + discords)
            rows.append(SweepRow(l1, x2, x3, is_db[i], is_eb[i], max_discord))
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["l1,l2,l3,is_db,is_eb,max_discord"]
    for row in rows:
        lines.append(
            f"{row.l1:.9g},{row.l2:.9g},{row.l3:.9g},"
            f"{str(row.is_db).lower()},{str(row.is_eb).lower()},{row.max_discord:.9g}"
        )
    return "\n".join(lines) + "\n"


# -- local product channels --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalDAVerdict:
    kind: str  # "da-via-a" | "da-via-b" | "not-da"
    witness: BipartiteState | None = None
    residual: float | None = None

    def __bool__(self) -> bool:
        return self.kind != "not-da"


# is_local_da searches this many witness probe states, drawn from this seed.
_LOCAL_DA_BUDGET = 200
_LOCAL_DA_SEED = 5


def is_local_da(channel_a: QuantumChannel, channel_b: QuantumChannel) -> LocalDAVerdict:
    """Decide whether a product channel annihilates discord.

    This holds exactly when the A factor is a measure-and-prepare channel
    diagonal in a fixed basis, or the B factor is a point channel.  When
    neither holds the verdict is ``not-da``, and a witness input with a
    non-CQ output is searched for.  ``residual`` is the largest output CQ
    residual the search reached; when it is within ``CQ_TOL`` no probe
    failed, and ``witness`` is None rather than an input whose output passes.
    """
    if _qc_decision(channel_a.choi[None], channel_a.dim_in)[0].kind == "yes":
        return LocalDAVerdict(kind="da-via-a")
    if _point_decision(channel_b.choi[None], channel_b.dim_in)[0].kind == "yes":
        return LocalDAVerdict(kind="da-via-b")
    dim_a, dim_b = channel_a.dim_in, channel_b.dim_in
    product = compose(extend(channel_b, "B", channel_a.dim_out), extend(channel_a, "A", dim_b))
    probes = itertools.islice(_probe_stream(dim_a, dim_b, _LOCAL_DA_SEED), _LOCAL_DA_BUDGET)
    scan = _cq_scan(product, probes, (dim_a, dim_b), CQ_TOL, (channel_a.dim_out, channel_b.dim_out))
    return LocalDAVerdict(kind="not-da", witness=scan.failing_input, residual=scan.worst_residual)
