"""Decision procedures for discord-destroying channel families.

Point channels (the only channels on B that break discord), quantum-
classical measure-and-prepare channels (the only ones on A that do),
entanglement breaking via the PPT criterion, and the combined classifier
with its tetrahedron sweep over unital qubit channels.  Each family has one
decision function, shared by its verdict and the sweep; every negative
verdict adds a witness that can be re-checked independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .annihilators import (
    CertificationReport,
    MatchResult,
    _cq_scan,
    apply_and_certify,
    structural_match,
)
from .channels import (
    QuantumChannel,
    TransferAnalysis,
    analyze_transfer,
    choi_distance,
    compose,
    extend,
    make_qc_channel,
    make_unital_qubit,
    UnitalQubitParams,
)
from .discord import DecompositionError, Hybrid, cq_decompose, discord, is_cq_exact
from .states import (
    BipartiteState,
    DensityOperator,
    _frobenius_norms,
    as_rng,
    basis_ket,
    bell_state,
    max_entangled,
    partial_trace_matrix,
    random_density,
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


def _fourier_ket(dim: int, k: int) -> np.ndarray:
    phases = np.exp(2j * np.pi * k * np.arange(dim) / dim)
    return phases / np.sqrt(dim)


def _witness_probes(dim_a: int, dim_b: int, seed: int):
    """Endless probe stream: entangled states, product extremes and
    noncommuting classical mixtures first, then seeded random states."""
    if dim_a == 2 and dim_b == 2:
        yield from map(bell_state, range(4))
    elif min(dim_a, dim_b) >= 2:
        yield max_entangled(dim_a, dim_b)
    for i, j in itertools.product(range(min(dim_a, 2)), range(min(dim_b, 2))):
        ket = np.kron(basis_ket(dim_a, i), basis_ket(dim_b, j))
        yield BipartiteState(dim_a, dim_b, DensityOperator.pure(ket))
    plus_a = _fourier_ket(dim_a, 1) if dim_a > 1 else basis_ket(1, 0)
    plus_b = _fourier_ket(dim_b, 1) if dim_b > 1 else basis_ket(1, 0)
    zero_a, zero_b = basis_ket(dim_a, 0), basis_ket(dim_b, 0)
    zero = np.kron(np.outer(zero_a, zero_a.conj()), np.outer(zero_b, zero_b.conj()))
    for ket_b in (plus_b, basis_ket(dim_b, dim_b - 1)):
        plus = np.kron(np.outer(plus_a, plus_a.conj()), np.outer(ket_b, ket_b.conj()))
        yield BipartiteState.from_matrix(0.5 * zero + 0.5 * plus, dim_a, dim_b)
    rng = as_rng(seed)
    while True:
        yield BipartiteState(dim_a, dim_b, random_density(dim_a * dim_b, "hilbert-schmidt", rng))


def witness_probe_states(dim_a: int, dim_b: int, budget: int = WITNESS_BUDGET, seed: int = 137):
    """The first ``budget`` states of the deterministic witness probe stream."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    return list(itertools.islice(_witness_probes(dim_a, dim_b, seed), budget))


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


def _choi_partial_transpose(channel: QuantumChannel) -> np.ndarray:
    """Partial transpose, on the output slot, of the normalised Choi matrix."""
    din, dout = channel.dim_in, channel.dim_out
    nu = channel.choi / din
    return nu.reshape(din, dout, din, dout).transpose(0, 3, 2, 1).reshape(nu.shape)


# -- family tests --------------------------------------------------------------


def _point_decision(channel: QuantumChannel, tol: float = CQ_TOL) -> Verdict:
    """The decision of :func:`is_point_channel`, without a witness."""
    j = channel.choi
    sigma = partial_trace_matrix(j, channel.dim_in, channel.dim_out, "B") / channel.dim_in
    target = np.kron(np.eye(channel.dim_in, dtype=complex), sigma)
    residual = float(np.linalg.norm(j - target))
    threshold = tol * max(1.0, float(np.linalg.norm(j)))
    if residual <= threshold:
        return Verdict(
            kind="yes",
            residual=residual,
            details={"fixed_state": DensityOperator.from_matrix(sigma, name="point target")},
        )
    return Verdict(kind="no", residual=residual)


def _qc_decision(channel: QuantumChannel, tol: float = CQ_TOL) -> Verdict:
    """The decision of :func:`is_qc_channel`, without a witness."""
    din, dout = channel.dim_in, channel.dim_out
    j = channel.choi
    swapped = (
        j.reshape(din, dout, din, dout).transpose(1, 0, 3, 2).reshape(din * dout, din * dout)
    )
    nu = BipartiteState.from_matrix(swapped / din, dout, din, name="swapped Choi")
    check = is_cq_exact(nu, tol)
    if not check:
        return Verdict(kind="no", residual=check.residual)
    try:
        decomp = cq_decompose(nu, tol)
    except DecompositionError as exc:
        residual = exc.residual
    else:
        povm = []
        kets = []
        for k in range(dout):
            povm.append(din * decomp.probs[k] * decomp.conditional_states[k].matrix.T)
            kets.append(decomp.basis[:, k])
        rebuilt = make_qc_channel(povm, kets)
        residual = choi_distance(rebuilt, channel) / max(1.0, float(np.linalg.norm(j)))
        if residual <= tol:
            return Verdict(
                kind="yes",
                residual=residual,
                details={"povm": povm, "basis": kets},
            )
    return Verdict(
        kind="no",
        residual=residual,
        notes="Choi is classical on the output slot but the extracted form "
        "does not reproduce the channel",
    )


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
    return _with_witness(_point_decision(channel, tol), channel, "distinct-outputs")


def is_qc_channel(channel: QuantumChannel, tol: float = CQ_TOL) -> Verdict:
    """Is the channel measure-and-prepare into a fixed orthonormal basis?

    The Choi matrix of such a channel, read as a bipartite in (x) out
    operator, is classical on the output slot; the test runs the exact
    CQ check on the slot-swapped normalised Choi and, on success, extracts
    the POVM ``F_k = dim_in * (conditional input block)^T`` and basis.
    The answer is "yes" only when the channel rebuilt from them lies within
    ``tol`` of the original.  A "no" carries the pair of probe inputs whose
    outputs commute least.
    """
    return _with_witness(_qc_decision(channel, tol), channel, "noncommuting-outputs")


def recheck_witness(channel: QuantumChannel, witness: dict) -> float:
    """Re-evaluate a witness residual from scratch; used to validate verdicts."""
    kind = witness["kind"]
    if kind in _PAIR_WITNESSES:
        out_a = channel.apply_matrix(witness["input_a"].matrix[None])
        out_b = channel.apply_matrix(witness["input_b"].matrix[None])
        return float(_PAIR_WITNESSES[kind][1](out_a, out_b)[0])
    if kind == "npt-eigenvector":
        vec = witness["vector"]
        return -float(np.real(vec.conj() @ _choi_partial_transpose(channel) @ vec))
    if kind == "discordant-output":
        raise ValueError("re-check discordant-output witnesses against the extended channel")
    raise ValueError(f"unknown witness kind {kind!r}")


def is_entanglement_breaking(channel: QuantumChannel) -> Verdict:
    """PPT test on the normalised Choi matrix.

    A negative partial-transpose eigenvalue certifies "no" with the
    eigenvector as witness.  PPT is conclusive only for 2x2, 2x3 and 3x2
    in/out dimensions; elsewhere a PPT channel is reported "unknown".
    """
    din, dout = channel.dim_in, channel.dim_out
    eigvals, eigvecs = np.linalg.eigh(_choi_partial_transpose(channel))
    if eigvals[0] < -EB_TOL:
        witness = {
            "kind": "npt-eigenvector",
            "eigenvalue": float(eigvals[0]),
            "vector": eigvecs[:, 0],
        }
        return Verdict(kind="no", residual=float(-eigvals[0]), witness=witness)
    if (din, dout) in {(2, 2), (2, 3), (3, 2)}:
        return Verdict(kind="yes", residual=float(max(0.0, -eigvals[0])))
    nu = channel.choi / din
    marg_in = partial_trace_matrix(nu, din, dout, "A")
    marg_out = partial_trace_matrix(nu, din, dout, "B")
    if np.linalg.norm(nu - np.kron(marg_in, marg_out)) <= EB_TOL:
        return Verdict(
            kind="yes",
            residual=float(max(0.0, -eigvals[0])),
            notes="Choi matrix is a product state, hence separable in any dimension",
        )
    return Verdict(
        kind="unknown",
        residual=float(max(0.0, -eigvals[0])),
        notes="PPT holds but is not sufficient for separability in these dimensions",
    )


# -- combined classification -----------------------------------------------------


class _Dimensions:
    """Refuses a dimension below 1 in any field of a context."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class ActsOnA(_Dimensions):
    dim_b: int


@dataclass(frozen=True)
class ActsOnB(_Dimensions):
    dim_a: int


@dataclass(frozen=True)
class ActsOnAB(_Dimensions):
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
    probes = itertools.islice(_witness_probes(dims[0], dims[1], seed), WITNESS_BUDGET)
    scan = _cq_scan(extended, probes, tol)
    if scan.failing_input is None:
        return None
    return {
        "kind": "discordant-output",
        "input": scan.failing_input,
        "output": scan.outputs[-1],
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
    recovery of the annihilating form.  Every one of these discord
    decisions is judged at ``cq_tol``.
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
        match = structural_match(channel, dim_a, dim_b, seed=seed, tol=cq_tol)
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
    otherwise NaN.  Rows are ordered by grid index.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if dim_other < 1:
        raise ValueError(f"dim_other must be at least 1, got {dim_other}")
    n = int(round(2.0 / step))
    values = -1.0 + step * np.arange(n + 1)
    dims = (2, dim_other) if side == "A" else (dim_other, 2)
    probes = witness_probe_states(*dims, budget=n_probe_states, seed=seed) if n_probe_states else []
    decide = _qc_decision if side == "A" else _point_decision
    rows = []
    for l1, l2, l3 in itertools.product(values.tolist(), repeat=3):
        params = UnitalQubitParams(l1, l2, l3)
        if not params.in_cptp_tetrahedron():
            continue
        channel = make_unital_qubit(params)
        max_discord = float("nan")
        if probes:
            extended = extend(channel, side, dim_other)
            max_discord = max([0.0] + [discord(extended.apply(p), Hybrid()).value for p in probes])
        is_db = decide(channel).kind == "yes"
        is_eb = is_entanglement_breaking(channel).kind == "yes"
        rows.append(SweepRow(l1, l2, l3, is_db, is_eb, max_discord))
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
    neither holds, a witness input with a non-CQ output is searched for.
    """
    if _qc_decision(channel_a).kind == "yes":
        return LocalDAVerdict(kind="da-via-a")
    if _point_decision(channel_b).kind == "yes":
        return LocalDAVerdict(kind="da-via-b")
    dim_a, dim_b = channel_a.dim_in, channel_b.dim_in
    product = compose(extend(channel_b, "B", channel_a.dim_out), extend(channel_a, "A", dim_b))
    probes = itertools.islice(_witness_probes(dim_a, dim_b, _LOCAL_DA_SEED), _LOCAL_DA_BUDGET)
    scan = _cq_scan(product, probes)
    # A failing output's residual exceeds every passing one, so the scan's
    # worst input is the first failing input when there is one.
    return LocalDAVerdict(kind="not-da", witness=scan.worst_input, residual=scan.worst_residual)
