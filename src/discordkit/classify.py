"""Decision procedures for discord-destroying channel families.

Point channels (the only channels on B that break discord), quantum-
classical measure-and-prepare channels (the only ones on A that do),
entanglement breaking via the PPT criterion, and the combined classifier
with its tetrahedron sweep over unital qubit channels.  Each family has one
decision function, which takes a stack of Choi matrices and answers in
arrays: the public verdict is its one-channel case and the sweep calls it
once per bounded stack of grid points.
Measure-and-prepare is decided by the exact CQ test of the slot-swapped
Choi matrix alone, at the tolerance that judges states; a "yes" verdict's
POVM is decomposed only when that verdict is read.
Every negative verdict adds a witness that can be re-checked independently;
the discordant-output searches scan the seed-free family of
:func:`_two_block_family`, and the sweep's probe states are a prefix of the
probe stream of :mod:`discordkit.annihilators`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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
    _in_cptp_tetrahedron,
    _require_dims,
    _swap_slots,
    _unital_qubit_chois,
    analyze_transfer,
    compose,
    extend,
)
from .discord import DecompositionError, Hybrid, _cq_residuals, cq_decompose, discord
from .states import (
    BipartiteState,
    DensityOperator,
    _AtLeast,
    _freeze,
    _frobenius_norms,
    _validate_states,
    basis_ket,
    partial_trace_matrix,
)
from .tolerances import CQ_TOL, EB_TOL

# Grid points per stacked decision of the tetrahedron sweep, cut from the
# array of all the grid's inside points: a step-0.25 grid (249 points) fits
# one stack.  Larger stacks ran faster but raised the sweep's peak memory.
SWEEP_STACK = 256


@dataclass(frozen=True, eq=False)
class Verdict:
    """Yes/no/unknown answer with a re-checkable witness on the negative side."""

    kind: str  # "yes" | "no" | "unknown"
    residual: float
    witness: dict | None = None
    notes: str = ""
    details: dict | None = None


# -- witness probe states -----------------------------------------------------


def witness_probe_states(dim_a: int, dim_b: int, budget: int, seed: int):
    """The first ``budget`` states of the probe stream, validated."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    probes = _probe_stream(dim_a, dim_b, seed)(budget)
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


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the square matrices of two broadcast stacks, row by row."""
    rows = a[..., :, None, :, None] * b[..., None, :, None, :]
    return rows.reshape(*rows.shape[:-4], *[a.shape[-1] * b.shape[-1]] * 2)


def _two_block_family(dims: tuple[int, int], factors: Callable[[], tuple]):
    """A seed-free ``take`` for :func:`_cq_scan`: the probe stream's fixed head
    on ``dims``, then ``(X (x) P + Y (x) Q) / 2`` for the broadcast stacks
    ``X, P, Y, Q = factors()``, which is called once the scan passes the head."""
    head, pairs = _probe_stream(*dims, 0, n_draws=0), None

    def take(n: int) -> np.ndarray:
        nonlocal pairs
        stack = head(n)
        if not len(stack):
            if pairs is None:
                x, p, y, q = factors()
                pairs = 0.5 * (_kron_rows(x, p) + _kron_rows(y, q))
            stack, pairs = pairs[:n], pairs[n:]
        return stack

    return take


def _choi_partial_transpose(chois: np.ndarray, dim_in: int) -> np.ndarray:
    """Partial transpose, on the output slot, of each normalised Choi matrix of
    the stack ``(n, d, d)``."""
    n, d = chois.shape[:2]
    dim_out = d // dim_in
    nu = chois / dim_in
    return nu.reshape(n, dim_in, dim_out, dim_in, dim_out).transpose(0, 1, 4, 3, 2).reshape(n, d, d)


# -- family tests --------------------------------------------------------------
# Each decision takes a stack ``(n, d, d)`` of Choi matrices with input
# dimension ``dim_in`` and answers in arrays, one row per matrix.


class _Decisions(Sequence):
    """The answers of one stacked decision: the ``yes`` mask and the
    ``residuals``, and ``decisions[i]``, row i's witness-free :class:`Verdict`,
    built from the kept arrays only when it is read."""

    def __init__(self, yes: np.ndarray, residuals: np.ndarray, verdict: Callable[[int], Verdict]):
        self.yes, self.residuals, self._verdict = yes, residuals, verdict

    def __len__(self) -> int:
        return len(self.yes)

    def __getitem__(self, row: int) -> Verdict:
        return self._verdict(range(len(self))[row])


def _point_decision(chois: np.ndarray, dim_in: int, tol: float = CQ_TOL) -> _Decisions:
    """The decisions of :func:`is_point_channel`; a "yes" verdict's fixed
    state is read off the kept stack of marginals."""
    dim_out = chois.shape[-1] // dim_in
    sigmas = partial_trace_matrix(chois, dim_in, dim_out, "B") / dim_in
    targets = np.kron(np.eye(dim_in, dtype=complex), sigmas)
    residuals = _frobenius_norms(chois - targets)
    yes = residuals <= tol * np.maximum(1.0, _frobenius_norms(chois))

    def verdict(row: int) -> Verdict:
        residual = float(residuals[row])
        if not yes[row]:
            return Verdict(kind="no", residual=residual)
        fixed = DensityOperator.from_matrix(sigmas[row], name="point target")
        return Verdict(kind="yes", residual=residual, details={"fixed_state": fixed})

    return _Decisions(yes, residuals, verdict)


def _qc_decision(chois: np.ndarray, dim_in: int, tol: float = CQ_TOL) -> _Decisions:
    """The decisions of :func:`is_qc_channel`: one stacked validation and CQ
    test of the slot-swapped normalised Choi matrices ``nu``, each row "yes"
    exactly when its CQ residual is within ``tol``.

    A "yes" verdict's POVM ``F_k = dim_in * p_k * tau_k^T`` and output basis
    ``|k>`` come from :func:`cq_decompose` of its row's ``nu`` when the
    verdict is read; their channel has the Choi matrix
    ``sum_k F_k^T (x) |k><k|``, as ``make_qc_channel`` builds it.  When no
    decomposition draw reconstructs ``nu`` the verdict stays "yes", without
    details, and its notes give the error.
    """
    dim_out = chois.shape[-1] // dim_in
    nus, error = _validate_states(_swap_slots(chois, dim_in, dim_out) / dim_in, name="swapped Choi")
    if error is not None:
        raise error
    residuals = _cq_residuals(nus, dim_out, dim_in)[0]
    yes = residuals <= tol

    def verdict(row: int) -> Verdict:
        residual = float(residuals[row])
        if not yes[row]:
            return Verdict(kind="no", residual=residual)
        nu = BipartiteState(dim_out, dim_in, DensityOperator(len(nus[row]), _freeze(nus[row])))
        try:
            cq = cq_decompose(nu, tol)
        except DecompositionError as exc:
            return Verdict(kind="yes", residual=residual, notes=str(exc))
        povm = [dim_in * p * tau.matrix.T for p, tau in zip(cq.probs, cq.conditional_states)]
        details = {"povm": povm, "basis": list(cq.basis.T)}  # row k is basis[:, k]
        return Verdict(kind="yes", residual=residual, details=details)

    return _Decisions(yes, residuals, verdict)


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
    operator, is classical on the output slot, and only such a channel's
    is: the answer is "yes" exactly when the exact CQ check on the
    slot-swapped normalised Choi passes at ``tol``, and ``residual`` is its
    CQ residual.  A "yes" carries the POVM
    ``F_k = dim_in * (conditional input block)^T`` and basis in
    ``details``, or None and a note when no decomposition draw resolves
    them.  A "no" carries the pair of probe inputs whose outputs commute
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


def _eb_decision(chois: np.ndarray, dim_in: int) -> _Decisions:
    """The decisions of :func:`is_entanglement_breaking`, from one stacked
    ``eigh`` of the partial transposes; a "no" verdict's witness is read off
    the kept eigenvectors."""
    n, d = chois.shape[:2]
    dim_out = d // dim_in
    eigvals, eigvecs = np.linalg.eigh(_choi_partial_transpose(chois, dim_in))
    lowest = eigvals[:, 0]
    npt = lowest < -EB_TOL
    residuals = np.where(-lowest > 0.0, -lowest, 0.0)  # max(0.0, -lowest), row by row
    unknown, note = np.zeros(n, dtype=bool), ""
    if (dim_in, dim_out) not in {(2, 2), (2, 3), (3, 2)}:
        nu = chois / dim_in
        marg_in = partial_trace_matrix(nu, dim_in, dim_out, "A")
        marg_out = partial_trace_matrix(nu, dim_in, dim_out, "B")
        unknown = ~npt & ~(_frobenius_norms(nu - _kron_rows(marg_in, marg_out)) <= EB_TOL)
        note = "Choi matrix is a product state, hence separable in any dimension"

    def verdict(row: int) -> Verdict:
        residual = float(residuals[row])
        if npt[row]:
            vector = eigvecs[row, :, 0]
            witness = {"kind": "npt-eigenvector", "eigenvalue": float(lowest[row]), "vector": vector}
            return Verdict(kind="no", residual=residual, witness=witness)
        if unknown[row]:
            notes = "PPT holds but is not sufficient for separability in these dimensions"
            return Verdict(kind="unknown", residual=residual, notes=notes)
        return Verdict(kind="yes", residual=residual, notes=note)

    return _Decisions(~npt & ~unknown, residuals, verdict)


# -- combined classification -----------------------------------------------------


# A one-dimensional untouched subsystem makes every state CQ, so sides A and B
# need the other dimension to be at least 2.
@dataclass(frozen=True)
class ActsOnA(_AtLeast):
    dim_b: int
    minimum = 2


@dataclass(frozen=True)
class ActsOnB(_AtLeast):
    dim_a: int
    minimum = 2


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


# Why a measure-and-prepare channel is entanglement breaking where PPT is
# not conclusive (Horodecki, Shor and Ruskai 2003, Rev. Math. Phys. 15, 629).
_MEASURE_AND_PREPARE_NOTE = (
    "measure-and-prepare, hence entanglement breaking: the Choi matrix "
    "sum_k F_k^T (x) |k><k| is separable"
)


def _no_witness_note(scan: CertificationReport, tol: float) -> str:
    """Why a scan in which no output failed yields no witness."""
    return (
        f"no discordant output among {scan.n_checked} probe inputs: their largest "
        f"CQ residual {scan.worst_residual:.3e} is within cq_tol {tol:.3e}"
    )


def _discordant_output_witness(
    channel: QuantumChannel, side: str, dim_other: int, tol: float
) -> tuple[dict | None, str]:
    """The first input of the side's witness family whose output is not CQ,
    as a witness, or None and a note of how many inputs were checked and how
    close their outputs came.  Past the head, the family pairs the Hermitian
    probe inputs, in row-major order: side A over a < b as
    ``(X_a (x) |0><0| + X_b (x) |1><1|) / 2``, side B over a != b as
    ``(|0><0| (x) X_a + |+><+| (x) X_b) / 2``."""
    extended = extend(channel, side, dim_other)
    dims = (channel.dim_in, dim_other) if side == "A" else (dim_other, channel.dim_in)
    out_dims = (channel.dim_out, dim_other) if side == "A" else (dim_other, channel.dim_out)

    def factors():
        probes, other = (np.array(_hermitian_probe_inputs(d)) for d in (channel.dim_in, dim_other))
        zero, one, plus = other[0], other[1], other[dim_other]  # |0><0|, |1><1|, |+><+|
        if side == "A":
            first, second = np.triu_indices(len(probes), 1)
            return probes[first], zero, probes[second], one
        first, second = np.nonzero(~np.eye(len(probes), dtype=bool))
        return zero, probes[first], plus, probes[second]

    scan = _cq_scan(extended, _two_block_family(dims, factors), dims, tol, out_dims)
    if scan.failing_input is None:
        return None, _no_witness_note(scan, tol)
    return {
        "kind": "discordant-output",
        "input": scan.failing_input,
        "output": scan.failing_output,
        "cq_residual": scan.failing_residual,
    }, ""


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
    at ``cq_tol``.  Only the certification reads ``seed``: a "no" on A or B
    seeks its witness in a seed-free family, and carries none when every
    family output is CQ; its notes then give the input count and their
    largest CQ residual.
    A "yes" on A whose POVM was resolved settles entanglement breaking where
    PPT cannot: the measure-and-prepare form is a separable Choi matrix.
    """
    if isinstance(context, (ActsOnA, ActsOnB)):
        if isinstance(context, ActsOnA):
            side, dim_other, verdict = "A", context.dim_b, is_qc_channel(channel, cq_tol)
        else:
            side, dim_other, verdict = "B", context.dim_a, is_point_channel(channel, cq_tol)
        eb = is_entanglement_breaking(channel)
        if side == "A" and verdict.details is not None and eb.kind == "unknown":
            eb = replace(eb, kind="yes", notes=_MEASURE_AND_PREPARE_NOTE)
        witness = None
        if verdict.kind != "yes":
            witness, note = _discordant_output_witness(channel, side, dim_other, cq_tol)
            if note:
                verdict = replace(verdict, notes="; ".join(filter(None, (verdict.notes, note))))
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


def _grid_stacks(values: np.ndarray, bound: int) -> list[np.ndarray]:
    """The grid points inside the tetrahedron, in row order, as arrays
    ``(3, m)`` of ``(l1, l2, l3)`` with ``m`` at most ``bound``: the inside
    points of every ``l1`` slab, gathered into one array, cut into stacks."""
    slab_l2, slab_l3 = (axis.ravel() for axis in np.meshgrid(values, values, indexing="ij"))
    slabs = []
    for l1 in values.tolist():
        inside = _in_cptp_tetrahedron(l1, slab_l2, slab_l3)
        slabs.append((np.full(np.count_nonzero(inside), l1), slab_l2[inside], slab_l3[inside]))
    points = np.concatenate(slabs, axis=1)
    return [points[:, start : start + bound] for start in range(0, points.shape[1], bound)]


def tetrahedron_sweep(
    step: float,
    side: str,
    dim_other: int = 2,
    n_probe_states: int = 0,
    seed: int = 42,
) -> list[SweepRow]:
    """Classify the unital-qubit CPTP tetrahedron on a regular grid.

    Each grid point gets the decision of ``is_qc_channel`` (side A) or
    ``is_point_channel`` (side B) and its entanglement-breaking decision;
    when ``n_probe_states`` is positive the maximal discord over the probe
    outputs of the extended channel is reported, otherwise NaN.  Rows are
    ordered by grid index.  The grid is decided in stacks of at most
    ``SWEEP_STACK`` points from consecutive ``l1`` slabs: each stack gets one
    Choi stack from the Pauli Choi matrices, one trace-preservation check and
    one call of each stacked decision, of which the sweep reads only the
    ``yes`` masks.
    """
    count = _axis_count(step)
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    _require_dims(dim_other=dim_other)
    if n_probe_states < 0:
        raise ValueError(f"n_probe_states must be at least 0, got {n_probe_states}")
    values = -1.0 + step * np.arange(count)
    dims = (2, dim_other) if side == "A" else (dim_other, 2)
    probes = witness_probe_states(*dims, budget=n_probe_states, seed=seed) if n_probe_states else []
    decide = _qc_decision if side == "A" else _point_decision
    rows = []
    for l1, l2, l3 in _grid_stacks(values, SWEEP_STACK):
        chois = _unital_qubit_chois(l1, l2, l3)
        _check_trace_preserving(chois, 2)
        is_db, is_eb = decide(chois, 2).yes.tolist(), _eb_decision(chois, 2).yes.tolist()
        for i, lam in enumerate(zip(l1.tolist(), l2.tolist(), l3.tolist())):
            max_discord = float("nan")
            if probes:
                extended = extend(QuantumChannel._of_choi(chois[i], 2, 2), side, dim_other)
                discords = [discord(extended.apply(p), Hybrid()).value for p in probes]
                max_discord = max([0.0] + discords)
            rows.append(SweepRow(*lam, is_db[i], is_eb[i], max_discord))
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """The rows as CSV, numbers to 9 significant digits.  Each of a sweep's
    ``round(2 / step) + 1`` distinct grid values is formatted once, keyed by
    value: its grid ``-1 + k * step`` holds no ``-0.0``, which keys as 0.0."""
    values = {v for row in rows for v in (row.l1, row.l2, row.l3)}
    grid = {value: f"{value:.9g}" for value in values}
    lines = ["l1,l2,l3,is_db,is_eb,max_discord"]
    for row in rows:
        lines.append(
            f"{grid[row.l1]},{grid[row.l2]},{grid[row.l3]},"
            f"{str(row.is_db).lower()},{str(row.is_eb).lower()},{row.max_discord:.9g}"
        )
    return "\n".join(lines) + "\n"


# -- local product channels --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalDAVerdict:
    kind: str  # "da-via-a" | "da-via-b" | "not-da"
    witness: BipartiteState | None = None
    residual: float | None = None
    notes: str = ""

    def __bool__(self) -> bool:
        return self.kind != "not-da"


def is_local_da(channel_a: QuantumChannel, channel_b: QuantumChannel) -> LocalDAVerdict:
    """Decide whether a product channel annihilates discord.

    This holds exactly when the A factor is a measure-and-prepare channel
    diagonal in a fixed basis, or the B factor is a point channel.  When
    neither holds the verdict is ``not-da``, and a witness input with a
    non-CQ output is sought among the probe stream's fixed head and
    ``(X (x) P + Y (x) Q) / 2`` and ``(X (x) Q + Y (x) P) / 2``, with ``X, Y``
    and ``P, Q`` the factors' :func:`_probe_pair_witness` inputs.  ``residual``
    is the largest output CQ residual the search reached; when it is within
    ``CQ_TOL`` no input failed, ``witness`` is None rather than an input whose
    output passes, and ``notes`` says so.
    """
    if _qc_decision(channel_a.choi[None], channel_a.dim_in).yes[0]:
        return LocalDAVerdict(kind="da-via-a")
    if _point_decision(channel_b.choi[None], channel_b.dim_in).yes[0]:
        return LocalDAVerdict(kind="da-via-b")
    dim_a, dim_b = channel_a.dim_in, channel_b.dim_in
    product = compose(extend(channel_b, "B", channel_a.dim_out), extend(channel_a, "A", dim_b))

    def factors():
        a = _probe_pair_witness(channel_a, "noncommuting-outputs")
        b = _probe_pair_witness(channel_b, "distinct-outputs")
        x, y = a["input_a"].matrix, a["input_b"].matrix
        p, q = b["input_a"].matrix, b["input_b"].matrix
        return x, np.array([p, q]), y, np.array([q, p])

    family = _two_block_family((dim_a, dim_b), factors)
    scan = _cq_scan(product, family, (dim_a, dim_b), CQ_TOL, (channel_a.dim_out, channel_b.dim_out))
    notes = _no_witness_note(scan, CQ_TOL) if scan.failing_input is None else ""
    return LocalDAVerdict(
        kind="not-da", witness=scan.failing_input, residual=scan.worst_residual, notes=notes
    )
