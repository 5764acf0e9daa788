"""Discord-annihilating channels: construction, certification and recovery.

A discord-annihilating channel on AB factors as an arbitrary pre-channel
followed by a pinch into mutually orthogonal A subspaces with a
conditional action on B: rank-1 subspaces may keep B untouched or send it
to a fixed state, while subspaces of rank two or more must send B to a
fixed state.  :func:`build_da_channel` realises that form,
:func:`apply_and_certify` samples its image, and :func:`structural_match`
recovers the partition of a channel that is annihilating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumChannel,
    choi_distance,
    compose,
    make_point_channel,
    random_channel,
)
from .cqsets import BothEntry, ConvexCQSubsetSpec, FixedEntry, PointEntry
from .discord import _b_blocks, is_cq_exact
from .states import (
    BipartiteState,
    DensityOperator,
    as_rng,
    basis_ket,
    hermitian_basis,
    max_entangled,
    random_density,
    random_unitary,
)
from .tolerances import (
    CLUSTER_GAP,
    CQ_TOL,
    EMPTY_BLOCK_WEIGHT,
    NULLSPACE_CUTOFF,
    PARTITION_TOL,
    POINT_SPREAD_TOL,
    REBUILD_TOL,
)

# structural_match draws this many commutant elements before giving up.
MATCH_RETRIES = 3


class InvalidDASpecError(ValueError):
    """The partition violates the annihilating-channel structure."""


@dataclass(frozen=True, eq=False)
class PointTo:
    """Conditional action on B: prepare this fixed state."""

    state: DensityOperator


@dataclass(frozen=True)
class IdentityAction:
    """Conditional action on B: leave it untouched."""


Action = PointTo | IdentityAction


@dataclass(frozen=True, eq=False)
class Rank1Entry:
    vector: np.ndarray
    action: Action


@dataclass(frozen=True, eq=False)
class MultiEntry:
    projector: np.ndarray
    action: PointTo


Entry = Rank1Entry | MultiEntry


@dataclass(frozen=True, eq=False)
class DAChannelSpec:
    """Pre-channel plus a complete orthogonal partition of A with conditional B actions."""

    dim_a: int
    dim_b: int
    pre_channel: QuantumChannel | None
    entries: tuple[Entry, ...]

    @classmethod
    def make(cls, dim_a, dim_b, entries, pre_channel=None) -> "DAChannelSpec":
        entries = tuple(entries)
        total = np.zeros((dim_a, dim_a), dtype=complex)
        for i, entry in enumerate(entries):
            proj = _entry_projector(entry, dim_a, index=i)
            if isinstance(entry, MultiEntry):
                if not isinstance(entry.action, PointTo):
                    raise InvalidDASpecError(
                        f"entry {i}: a subspace of rank >= 2 must point to a fixed B state"
                    )
                rank = int(round(np.trace(proj).real))
                if rank < 2:
                    raise InvalidDASpecError(
                        f"entry {i}: multi-dimensional entry has rank {rank}"
                    )
            if not np.linalg.norm(total @ proj) <= PARTITION_TOL:
                raise InvalidDASpecError(f"entry {i}: subspace overlaps earlier entries")
            total += proj
        if not np.linalg.norm(total - np.eye(dim_a)) <= PARTITION_TOL:
            raise InvalidDASpecError(
                "partition does not resolve the identity on A "
                "(required for trace preservation)"
            )
        if pre_channel is not None:
            d = dim_a * dim_b
            if (pre_channel.dim_in, pre_channel.dim_out) != (d, d):
                raise InvalidDASpecError(
                    f"pre-channel acts on dimension {pre_channel.dim_in}, expected {d}"
                )
        for entry in entries:
            if isinstance(entry.action, PointTo) and entry.action.state.dim != dim_b:
                raise InvalidDASpecError("point target dimension does not match dim_b")
        return cls(dim_a=dim_a, dim_b=dim_b, pre_channel=pre_channel, entries=entries)


def _entry_projector(entry: Entry, dim_a: int, *, index: int = -1) -> np.ndarray:
    if isinstance(entry, Rank1Entry):
        v = np.asarray(entry.vector, dtype=complex).reshape(-1)
        if v.size != dim_a:
            raise InvalidDASpecError(f"entry {index}: vector has dimension {v.size}")
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise InvalidDASpecError(f"entry {index}: vector has zero or non-finite norm {norm}")
        v = v / norm
        return np.outer(v, v.conj())
    p = np.asarray(entry.projector, dtype=complex)
    if p.shape != (dim_a, dim_a):
        raise InvalidDASpecError(f"entry {index}: projector has shape {p.shape}")
    hermitian_defect = np.linalg.norm(p - p.conj().T)
    if not (np.linalg.norm(p @ p - p) <= PARTITION_TOL and hermitian_defect <= PARTITION_TOL):
        raise InvalidDASpecError(f"entry {index}: matrix is not an orthogonal projector")
    return p


def build_da_channel(spec: DAChannelSpec) -> QuantumChannel:
    """Kraus realisation of the pinch-then-conditional-action channel.

    Identity entries contribute ``Q_i (x) 1``; point entries contribute
    ``Q_i (x) L`` over the Kraus operators ``L`` of the point channel on B.
    The union is trace-preserving exactly when the partition is complete.
    """
    ops = []
    eye_b = np.eye(spec.dim_b, dtype=complex)[None]
    for i, entry in enumerate(spec.entries):
        proj = _entry_projector(entry, spec.dim_a, index=i)
        if isinstance(entry.action, IdentityAction):
            ops.append(np.kron(proj, eye_b))
        else:
            ops.append(np.kron(proj, make_point_channel(entry.action.state).kraus))
    stage = QuantumChannel(np.concatenate(ops))
    if spec.pre_channel is None:
        return stage
    return compose(stage, spec.pre_channel)


def induced_cq_subset(spec: DAChannelSpec) -> ConvexCQSubsetSpec:
    """The convex classical-quantum subset containing the channel's image."""
    both, fixed, point = [], [], []
    for entry in spec.entries:
        if isinstance(entry, Rank1Entry):
            v = np.asarray(entry.vector, dtype=complex).reshape(-1)
            v = v / np.linalg.norm(v)
            if isinstance(entry.action, PointTo):
                both.append(BothEntry(vector=v, state=entry.action.state))
            else:
                fixed.append(FixedEntry(vector=v, generators=None))
        else:
            point.append(PointEntry(projector=np.asarray(entry.projector), state=entry.action.state))
    return ConvexCQSubsetSpec(
        dim_a=spec.dim_a,
        dim_b=spec.dim_b,
        both_entries=tuple(both),
        fixed_entries=tuple(fixed),
        point_entries=tuple(point),
    )


def random_da_spec(dim_a: int, dim_b: int, rng) -> DAChannelSpec:
    """Random partition (rank-1 entries with either action, larger ones pinned)
    over a Haar-random A basis, with a random CPTP pre-channel."""
    rng = as_rng(rng)
    sizes = []
    remaining = dim_a
    while remaining > 0:
        if remaining == 1:
            size = 1
        else:
            choices = [1, 1] + list(range(2, remaining + 1))
            size = int(rng.choice(choices))
        sizes.append(size)
        remaining -= size
    frame = random_unitary(dim_a, rng)
    entries = []
    col = 0
    for size in sizes:
        block = frame[:, col : col + size]
        col += size
        if size == 1:
            if rng.uniform() < 0.5:
                entries.append(Rank1Entry(vector=block[:, 0], action=IdentityAction()))
            else:
                target = random_density(dim_b, "hilbert-schmidt", rng)
                entries.append(Rank1Entry(vector=block[:, 0], action=PointTo(target)))
        else:
            target = random_density(dim_b, "hilbert-schmidt", rng)
            entries.append(
                MultiEntry(projector=block @ block.conj().T, action=PointTo(target))
            )
    d = dim_a * dim_b
    pre = random_channel(d, d, int(rng.integers(2, 5)), rng)
    return DAChannelSpec.make(dim_a, dim_b, entries, pre_channel=pre)


# -- certification ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outputs of a channel on a run of inputs, up to the first non-CQ one.  The worst
    residual is over every output, its input the first to reach it (None if all 0)."""

    outputs: list[BipartiteState]
    worst_residual: float
    worst_input: BipartiteState | None
    failing_input: BipartiteState | None
    failing_residual: float | None

    @property
    def n_checked(self) -> int:
        return len(self.outputs)

    @property
    def passed(self) -> bool:
        return self.failing_input is None


def _cq_scan(channel: QuantumChannel, inputs, tol: float = CQ_TOL) -> CertificationReport:
    """Apply ``channel`` to each input in turn and run the exact CQ test.

    Stops at the first output that is not classical-quantum.  ``inputs``
    may be any iterable; it is pulled in chunks of 1, 2, 4, ..., so at
    most ``2 * n_checked - 1`` inputs are built.  A chunk is built before it
    is applied: one-at-a-time pulls ran ~8% slower on ``da_accept`` (x86).
    """
    inputs = iter(inputs)
    outputs = []
    worst, worst_input = 0.0, None
    size = 1
    while chunk := list(itertools.islice(inputs, size)):
        for state in chunk:
            outputs.append(channel.apply(state))
            check = is_cq_exact(outputs[-1], tol)
            if check.residual > worst:
                worst, worst_input = check.residual, state
            if not check:
                return CertificationReport(outputs, worst, worst_input, state, check.residual)
        size *= 2
    return CertificationReport(outputs, worst, worst_input, None, None)


def _boundary_inputs(dim_a: int, dim_b: int, rng):
    pure_a = basis_ket(dim_a, 0)
    pure_b = basis_ket(dim_b, 0)
    yield BipartiteState(dim_a, dim_b, DensityOperator.pure(np.kron(pure_a, pure_b)))
    va = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    vb = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
    yield BipartiteState(dim_a, dim_b, DensityOperator.pure(np.kron(va, vb)))
    if min(dim_a, dim_b) >= 2:
        yield max_entangled(dim_a, dim_b)
    d = dim_a * dim_b
    if d >= 2:
        yield BipartiteState(dim_a, dim_b, random_density(d, "rank", rng, rank=max(1, d // 2)))


def apply_and_certify(
    channel: QuantumChannel,
    dim_a: int,
    dim_b: int,
    n_samples: int = 200,
    seed: int = 0,
    tol: float = CQ_TOL,
) -> CertificationReport:
    """Apply the channel to boundary and random inputs, requiring CQ outputs.

    Each random input uses a generator seeded from (seed, index), so any
    reported witness is reproducible.  Inputs are drawn only as the scan
    reaches them, so a failing channel stops before most are built.
    """
    d = dim_a * dim_b
    if (channel.dim_in, channel.dim_out) != (d, d):
        raise ValueError(f"channel acts on dimension {channel.dim_in}, expected {d}")
    samples = (
        BipartiteState(dim_a, dim_b, random_density(d, "hilbert-schmidt", as_rng([seed, index])))
        for index in range(n_samples)
    )
    inputs = itertools.chain(_boundary_inputs(dim_a, dim_b, as_rng([seed, 0xB0])), samples)
    return _cq_scan(channel, inputs, tol)


# -- structural recovery -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MatchResult:
    spec: DAChannelSpec | None
    residual: float | None
    counterexample: BipartiteState | None
    notes: str = ""

    @property
    def matched(self) -> bool:
        return self.spec is not None


def _commutant_element(generators, dim: int, rng) -> np.ndarray:
    """Random Hermitian element commuting with every generator."""
    basis = hermitian_basis(dim).elements
    stack = np.array(basis)
    g = np.asarray(generators)[:, None]
    comms = (stack @ g - g @ stack).reshape(len(g), len(basis), dim * dim)
    # Rows [g0 real, g0 imag, g1 real, ...], one column per basis element.
    parts = np.stack([comms.real, comms.imag], axis=1)
    stacked = parts.transpose(0, 1, 3, 2).reshape(-1, len(basis))
    # 2 * len(generators) * dim**2 rows against dim**2 columns: the thin
    # SVD's vt is square and holds every right singular vector.
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    cutoff = NULLSPACE_CUTOFF * max(svals[0], 1e-300)
    null = [vt[i] for i in range(len(svals)) if svals[i] <= cutoff]
    coeffs = np.zeros(dim * dim)
    for direction in null:
        coeffs += rng.standard_normal() * np.asarray(direction)
    x = sum(c * b for c, b in zip(coeffs, basis))
    return (x + x.conj().T) / 2.0


def _eigen_clusters(x: np.ndarray) -> list[np.ndarray]:
    """Group eigenvectors of a Hermitian matrix by clustered eigenvalues."""
    eigvals, eigvecs = np.linalg.eigh(x)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    groups = []
    start = 0
    for k in range(1, eigvals.size + 1):
        if k == eigvals.size or eigvals[k] - eigvals[k - 1] > CLUSTER_GAP * scale:
            groups.append(eigvecs[:, start:k])
            start = k
    return groups


def _canonical_vector(v: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(v)))
    phase = v[pivot] / abs(v[pivot])
    return v / phase


def _canonical_entries(entries: list[Entry], dim_a: int) -> tuple[Entry, ...]:
    """Sort by subspace rank, then lexicographically on the rounded support."""

    def key(entry: Entry):
        proj = _entry_projector(entry, dim_a)
        rank = int(round(np.trace(proj).real))
        flat = np.round(proj.reshape(-1), 9)
        return (rank, tuple(flat.real) + tuple(flat.imag))

    return tuple(sorted(entries, key=key))


def structural_match(
    channel: QuantumChannel,
    dim_a: int,
    dim_b: int,
    *,
    seed: int = 23,
    tol: float = CQ_TOL,
) -> MatchResult:
    """Recover an annihilating-channel partition, or report a counterexample.

    Callers certify the channel first (:func:`apply_and_certify`); this
    does not repeat it.  Probes the channel with the maximally mixed state
    and ``4 dim_a**2`` perturbed inputs, whose outputs must pass the exact
    CQ test at ``tol``; the A partition is the joint block structure of all
    probe-output B blocks, extracted as the eigenspaces of a random element
    of their commutant.  Per-block B behaviour is classified as pinned when
    the conditional states agree across probes within ``POINT_SPREAD_TOL``.
    The recovered spec reuses the channel itself as pre-channel, which is
    exact for any channel of the annihilating form, and the Choi residual
    between the rebuilt channel and the original, within ``REBUILD_TOL``,
    certifies the match.
    """
    d = dim_a * dim_b
    rng = as_rng([seed, 0xA1])
    mixed = DensityOperator.maximally_mixed(d)
    # A passing scan exhausts the probes, so rng is drained before the
    # commutant draws below.
    noisy = (
        BipartiteState.from_matrix(
            (mixed.matrix + random_density(d, "hilbert-schmidt", rng).matrix) / 2.0, dim_a, dim_b
        )
        for _ in range(4 * dim_a * dim_a)
    )
    scan = _cq_scan(channel, itertools.chain([BipartiteState(dim_a, dim_b, mixed)], noisy), tol)
    if scan.failing_input is not None:
        return MatchResult(
            spec=None,
            residual=None,
            counterexample=scan.failing_input,
            notes="probe output is not classical-quantum",
        )
    outputs = scan.outputs
    generators = np.concatenate([_b_blocks(out).reshape(-1, dim_a, dim_a) for out in outputs])

    scale = max(1.0, float(np.linalg.norm(channel.choi)))
    notes = ""
    for _ in range(MATCH_RETRIES):
        x = _commutant_element(generators, dim_a, rng)
        groups = _eigen_clusters(x)
        entries = []
        consistent = True
        for vecs in groups:
            rank = vecs.shape[1]
            conditionals = []
            for out in outputs:
                r4 = out.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
                block = np.einsum("ae,abcd,cf->ebfd", vecs.conj(), r4, vecs)
                block = block.reshape(rank * dim_b, rank * dim_b)
                weight = float(np.trace(block).real)
                if weight < EMPTY_BLOCK_WEIGHT:
                    continue
                sub = block.reshape(rank, dim_b, rank, dim_b)
                conditionals.append(np.trace(sub, axis1=0, axis2=2) / weight)
            if conditionals:
                mean = sum(conditionals) / len(conditionals)
                spread = max(float(np.linalg.norm(c - mean)) for c in conditionals)
            else:
                mean = np.eye(dim_b, dtype=complex) / dim_b
                spread = 0.0
            pinned = spread <= POINT_SPREAD_TOL
            if rank == 1:
                vec = _canonical_vector(vecs[:, 0])
                if pinned:
                    target = DensityOperator.from_matrix(mean, name="recovered point target")
                    entries.append(Rank1Entry(vector=vec, action=PointTo(target)))
                else:
                    entries.append(Rank1Entry(vector=vec, action=IdentityAction()))
            else:
                if not pinned:
                    consistent = False
                    notes = f"rank-{rank} block has input-dependent B conditional"
                    break
                target = DensityOperator.from_matrix(mean, name="recovered point target")
                entries.append(
                    MultiEntry(projector=vecs @ vecs.conj().T, action=PointTo(target))
                )
        if not consistent:
            continue
        spec = DAChannelSpec.make(
            dim_a, dim_b, _canonical_entries(entries, dim_a), pre_channel=channel
        )
        residual = choi_distance(build_da_channel(spec), channel) / scale
        if residual <= REBUILD_TOL:
            return MatchResult(spec=spec, residual=residual, counterexample=None)
        notes = f"rebuilt channel differs (residual {residual:.3e})"
    return MatchResult(spec=None, residual=None, counterexample=None, notes=notes)

