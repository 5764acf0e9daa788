"""Discord-annihilating channels: construction, certification and recovery.

A discord-annihilating channel on AB factors as an arbitrary pre-channel
followed by a pinch into mutually orthogonal A subspaces with a
conditional action on B: rank-1 subspaces may keep B untouched
(:class:`IdentityAction`) or send it to a fixed state (:class:`PointTo`),
while subspaces of rank two or more must send B to a fixed state.  The
entries are the partition model of :mod:`discordkit.cqsets`, checked by
its one partition check, and the channel's image lies in the convex CQ
subset with the same entries (:func:`induced_cq_subset`).
:func:`build_da_channel` realises that form,
:func:`apply_and_certify` scans its image on the one probe stream (fixed
probes, then seeded Hilbert-Schmidt draws) that every discordant-output
search of the package draws from, and :func:`structural_match` recovers the
partition of a channel that is annihilating from the span of its image,
which the range of its transfer matrix gives exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    QuantumChannel,
    _canonical_phase,
    analyze_transfer,
    compose,
    make_point_channel,
    random_channel,
)
from .cqsets import (
    ConvexCQSubsetSpec,
    Entry,
    Hull,
    IdentityAction,
    MultiEntry,
    PointTo,
    Rank1Entry,
    _entry_projectors,
)
from .discord import _b_blocks, _cq_residuals
from .states import (
    BipartiteState,
    DensityOperator,
    _freeze,
    _ginibre_density,
    _validate_states,
    as_rng,
    basis_ket,
    bell_state,
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

# structural_match draws its commutant elements from this seed, and gives up
# after this many draws.
MATCH_SEED = 0xA1
MATCH_RETRIES = 3


class InvalidDASpecError(ValueError):
    """The partition violates the annihilating-channel structure."""


@dataclass(frozen=True, eq=False)
class DAChannelSpec:
    """Pre-channel plus a complete orthogonal partition of A with conditional B actions.

    ``projectors`` stacks the entries' A projectors, computed once by :meth:`make`.
    """

    dim_a: int
    dim_b: int
    pre_channel: QuantumChannel | None
    entries: tuple[Entry, ...]
    projectors: np.ndarray

    @classmethod
    def make(cls, dim_a, dim_b, entries, pre_channel=None) -> "DAChannelSpec":
        entries = tuple(entries)
        for i, entry in enumerate(entries):
            if isinstance(entry.action, Hull):
                raise InvalidDASpecError(f"entry {i}: a hull is a subset condition, not a B action")
        projectors, problem = _entry_projectors(dim_a, dim_b, entries)
        if problem is not None:
            raise InvalidDASpecError(problem)
        if not np.linalg.norm(projectors.sum(axis=0) - np.eye(dim_a)) <= PARTITION_TOL:
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
        return cls(dim_a, dim_b, pre_channel, entries, _freeze(projectors))


def build_da_channel(spec: DAChannelSpec) -> QuantumChannel:
    """The pinch-then-conditional-action channel, built on its Choi matrix.

    Entry i pinches A with its projector ``P_i`` (Choi matrix
    ``vec(P_i^T) vec(P_i^T)^dag``) and acts on B with the identity or its
    point channel; the stage's Choi matrix is the sum over entries of the
    Choi matrices of these products, trace-preserving exactly when the
    partition is complete.  The pre-channel is composed on the Choi matrices.
    """
    d_a, d_b, n = spec.dim_a, spec.dim_b, len(spec.entries)
    vecs = spec.projectors.transpose(0, 2, 1).reshape(n, d_a * d_a)
    pinches = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(n, *[d_a] * 4)
    b_chois = np.array([
        QuantumChannel.identity(d_b).choi if isinstance(e.action, IdentityAction)
        else make_point_channel(e.action.state).choi
        for e in spec.entries
    ]).reshape(n, *[d_b] * 4)
    j = np.einsum("iaAcC,ibBdD->abABcdCD", pinches, b_chois).reshape(d_a**2 * d_b**2, -1)
    stage = QuantumChannel._of_choi(j, d_a * d_b, d_a * d_b)
    if spec.pre_channel is None:
        return stage
    return compose(stage, spec.pre_channel)


def induced_cq_subset(spec: DAChannelSpec) -> ConvexCQSubsetSpec:
    """The convex classical-quantum subset containing the channel's image: the
    spec's own entries, a free B conditional wherever the channel leaves B alone."""
    return ConvexCQSubsetSpec(spec.dim_a, spec.dim_b, spec.entries)


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
    """A CQ scan of a channel's outputs up to the first non-CQ one, the failing
    input, residual and output (None if every output is CQ).  The worst residual
    is over every output, its input the first to reach it (None if all 0)."""

    n_checked: int
    worst_residual: float
    worst_input: BipartiteState | None
    failing_input: BipartiteState | None
    failing_residual: float | None
    failing_output: BipartiteState | None

    @property
    def passed(self) -> bool:
        return self.failing_input is None


def _probe_stream(dim_a: int, dim_b: int, seed: int, n_draws: int | None = None):
    """The one stream of probe inputs, as raw matrices on ``dim_a (x) dim_b``.

    First a fixed head: the four Bell states at 2x2, otherwise the maximally
    entangled state when both dimensions are at least 2; the product states
    ``|ij>`` with ``i, j < 2``; and two noncommuting classical mixtures.  Then
    ``n_draws`` Hilbert-Schmidt draws (endless when None), draw ``i`` from a
    generator seeded with ``(seed, i)``, so every probe is reproducible.  The
    dimensions are checked at the call; each probe is built when it is pulled.
    """
    for name, value in (("dim_a", dim_a), ("dim_b", dim_b)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")

    def probes():
        if dim_a == 2 and dim_b == 2:
            for k in range(4):
                yield bell_state(k).matrix
        elif min(dim_a, dim_b) >= 2:
            yield max_entangled(dim_a, dim_b).matrix
        for i, j in itertools.product(range(min(dim_a, 2)), range(min(dim_b, 2))):
            ket = np.kron(basis_ket(dim_a, i), basis_ket(dim_b, j))
            yield np.outer(ket, ket.conj())
        plus_a, plus_b = (np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d) for d in (dim_a, dim_b))
        zero_a, zero_b = basis_ket(dim_a, 0), basis_ket(dim_b, 0)
        zero = np.kron(np.outer(zero_a, zero_a.conj()), np.outer(zero_b, zero_b.conj()))
        for ket_b in (plus_b, basis_ket(dim_b, dim_b - 1)):
            plus = np.kron(np.outer(plus_a, plus_a.conj()), np.outer(ket_b, ket_b.conj()))
            yield 0.5 * zero + 0.5 * plus
        d = dim_a * dim_b
        for index in itertools.count() if n_draws is None else range(n_draws):
            yield _ginibre_density(d, d, as_rng([seed, index]))

    return probes()


def _cq_scan(
    channel: QuantumChannel,
    inputs,
    dims: tuple[int, int],
    tol: float,
    out_dims: tuple[int, int] | None = None,
) -> CertificationReport:
    """Apply ``channel`` to the inputs and run the exact CQ test on each output.

    Stops at the first output that is not classical-quantum.  ``inputs`` is
    any iterable of raw matrices that are states on ``dims``, and outputs are
    judged on ``out_dims`` (by default ``dims``); it is pulled in chunks of
    1, 2, 4, ..., so at most ``2 * n_checked - 1`` inputs are built.  Each
    chunk takes one stacked validation of its inputs, one stacked
    application, one stacked output validation and one stacked CQ test, bit
    for bit equal to per-input calls, and is then judged in input order: an
    output that is not a state raises only after every earlier output has
    passed.  Only the worst input and the failing input and output are kept.
    """
    out_dims = out_dims or dims
    inputs = iter(inputs)
    n_checked, worst, worst_input = 0, 0.0, None
    size = 1
    while chunk := list(itertools.islice(inputs, size)):
        states, error = _validate_states(np.array(chunk, dtype=complex))
        if error is not None:
            raise error
        valid, error = _validate_states(channel.apply_matrix(states), name="channel output")
        residuals = _cq_residuals(valid, *out_dims)[0].tolist()
        for state, image, residual in zip(states, valid, residuals):
            n_checked += 1
            if residual > worst:
                worst, worst_input = residual, state
            if not residual <= tol:
                return CertificationReport(
                    n_checked, worst, _wrap(worst_input, dims), _wrap(state, dims),
                    residual, _wrap(image, out_dims),
                )
        if error is not None:
            raise error
        size *= 2
    return CertificationReport(n_checked, worst, _wrap(worst_input, dims), None, None, None)


def _wrap(matrix: np.ndarray | None, dims: tuple[int, int]) -> BipartiteState | None:
    """A validated matrix as a state on ``dims`` (None stays None)."""
    if matrix is None:
        return None
    return BipartiteState(*dims, DensityOperator(dim=len(matrix), matrix=_freeze(matrix)))


def _check_acts_on_ab(channel: QuantumChannel, dim_a: int, dim_b: int) -> None:
    """Raise ``ValueError`` unless the channel maps the ``dim_a x dim_b`` space to itself."""
    d = dim_a * dim_b
    if (channel.dim_in, channel.dim_out) != (d, d):
        raise ValueError(
            f"channel acts on {channel.dim_in} -> {channel.dim_out}, "
            f"but a {dim_a}x{dim_b} split needs {d} -> {d}"
        )


def apply_and_certify(
    channel: QuantumChannel,
    dim_a: int,
    dim_b: int,
    n_samples: int = 200,
    seed: int = 0,
    tol: float = CQ_TOL,
) -> CertificationReport:
    """Apply the channel to the fixed probes and ``n_samples`` seeded
    Hilbert-Schmidt draws of the probe stream, requiring CQ outputs.

    Draw ``i`` uses a generator seeded from ``(seed, i)``, so any reported
    witness is reproducible.  Inputs are built only as the scan reaches them,
    so a failing channel stops before most are built.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be at least 0, got {n_samples}")
    _check_acts_on_ab(channel, dim_a, dim_b)
    probes = _probe_stream(dim_a, dim_b, seed, n_draws=n_samples)
    return _cq_scan(channel, probes, (dim_a, dim_b), tol)


# -- structural recovery -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MatchResult:
    spec: DAChannelSpec | None
    residual: float | None
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
    """Group eigenvectors of a Hermitian matrix by clustered eigenvalues: a
    gap above ``CLUSTER_GAP * max(1, max |eigenvalue|)`` starts a new group."""
    eigvals, eigvecs = np.linalg.eigh(x)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    return np.split(eigvecs, np.flatnonzero(np.diff(eigvals) > CLUSTER_GAP * scale) + 1, axis=1)


def _canonical_entries(entries: list[Entry], dim_a: int, dim_b: int) -> tuple[Entry, ...]:
    """Sort by subspace rank, then lexicographically on the rounded support."""
    projs, _ = _entry_projectors(dim_a, dim_b, entries)

    def key(k: int):
        rank = int(round(np.trace(projs[k]).real))
        flat = np.round(projs[k].reshape(-1), 9)
        return (rank, tuple(flat.real) + tuple(flat.imag))

    return tuple(entries[k] for k in sorted(range(len(entries)), key=key))


def structural_match(channel: QuantumChannel, dim_a: int, dim_b: int) -> MatchResult:
    """Recover an annihilating-channel partition from the channel's image span.

    Callers certify the channel first (:func:`apply_and_certify`); this
    does not repeat it.  The ``image`` of the channel's one cached transfer
    analysis (:func:`analyze_transfer`), the left singular vectors of
    ``channel.transfer()`` above the ``RANK_TOL`` cut, gives the coordinates
    of an orthonormal Hermitian basis ``X_m`` of the span of the channel's
    outputs.  The A partition is the joint block structure of the B blocks of
    the ``X_m``, extracted as the eigenspaces of a random element of their
    commutant, drawn from ``MATCH_SEED``.  A block with projector ``P`` is
    pinned to ``sigma`` when ``tr_A[(P (x) 1) X_m] = tr[(P (x) 1) X_m] sigma``
    for every ``m`` within ``POINT_SPREAD_TOL``, with ``sigma`` the
    least-squares fit.
    The recovered spec reuses the channel itself as pre-channel, which is
    exact for any channel of the annihilating form.  The superoperator
    product ``S_stage S`` is that of the rebuilt stage after the channel, and
    its distance from ``S``, relative to ``max(1, ||S||)`` and within
    ``REBUILD_TOL``, certifies the match.
    """
    _check_acts_on_ab(channel, dim_a, dim_b)
    d = dim_a * dim_b
    coords = analyze_transfer(channel).image
    images = np.einsum("am,aij->mij", coords, np.array(hermitian_basis(d).elements))
    x4 = images.reshape(-1, dim_a, dim_b, dim_a, dim_b)
    generators = _b_blocks(images, dim_a, dim_b).reshape(-1, dim_a, dim_a)
    superop = channel.superop
    scale = max(1.0, float(np.linalg.norm(superop)))
    rng = as_rng(MATCH_SEED)
    notes = ""
    for _ in range(MATCH_RETRIES):
        entries = []
        for vecs in _eigen_clusters(_commutant_element(generators, dim_a, rng)):
            rank = vecs.shape[1]
            # y[m] = tr_A[(P (x) 1) X_m] and c[m] = tr[(P (x) 1) X_m], P = vecs vecs^dag.
            y = np.einsum("ae,mabcd,ce->mbd", vecs.conj(), x4, vecs)
            c = np.trace(y, axis1=1, axis2=2).real
            if np.linalg.norm(c) < EMPTY_BLOCK_WEIGHT:
                sigma, pinned = np.eye(dim_b, dtype=complex) / dim_b, True
            else:
                sigma = np.einsum("m,mbd->bd", c, y) / (c @ c)
                pinned = np.linalg.norm(y - c[:, None, None] * sigma) <= POINT_SPREAD_TOL
            if rank > 1 and not pinned:
                notes = f"rank-{rank} block has input-dependent B conditional"
                break
            if pinned:
                action = PointTo(DensityOperator.from_matrix(sigma, name="recovered point target"))
            else:
                action = IdentityAction()
            if rank == 1:
                entries.append(Rank1Entry(vector=_canonical_phase(vecs[:, 0]), action=action))
            else:
                entries.append(MultiEntry(projector=vecs @ vecs.conj().T, action=action))
        else:
            spec = DAChannelSpec.make(
                dim_a, dim_b, _canonical_entries(entries, dim_a, dim_b), pre_channel=channel
            )
            stage = build_da_channel(replace(spec, pre_channel=None))
            residual = float(np.linalg.norm(stage.superop @ superop - superop)) / scale
            if residual <= REBUILD_TOL:
                return MatchResult(spec=spec, residual=residual)
            notes = f"rebuilt channel differs (residual {residual:.3e})"
    return MatchResult(spec=None, residual=None, notes=notes)
