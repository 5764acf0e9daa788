"""Quantum discord and exact classical-quantum structure tests.

Discord is computed as ``D = I(A:B) - J(B|A)`` where the classical
correlation ``J`` is maximised over rank-1 projective measurements on A.
There is one evaluator of J: the reported value is the score that the
optimiser's scorer (``_qubit_scores`` or ``_unitary_scores``) gave the
returned measurement, with the same S(B) that I(A:B) uses.  It is the
classical correlation of an actual measurement, a lower bound on the true
maximum up to rounding, so the reported discord is an upper bound on the
true value.  Zero-discord certification therefore never uses the
optimiser: :func:`is_cq_exact` tests the block-commutation structure of
the state directly, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import _cq_form
from .states import (
    BipartiteState,
    DensityOperator,
    PAULIS,
    _AtLeast,
    _freeze,
    _frobenius_norms,
    _validate_states,
    as_rng,
    partial_trace_matrix,
    random_unitary,
    von_neumann_entropy,
)
from .tolerances import ANGLE_STEP_TOL, CQ_TOL, PARTITION_TOL, REFINE_MARGIN, ZERO_CUTOFF


def __getattr__(name: str):
    # bench/tracing.py wraps scipy's minimize under this module's name.
    # Nothing here calls it, so it is imported only when asked for (PEP 562).
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# cq_decompose draws random combinations of the blocks from this seed and
# gives up after this many draws that do not reconstruct the state.
DECOMPOSE_SEED = 11
DECOMPOSE_RETRIES = 5


class DecompositionError(ValueError):
    """Raised when a classical-quantum decomposition cannot be extracted.

    ``residual`` is the relative defect that failed the tolerance: the CQ
    residual of a state that is not classical-quantum, or the last
    reconstruction residual.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# -- measurements ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete von Neumann measurement: rank-1 orthogonal projectors summing to 1."""

    dim: int
    projectors: tuple[np.ndarray, ...]

    @classmethod
    def from_vectors(cls, vectors) -> "ProjectiveMeasurement":
        vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        dim = vecs[0].size
        projs = []
        for i, v in enumerate(vecs):
            norm = np.linalg.norm(v)
            if not 0.0 < norm < np.inf:
                raise ValueError(f"vector {i} has zero or non-finite norm {norm}")
            v = v / norm
            projs.append(np.outer(v, v.conj()))
        meas = cls(dim=dim, projectors=tuple(projs))
        meas._check()
        return meas

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "ProjectiveMeasurement":
        u = np.asarray(unitary, dtype=complex)
        return cls.from_vectors([u[:, a] for a in range(u.shape[1])])

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "ProjectiveMeasurement":
        """Qubit measurement along the Bloch direction (theta, phi)."""
        n = _bloch_directions(np.array([[theta, phi]]))[0]
        nm = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
        eye = np.eye(2, dtype=complex)
        return cls(dim=2, projectors=((eye + nm) / 2.0, (eye - nm) / 2.0))

    def _check(self):
        # The projectors are Hermitian, so ||P_b P_a|| = ||P_a P_b|| and the
        # upper triangle holds the first failing pair.
        projs = np.array(self.projectors)
        first, second = np.triu_indices(len(projs))
        same = (first == second)[:, None, None]
        defects = _frobenius_norms(projs[first] @ projs[second] - same * projs[first])
        bad = np.flatnonzero(~(defects <= PARTITION_TOL))
        if bad.size:
            a, b = first[bad[0]], second[bad[0]]
            raise ValueError(f"projectors {a} and {b} are not orthogonal idempotents")
        if not np.linalg.norm(projs.sum(axis=0) - np.eye(self.dim)) <= PARTITION_TOL:
            raise ValueError("projectors do not resolve the identity")

    def bloch_vector(self) -> np.ndarray:
        """Bloch direction of the first projector (qubit measurements only)."""
        if self.dim != 2:
            raise ValueError("Bloch vector is defined for qubit measurements only")
        p0 = self.projectors[0]
        return np.array([np.trace(p0 @ s).real for s in PAULIS])


def _bloch_directions(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (N, 3) for Bloch angles (N, 2) given as (theta, phi)."""
    return np.column_stack(
        [
            np.sin(angles[:, 0]) * np.cos(angles[:, 1]),
            np.sin(angles[:, 0]) * np.sin(angles[:, 1]),
            np.cos(angles[:, 0]),
        ]
    )


# -- optimisation strategies -------------------------------------------------


@dataclass(frozen=True)
class Grid(_AtLeast):
    """Exhaustive Bloch-angle grid for qubit A; theta_k = pi k / n_theta
    (k = 0..n_theta) and phi_k = 2 pi k / n_phi, so doubling both counts
    refines the grid in place.  Directions n and -n are one measurement, so
    each is scored once: the pole rows count as the north pole alone and,
    for even n_phi, the grid is a hemisphere (993 points at 32 x 64)."""

    n_theta: int = 32
    n_phi: int = 64


@dataclass(frozen=True)
class MultiStart(_AtLeast):
    """Batched pattern search on U(dA) from the rho_A eigenbasis and
    ``restarts`` seeded Haar frames; every round tries the Givens rotations
    exp(±i·h·G) of each off-diagonal generator G on all live frames, first
    step h = pi/4."""

    minimum = 0
    restarts: int = 20


@dataclass(frozen=True)
class Hybrid(_AtLeast):
    """The :class:`Grid` followed by a batched pattern search from its 5 best
    points, which are 5 distinct measurements; the search's first angle step
    is the grid spacing.  Defined for a qubit A only: on dA != 2 it runs
    ``MultiStart(20)`` instead."""

    n_theta: int = 32
    n_phi: int = 64


Strategy = Grid | MultiStart | Hybrid


@dataclass(frozen=True)
class OptimizerTrace:
    """What the optimiser did.

    ``restarts`` starts were refined (0 for Grid), ending at the scores
    ``best_values``; ``n_evals`` counts every objective evaluation: grid
    points (one per distinct measurement), starting frames and
    pattern-search candidates; ``converged`` is False when a pattern search
    stopped at ``PATTERN_MAX_ROUNDS`` with a step still above
    ``ANGLE_STEP_TOL``.
    """

    restarts: int
    best_values: tuple[float, ...]
    n_evals: int
    converged: bool


@dataclass(frozen=True, eq=False)
class DiscordResult:
    value: float
    mutual_information: float
    classical_correlation: float
    optimal_measurement: ProjectiveMeasurement
    trace: OptimizerTrace


# -- entropic quantities -----------------------------------------------------


def mutual_information(rho: BipartiteState) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits."""
    return _mutual_information(rho, _reduced_entropy(rho, "B"))


def _reduced_entropy(rho: BipartiteState, keep: str) -> float:
    """Entropy of the raw reduced matrix of the kept subsystem, unvalidated."""
    return von_neumann_entropy(partial_trace_matrix(rho.matrix, rho.dim_a, rho.dim_b, keep))


def _mutual_information(rho: BipartiteState, s_b: float) -> float:
    return _reduced_entropy(rho, "A") + s_b - von_neumann_entropy(rho.state)


# -- fast qubit evaluation ---------------------------------------------------


def _qubit_correlation_ops(rho: BipartiteState):
    """Reduced B operators (T0; T1, T2, T3) with T_i = tr_A[(sigma_i (x) 1) rho]."""
    r4 = rho.matrix.reshape(2, rho.dim_b, 2, rho.dim_b)
    t0 = np.trace(r4, axis1=0, axis2=2)
    ts = np.stack([np.einsum("ac,cbad->bd", s, r4) for s in PAULIS])
    return t0, ts


def _weighted_entropies(blocks: np.ndarray) -> np.ndarray:
    """p times the entropy of each unnormalised conditional block (..., db, db),
    with p its trace; ``blocks`` is normalised in place.  A 2x2 block
    [[a, b*], [b, d]] has the eigenvalues ((a + d) -+ sqrt((a - d)^2 + 4|b|^2)) / 2
    (read, like ``eigvalsh``, from the lower triangle); larger blocks share
    one stacked ``eigvalsh``.  Outcomes with p below ``ZERO_CUTOFF`` add
    nothing."""
    p = np.trace(blocks, axis1=-2, axis2=-1).real
    blocks /= np.clip(p, ZERO_CUTOFF, None)[..., None, None]
    if blocks.shape[-1] == 2:
        a, d, b = blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0]
        root = np.sqrt((a - d) ** 2 + 4.0 * (b.real**2 + b.imag**2))
        w = np.stack([(a + d) - root, (a + d) + root], axis=-1) / 2.0
    else:
        w = np.linalg.eigvalsh(blocks)
    w = np.clip(w, 0.0, None)
    logs = np.where(w > ZERO_CUTOFF, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    return np.where(p > ZERO_CUTOFF, p * -np.sum(w * logs, axis=-1), 0.0)


def _qubit_scores(t0, ts, s_b, directions: np.ndarray) -> np.ndarray:
    """Classical-correlation values for a batch of Bloch directions (N, 3).

    The 2N conditional blocks are outcome + for every direction, then
    outcome -.
    """
    n = directions.shape[0]
    correlated = np.tensordot(directions, ts, axes=(1, 0))  # (N, db, db)
    # Filled in place, so the grid's 2N blocks exist once, not as a concatenated copy.
    blocks = np.empty((2 * n,) + t0.shape, dtype=correlated.dtype)
    np.add(t0, correlated, out=blocks[:n])
    np.subtract(t0, correlated, out=blocks[n:])
    blocks *= 0.5
    weighted = _weighted_entropies(blocks)
    return s_b - (weighted[:n] + weighted[n:])


def _grid_angles(n_theta: int, n_phi: int) -> np.ndarray:
    """The (theta_k, phi_j) of :class:`Grid` in row-major order, less every
    point that repeats the measurement of an earlier one: n and -n are one
    measurement, so only the north pole (0, 0) of the two pole rows stays
    and, when n_phi is even, the later point of each antipodal pair
    (k, j) and (n_theta - k, j + n_phi / 2) goes."""
    index = np.arange((n_theta + 1) * n_phi)
    k, j = np.divmod(index, n_phi)
    keep = (k % n_theta != 0) | (index == 0)
    if n_phi % 2 == 0:
        keep &= (n_theta - k) * n_phi + (j + n_phi // 2) % n_phi > index
    k, j = k[keep], j[keep]
    return np.column_stack([np.pi * k / n_theta, 2.0 * np.pi * j / n_phi])


# Rounds after which a pattern search stops whatever its step; the default
# qubit grid reaches ANGLE_STEP_TOL in about 20 halvings plus a few dozen
# moves, a MultiStart frame in about 23 halvings plus its moves.
PATTERN_MAX_ROUNDS = 200
# Hybrid refines this many of its best grid points.
_REFINE_TOP = 5


def _pattern_search(score, neighbours, starts, values, step):
    """Refine every start at once by a pattern search.

    ``neighbours(x, h)`` gives the candidates around the live starts ``x`` at
    steps ``h``, shape (live, m) + point shape, and ``score`` rates a flat
    stack of points; each round makes one ``score`` call for all live
    starts.  A start moves to its best neighbour only when that scores
    strictly higher than the start, and otherwise halves its steps; it stops
    once all its steps are below ``ANGLE_STEP_TOL``.  Returns the points,
    their scores, the number of points scored and whether every start
    stopped within ``PATTERN_MAX_ROUNDS``.
    """
    x = starts.copy()
    val = values.copy()
    h = np.tile(step, (len(x), 1))
    n_evals = 0
    for _ in range(PATTERN_MAX_ROUNDS):
        live = np.flatnonzero(h.max(axis=1) >= ANGLE_STEP_TOL)
        if live.size == 0:
            break
        cand = neighbours(x[live], h[live])
        scores = score(cand.reshape((-1,) + x.shape[1:])).reshape(cand.shape[:2])
        n_evals += scores.size
        pick = np.argmax(scores, axis=1)
        gain = scores[np.arange(live.size), pick]
        moved = gain > val[live]
        x[live[moved]] = cand[moved, pick[moved]]
        val[live[moved]] = gain[moved]
        h[live[~moved]] /= 2.0
    converged = bool((h.max(axis=1) < ANGLE_STEP_TOL).all())
    return x, val, n_evals, converged


# The 3x3 angle stencil around a Hybrid start, less its centre (whose score
# is known), in units of the start's (theta, phi) step.
_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)


def _angle_neighbours(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    return x[:, None, :] + _STENCIL * h[:, None, :]


def _optimize_qubit(rho: BipartiteState, strategy: Grid | Hybrid, s_b: float):
    t0, ts = _qubit_correlation_ops(rho)

    def score(angles):
        return _qubit_scores(t0, ts, s_b, _bloch_directions(angles))

    angles = _grid_angles(strategy.n_theta, strategy.n_phi)
    scores = score(angles)
    best_idx = int(np.argmax(scores))
    best_angles = angles[best_idx]
    best_val = float(scores[best_idx])

    if isinstance(strategy, Grid):
        trace = OptimizerTrace(
            restarts=0, best_values=(best_val,), n_evals=len(angles), converged=True
        )
        return best_angles, best_val, trace

    top = np.argsort(scores)[::-1][:_REFINE_TOP]
    step = np.array([np.pi / strategy.n_theta, 2.0 * np.pi / strategy.n_phi])
    refined_angles, refined, n_evals, converged = _pattern_search(
        score, _angle_neighbours, angles[top], scores[top], step
    )
    for x, val in zip(refined_angles, refined):
        if val > best_val + REFINE_MARGIN:
            best_val = float(val)
            best_angles = x
    trace = OptimizerTrace(
        restarts=len(top),
        best_values=tuple(float(v) for v in refined),
        n_evals=len(angles) + n_evals,
        converged=converged,
    )
    return best_angles, best_val, trace


# -- general-dimension evaluation --------------------------------------------


def _unitary_scores(r4: np.ndarray, s_b: float, us: np.ndarray) -> np.ndarray:
    """S(B) minus the average conditional entropy for a stack of measurement
    bases ``us`` (N, dA, dA), one outcome per column.

    One matrix product with every column of every basis and one weighted sum
    build all N·dA conditional blocks <u_k|_A rho |u_k>_A.
    """
    n, da, _ = us.shape
    db = r4.shape[1]
    # y[a, (b, d), n, k] = sum_c rho[(a, b), (c, d)] us[n, c, k]
    y = r4.transpose(0, 1, 3, 2).reshape(-1, da) @ us.transpose(1, 0, 2).reshape(da, -1)
    y = y.reshape(da, db * db, n, da)
    y *= us.conj().transpose(1, 0, 2)[:, None]
    blocks = y.sum(axis=0).transpose(1, 2, 0).reshape(n, da, db, db)
    return s_b - _weighted_entropies(blocks).sum(axis=1)


@lru_cache(maxsize=None)
def _givens_stencil(dim: int) -> tuple[np.ndarray, ...]:
    """The rotations of :func:`_rotation_neighbours` on a ``dim`` frame,
    read-only: their index k, pair (i, j), phase and angle sign, and the
    identity they start from."""
    i, j = np.triu_indices(dim, 1)
    # Each pair at phase 1 (φ = 0) and 1j (φ = π/2), each at +h and −h.
    n = len(i)
    k, i, j = np.arange(4 * n), np.repeat(i, 4), np.repeat(j, 4)
    phase, signs = np.tile([1.0, 1.0, 1j, 1j], n), np.tile([1.0, -1.0, 1.0, -1.0], n)
    return tuple(_freeze(a) for a in (k, i, j, phase, signs, np.eye(dim, dtype=complex)))


def _rotation_neighbours(us: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Neighbours ``u @ R`` of frames ``u`` for the 2·d(d−1) rotations
    R = exp(±i·h·G), G the real or the imaginary off-diagonal generator of a
    pair i < j.  R is the Givens rotation cos h on (i, i) and (j, j),
    −e^{−iφ}·sin(±h) at (i, j) and e^{iφ}·sin(±h) at (j, i), with φ = 0 or π/2.
    """
    live, dim, _ = us.shape
    k, i, j, phase, signs, eye = _givens_stencil(dim)
    angle = h * signs
    c, s = np.cos(angle), np.sin(angle)
    r = np.broadcast_to(eye, (live, len(k), dim, dim)).copy()
    r[:, k, i, i] = c
    r[:, k, j, j] = c
    r[:, k, i, j] = -phase.conj() * s
    r[:, k, j, i] = phase * s
    return us[:, None] @ r


def _optimize_multistart(rho: BipartiteState, restarts: int, seed, s_b: float):
    rng = as_rng(seed)
    dim_a = rho.dim_a
    r4 = rho.matrix.reshape(dim_a, rho.dim_b, dim_a, rho.dim_b)

    def score(us):
        return _unitary_scores(r4, s_b, us)

    rho_a = partial_trace_matrix(rho.matrix, dim_a, rho.dim_b, "A")
    _, eigbasis = np.linalg.eigh((rho_a + rho_a.conj().T) / 2.0)
    frames = np.stack([eigbasis] + [random_unitary(dim_a, rng) for _ in range(restarts)])
    # A one-dimensional A has no rotation, so its frames start converged.
    step = np.array([np.pi / 4.0 if dim_a > 1 else 0.0])
    us, values, n_evals, converged = _pattern_search(
        score, _rotation_neighbours, frames, score(frames), step
    )
    trace = OptimizerTrace(
        restarts=len(frames),
        best_values=tuple(float(v) for v in values),
        n_evals=len(frames) + n_evals,
        converged=converged,
    )
    best = int(np.argmax(values))
    return us[best], float(values[best]), trace


# -- public optimisation API ---------------------------------------------------


def classical_correlation(
    rho: BipartiteState,
    strategy: Strategy = Hybrid(),
    seed: int | np.random.Generator = 42,
) -> tuple[float, ProjectiveMeasurement]:
    """Maximal classical correlation J(B|A) over rank-1 projective measurements.

    The returned value is the score that the strategy's own scorer gave the
    returned measurement, so it is the classical correlation of that
    measurement (a lower bound on the true maximum, up to rounding); ties
    between candidate measurements fall to the lowest grid or restart index.
    ``Hybrid`` and ``Grid`` need a qubit A: on dA != 2, ``Hybrid`` runs
    ``MultiStart(20)`` and ``Grid`` raises ValueError.
    """
    s_b = _reduced_entropy(rho, "B")
    value, meas, _ = _classical_correlation_traced(rho, strategy, seed, s_b)
    return value, meas


def _classical_correlation_traced(rho, strategy, seed, s_b):
    if isinstance(strategy, Grid) and rho.dim_a != 2:
        raise ValueError("Grid strategy is only defined for dim_a = 2")
    if rho.dim_a == 2 and isinstance(strategy, (Grid, Hybrid)):
        angles, value, trace = _optimize_qubit(rho, strategy, s_b)
        meas = ProjectiveMeasurement.from_bloch(angles[0], angles[1])
    else:
        restarts = strategy.restarts if isinstance(strategy, MultiStart) else 20
        u, value, trace = _optimize_multistart(rho, restarts, seed, s_b)
        meas = ProjectiveMeasurement.from_unitary(u)
    return value, meas, trace


def discord(
    rho: BipartiteState,
    strategy: Strategy = Hybrid(),
    seed: int | np.random.Generator = 42,
) -> DiscordResult:
    """Quantum discord D(A) = I(A:B) - J(B|A), in bits.

    I and J share one S(B), taken from the raw reduced matrix, and J is the
    optimiser's own score at the returned measurement.  Because J is a lower
    bound on the true maximum, the returned value is an upper bound on the
    discord, and on a zero-discord state it can read a few 1e-15 below zero;
    use :func:`is_cq_exact` to certify zero discord rather than testing this
    value against zero.  On dA != 2, ``Hybrid`` runs ``MultiStart(20)`` and
    ``Grid`` raises ValueError.
    """
    s_b = _reduced_entropy(rho, "B")
    info = _mutual_information(rho, s_b)
    j_value, meas, trace = _classical_correlation_traced(rho, strategy, seed, s_b)
    return DiscordResult(
        value=info - j_value,
        mutual_information=info,
        classical_correlation=j_value,
        optimal_measurement=meas,
        trace=trace,
    )


# -- exact classical-quantum structure ----------------------------------------


def _b_blocks(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Blocks blk[..., i, j] = <i|_B m |j>_B of an operator or a stack of them, as
    A-side operators of shape (..., dB, dB, dA, dA)."""
    r = m.reshape(*m.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    return np.moveaxis(r, (-3, -1), (-4, -3))


@dataclass(frozen=True)
class CQCheck:
    """Outcome of the exact classical-quantum test.

    ``residual`` is the worst commutator of two distinct B-indexed blocks (a
    normality defect only repeats one), relative to the Frobenius norm of
    the state, and ``worst`` is ``("commutator", p, q)`` for that pair."""

    is_cq: bool
    residual: float
    worst: tuple | None
    tol: float

    def __bool__(self) -> bool:
        return self.is_cq


def is_cq_exact(rho: BipartiteState, tol: float = CQ_TOL) -> CQCheck:
    """Exact zero-discord (classical-quantum) test via block commutation.

    The state is CQ iff the blocks ``A_ij = <i|_B rho |j>_B`` are mutually
    commuting normal operators.  As ``A_ji = A_ij^dag``, the normality defect
    of ``A_ij`` is its commutator with ``A_ji``, so only pairs of distinct
    blocks are scanned, in Frobenius norm against ``tol * ||rho||_F``, as one
    stack in row-major order; the first pair to reach the maximum is ``worst``.
    """
    (residual,), (pair,) = _cq_residuals(rho.matrix[None], rho.dim_a, rho.dim_b)
    residual = float(residual)
    worst = None
    if residual > 0.0:
        worst = ("commutator", *(divmod(int(k[pair]), rho.dim_b) for k in _block_pairs(rho.dim_b)))
    return CQCheck(is_cq=residual <= tol, residual=residual, worst=worst, tol=tol)


@lru_cache(maxsize=None)
def _block_pairs(dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of distinct blocks among the ``dim_b**2`` B blocks, in
    row-major order of the upper triangle: each pair's two block indices."""
    first, second = np.triu_indices(dim_b * dim_b, 1)
    for index in (first, second):
        index.setflags(write=False)
    return first, second


def _cq_residuals(matrices: np.ndarray, dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """The residual of :func:`is_cq_exact` for each state of the stack
    ``(n, dim_a * dim_b, dim_a * dim_b)``, bit for bit, in one scan, and the
    index in :func:`_block_pairs` of each state's first worst pair (0 if none).
    The stack is read as its Hermitian part, a no-op on a validated state, so
    ``A_ji = A_ij^dag`` holds exactly and each normality defect is a commutator."""
    n = len(matrices)
    if dim_b == 1:  # no pair of distinct blocks: every state is CQ
        return np.zeros(n), np.zeros(n, dtype=np.intp)
    first, second = _block_pairs(dim_b)
    herm = (matrices + matrices.conj().transpose(0, 2, 1)) / 2.0
    blocks = _b_blocks(herm, dim_a, dim_b).reshape(n, dim_b * dim_b, dim_a, dim_a)
    a, b = blocks[:, first], blocks[:, second]
    defects = _frobenius_norms((a @ b - b @ a).reshape(-1, dim_a, dim_a)).reshape(n, len(first))
    pairs = np.argmax(defects, axis=1)
    scales = _frobenius_norms(herm)  # a zero norm has zero defects
    return defects[np.arange(n), pairs] / np.where(scales > 0.0, scales, 1.0), pairs


@dataclass(frozen=True, eq=False)
class CQDecomposition:
    """Witness of zero discord: basis on A, weights and conditional B states."""

    dim_a: int
    dim_b: int
    basis: np.ndarray  # columns are the |psi_k>
    probs: np.ndarray
    conditional_states: tuple[DensityOperator, ...]

    def reconstruct(self) -> BipartiteState:
        conditionals = np.array([state.matrix for state in self.conditional_states])
        (m,) = _cq_form(self.basis[None], (self.probs[:, None, None] * conditionals)[None])
        return BipartiteState.from_matrix(m, self.dim_a, self.dim_b)


def cq_decompose(rho: BipartiteState, tol: float = CQ_TOL) -> CQDecomposition:
    """Extract the classical basis and conditional states of a CQ state.

    The common eigenbasis of the (commuting, normal) blocks is found by
    diagonalising a random real combination of their Hermitian and
    anti-Hermitian parts.  A draw is accepted when the CQ form of its basis
    and blocks (:func:`_cq_form`, which also serves ``reconstruct`` and the
    measure-and-prepare rebuild) lies within ``tol * max(1, ||rho||)`` of
    ``rho``; degenerate draws are retried with fresh coefficients.
    """
    check = is_cq_exact(rho, tol)
    if not check:
        raise DecompositionError(
            f"state is not classical-quantum (residual {check.residual:.3e}, "
            f"worst {check.worst})",
            check.residual,
        )
    da, db = rho.dim_a, rho.dim_b
    for residuals, accepted, basis, weights, blocks in _cq_draws(rho.matrix[None], da, db, tol):
        if accepted[0]:
            (probs,), (conditionals,) = _cq_conditionals(weights, blocks)
            return CQDecomposition(
                dim_a=da,
                dim_b=db,
                basis=basis[0],
                probs=probs,
                conditional_states=tuple(DensityOperator(db, _freeze(c)) for c in conditionals),
            )
    raise DecompositionError(
        f"failed to resolve a common eigenbasis after {DECOMPOSE_RETRIES} attempts "
        f"(last reconstruction residual {residuals[0]:.3e})",
        float(residuals[0]),
    )


def _cq_draws(matrices: np.ndarray, dim_a: int, dim_b: int, tol: float):
    """The ``DECOMPOSE_RETRIES`` draws of :func:`cq_decompose` on a stack
    ``(n, d, d)`` of CQ states, one draw at a time.

    Every state takes the same random coefficients in a draw.  Each draw
    yields the reconstruction residuals relative to ``max(1, ||rho||)``,
    the mask of those within ``tol``, the eigenbases ``(n, dim_a, dim_a)``,
    the unnormalised weights ``(n, dim_a)`` and the conditional blocks
    ``(n, dim_a, dim_b, dim_b)``.
    """
    n = len(matrices)
    da, db = dim_a, dim_b
    blocks = _b_blocks(matrices, da, db)
    flat = blocks.reshape(n, db * db, da, da)
    herm = (flat + flat.conj().swapaxes(-1, -2)) / 2.0
    skew = (flat - flat.conj().swapaxes(-1, -2)) / 2j
    scales = np.maximum(1.0, _frobenius_norms(matrices))
    rng = as_rng(DECOMPOSE_SEED)
    for _ in range(DECOMPOSE_RETRIES):
        # Summed in block order over axis 1, as a loop adding block by block.
        c = rng.standard_normal((db * db, 2))
        combined = (c[:, 0, None, None] * herm + c[:, 1, None, None] * skew).sum(axis=1)
        _, basis = np.linalg.eigh(combined)
        cond = np.einsum("nak,nijab,nbk->nkij", basis.conj(), blocks, basis)
        weights = np.clip(np.einsum("nkii->nk", cond).real, 0.0, None)
        residuals = _frobenius_norms(_cq_form(basis, cond) - matrices)
        yield residuals / scales, residuals <= tol * scales, basis, weights, cond


def _cq_conditionals(weights: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalised weights and conditional states of accepted draws: each
    block ``(..., dim_b, dim_b)`` whose weight exceeds ``ZERO_CUTOFF`` over
    that weight, validated as a state, and the maximally mixed state for the
    rest."""
    dim_b = blocks.shape[-1]
    states = np.broadcast_to(np.eye(dim_b, dtype=complex) / dim_b, blocks.shape).copy()
    live = weights > ZERO_CUTOFF
    valid, error = _validate_states(
        blocks[live] / weights[live][:, None, None], name="conditional state"
    )
    if error is not None:
        raise error
    states[live] = valid
    return weights / weights.sum(axis=-1, keepdims=True), states
