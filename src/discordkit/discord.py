"""Quantum discord and exact classical-quantum structure tests.

Discord is computed as ``D = I(A:B) - J(B|A)`` where the classical
correlation ``J`` is maximised over rank-1 projective measurements on A.
There is one evaluator of J: the reported value is the score that the
optimiser's scorer (``_qubit_scores`` or ``_unitary_scores``) gave the
returned measurement, with the same S(B) that I(A:B) uses.  It is the
classical correlation of an actual measurement but for the scorer's zero
cutoff c = ``ZERO_CUTOFF``, which can raise J above it by up to
dA c log2 dB + (dB - 1) c log2(1/c) (4.2e-11 at 2x2, 1.3e-10 at 4x4): within
that, a lower bound on the true maximum, and the reported discord an upper
bound on the true value.  Zero-discord certification therefore never uses the
optimiser: :func:`is_cq_exact` tests the block-commutation structure of
the state directly, which is exact.

For a qubit A, ``Hybrid`` scores a Bloch-angle grid and refines its best
directions n by gradient ascent on the sphere, with
dJ/dn_i = tr[T_i (L+ - L-)] / 2, where T_i = tr_A[(sigma_i (x) 1) rho] and
L+- is log2 of the normalised conditional block (T0 +- n.T) / 2; the
directions it returns are scored again by ``_qubit_scores``.  For larger A,
``MultiStart`` runs the same ascent on the unitary group U(dA), with the
gradient G·U, G = E U^dag - U E^dag, where column k of E is Y_k u_k and
Y_k = tr_B[rho (1 (x) L_k)], L_k being log2 of the normalised conditional
block <u_k|_A rho |u_k>_A; its frames are scored again by ``_unitary_scores``.
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
        return _bloch_measurement(_bloch_directions(np.array([[theta, phi]]))[0])

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


def _bloch_measurement(n: np.ndarray) -> ProjectiveMeasurement:
    """The qubit measurement {(1 + n.sigma) / 2, (1 - n.sigma) / 2} along the
    unit Bloch vector ``n``."""
    nm = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    eye = np.eye(2, dtype=complex)
    return ProjectiveMeasurement(dim=2, projectors=((eye + nm) / 2.0, (eye - nm) / 2.0))


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
    """Batched gradient ascent on U(dA) from the rho_A eigenbasis and
    ``restarts`` seeded Haar frames, with Barzilai-Borwein steps and a QR
    retraction; the first step has Frobenius norm pi/4."""

    minimum = 0
    restarts: int = 20


@dataclass(frozen=True)
class Hybrid(_AtLeast):
    """The :class:`Grid` followed by a batched gradient ascent on the Bloch
    sphere from its 5 best points, which are 5 distinct measurements, with
    Barzilai-Borwein steps; the first step is the grid spacing pi/n_theta.
    Defined for a qubit A only: on dA != 2 it runs ``MultiStart(20)``
    instead."""

    n_theta: int = 32
    n_phi: int = 64


Strategy = Grid | MultiStart | Hybrid


@dataclass(frozen=True)
class OptimizerTrace:
    """What the optimiser did.

    ``restarts`` starts were refined (0 for Grid), ending at the scores
    ``best_values``; ``n_evals`` counts every point whose objective was
    evaluated: grid points (one per distinct measurement) or starting
    frames, then the gradient ascent's starts, every trial point and the
    final rescore; ``converged`` is False only when the ascent stopped at
    ``PATTERN_MAX_ROUNDS`` with a start still live.
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
    one stacked ``eigvalsh``."""
    p = _normalise(blocks)
    if blocks.shape[-1] == 2:
        a, d, b = blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0]
        root = np.sqrt((a - d) ** 2 + 4.0 * (b.real**2 + b.imag**2))
        w = np.stack([(a + d) - root, (a + d) + root], axis=-1) / 2.0
    else:
        w = np.linalg.eigvalsh(blocks)
    return _entropy_terms(p, w)[0]


def _normalise(blocks: np.ndarray) -> np.ndarray:
    """Divide each block by its trace p, in place, and return p."""
    p = np.trace(blocks, axis1=-2, axis2=-1).real
    blocks /= np.clip(p, ZERO_CUTOFF, None)[..., None, None]
    return p


def _entropy_terms(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p·S(block / p) from the normalised spectra ``w`` (..., db), and their
    base-2 logarithms.  Eigenvalues at or below ``ZERO_CUTOFF`` take log 0,
    and outcomes with p at or below it add nothing: at most c log2 db each
    (c = ``ZERO_CUTOFF``), and at most c log2(1/c) for each of the db - 1
    smallest eigenvalues, so da outcomes sum to at most
    da c log2 db + (db - 1) c log2(1/c) below the exact terms."""
    w = np.clip(w, 0.0, None)
    logs = np.where(w > ZERO_CUTOFF, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    return np.where(p > ZERO_CUTOFF, p * -np.sum(w * logs, axis=-1), 0.0), logs


def _qubit_blocks(t0, ts, directions: np.ndarray) -> np.ndarray:
    """The 2N conditional blocks (T0 +- n.T) / 2 of Bloch directions (N, 3):
    outcome + for every direction, then outcome -."""
    n = directions.shape[0]
    correlated = np.tensordot(directions, ts, axes=(1, 0))  # (N, db, db)
    # Filled in place, so the grid's 2N blocks exist once, not as a concatenated copy.
    blocks = np.empty((2 * n,) + t0.shape, dtype=correlated.dtype)
    np.add(t0, correlated, out=blocks[:n])
    np.subtract(t0, correlated, out=blocks[n:])
    blocks *= 0.5
    return blocks


def _qubit_scores(t0, ts, s_b, directions: np.ndarray) -> np.ndarray:
    """Classical-correlation values for a batch of Bloch directions (N, 3)."""
    weighted = _weighted_entropies(_qubit_blocks(t0, ts, directions))
    n = directions.shape[0]
    return s_b - (weighted[:n] + weighted[n:])


def _log_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p·S(block / p) of each unnormalised conditional block (..., db, db),
    with p its trace, and L = log2(block / p), from one stacked ``eigh``;
    ``blocks`` is normalised in place.  Eigenvalues and outcomes that the
    scorer counts as zero take log 0."""
    p = _normalise(blocks)
    w, v = np.linalg.eigh(blocks)
    weighted, logs = _entropy_terms(p, w)
    logs *= (p > ZERO_CUTOFF)[..., None]
    return weighted, (v * logs[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _qubit_value_grad(t0, ts, s_b, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical-correlation values of unit Bloch directions (N, 3) and their
    gradients on the sphere, from the 2N blocks M+- = (T0 +- n.T) / 2.

    With L+- = log2(M+- / tr M+-) from :func:`_log_blocks`,
    dJ/dn_i = tr[T_i (L+ - L-)] / 2, projected onto the tangent plane at n.
    The values are those of :func:`_qubit_scores` up to rounding.
    """
    n = directions.shape[0]
    weighted, logm = _log_blocks(_qubit_blocks(t0, ts, directions))
    # tr[T_i D] = sum over (b, d) of T_i[b, d] D[d, b], with D = L+ - L-.
    diff = (logm[:n] - logm[n:]).swapaxes(-1, -2).reshape(n, -1)
    grad = 0.5 * (diff @ ts.reshape(3, -1).T).real
    grad -= np.sum(grad * directions, axis=1)[:, None] * directions
    return s_b - (weighted[:n] + weighted[n:]), grad


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


# Rounds after which a gradient ascent stops whatever its step: one
# value-and-gradient call a round, its final rescore counted as a round too.
# A qubit ascent takes about 8 rounds; a MultiStart frame may reach the cap.
PATTERN_MAX_ROUNDS = 200
# Hybrid refines this many of its best grid points.
_REFINE_TOP = 5
# The longest tangent step of a gradient ascent: radians on the Bloch sphere,
# Frobenius norm on U(dA).  It and MultiStart's first step pi/4 are below 1,
# so U + v is invertible for a unitary U and its QR retraction is defined.
_MAX_STEP = 0.5


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product of each row of ``a`` with the same row of ``b``."""
    return (a.conj() * b).real.sum(axis=tuple(range(1, a.ndim)))


def _gradient_ascent(value_grad, retract, score, starts, values, step):
    """Refine every start at once by Riemannian gradient ascent.

    ``value_grad`` rates a stack of points and gives their gradients in the
    tangent spaces, ``retract(x, v)`` maps the tangent steps ``v`` at ``x``
    back onto the manifold, and ``score``, the objective's scorer, gives the
    returned values; ``values`` are the starts' scores.  Each round makes
    one ``value_grad`` call: first at the starts, then at one trial point
    per live start, a step along its gradient.  A trial replaces its start
    only when it rates strictly higher, and the next step length is then
    the Barzilai-Borwein step |s.s / s.y| (s the move, y the change of
    gradient) times the new gradient's norm, at most ``_MAX_STEP``;
    otherwise the step length halves.  The first step length is ``step``.
    A start stops when an accepted step gains at most ``REFINE_MARGIN``,
    when its next step's first-order gain (step length times gradient
    norm) is at most that, or when its step length falls below
    ``ANGLE_STEP_TOL``; one whose final score falls below its own returns
    to it.  Returns the points, their scores, the number of points rated
    and whether every start stopped within ``PATTERN_MAX_ROUNDS`` rounds,
    the final ``score`` call included.
    """
    x = starts.copy()
    val, grad = value_grad(x)
    norms = np.sqrt(_row_dots(grad, grad))
    h = np.full(len(x), float(step))
    n_evals = len(x)
    column = (-1,) + (1,) * (x.ndim - 1)

    def stopped():
        return (h < ANGLE_STEP_TOL) | (h * norms <= REFINE_MARGIN)

    for _ in range(PATTERN_MAX_ROUNDS - 2):
        live = np.flatnonzero(~stopped())
        if live.size == 0:
            break
        trial = retract(x[live], grad[live] * (h[live] / norms[live]).reshape(column))
        trial_val, trial_grad = value_grad(trial)
        n_evals += len(trial)
        up = trial_val > val[live]
        h[live[~up]] /= 2.0
        moved = live[up]
        s, y = trial[up] - x[moved], trial_grad[up] - grad[moved]
        ss, sy = _row_dots(s, s), np.abs(_row_dots(s, y))
        bb = np.divide(ss, sy, out=np.full_like(ss, np.inf), where=sy > 0.0)
        gain = trial_val[up] - val[moved]
        x[moved], val[moved], grad[moved] = trial[up], trial_val[up], trial_grad[up]
        norms[moved] = np.sqrt(_row_dots(grad[moved], grad[moved]))
        length = np.where(norms[moved] > 0.0, np.minimum(bb * norms[moved], _MAX_STEP), 0.0)
        h[moved] = np.where(gain > REFINE_MARGIN, length, 0.0)
    converged = bool(stopped().all())
    final = score(x)
    # value_grad and score may round apart: no start ends below its own score.
    back = ~(final >= values)
    x[back], final[back] = starts[back], values[back]
    return x, final, n_evals + len(x), converged


def _unit_rows(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Retraction onto the unit sphere: each row of x + v, normalised."""
    y = x + v
    return y / np.linalg.norm(y, axis=1)[:, None]


def _unitary_factor(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Retraction onto U(d): the unitary factor Q of each x + v = QR, with
    the phases of R's diagonal moved into Q so that it is positive."""
    q, r = np.linalg.qr(x + v)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _optimize_qubit(rho: BipartiteState, strategy: Grid | Hybrid, s_b: float):
    t0, ts = _qubit_correlation_ops(rho)

    def score(directions):
        return _qubit_scores(t0, ts, s_b, directions)

    directions = _bloch_directions(_grid_angles(strategy.n_theta, strategy.n_phi))
    scores = score(directions)
    best_idx = int(np.argmax(scores))
    best = directions[best_idx]
    best_val = float(scores[best_idx])

    if isinstance(strategy, Grid):
        trace = OptimizerTrace(
            restarts=0, best_values=(best_val,), n_evals=len(directions), converged=True
        )
        return best, best_val, trace

    def value_grad(directions):
        return _qubit_value_grad(t0, ts, s_b, directions)

    top = np.argsort(scores)[::-1][:_REFINE_TOP]
    refined_directions, refined, n_evals, converged = _gradient_ascent(
        value_grad, _unit_rows, score, directions[top], scores[top], np.pi / strategy.n_theta
    )
    for x, val in zip(refined_directions, refined):
        if val > best_val + REFINE_MARGIN:
            best_val = float(val)
            best = x
    trace = OptimizerTrace(
        restarts=len(top),
        best_values=tuple(float(v) for v in refined),
        n_evals=len(directions) + n_evals,
        converged=converged,
    )
    return best, best_val, trace


# -- general-dimension evaluation --------------------------------------------


def _unitary_blocks(r4: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The N·dA conditional blocks <u_k|_A rho |u_k>_A (N, dA, dB, dB) of a
    stack of measurement bases ``us`` (N, dA, dA), one outcome per column,
    and the half product y[a, (b, d), n, k] = sum_c rho[(a, b), (c, d)] us[n, c, k]
    they are summed from: one matrix product with every column of every
    basis and one weighted sum build them all.
    """
    n, da, _ = us.shape
    db = r4.shape[1]
    y = r4.transpose(0, 1, 3, 2).reshape(-1, da) @ us.transpose(1, 0, 2).reshape(da, -1)
    y = y.reshape(da, db * db, n, da)
    blocks = (y * us.conj().transpose(1, 0, 2)[:, None]).sum(axis=0)
    return blocks.transpose(1, 2, 0).reshape(n, da, db, db), y


def _unitary_scores(r4: np.ndarray, s_b: float, us: np.ndarray) -> np.ndarray:
    """S(B) minus the average conditional entropy for a stack of measurement
    bases ``us`` (N, dA, dA), one outcome per column."""
    return s_b - _weighted_entropies(_unitary_blocks(r4, us)[0]).sum(axis=1)


def _unitary_value_grad(r4, s_b, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical-correlation values of measurement bases ``us`` (N, dA, dA)
    and their gradients G·U on U(dA), from one stacked ``eigh`` of the N·dA
    conditional blocks M_k = <u_k|_A rho |u_k>_A.

    With L_k = log2(M_k / tr M_k) from :func:`_log_blocks` and
    Y_k = tr_B[rho (1 (x) L_k)], dJ = 2 Re sum_k <du_k, Y_k u_k>, so the
    gradient for the metric Re tr(X^dag Y) is G·U with the skew-Hermitian
    G = E U^dag - U E^dag, column k of E being Y_k u_k.  The values are
    those of :func:`_unitary_scores` up to rounding.
    """
    n, da, _ = us.shape
    blocks, y = _unitary_blocks(r4, us)
    weighted, logm = _log_blocks(blocks)
    # Y_k u_k = sum over (b, d) of y[:, (b, d), n, k] L_k[d, b].
    e = np.einsum("aenk,nke->nak", y, logm.swapaxes(-1, -2).reshape(n, da, -1))
    g = e @ us.conj().swapaxes(-1, -2)
    g -= g.conj().swapaxes(-1, -2)
    return s_b - weighted.sum(axis=1), g @ us


def _optimize_multistart(rho: BipartiteState, restarts: int, seed, s_b: float):
    rng = as_rng(seed)
    dim_a = rho.dim_a
    r4 = rho.matrix.reshape(dim_a, rho.dim_b, dim_a, rho.dim_b)

    def score(us):
        return _unitary_scores(r4, s_b, us)

    def value_grad(us):
        return _unitary_value_grad(r4, s_b, us)

    rho_a = partial_trace_matrix(rho.matrix, dim_a, rho.dim_b, "A")
    _, eigbasis = np.linalg.eigh((rho_a + rho_a.conj().T) / 2.0)
    frames = np.stack([eigbasis] + [random_unitary(dim_a, rng) for _ in range(restarts)])
    us, values, n_evals, converged = _gradient_ascent(
        value_grad, _unitary_factor, score, frames, score(frames), np.pi / 4.0
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
    measurement (a lower bound on the true maximum) up to the zero cutoff
    c = ``ZERO_CUTOFF`` of :func:`_entropy_terms`, which can raise J by
    dA c log2 dB + (dB - 1) c log2(1/c); ties
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
        direction, value, trace = _optimize_qubit(rho, strategy, s_b)
        meas = _bloch_measurement(direction)
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
    optimiser's own score at the returned measurement, a lower bound on the
    true maximum up to dA c log2 dB + (dB - 1) c log2(1/c), c = ``ZERO_CUTOFF``
    (the scorer's zero cutoff).  So the returned value is an upper bound on
    the discord up to that margin, and on a zero-discord state it can read
    below zero;
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
    the state, and ``worst`` is ``("commutator", p, q)`` for that pair: of
    the pair and its adjoint partner, which have the same norm, the first in
    row-major order (see :func:`_block_pairs`)."""

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
    of ``A_ij`` is its commutator with ``A_ji``, and the commutator of two
    transposed blocks is the adjoint of the original one, so each adjoint
    partner pair of distinct blocks is scored once, in Frobenius norm against
    ``tol * ||rho||_F``; ``worst`` is the first kept pair, in row-major order,
    to reach the maximum.  The residual is that of :func:`_cq_residuals`:
    the same in a stack as alone, but not bit for bit the norm a per-pair
    loop of block products would give.
    """
    (residual,), (pair,) = _cq_residuals(rho.matrix[None], rho.dim_a, rho.dim_b)
    residual = float(residual)
    worst = None
    if residual > 0.0:
        worst = ("commutator", *(divmod(int(k[pair]), rho.dim_b) for k in _block_pairs(rho.dim_b)))
    return CQCheck(is_cq=residual <= tol, residual=residual, worst=worst, tol=tol)


@lru_cache(maxsize=None)
def _block_pairs(dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of distinct blocks among the ``dim_b**2`` B blocks that the
    CQ test scores, in row-major order of the upper triangle: each pair's two
    block indices.  With ``p^T`` the index of the transposed block, the pair
    ``{p^T, q^T}`` has the adjoint commutator of ``{p, q}``; of the two, only
    the first in that order is kept, which leaves
    ``(m (m - 1) / 2 + dim_b (dim_b - 1)) / 2`` pairs for ``m = dim_b**2``."""
    first, second = np.triu_indices(dim_b * dim_b, 1)
    transposed = np.arange(dim_b * dim_b).reshape(dim_b, dim_b).T.ravel()
    low, high = np.sort((transposed[first], transposed[second]), axis=0)
    keep = (first < low) | ((first == low) & (second <= high))
    first, second = first[keep], second[keep]
    for index in (first, second):
        index.setflags(write=False)
    return first, second


def _cq_residuals(matrices: np.ndarray, dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """The residual of :func:`is_cq_exact` for each state of the stack
    ``(n, dim_a * dim_b, dim_a * dim_b)`` in one scan, and the index in
    :func:`_block_pairs` of each state's first worst pair (0 if none).

    The stack is read as its Hermitian part, a no-op on a validated state, so
    ``A_ji = A_ij^dag`` holds exactly and each normality defect is a commutator.
    Every product ``A_p A_q`` of a state comes out of one product of its
    stacked blocks, column ``[A_0; ...; A_m-1]`` times row ``[A_0|...|A_m-1]``.
    A state's residual is the same bits in any stack, but differs from the
    norm of a separate ``A_p A_q - A_q A_p`` at rounding level.
    """
    n = len(matrices)
    if dim_b == 1:  # no pair of distinct blocks: every state is CQ
        return np.zeros(n), np.zeros(n, dtype=np.intp)
    first, second = _block_pairs(dim_b)
    m = dim_b * dim_b
    herm = (matrices + matrices.conj().transpose(0, 2, 1)) / 2.0
    blocks = _b_blocks(herm, dim_a, dim_b).reshape(n, m, dim_a, dim_a)
    column = blocks.reshape(n, m * dim_a, dim_a)
    wide = column @ blocks.transpose(0, 2, 1, 3).reshape(n, dim_a, m * dim_a)
    products = wide.reshape(n, m, dim_a, m, dim_a).transpose(0, 1, 3, 2, 4)  # [:, p, q] = A_p A_q
    commutators = products[:, first, second] - products[:, second, first]
    defects = _frobenius_norms(commutators.reshape(-1, dim_a, dim_a)).reshape(n, len(first))
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
    and blocks (:func:`_cq_form`, which also serves ``reconstruct`` and
    ``make_qc_channel``) lies within ``tol * max(1, ||rho||)`` of
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
