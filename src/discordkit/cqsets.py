"""Convex subsets of classical-quantum states, and the partition model they
share with discord-annihilating channels.

A partition is an ordered tuple of entries on mutually orthogonal A
subspaces: a :class:`Rank1Entry` (one vector, normalised when used) or a
:class:`MultiEntry` (an orthogonal projector of rank two or more), each
with a conditional on B.  In a :class:`ConvexCQSubsetSpec` the conditional
says which B states the block may carry: :class:`PointTo` pins it to one
state, :class:`IdentityAction` leaves it free and :class:`Hull` restricts
it to the convex hull of its generators; a subspace must be pinned.  In
the BOTH / FIXED / POINT terms of the subset literature, BOTH is a pinned
rank-1 entry, FIXED an unrestricted or hull rank-1 entry and POINT a
pinned subspace.  An annihilating channel
(:class:`~discordkit.annihilators.DAChannelSpec`) reads the same entries
as actions on B, preparing the pinned state or leaving B alone, and its
image lies in the subset with its own entries.  Mixing states with the
same structure stays inside the subset; mixing across structures
generically does not stay classical-quantum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .discord import is_cq_exact
from .states import (
    BipartiteState,
    DensityOperator,
    _frobenius_norms,
    as_rng,
    random_density,
)
from .tolerances import MEMBERSHIP_TOL, PARTITION_TOL, VALIDITY_TOL, ZERO_CUTOFF


@dataclass(frozen=True, eq=False)
class PointTo:
    """Conditional on B pinned to this state; a channel prepares it."""

    state: DensityOperator


@dataclass(frozen=True)
class IdentityAction:
    """Conditional on B left free; a channel leaves B untouched."""


@dataclass(frozen=True, eq=False)
class Hull:
    """Conditional on B restricted to the convex hull of ``generators``
    (a subset condition only; no channel acts this way)."""

    generators: tuple[DensityOperator, ...]


Action = PointTo | IdentityAction | Hull


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
class ConvexCQSubsetSpec:
    """Entries on orthogonal A subspaces that together cover at most the identity."""

    dim_a: int
    dim_b: int
    entries: tuple[Entry, ...] = ()


@dataclass(frozen=True)
class SpecDiagnostics:
    ok: bool
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _entry_projectors(dim_a: int, dim_b: int, entries) -> tuple[np.ndarray | None, str | None]:
    """Stack ``(n, dA, dA)`` of the entries' A projectors and None, or None and
    the first violation of the partition rules.

    Entry by entry: a vector must be finite and nonzero (it is normalised
    here), a projector Hermitian and idempotent, a subspace pinned and of rank
    two or more, every B state of dimension ``dim_b`` and a hull non-empty.
    Then the first pair, in upper-triangle order, whose projectors overlap.
    Coverage of the identity is the caller's check.
    """
    projs = np.zeros((len(entries), dim_a, dim_a), dtype=complex)
    for i, entry in enumerate(entries):
        action = entry.action
        if isinstance(entry, Rank1Entry):
            v = np.asarray(entry.vector, dtype=complex).reshape(-1)
            if v.size != dim_a:
                return None, f"entry {i}: vector has dimension {v.size}"
            norm = np.linalg.norm(v)
            if not 0.0 < norm < np.inf:
                return None, f"entry {i}: vector has zero or non-finite norm {norm}"
            v = v / norm
            projs[i] = np.outer(v, v.conj())
        else:
            p = np.asarray(entry.projector, dtype=complex)
            if p.shape != (dim_a, dim_a):
                return None, f"entry {i}: projector has shape {p.shape}"
            hermitian_defect = np.linalg.norm(p - p.conj().T)
            if not (np.linalg.norm(p @ p - p) <= PARTITION_TOL and hermitian_defect <= PARTITION_TOL):
                return None, f"entry {i}: matrix is not an orthogonal projector"
            if not isinstance(action, PointTo):
                return None, f"entry {i}: a subspace of rank >= 2 must point to a fixed B state"
            rank = int(round(np.trace(p).real))
            if rank < 2:
                return None, f"entry {i}: subspace has rank {rank}, below 2"
            projs[i] = p
        states = ()
        if isinstance(action, PointTo):
            states = (action.state,)
        elif isinstance(action, Hull):
            if not action.generators:
                return None, f"entry {i}: hull has no generators"
            states = action.generators
        for state in states:
            if state.dim != dim_b:
                return None, f"entry {i}: B state has dimension {state.dim}, expected {dim_b}"
    first, second = np.triu_indices(len(entries), 1)
    overlaps = _frobenius_norms(projs[first] @ projs[second])
    bad = np.flatnonzero(~(overlaps <= PARTITION_TOL))
    if bad.size:
        i, j = first[bad[0]], second[bad[0]]
        return None, f"entries {i} and {j} overlap (norm {overlaps[bad[0]]:.3e})"
    return projs, None


def _subset_projectors(spec: ConvexCQSubsetSpec) -> tuple[np.ndarray | None, str | None]:
    """:func:`_entry_projectors` of the spec, whose entries may cover at most the identity."""
    projs, problem = _entry_projectors(spec.dim_a, spec.dim_b, spec.entries)
    if problem is None and len(projs):
        top = float(np.linalg.eigvalsh(projs.sum(axis=0))[-1])
        if not top <= 1.0 + PARTITION_TOL:
            return None, f"entry supports exceed the identity (max eig {top:.6f})"
    return projs, problem


def validate_spec(spec: ConvexCQSubsetSpec) -> SpecDiagnostics:
    """Check the partition rules and the coverage; reports the first violation."""
    _, problem = _subset_projectors(spec)
    return SpecDiagnostics(problem is None, problem)


def _checked_projectors(spec: ConvexCQSubsetSpec) -> np.ndarray:
    projs, problem = _subset_projectors(spec)
    if problem is not None:
        raise ValueError(f"invalid subset spec: {problem}")
    return projs


def _subspace_isometry(projector: np.ndarray) -> np.ndarray:
    """Columns spanning the range of an orthogonal projector."""
    eigvals, eigvecs = np.linalg.eigh(projector)
    cols = eigvecs[:, eigvals > 0.5]
    return cols


def sample_state(
    spec: ConvexCQSubsetSpec,
    rng,
    weights=None,
) -> BipartiteState:
    """Draw a state of the subset.

    Weights default to a Dirichlet draw over the entries.  A free
    conditional is a Hilbert-Schmidt draw, a hull conditional a random
    convex combination of its generators, and the A state of a subspace a
    Hilbert-Schmidt draw within it.
    """
    return _sample_state(spec, _checked_projectors(spec), rng, weights)


def _sample_state(spec, projs, rng, weights=None) -> BipartiteState:
    rng = as_rng(rng)
    n = len(spec.entries)
    if n == 0:
        raise ValueError("spec has no entries to sample from")
    if weights is None:
        t = rng.dirichlet(np.ones(n))
    else:
        t = np.asarray(weights, dtype=float)
        if t.size != n or np.any(t < -ZERO_CUTOFF) or abs(t.sum() - 1.0) > VALIDITY_TOL:
            raise ValueError("weights must be a probability vector over the entries")
    m = np.zeros((spec.dim_a * spec.dim_b,) * 2, dtype=complex)
    for weight, rho_a, entry in zip(t, projs, spec.entries):
        action = entry.action
        if isinstance(entry, MultiEntry):
            iso = _subspace_isometry(rho_a)  # rho_a is the subspace's projector until here
            sub = random_density(iso.shape[1], "hilbert-schmidt", rng).matrix
            rho_a = iso @ sub @ iso.conj().T
        if isinstance(action, PointTo):
            sigma = action.state.matrix
        elif isinstance(action, Hull):
            coeffs = rng.dirichlet(np.ones(len(action.generators)))
            sigma = sum(c * g.matrix for c, g in zip(coeffs, action.generators))
        else:
            sigma = random_density(spec.dim_b, "hilbert-schmidt", rng).matrix
        m += weight * np.kron(rho_a, sigma)
    return BipartiteState.from_matrix(m, spec.dim_a, spec.dim_b, name="subset sample")


def _hull_residual(sigma: np.ndarray, generators) -> float:
    """Distance of a state from the convex hull of the generators (NNLS)."""
    cols = []
    for g in generators:
        v = g.matrix.reshape(-1)
        cols.append(np.concatenate([v.real, v.imag]))
    a = np.column_stack(cols)
    target = sigma.reshape(-1)
    b = np.concatenate([target.real, target.imag])
    _, resid = nnls(a, b)
    return float(resid)


def _is_state(sigma: np.ndarray) -> bool:
    try:
        DensityOperator.from_matrix(sigma, name="conditional")
    except ValueError:
        return False
    return True


def membership(spec: ConvexCQSubsetSpec, rho: BipartiteState) -> bool:
    """Exact structural membership test against the spec.

    Checks support containment in the entries' A subspaces, absence of
    cross-subspace coherence, and each entry's conditional, each to
    ``MEMBERSHIP_TOL``: a subspace block must factorise with its pinned B
    state, and a rank-1 block's conditional must equal its pinned state,
    lie in its hull, or be a state when free.
    """
    if (rho.dim_a, rho.dim_b) != (spec.dim_a, spec.dim_b):
        return False
    return _membership(spec, _checked_projectors(spec), rho)


def _membership(spec, projs, rho: BipartiteState) -> bool:
    m = rho.matrix
    big = np.kron(projs, np.eye(spec.dim_b, dtype=complex))
    whole = big.sum(axis=0)
    if np.linalg.norm(m - whole @ m @ whole) > MEMBERSHIP_TOL:
        return False
    first, second = np.triu_indices(len(big), 1)
    if np.any(_frobenius_norms(big[first] @ m @ big[second]) > MEMBERSHIP_TOL):
        return False

    r4 = m.reshape(spec.dim_a, spec.dim_b, spec.dim_a, spec.dim_b)
    for proj, entry in zip(projs, spec.entries):
        action = entry.action
        if isinstance(entry, MultiEntry):
            iso = _subspace_isometry(proj)
            r = iso.shape[1]
            block = np.einsum("ae,abcd,cf->ebfd", iso.conj(), r4, iso)
            block = block.reshape(r * spec.dim_b, r * spec.dim_b)
            if float(np.trace(block).real) > ZERO_CUTOFF:
                rho_a = np.trace(block.reshape(r, spec.dim_b, r, spec.dim_b), axis1=1, axis2=3)
                if np.linalg.norm(block - np.kron(rho_a, action.state.matrix)) > MEMBERSHIP_TOL:
                    return False
            continue
        v = np.asarray(entry.vector).reshape(-1)
        v = v / np.linalg.norm(v)
        block = np.einsum("a,abcd,c->bd", v.conj(), r4, v)
        weight = float(np.trace(block).real)
        if not weight > ZERO_CUTOFF:
            continue
        sigma = block / weight
        if isinstance(action, PointTo):
            outside = np.linalg.norm(sigma - action.state.matrix) > MEMBERSHIP_TOL
        elif isinstance(action, Hull):
            outside = _hull_residual(sigma, action.generators) > MEMBERSHIP_TOL
        else:
            outside = not _is_state(sigma)
        if outside:
            return False
    return True


@dataclass(frozen=True)
class ClosureReport:
    n_pairs: int
    failures: tuple[int, ...]
    worst_residual: float

    @property
    def ok(self) -> bool:
        return not self.failures


def mixing_closure_check(spec: ConvexCQSubsetSpec, n_pairs: int, seed) -> ClosureReport:
    """Mix random pairs from the subset and confirm the mixtures stay inside.

    Every mixture must pass both the exact classical-quantum test and the
    structural membership test; the report lists the indices that fail.
    """
    projs = _checked_projectors(spec)
    rng = as_rng(seed)
    failures = []
    worst = 0.0
    for k in range(n_pairs):
        x = _sample_state(spec, projs, rng)
        y = _sample_state(spec, projs, rng)
        w = rng.uniform()
        mixed = BipartiteState.from_matrix(
            w * x.matrix + (1.0 - w) * y.matrix, spec.dim_a, spec.dim_b
        )
        check = is_cq_exact(mixed)
        worst = max(worst, check.residual)
        if not check or not _membership(spec, projs, mixed):
            failures.append(k)
    return ClosureReport(n_pairs=n_pairs, failures=tuple(failures), worst_residual=worst)
