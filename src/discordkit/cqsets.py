"""Convex subsets of classical-quantum states.

A :class:`ConvexCQSubsetSpec` names the structure every state of one such
subset shares: rank-1 directions on A paired with a fixed B state (BOTH
entries), rank-1 directions on A whose B conditional ranges over a convex
set (FIXED entries), and orthogonal A subspaces of rank two or more whose
B conditional is pinned to a fixed state (POINT entries).  Mixing states
with the same structure stays inside the subset; mixing across structures
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
class BothEntry:
    """Rank-1 A direction with a pinned conditional B state."""

    vector: np.ndarray
    state: DensityOperator


@dataclass(frozen=True, eq=False)
class FixedEntry:
    """Rank-1 A direction whose B conditional ranges over a convex set.

    ``generators`` lists the extreme points of the allowed set; ``None``
    means the full state space on B.
    """

    vector: np.ndarray
    generators: tuple[DensityOperator, ...] | None


@dataclass(frozen=True, eq=False)
class PointEntry:
    """A subspace of rank >= 2 (as an orthogonal projector) with a pinned B state."""

    projector: np.ndarray
    state: DensityOperator


@dataclass(frozen=True, eq=False)
class ConvexCQSubsetSpec:
    dim_a: int
    dim_b: int
    both_entries: tuple[BothEntry, ...] = ()
    fixed_entries: tuple[FixedEntry, ...] = ()
    point_entries: tuple[PointEntry, ...] = ()

    def support_projectors(self) -> np.ndarray:
        """Stack ``(n_entries, dA, dA)`` of A-side projectors, in (both, fixed, point) order."""
        projs = []
        for entry in self.both_entries + self.fixed_entries:
            v = entry.vector / np.linalg.norm(entry.vector)
            projs.append(np.outer(v, v.conj()))
        for entry in self.point_entries:
            projs.append(entry.projector)
        return np.array(projs, dtype=complex).reshape(-1, self.dim_a, self.dim_a)

    @property
    def n_entries(self) -> int:
        return len(self.both_entries) + len(self.fixed_entries) + len(self.point_entries)


@dataclass(frozen=True)
class SpecDiagnostics:
    ok: bool
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _entry_labels(spec: ConvexCQSubsetSpec) -> list[str]:
    labels = [f"both[{i}]" for i in range(len(spec.both_entries))]
    labels += [f"fixed[{i}]" for i in range(len(spec.fixed_entries))]
    labels += [f"point[{i}]" for i in range(len(spec.point_entries))]
    return labels


def validate_spec(spec: ConvexCQSubsetSpec) -> SpecDiagnostics:
    """Check orthogonality, rank and state validity; reports the first violation."""
    labels = _entry_labels(spec)
    for i, entry in enumerate(spec.both_entries + spec.fixed_entries):
        v = np.asarray(entry.vector).reshape(-1)
        if v.size != spec.dim_a:
            return SpecDiagnostics(False, f"{labels[i]}: vector has dimension {v.size}")
        if abs(np.linalg.norm(v) - 1.0) > VALIDITY_TOL:
            return SpecDiagnostics(False, f"{labels[i]}: vector is not normalised")
    offset = len(spec.both_entries) + len(spec.fixed_entries)
    for i, entry in enumerate(spec.point_entries):
        p = np.asarray(entry.projector)
        label = labels[offset + i]
        if p.shape != (spec.dim_a, spec.dim_a):
            return SpecDiagnostics(False, f"{label}: projector has shape {p.shape}")
        if np.linalg.norm(p @ p - p) > PARTITION_TOL or np.linalg.norm(p - p.conj().T) > PARTITION_TOL:
            return SpecDiagnostics(False, f"{label}: not an orthogonal projector")
        rank = int(round(np.trace(p).real))
        if rank < 2:
            return SpecDiagnostics(False, f"{label}: projector rank {rank} is below 2")
    for entry, label in zip(spec.fixed_entries, labels[len(spec.both_entries) : offset]):
        if entry.generators is not None and len(entry.generators) == 0:
            return SpecDiagnostics(False, f"{label}: empty generator list")
    projs = spec.support_projectors()
    first, second = np.triu_indices(len(projs), 1)
    overlaps = _frobenius_norms(projs[first] @ projs[second])
    bad = np.flatnonzero(overlaps > PARTITION_TOL)
    if bad.size:
        i, j = first[bad[0]], second[bad[0]]
        return SpecDiagnostics(
            False, f"{labels[i]} and {labels[j]} overlap (norm {overlaps[bad[0]]:.3e})"
        )
    if len(projs):
        top = float(np.linalg.eigvalsh(projs.sum(axis=0))[-1])
        if top > 1.0 + PARTITION_TOL:
            return SpecDiagnostics(False, f"entry supports exceed the identity (max eig {top:.6f})")
    return SpecDiagnostics(True, None)


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

    Weights default to a Dirichlet draw over the entries; FIXED conditionals
    are random convex combinations of the generators (or Hilbert-Schmidt
    draws when unrestricted) and POINT conditional A states are
    Hilbert-Schmidt within the subspace.
    """
    diag = validate_spec(spec)
    if not diag:
        raise ValueError(f"invalid subset spec: {diag.message}")
    rng = as_rng(rng)
    n = spec.n_entries
    if n == 0:
        raise ValueError("spec has no entries to sample from")
    if weights is None:
        t = rng.dirichlet(np.ones(n))
    else:
        t = np.asarray(weights, dtype=float)
        if t.size != n or np.any(t < -ZERO_CUTOFF) or abs(t.sum() - 1.0) > VALIDITY_TOL:
            raise ValueError("weights must be a probability vector over the entries")
    m = np.zeros((spec.dim_a * spec.dim_b,) * 2, dtype=complex)
    idx = 0
    for entry in spec.both_entries:
        v = entry.vector / np.linalg.norm(entry.vector)
        m += t[idx] * np.kron(np.outer(v, v.conj()), entry.state.matrix)
        idx += 1
    for entry in spec.fixed_entries:
        v = entry.vector / np.linalg.norm(entry.vector)
        if entry.generators is None:
            sigma = random_density(spec.dim_b, "hilbert-schmidt", rng).matrix
        else:
            coeffs = rng.dirichlet(np.ones(len(entry.generators)))
            sigma = sum(c * g.matrix for c, g in zip(coeffs, entry.generators))
        m += t[idx] * np.kron(np.outer(v, v.conj()), sigma)
        idx += 1
    for entry in spec.point_entries:
        iso = _subspace_isometry(entry.projector)
        sub = random_density(iso.shape[1], "hilbert-schmidt", rng).matrix
        rho_a = iso @ sub @ iso.conj().T
        m += t[idx] * np.kron(rho_a, entry.state.matrix)
        idx += 1
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


def membership(spec: ConvexCQSubsetSpec, rho: BipartiteState) -> bool:
    """Exact structural membership test against the spec.

    Checks support containment in the declared A subspaces, absence of
    cross-subspace coherence, equality of the conditional B state with the
    pinned state on BOTH and POINT blocks (POINT blocks must additionally
    factorise), and hull membership on FIXED blocks, each to
    ``MEMBERSHIP_TOL``.
    """
    if (rho.dim_a, rho.dim_b) != (spec.dim_a, spec.dim_b):
        return False
    diag = validate_spec(spec)
    if not diag:
        raise ValueError(f"invalid subset spec: {diag.message}")
    m = rho.matrix
    big = np.kron(spec.support_projectors(), np.eye(spec.dim_b, dtype=complex))
    whole = big.sum(axis=0)
    if np.linalg.norm(m - whole @ m @ whole) > MEMBERSHIP_TOL:
        return False
    first, second = np.triu_indices(len(big), 1)
    if np.any(_frobenius_norms(big[first] @ m @ big[second]) > MEMBERSHIP_TOL):
        return False

    r4 = m.reshape(spec.dim_a, spec.dim_b, spec.dim_a, spec.dim_b)

    def vector_block(vec: np.ndarray) -> np.ndarray:
        v = vec / np.linalg.norm(vec)
        return np.einsum("a,abcd,c->bd", v.conj(), r4, v)

    for entry in spec.both_entries:
        block = vector_block(entry.vector)
        weight = float(np.trace(block).real)
        if weight > ZERO_CUTOFF:
            if np.linalg.norm(block / weight - entry.state.matrix) > MEMBERSHIP_TOL:
                return False
    for entry in spec.fixed_entries:
        block = vector_block(entry.vector)
        weight = float(np.trace(block).real)
        if weight > ZERO_CUTOFF:
            sigma = block / weight
            if entry.generators is None:
                try:
                    DensityOperator.from_matrix(sigma, name="conditional")
                except ValueError:
                    return False
            elif _hull_residual(sigma, entry.generators) > MEMBERSHIP_TOL:
                return False
    for entry in spec.point_entries:
        iso = _subspace_isometry(entry.projector)
        block = np.einsum("ae,abcd,cf->ebfd", iso.conj(), r4, iso)
        r = iso.shape[1]
        block = block.reshape(r * spec.dim_b, r * spec.dim_b)
        weight = float(np.trace(block).real)
        if weight > ZERO_CUTOFF:
            rho_a = np.trace(
                block.reshape(r, spec.dim_b, r, spec.dim_b), axis1=1, axis2=3
            )
            if np.linalg.norm(block - np.kron(rho_a, entry.state.matrix)) > MEMBERSHIP_TOL:
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
    rng = as_rng(seed)
    failures = []
    worst = 0.0
    for k in range(n_pairs):
        x = sample_state(spec, rng)
        y = sample_state(spec, rng)
        w = rng.uniform()
        mixed = BipartiteState.from_matrix(
            w * x.matrix + (1.0 - w) * y.matrix, spec.dim_a, spec.dim_b
        )
        check = is_cq_exact(mixed)
        worst = max(worst, check.residual)
        if not check or not membership(spec, mixed):
            failures.append(k)
    return ClosureReport(n_pairs=n_pairs, failures=tuple(failures), worst_residual=worst)
