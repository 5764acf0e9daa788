"""Dense complex-matrix quantum primitives.

States, tensor products, partial traces, spectra, entropies and seeded
random ensembles used by every other module.

Conventions
-----------
* Composite systems use the product basis ``|a> (x) |b>`` with the second
  (B) index fastest, matching ``np.kron``: the row index of a bipartite
  matrix is ``a * dim_b + b``.
* Entropies are in bits (log base 2).
* A matrix is accepted as a state when it is finite, Hermitian and unit
  trace to ``VALIDITY_TOL`` and its smallest eigenvalue is at least
  ``-VALIDITY_TOL``.  Negative eigenvalues within that tolerance are
  clipped to zero and the state renormalised; larger violations raise
  :class:`InvalidStateError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tolerances import VALIDITY_TOL, ZERO_CUTOFF

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)


class InvalidStateError(ValueError):
    """A matrix failed the density-operator invariants."""


def as_rng(seed: int | np.random.Generator | list | None) -> np.random.Generator:
    """Coerce an integer seed (or seed sequence) into a numpy Generator.

    Existing generators pass through unchanged so callers can thread one
    generator through a pipeline of sampling calls.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive semidefinite, unit-trace operator on a ``dim``-dimensional space."""

    dim: int
    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix, *, name: str = "state") -> "DensityOperator":
        """Validate ``matrix`` and wrap it.

        Entries must be finite, and Hermiticity and trace must hold to
        ``VALIDITY_TOL``; eigenvalues in ``[-VALIDITY_TOL, 0)`` are clipped
        to the PSD cone and the result renormalised.  Violations raise
        :class:`InvalidStateError` with a message naming the offending
        invariant.
        """
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError(f"{name}: expected a square matrix, got shape {m.shape}")
        eigvals, eigvecs = eig_hermitian(m, what=f"{name}: matrix", error=InvalidStateError)
        m = (m + m.conj().T) / 2.0
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > VALIDITY_TOL:
            raise InvalidStateError(f"{name}: trace is {trace!r}, expected 1")
        if eigvals[0] < -VALIDITY_TOL:
            raise InvalidStateError(
                f"{name}: matrix is not positive semidefinite "
                f"(min eigenvalue {eigvals[0]:.3e})"
            )
        if eigvals[0] < 0.0:
            clipped = np.clip(eigvals, 0.0, None)
            m = (eigvecs * clipped) @ eigvecs.conj().T
            m = (m + m.conj().T) / 2.0
            m = m / np.trace(m).real
        return cls(dim=m.shape[0], matrix=_freeze(m))

    @classmethod
    def pure(cls, vector, *, name: str = "state") -> "DensityOperator":
        """Rank-1 projector onto the (normalised) ``vector``."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm < ZERO_CUTOFF:
            raise InvalidStateError(f"{name}: zero vector cannot define a pure state")
        v = v / norm
        return cls(dim=v.size, matrix=_freeze(np.outer(v, v.conj())))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(dim=dim, matrix=_freeze(np.eye(dim, dtype=complex) / dim))

    @classmethod
    def diagonal(cls, probs, *, name: str = "state") -> "DensityOperator":
        p = np.asarray(probs, dtype=float)
        return cls.from_matrix(np.diag(p.astype(complex)), name=name)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """State on a composite A (x) B system with the shared basis convention."""

    dim_a: int
    dim_b: int
    state: DensityOperator

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.state.dim:
            raise InvalidStateError(
                f"subsystem dims ({self.dim_a}, {self.dim_b}) do not match "
                f"total dimension {self.state.dim}"
            )

    @classmethod
    def from_matrix(cls, matrix, dim_a: int, dim_b: int, *, name: str = "state") -> "BipartiteState":
        return cls(dim_a, dim_b, DensityOperator.from_matrix(matrix, name=name))

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix


def tensor(x: DensityOperator, y: DensityOperator) -> DensityOperator:
    """Kronecker product of two states (second factor fastest)."""
    return DensityOperator(dim=x.dim * y.dim, matrix=_freeze(np.kron(x.matrix, y.matrix)))


def product_state(a: DensityOperator, b: DensityOperator) -> BipartiteState:
    return BipartiteState(a.dim, b.dim, tensor(a, b))


def partial_trace_matrix(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Partial trace of a raw ``(dim_a*dim_b)``-square matrix."""
    r = np.asarray(m).reshape(dim_a, dim_b, dim_a, dim_b)
    keep = keep.upper()
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: BipartiteState, keep: str) -> DensityOperator:
    """Reduced state of the kept subsystem."""
    reduced = partial_trace_matrix(rho.matrix, rho.dim_a, rho.dim_b, keep)
    return DensityOperator.from_matrix(reduced, name=f"tr over {keep}-complement")


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack, bit for bit equal to
    ``np.linalg.norm`` of that matrix (``axis=(1, 2)`` sums in another order)."""
    flat = stack.reshape(len(stack), stack.shape[1] * stack.shape[2])
    re, im = flat.real, flat.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]


def eig_hermitian(
    h: np.ndarray, *, what: str = "eig_hermitian: input", error: type[ValueError] = ValueError
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a finite Hermitian matrix.

    This is the Hermiticity check for states, Choi matrices and POVM
    elements: the entries must be finite and the Frobenius defect
    ``||h - h^dag||`` at most ``VALIDITY_TOL * max(1, ||h||)``.  A failure
    raises ``error`` with a message starting with ``what``.  Returns the
    eigenvalues of ``(h + h^dag) / 2`` in ascending order and the matching
    orthonormal eigenvector columns.
    """
    h = np.asarray(h, dtype=complex)
    norm = float(np.linalg.norm(h))
    # Tested before max(1, norm) below, which would turn NaN into 1.
    if not np.isfinite(norm):
        raise error(f"{what} is not finite")
    defect = float(np.linalg.norm(h - h.conj().T))
    if defect > VALIDITY_TOL * max(1.0, norm):
        raise error(f"{what} is not Hermitian (defect {defect:.3e})")
    return np.linalg.eigh((h + h.conj().T) / 2.0)


def entropy_from_eigenvalues(eigvals: np.ndarray) -> float:
    """Shannon entropy in bits of a spectrum, with the 0*log(0) := 0 rule.

    Eigenvalues below ``ZERO_CUTOFF`` (including small negatives from roundoff)
    contribute nothing.
    """
    w = np.asarray(eigvals, dtype=float)
    w = w[w > ZERO_CUTOFF]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def von_neumann_entropy(rho: DensityOperator | np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    return entropy_from_eigenvalues(np.linalg.eigvalsh(m))


ENSEMBLES = ("hilbert-schmidt", "haar-pure", "rank")


def random_density(
    dim: int,
    ensemble: str,
    rng: int | np.random.Generator,
    *,
    rank: int | None = None,
) -> DensityOperator:
    """Draw a random state from a named ensemble.

    ``hilbert-schmidt`` uses G G^dag / tr(G G^dag) with complex
    standard-normal G; ``haar-pure`` a Haar-random unit vector; ``rank``
    the induced measure with ``rank`` Ginibre columns.  Deterministic for
    a given seed.
    """
    rng = as_rng(rng)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if ensemble == "haar-pure":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return DensityOperator.pure(v)
    if ensemble == "hilbert-schmidt":
        k = dim
    elif ensemble == "rank":
        if rank is None or not (1 <= rank <= dim):
            raise ValueError(f"rank ensemble needs 1 <= rank <= {dim}, got {rank}")
        k = rank
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


def random_unitary(dim: int, rng: int | np.random.Generator) -> np.ndarray:
    """Haar-random unitary via the phase-fixed QR of a Ginibre matrix."""
    rng = as_rng(rng)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_bipartite(dim_a: int, dim_b: int, rng: int | np.random.Generator) -> BipartiteState:
    """Hilbert-Schmidt random state on ``dim_a (x) dim_b``."""
    return BipartiteState(dim_a, dim_b, random_density(dim_a * dim_b, "hilbert-schmidt", rng))


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def max_entangled(dim_a: int, dim_b: int | None = None) -> BipartiteState:
    """Maximally entangled state sum_i |ii> / sqrt(m) on dim_a (x) dim_b.

    ``dim_b`` defaults to ``dim_a``; ``m = min(dim_a, dim_b)``, so for
    unequal dimensions the state is embedded in the first ``m`` levels.
    """
    dim_b = dim_a if dim_b is None else dim_b
    v = np.zeros(dim_a * dim_b, dtype=complex)
    v[np.arange(min(dim_a, dim_b)) * (dim_b + 1)] = 1.0
    return BipartiteState(dim_a, dim_b, DensityOperator.pure(v))


def bell_state(which: int = 0) -> BipartiteState:
    """The four Bell states on 2 (x) 2, indexed 0..3 as Phi+, Phi-, Psi+, Psi-."""
    s = 1 / np.sqrt(2)
    vectors = {
        0: [s, 0, 0, s],
        1: [s, 0, 0, -s],
        2: [0, s, s, 0],
        3: [0, s, -s, 0],
    }
    if which not in vectors:
        raise ValueError(f"Bell index must be 0..3, got {which}")
    return BipartiteState(2, 2, DensityOperator.pure(vectors[which]))


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Orthonormal Hermitian operator basis with the identity direction first.

    Element 0 is 1/sqrt(dim); the rest are the normalised generalised
    Gell-Mann matrices, ordered as the symmetric and antisymmetric pair
    elements for each index pair (j < k), followed by the diagonal
    elements.  For dim 2 this is exactly (1, X, Y, Z)/sqrt(2).
    """

    dim: int
    elements: tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> HermitianBasis:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    elements = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            elements.append(sym / np.sqrt(2.0))
            antisym = np.zeros((dim, dim), dtype=complex)
            antisym[j, k] = -1j
            antisym[k, j] = 1j
            elements.append(antisym / np.sqrt(2.0))
    for level in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        norm = np.sqrt(level * (level + 1.0))
        elements.append(np.diag(diag) / norm)
    return HermitianBasis(dim=dim, elements=tuple(_freeze(e) for e in elements))
