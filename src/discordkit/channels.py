"""CPTP channel representations and constructors.

A :class:`QuantumChannel` stores one read-only Choi matrix, and every channel
the library builds is made from one; Kraus operators enter only through
``QuantumChannel(kraus)``.  The superoperator, which the action and the real
transfer matrix read, is its entries permuted; a Kraus set is derived on
demand from its eigendecomposition, with one phase rule.

Choi convention
---------------
``J(Phi) = sum_ij |i><j| (x) Phi(|i><j|)`` with the *input* slot first and
no normalisation, i.e. the channel applied to the second half of the
unnormalised maximally entangled operator.  Trace preservation reads
``tr_out J = identity_in`` and complete positivity reads ``J >= 0``.
The superoperator, ``vec(Phi(X)) = S vec(X)`` with row-major ``vec``, is
``S[(a, c), (b, d)] = J[(b, a), (d, c)]`` (Wood, Biamonte and Cory 2015, QIC 15, 759).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    PAULI_I,
    PAULIS,
    BipartiteState,
    DensityOperator,
    _freeze,
    _frobenius_norms,
    as_rng,
    eig_hermitian,
    hermitian_basis,
    partial_trace_matrix,
    random_unitary,
)
from .tolerances import RANK_TOL, VALIDITY_TOL, ZERO_CUTOFF


class InvalidChannelError(ValueError):
    """A map failed the CPTP (or construction-specific) requirements."""


class QuantumChannel:
    """Completely positive trace-preserving map held as its Choi matrix.

    ``QuantumChannel(kraus)`` takes a Kraus set of shape ``(r, dim_out,
    dim_in)`` and keeps only its Choi matrix; ``choi`` is read-only and set
    at construction.
    """

    def __init__(self, kraus):
        if len(kraus) == 0:
            raise InvalidChannelError("a channel needs at least one Kraus operator")
        try:
            ops = np.array(kraus, dtype=complex)
        except ValueError:  # ragged
            ops = None
        if ops is None or ops.ndim != 3:
            shapes = [np.shape(k) for k in kraus]
            i = next((i for i, s in enumerate(shapes) if len(s) != 2 or s != shapes[0]), 0)
            expected = shapes[0] if len(shapes[i]) == 2 else "a matrix"
            raise InvalidChannelError(
                f"Kraus operator {i} has shape {shapes[i]}, expected {expected}"
            )
        self._hold(_choi_matrices(ops), ops.shape[2], ops.shape[1])

    def _hold(self, choi: np.ndarray, dim_in: int, dim_out: int) -> None:
        _require_dims(dim_in=dim_in, dim_out=dim_out)
        _check_trace_preserving(choi[None], dim_in)
        self.dim_in, self.dim_out = dim_in, dim_out
        self.choi = _freeze(choi)
        self._transfer: np.ndarray | None = None
        self._analysis: TransferAnalysis | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _of_choi(cls, choi: np.ndarray, dim_in: int, dim_out: int) -> "QuantumChannel":
        """The channel of a Choi matrix that is PSD by construction."""
        channel = cls.__new__(cls)
        channel._hold(choi, dim_in, dim_out)
        return channel

    @classmethod
    def from_choi(cls, choi, dim_in: int, dim_out: int, *, cp_tol: float = VALIDITY_TOL):
        """Build a channel from a Choi matrix (input slot first).

        The matrix must be PSD within ``-cp_tol`` and satisfy
        ``tr_out J = identity`` within ``VALIDITY_TOL``; it is then clipped as
        :func:`_psd_part` clips, and renormalised, ``J -> R J R`` with
        ``R = (tr_out J)^(-1/2) (x) 1``, only if that breaks trace preservation.
        """
        _require_dims(dim_in=dim_in, dim_out=dim_out)
        j = np.asarray(choi, dtype=complex)
        d = dim_in * dim_out
        if j.shape != (d, d):
            raise InvalidChannelError(f"Choi matrix has shape {j.shape}, expected ({d}, {d})")
        eigvals, eigvecs = eig_hermitian(j, what="Choi matrix", error=InvalidChannelError)
        _check_trace_preserving(((j + j.conj().T) / 2.0)[None], dim_in)
        if eigvals[0] < -cp_tol * max(1.0, abs(eigvals[-1])):
            raise InvalidChannelError(
                f"Choi matrix is not PSD (min eigenvalue {eigvals[0]:.3e})"
            )
        j = _psd_part(j, eigvals, eigvecs)
        try:
            return cls._of_choi(j, dim_in, dim_out)
        except InvalidChannelError:
            # Only the clipped negative part can fail here.
            w, v = np.linalg.eigh(partial_trace_matrix(j, dim_in, dim_out, "A"))
            r = np.kron((v / np.sqrt(w)) @ v.conj().T, np.eye(dim_out))
            return cls._of_choi(r @ j @ r, dim_in, dim_out)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        _require_dims(dim=dim)
        omega = np.eye(dim, dtype=complex).reshape(-1)
        return cls._of_choi(np.outer(omega, omega), dim, dim)

    # -- representations --------------------------------------------------

    @property
    def kraus(self) -> np.ndarray:
        """Canonical Kraus set ``(r, dim_out, dim_in)``, derived on each call: the
        Choi eigenvectors above ``ZERO_CUTOFF * max(1, largest)`` in descending
        eigenvalue order, each with :func:`_canonical_phase` and scaled by the
        root of its eigenvalue.  Choi matrices that differ by rounding give
        Kraus sets that do too, as long as no kept eigenvalue is degenerate;
        no rule picks the basis of a degenerate eigenspace."""
        eigvals, eigvecs = eig_hermitian(self.choi, what="Choi matrix", error=InvalidChannelError)
        keep = eigvals > ZERO_CUTOFF * max(1.0, eigvals[-1])
        vecs = _canonical_phase(eigvecs[:, keep].T[::-1]) * np.sqrt(eigvals[keep][::-1, None])
        return _freeze(vecs.reshape(-1, self.dim_in, self.dim_out).transpose(0, 2, 1))

    @property
    def superop(self) -> np.ndarray:
        """Superoperator ``(dim_out**2, dim_in**2)``: the Choi matrix, permuted."""
        j = self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)
        return j.transpose(1, 3, 0, 2).reshape(self.dim_out**2, self.dim_in**2)

    def transfer(self) -> np.ndarray:
        """Real transfer matrix ``T[a, b] = tr[G_a Phi(G_b)]``.

        ``G`` are the orthonormal Hermitian bases of the output and input
        spaces, whose row-major vecs sandwich :attr:`superop`; the matrix is
        ``dim_out**2 x dim_in**2`` and real because Phi preserves Hermiticity.
        """
        if self._transfer is None:
            b_in, b_out = (
                np.array(hermitian_basis(d).elements).reshape(d * d, d * d)
                for d in (self.dim_in, self.dim_out)
            )
            self._transfer = _freeze((b_out.conj() @ self.superop @ b_in.T).real)
        return self._transfer

    # -- action ------------------------------------------------------------

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action on an operator or a stack ``(..., dim_in, dim_in)`` of them, no
        state validation; each is one ``(1, dim_in**2)`` row times ``superop.T``,
        so a stack's images equal single calls bit for bit."""
        m, d = np.asarray(m), self.dim_in
        if m.shape[-2:] != (d, d):
            raise InvalidChannelError(
                f"cannot apply a channel on dimension {d} to an array of shape "
                f"{m.shape}, expected (..., {d}, {d})"
            )
        out = m.reshape(*m.shape[:-2], 1, d * d) @ self.superop.T
        return out.reshape(*m.shape[:-2], self.dim_out, self.dim_out)

    def apply(self, rho: DensityOperator | BipartiteState):
        """Apply to a state, validating the output (same wrapper type back)."""
        if isinstance(rho, BipartiteState):
            if not rho.state.dim == self.dim_in == self.dim_out:
                raise InvalidChannelError(
                    f"channel ({self.dim_in} -> {self.dim_out}) cannot map a "
                    f"{rho.dim_a} (x) {rho.dim_b} state to a state on the same split"
                )
            out = DensityOperator.from_matrix(self.apply_matrix(rho.matrix), name="channel output")
            return BipartiteState(rho.dim_a, rho.dim_b, out)
        if rho.dim != self.dim_in:
            raise InvalidChannelError(
                f"channel input dimension {self.dim_in} does not match state dimension {rho.dim}"
            )
        return DensityOperator.from_matrix(self.apply_matrix(rho.matrix), name="channel output")


def _check_trace_preserving(chois: np.ndarray, dim_in: int) -> None:
    """Raise on the first Choi matrix of the stack ``(n, d, d)`` whose output
    trace misses the identity by more than ``VALIDITY_TOL * max(1, dim_in)``."""
    marginals = partial_trace_matrix(chois, dim_in, chois.shape[-1] // dim_in, "A")
    defects = _frobenius_norms(marginals - np.eye(dim_in))
    bad = ~(defects <= VALIDITY_TOL * max(1.0, dim_in))  # a NaN defect fails too
    if bad.any():
        raise InvalidChannelError(
            f"channel is not trace-preserving (tr_out defect {defects[bad][0]:.3e})"
        )


def _require_dims(**dims: int) -> None:
    """Raise on the first named dimension below 1."""
    for name, value in dims.items():
        if not value >= 1:
            raise InvalidChannelError(f"{name} must be at least 1, got {value}")


def _psd_part(h: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """The Hermitian part of ``h``, first clipped from its own eigenpairs (the
    ascending ``eigvals`` and ``eigvecs`` of that part) if one is negative."""
    if eigvals[0] < 0.0:
        h = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T
    return (h + h.conj().T) / 2.0


def _canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Each vector along the last axis divided by the phase of its pivot, which
    becomes real and positive: the first entry whose magnitude lies within a
    relative ``ZERO_CUTOFF`` of the largest, so rounding cannot break a tie."""
    mags = np.abs(vecs)
    first = (mags >= (1.0 - ZERO_CUTOFF) * mags.max(axis=-1, keepdims=True)).argmax(axis=-1)
    pivots = np.take_along_axis(vecs, first[..., None], axis=-1)
    return vecs / (pivots / np.abs(pivots))


def _choi_matrices(kraus: np.ndarray) -> np.ndarray:
    """Choi matrix of a Kraus set ``(r, dim_out, dim_in)``: the r outer
    products of the vectorised operators ``vec(K_k^T)`` added to zero in k
    order, bit for bit the sum a loop of ``np.outer`` gives.  An exact-zero
    operator adds nothing."""
    r, dim_out, dim_in = kraus.shape
    j = np.zeros((dim_in * dim_out,) * 2, dtype=complex)
    for vec in kraus.swapaxes(-1, -2).reshape(r, -1):
        j += vec[:, None] * vec[None, :].conj()
    return j


def _cq_form(basis: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The CQ matrices ``sum_k |psi_k><psi_k| (x) B_k`` of a stack of kets
    ``(n, dim_a, K)``, whose columns are the ``|psi_k>``, and blocks
    ``(n, K, dim_b, dim_b)``, each as one ``(dim_a * dim_b)``-square matrix."""
    (n, dim_a, _), dim_b = basis.shape, blocks.shape[-1]
    form = np.einsum("nak,nck,nkij->naicj", basis, basis.conj(), blocks)
    return form.reshape(n, dim_a * dim_b, dim_a * dim_b)


def _swap_slots(matrices: np.ndarray, dim_first: int, dim_second: int) -> np.ndarray:
    """Each matrix of the stack ``(n, d, d)`` on ``first (x) second`` with its
    two slots swapped, as a matrix on ``second (x) first``."""
    n, d = matrices.shape[:2]
    swapped = matrices.reshape(n, dim_first, dim_second, dim_first, dim_second)
    return swapped.transpose(0, 2, 1, 4, 3).reshape(n, d, d)


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel composition ``second o first``, contracted on the Choi matrices:
    ``J[(a, c), (b, d)] = sum_xy J1[(a, x), (b, y)] J2[(x, c), (y, d)]``."""
    if first.dim_out != second.dim_in:
        raise InvalidChannelError(
            f"cannot compose: inner dimensions {first.dim_out} and {second.dim_in} differ"
        )
    d_in, d_mid, d_out = first.dim_in, first.dim_out, second.dim_out
    j1 = first.choi.reshape(d_in, d_mid, d_in, d_mid)
    j2 = second.choi.reshape(d_mid, d_out, d_mid, d_out)
    j = np.einsum("axby,xCyD->aCbD", j1, j2, optimize=True)
    return QuantumChannel._of_choi(j.reshape(d_in * d_out, d_in * d_out), d_in, d_out)


def extend(channel: QuantumChannel, side: str, dim_other: int) -> QuantumChannel:
    """Tensor the channel with the identity on the other subsystem.

    ``side`` names the subsystem the channel acts on: ``"A"`` produces
    ``Phi (x) id`` and ``"B"`` produces ``id (x) Phi``, in the shared
    B-fastest basis ordering.  The identity's Choi matrix is
    ``delta_(e e') delta_(f f')`` on its (input, output) index pairs.
    """
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    _require_dims(dim_other=dim_other)
    d_in, d_out, eye = channel.dim_in, channel.dim_out, np.eye(dim_other, dtype=complex)
    out = "aeAEcfCF" if side == "A" else "eaEAfcFC"
    j = np.einsum(f"aAcC,eE,fF->{out}", channel.choi.reshape(d_in, d_out, d_in, d_out), eye, eye)
    d = d_in * d_out * dim_other**2
    return QuantumChannel._of_choi(j.reshape(d, d), d_in * dim_other, d_out * dim_other)


def mix_channels(weighted: list[tuple[float, QuantumChannel]]) -> QuantumChannel:
    """Convex mixture of channels: the weighted sum of their Choi matrices,
    completely positive because each weight is finite and non-negative."""
    for i, (w, _) in enumerate(weighted):
        if not (np.isfinite(w) and w >= 0):
            raise InvalidChannelError(f"mixture weight {i} is {w!r}, expected finite and >= 0")
    total = sum(w for w, _ in weighted)
    if abs(total - 1.0) > VALIDITY_TOL:
        raise InvalidChannelError(f"mixture weights sum to {total!r}, expected 1")
    dims = {(c.dim_in, c.dim_out) for _, c in weighted}
    if len(dims) != 1:
        raise InvalidChannelError(f"cannot mix channels with differing dimensions {dims}")
    ((dim_in, dim_out),) = dims
    return QuantumChannel._of_choi(sum(w * c.choi for w, c in weighted), dim_in, dim_out)


def choi_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Frobenius distance between Choi matrices (representation-free equality)."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise InvalidChannelError("cannot compare channels with different dimensions")
    return float(np.linalg.norm(a.choi - b.choi))


@dataclass(frozen=True)
class TransferAnalysis:
    """Spectral summary of a real transfer matrix, from its one thin SVD.

    The determinant is reported through the singular values,
    ``sign * exp(sum log sigma_i)``, with the sign taken from an LU
    factorisation; a matrix is flagged rank deficient when
    ``sigma_min < RANK_TOL * sigma_max``, in which case the determinant is
    reported as exactly zero.  ``image`` (read-only) holds the left singular
    vectors above the ``RANK_TOL`` cut, as columns: the coordinates, in the
    output Hermitian basis, of an orthonormal basis of the image span.
    """

    matrix: np.ndarray
    sigma_min: float
    sigma_max: float
    rank: int
    rank_deficient: bool
    det: float
    image: np.ndarray


def analyze_transfer(channel: QuantumChannel) -> TransferAnalysis:
    """The :class:`TransferAnalysis` of ``channel.transfer()``, cached on the channel."""
    if channel._analysis is not None:
        return channel._analysis
    t = channel.transfer()
    u, s, _ = np.linalg.svd(t, full_matrices=False)
    sigma_max = float(s[0])
    sigma_min = float(s[-1])
    keep = s > RANK_TOL * max(sigma_max, 1e-300)
    deficient = sigma_min < RANK_TOL * sigma_max
    sign = float(np.linalg.slogdet(t)[0]) if t.shape[0] == t.shape[1] else 0.0
    if deficient or sigma_min <= 0.0 or sign == 0.0:
        det = 0.0
    else:
        det = sign * float(np.exp(np.sum(np.log(s))))
    channel._analysis = TransferAnalysis(
        matrix=t,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        rank=int(keep.sum()),
        rank_deficient=deficient,
        det=det,
        image=_freeze(u[:, keep]),
    )
    return channel._analysis


# -- named constructors ----------------------------------------------------


def make_point_channel(sigma: DensityOperator) -> QuantumChannel:
    """Constant channel ``X -> tr[X] sigma`` on the space of ``sigma``; its
    Choi matrix is ``1 (x) sigma``."""
    d = sigma.dim
    return QuantumChannel._of_choi(np.kron(np.eye(d), sigma.matrix), d, d)


def make_qc_channel(povm, basis) -> QuantumChannel:
    """Measure-and-prepare channel ``X -> sum_k tr[F_k X] |k><k|``.

    ``povm`` is a sequence of PSD operators summing to the identity and
    ``basis`` the matching orthonormal output kets.  Outputs of the
    resulting channel are diagonal in ``basis`` and therefore mutually
    commute.  The first failing check raises, in this order: the shapes, each
    element's Hermiticity and positivity, the sum to the identity, the basis.
    The Choi matrix is ``sum_k F_k^T (x) |k><k|``, the slot swap of a CQ
    form, over the elements as :func:`_psd_part` returns them.
    """
    effects = [np.asarray(f, dtype=complex) for f in povm]
    kets = [np.asarray(k, dtype=complex).reshape(-1) for k in basis]
    if len(effects) != len(kets):
        raise InvalidChannelError(
            f"got {len(effects)} POVM elements but {len(kets)} basis vectors"
        )
    if not effects:
        raise InvalidChannelError("POVM must be non-empty")
    dim_in = effects[0].shape[0]
    for idx, f in enumerate(effects):
        if f.shape != (dim_in, dim_in):
            raise InvalidChannelError(f"POVM element {idx} has shape {f.shape}")
    effects_t = []
    for idx, f in enumerate(effects):
        eigvals, eigvecs = eig_hermitian(f, what=f"POVM element {idx}", error=InvalidChannelError)
        if eigvals[0] < -VALIDITY_TOL:
            raise InvalidChannelError(
                f"POVM element {idx} is not PSD (min eigenvalue {eigvals[0]:.3e})"
            )
        effects_t.append(_psd_part(f, eigvals, eigvecs).T)
    if np.linalg.norm(sum(effects) - np.eye(dim_in)) > VALIDITY_TOL * max(1.0, dim_in):
        raise InvalidChannelError("POVM elements do not sum to the identity")
    ragged = [idx for idx, k in enumerate(kets) if k.size != kets[0].size]
    if ragged:
        raise InvalidChannelError(
            f"output basis vector {ragged[0]} has length {kets[ragged[0]].size}, "
            f"but vector 0 has length {kets[0].size}"
        )
    gram = np.conj(kets) @ np.transpose(kets)
    first, second = np.triu_indices(len(kets))
    bad = np.flatnonzero(np.abs(gram[first, second] - (first == second)) > VALIDITY_TOL)
    if bad.size:
        a, b = first[bad[0]], second[bad[0]]
        raise InvalidChannelError(
            f"output basis is not orthonormal: <{a}|{b}> = {gram[a, b]:.3e}"
        )
    dim_out = kets[0].size
    cq = _cq_form(np.transpose(kets)[None], np.array(effects_t)[None])
    return QuantumChannel._of_choi(_swap_slots(cq, dim_out, dim_in)[0], dim_in, dim_out)


@dataclass(frozen=True)
class UnitalQubitParams:
    """Bloch contraction factors of a unital qubit channel.

    The CPTP region is the tetrahedron with vertices (1,1,1), (1,-1,-1),
    (-1,1,-1) and (-1,-1,1), characterised by ``|l1 +- l2| <= 1 +- l3``.
    """

    l1: float
    l2: float
    l3: float

    def in_cptp_tetrahedron(self, tol: float = ZERO_CUTOFF) -> bool:
        return bool(_in_cptp_tetrahedron(self.l1, self.l2, self.l3, tol))


def _in_cptp_tetrahedron(l1, l2, l3, tol: float = ZERO_CUTOFF):
    """The tetrahedron test of :class:`UnitalQubitParams`, elementwise on arrays."""
    return (np.abs(l1 + l2) <= 1.0 + l3 + tol) & (np.abs(l1 - l2) <= 1.0 - l3 + tol)


_PAULI_VECS = np.transpose((PAULI_I, *PAULIS), (0, 2, 1)).reshape(4, 4)
_PAULI_CHOIS = _freeze(_PAULI_VECS[:, :, None] * _PAULI_VECS[:, None, :].conj())


def _unital_qubit_chois(l1, l2, l3) -> np.ndarray:
    """Choi matrices ``(..., 4, 4)`` of :func:`make_unital_qubit` for scalar or array
    contractions: the kept weights times the Pauli Choi matrices, in Pauli order."""
    l1, l2, l3 = np.broadcast_arrays(l1, l2, l3)
    p = 0.25 * np.stack(
        [1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3], axis=-1
    )
    cutoff = ZERO_CUTOFF * np.maximum(1.0, 2.0 * p.max(axis=-1, keepdims=True))
    p = np.where(2.0 * p > cutoff, p, 0.0)
    return sum(p[..., k, None, None] * _PAULI_CHOIS[k] for k in range(4))


def make_unital_qubit(params: UnitalQubitParams) -> QuantumChannel:
    """Unital qubit channel with transfer matrix diag(1, l1, l2, l3).

    The Pauli channel ``X -> sum_k p_k s_k X s_k``, s = (I, X, Y, Z),
    p = (1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3) / 4
    (King and Ruskai 2001, IEEE Trans. Inf. Theory 47, 192; Ruskai, Szarek
    and Werner 2002, Lin. Alg. Appl. 347, 159).  Weights whose Choi
    eigenvalue 2 p_k is at most ``ZERO_CUTOFF * max(1, 2 max p)`` are dropped.
    """
    if not params.in_cptp_tetrahedron():
        raise InvalidChannelError(
            f"({params.l1}, {params.l2}, {params.l3}) lies outside the CPTP tetrahedron"
        )
    return QuantumChannel._of_choi(_unital_qubit_chois(params.l1, params.l2, params.l3), 2, 2)


def random_channel(
    dim_in: int,
    dim_out: int,
    kraus_rank: int,
    rng,
) -> QuantumChannel:
    """Random CPTP channel from a sliced Haar isometry with ``kraus_rank`` blocks."""
    _require_dims(dim_in=dim_in, dim_out=dim_out, kraus_rank=kraus_rank)
    rng = as_rng(rng)
    if kraus_rank * dim_out < dim_in:
        raise InvalidChannelError(
            f"kraus_rank {kraus_rank} too small for a {dim_in} -> {dim_out} isometry"
        )
    u = random_unitary(dim_out * kraus_rank, rng)
    return QuantumChannel(u[:, :dim_in].reshape(kraus_rank, dim_out, dim_in))
