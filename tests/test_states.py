import contextlib
import io
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit.annihilators import _probe_stream, build_da_channel, random_da_spec
from discordkit.cli import main
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    InvalidStateError,
    PAULI_Z,
    _frobenius_norms,
    _ginibre_density,
    _hermitian_prefix,
    _validate_states,
    bell_state,
    eig_hermitian,
    hermitian_basis,
    max_entangled,
    partial_trace,
    partial_trace_matrix,
    product_state,
    random_bipartite,
    random_density,
    random_unitary,
    tensor,
    von_neumann_entropy,
)
from discordkit.tolerances import VALIDITY_TOL, ZERO_CUTOFF


def below_cut(eigvals) -> bool:
    """Whether a spectrum's lowest value lies below ``-ZERO_CUTOFF * max(1, ||h||)``,
    the cut under which validation clips (the Frobenius norm of a Hermitian
    matrix is that of its spectrum)."""
    return bool(eigvals[0] < -ZERO_CUTOFF * max(1.0, float(np.linalg.norm(eigvals))))


def from_matrix_reference(matrix, name="state"):
    """The validation of one matrix: the matrix ``DensityOperator.from_matrix``
    holds, or the error it raises.  Its ``eigvalsh`` decides every refusal and
    the clip, and ``eigh``'s eigenpairs serve only to clip."""
    m = np.asarray(matrix, dtype=complex)
    what = f"{name}: matrix"
    norm = float(np.linalg.norm(m))
    if not np.isfinite(norm):
        return InvalidStateError(f"{what} is not finite")
    defect = float(np.linalg.norm(m - m.conj().T))
    if defect > VALIDITY_TOL * max(1.0, norm):
        return InvalidStateError(f"{what} is not Hermitian (defect {defect:.3e})")
    m = (m + m.conj().T) / 2.0
    spectrum = np.linalg.eigvalsh(m)
    trace = float(np.trace(m).real)
    if abs(trace - 1.0) > VALIDITY_TOL:
        return InvalidStateError(f"{name}: trace is {trace!r}, expected 1")
    if spectrum[0] < -VALIDITY_TOL:
        return InvalidStateError(
            f"{name}: matrix is not positive semidefinite "
            f"(min eigenvalue {spectrum[0]:.3e})"
        )
    if below_cut(spectrum):
        eigvals, eigvecs = np.linalg.eigh(m)
        clipped = np.clip(eigvals, 0.0, None)
        m = (eigvecs * clipped) @ eigvecs.conj().T
        m = (m + m.conj().T) / 2.0
        m = m / np.trace(m).real
    return m


def from_matrix_outcome(matrix, name="state"):
    try:
        return DensityOperator.from_matrix(matrix, name=name).matrix
    except InvalidStateError as exc:
        return exc


def same_outcome(x, y) -> bool:
    if isinstance(x, Exception) or isinstance(y, Exception):
        return type(x) is type(y) and str(x) == str(y)
    return np.array_equal(x, y)


def validator_corpus(d, seed):
    """Raw matrices of dimension ``d``: Hilbert-Schmidt draws, rank-deficient
    outputs of an annihilating channel and pure states."""
    rng = np.random.default_rng(seed)
    hs = list(_ginibre_density(d, d, [rng] * 60))
    dim_a = 2 if d % 2 == 0 else 3
    channel = build_da_channel(random_da_spec(dim_a, d // dim_a, seed))
    outputs = list(channel.apply_matrix(np.array(hs)))
    vs = rng.standard_normal((60, d)) + 1j * rng.standard_normal((60, d))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    pure = [np.outer(v, v.conj()) for v in vs]
    return np.array(hs + outputs + pure)


def spoil(m, kind):
    """A copy of ``m`` that fails exactly one state invariant."""
    m = m.copy()
    if kind == "nan":
        m[0, -1] = np.nan
    elif kind == "non-hermitian":
        m[0, -1] += 1e-3
    elif kind == "trace":
        m = m * 1.01
    elif kind == "not-psd":
        # Move weight from the lowest eigenvector to the highest, past zero.
        w, v = np.linalg.eigh(m)
        low, high = np.outer(v[:, 0], v[:, 0].conj()), np.outer(v[:, -1], v[:, -1].conj())
        m = m + (w[0] + 1e-3) * (high - low)
    return m


SPOILS = ("nan", "non-hermitian", "trace", "not-psd")


class TestStackedValidation:
    @pytest.mark.parametrize("d, seed", [(4, 1), (6, 2), (9, 3), (8, 4)])
    def test_bitwise_equal_to_one_call_per_matrix(self, d, seed):
        # Members whose lowest eigenvalue lies between -VALIDITY_TOL and the cut.
        lows = -np.geomspace(2 * ZERO_CUTOFF, 0.99 * VALIDITY_TOL, 12)
        near = [near_cut(d, low, [d, seed, i]) for i, low in enumerate(lows)]
        stack = np.concatenate((validator_corpus(d, seed), near))
        valid, error = _validate_states(stack)
        assert error is None and len(valid) == len(stack)
        clipped = rounded = 0
        for m, got in zip(stack, valid):
            assert np.array_equal(got, from_matrix_outcome(m))
            assert np.array_equal(got, from_matrix_reference(m))
            spectrum = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
            clipped += below_cut(spectrum)
            if spectrum[0] < 0.0 and not below_cut(spectrum):
                # A rounding-level negative eigenvalue counts as zero.
                assert np.array_equal(got, (m + m.conj().T) / 2.0)
                rounded += 1
        # The corpus reaches the clip branch, the rounding band and neither.
        assert clipped == len(near) and rounded >= 30

    def test_the_spoiled_matrices_fail_their_invariant(self):
        m = validator_corpus(4, 1)[0]
        messages = [str(from_matrix_outcome(spoil(m, kind))) for kind in SPOILS]
        for message, word in zip(messages, ["finite", "Hermitian", "trace", "semidefinite"]):
            assert word in message

    @pytest.mark.parametrize("kind", SPOILS)
    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_first_bad_member_gives_the_error_of_from_matrix(self, kind, k):
        stack = validator_corpus(4, 5)[50:58].copy()
        stack[k] = spoil(stack[k], kind)
        valid, error = _validate_states(stack, name="channel output")
        assert len(valid) == k
        for m, got in zip(stack, valid):
            assert np.array_equal(got, from_matrix_outcome(m, "channel output"))
        assert same_outcome(error, from_matrix_outcome(stack[k], "channel output"))
        assert same_outcome(error, from_matrix_reference(stack[k], "channel output"))

    @pytest.mark.parametrize("first", SPOILS)
    @pytest.mark.parametrize("second", SPOILS)
    def test_the_earlier_of_two_bad_members_wins(self, first, second):
        stack = validator_corpus(6, 6)[55:65].copy()
        stack[2] = spoil(stack[2], first)
        stack[5] = spoil(stack[5], second)
        valid, error = _validate_states(stack)
        assert len(valid) == 2
        assert same_outcome(error, from_matrix_outcome(stack[2]))

    def test_empty_and_zero_dimensional_stacks(self):
        valid, error = _validate_states(np.zeros((0, 3, 3), dtype=complex))
        assert valid.shape == (0, 3, 3) and error is None
        valid, error = _validate_states(np.zeros((1, 0, 0), dtype=complex))
        assert len(valid) == 0
        assert same_outcome(error, from_matrix_reference(np.zeros((0, 0))))


def validate_states_eager(ms, name="state"):
    """The stacked validator with a Python loop over the members and one
    ``eigh`` of the whole stack: its ``eigvalsh`` decides every refusal and
    every clip, and ``eigh``'s eigenpairs serve only to clip."""
    n_ok, error = _hermitian_prefix(ms, f"{name}: matrix", InvalidStateError)
    h = ms[:n_ok]
    h = (h + h.conj().transpose(0, 2, 1)) / 2.0
    spectra = np.linalg.eigvalsh(h)
    eigvals, eigvecs = np.linalg.eigh(h)
    clip = []
    for k, trace in enumerate(np.trace(h, axis1=1, axis2=2).real.tolist()):
        if abs(trace - 1.0) > VALIDITY_TOL:
            error, h = InvalidStateError(f"{name}: trace is {trace!r}, expected 1"), h[:k]
            break
        if spectra[k, 0] < -VALIDITY_TOL:
            error, h = InvalidStateError(
                f"{name}: matrix is not positive semidefinite "
                f"(min eigenvalue {spectra[k, 0]:.3e})"
            ), h[:k]
            break
        if below_cut(spectra[k]):
            clip.append(k)
    if clip:
        vecs = eigvecs[clip]
        m = (vecs * np.clip(eigvals[clip], 0.0, None)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        m = (m + m.conj().transpose(0, 2, 1)) / 2.0
        h[clip] = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return h, error


def assert_validates_as_eager(ms, name="state"):
    """``_validate_states`` returns the eager reference's bits and error."""
    got, error = _validate_states(ms, name=name)
    want, want_error = validate_states_eager(ms, name=name)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (error is None and want_error is None) or same_outcome(error, want_error)
    return got, error


def eigh_rows(monkeypatch) -> list:
    """The number of matrices each ``np.linalg.eigh`` call takes, as it runs."""
    rows, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        rows.append(len(a) if np.ndim(a) == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return rows


def near_cut(d, lowest, seed):
    """A ``d x d`` unit-trace Hermitian matrix with ``lowest`` as its lowest
    eigenvalue, in a Haar-random basis."""
    w = np.linspace(1.0, 2.0, d)
    w[0] = 0.0
    w = w / w.sum() * (1.0 - lowest)
    w[0] = lowest
    u = random_unitary(d, seed)
    return (u * w) @ u.conj().T


class TestEigenvaluesFirst:
    @pytest.mark.parametrize("d, k", [(2, 2), (3, 3), (4, 4), (6, 6), (9, 9), (4, 2), (9, 1)])
    def test_ginibre_chunks(self, d, k):
        rngs = [np.random.default_rng([d, k, i]) for i in range(64)]
        assert_validates_as_eager(_ginibre_density(d, k, rngs))

    @pytest.mark.parametrize("dim_a", range(1, 6))
    @pytest.mark.parametrize("dim_b", range(1, 6))
    def test_fixed_head_probes(self, dim_a, dim_b):
        head = _probe_stream(dim_a, dim_b, 0, n_draws=0)(100)
        assert len(head) >= 3
        assert_validates_as_eager(head)
        for m in head:
            assert_validates_as_eager(m[None])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_annihilating_channel_outputs(self, dims):
        spec = random_da_spec(*dims, [1, *dims])
        probes, error = _validate_states(_probe_stream(*dims, 3, n_draws=40)(100))
        assert error is None
        # The stage alone leaves some outputs rank deficient, whose zero
        # eigenvalues can round below 0 and still count as zero.
        for channel in (build_da_channel(spec), build_da_channel(replace(spec, pre_channel=None))):
            assert_validates_as_eager(channel.apply_matrix(probes), name="channel output")

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_members_either_side_of_the_cut(self, monkeypatch, d):
        lows = [
            4 * ZERO_CUTOFF, 1.01 * ZERO_CUTOFF, ZERO_CUTOFF, 0.99 * ZERO_CUTOFF,
            0.5 * ZERO_CUTOFF, 0.0, -0.5 * ZERO_CUTOFF, -ZERO_CUTOFF, -1.01 * ZERO_CUTOFF,
            -0.5 * VALIDITY_TOL, -0.99 * VALIDITY_TOL,
        ]
        stack = np.array([near_cut(d, low, [d, i]) for i, low in enumerate(lows)])
        got, error = assert_validates_as_eager(stack)
        assert error is None and len(got) == len(lows)
        rows = eigh_rows(monkeypatch)
        # Rounding puts the member on the cut on either side of it, so it is left out.
        _validate_states(np.delete(stack, lows.index(-ZERO_CUTOFF), axis=0))
        # Exactly the three members below the cut take an eigh.
        assert rows == [3]

    @pytest.mark.parametrize("kind", ["trace", "not-psd"])
    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_non_states(self, kind, k):
        stack = validator_corpus(6, 9)[:10].copy()
        stack[k] = spoil(stack[k], kind)
        got, error = assert_validates_as_eager(stack, name="channel output")
        assert len(got) == k and isinstance(error, InvalidStateError)
        if kind == "not-psd":
            assert "(min eigenvalue -1.000e-03)" in str(error)

    def test_psd_failure_beyond_tolerance_names_the_min_eigenvalue(self):
        stack = np.array([near_cut(3, low, [7, i]) for i, low in enumerate([0.1, -2 * VALIDITY_TOL])])
        _, error = assert_validates_as_eager(stack)
        assert str(error).startswith("state: matrix is not positive semidefinite (min eigenvalue -2.0")

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 1, 1), (0, 0, 0), (1, 0, 0), (3, 0, 0)])
    def test_empty_and_zero_dimensional_stacks(self, monkeypatch, shape):
        got, error = assert_validates_as_eager(np.zeros(shape, dtype=complex))
        assert len(got) == 0 and (error is None) == (shape[0] == 0)
        rows = eigh_rows(monkeypatch)
        _validate_states(np.zeros(shape, dtype=complex))
        assert rows == []

    def test_full_rank_chunk_takes_no_eigh(self, monkeypatch):
        stack = _ginibre_density(3, 3, [np.random.default_rng([5, i]) for i in range(128)])
        rows = eigh_rows(monkeypatch)
        valid, error = _validate_states(stack)
        assert error is None and len(valid) == 128
        assert sum(rows) == 0
        assert np.array_equal(valid, (stack + stack.conj().transpose(0, 2, 1)) / 2.0)


def assert_fixed_point(ms, name="state"):
    """Validating ``_validate_states``' output again returns the same bytes."""
    valid, error = _validate_states(ms, name=name)
    assert error is None
    again, error = _validate_states(valid)
    assert error is None and again.tobytes() == valid.tobytes()


class TestValidationFixedPoint:
    @pytest.mark.parametrize("dim_a", range(1, 6))
    @pytest.mark.parametrize("dim_b", range(1, 6))
    def test_probe_stream(self, dim_a, dim_b):
        assert_fixed_point(_probe_stream(dim_a, dim_b, 0, n_draws=60)(100))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_annihilating_channel_outputs(self, dims, seed):
        spec = random_da_spec(*dims, seed)
        probes, error = _validate_states(_probe_stream(*dims, seed, n_draws=60)(100))
        assert error is None
        for channel in (build_da_channel(spec), build_da_channel(replace(spec, pre_channel=None))):
            assert_fixed_point(channel.apply_matrix(probes), name="channel output")

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        low=st.floats(-0.99 * VALIDITY_TOL, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_state_either_side_of_the_cut(self, d, low, seed):
        assert_fixed_point(near_cut(d, low, seed)[None])


def test_the_da_chain_takes_no_validation_eigh(monkeypatch, tmp_path):
    """``gen-da --random``, ``verify-da`` and ``classify --side AB`` validate
    every state without an ``eigh``: their outputs are never below the cut."""
    callers, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for split, seed in [("2x2", 7), ("2x3", 9), ("3x2", 4), ("3x3", 8), ("4x2", 10)]:
        path = str(tmp_path / f"da{split}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen-da", "--random", split, "--seed", str(seed), "--out", path]) == 0
            assert main(
                ["verify-da", "--channel", path, "--dims", split,
                 "--witness-out", str(tmp_path / "witness.json")]
            ) == 0
            assert main(["classify", path, "--side", "AB", "--dims", split]) == 0
    assert callers and "_validate_states" not in callers


class TestDensityOperatorValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityOperator.from_matrix([[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityOperator.from_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue_beyond_tolerance(self):
        m = np.diag([1.0 + 1e-6, -1e-6]).astype(complex)
        with pytest.raises(InvalidStateError, match="positive semidefinite"):
            DensityOperator.from_matrix(m)

    def test_clips_negative_eigenvalue_within_tolerance(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        op = DensityOperator.from_matrix(m)
        w = np.linalg.eigvalsh(op.matrix)
        assert w[0] >= 0.0
        assert np.trace(op.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidStateError, match="finite"):
            DensityOperator.from_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_bipartite_dims_must_match(self):
        with pytest.raises(InvalidStateError, match="dims"):
            BipartiteState(2, 3, DensityOperator.maximally_mixed(4))


class TestTensor:
    def test_identity_case(self):
        half = DensityOperator.maximally_mixed(2)
        out = tensor(half, half)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4)

    def test_computational_basis(self):
        zero = DensityOperator.pure([1, 0])
        one = DensityOperator.pure([0, 1])
        out = tensor(zero, one)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01> sits at product index 1
        np.testing.assert_allclose(out.matrix, expected, atol=1e-15)

    def test_eigenvalues_multiply(self):
        rho = random_density(2, "hilbert-schmidt", 10)
        sigma = random_density(2, "hilbert-schmidt", 11)
        prod_eigs = np.sort(np.outer(rho.eigenvalues(), sigma.eigenvalues()).ravel())
        tensor_eigs = np.sort(tensor(rho, sigma).eigenvalues())
        np.testing.assert_allclose(tensor_eigs, prod_eigs, atol=1e-12)


def _ptrace_loop_oracle(m, da, db, keep):
    """Quadruple-loop index summation, independent of the reshape path."""
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for a in range(da):
            for c in range(da):
                for b in range(db):
                    out[a, c] += m[a * db + b, c * db + b]
    else:
        out = np.zeros((db, db), dtype=complex)
        for b in range(db):
            for d in range(db):
                for a in range(da):
                    out[b, d] += m[a * db + b, a * db + d]
    return out


class TestPartialTrace:
    def test_product_state(self):
        rho = random_density(2, "hilbert-schmidt", 1)
        sigma = random_density(3, "hilbert-schmidt", 2)
        joint = product_state(rho, sigma)
        np.testing.assert_allclose(partial_trace(joint, "A").matrix, rho.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, "B").matrix, sigma.matrix, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = bell_state(0)
        np.testing.assert_allclose(partial_trace(bell, "A").matrix, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(bell, "B").matrix, np.eye(2) / 2, atol=1e-12)

    def test_against_loop_oracle(self):
        state = random_bipartite(2, 3, 5)
        for keep in ("A", "B"):
            expected = _ptrace_loop_oracle(state.matrix, 2, 3, keep)
            np.testing.assert_allclose(
                partial_trace(state, keep).matrix, expected, atol=1e-12
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverts_tensor(self, seed):
        rho = random_density(2, "hilbert-schmidt", seed)
        sigma = random_density(3, "hilbert-schmidt", seed + 1)
        joint = product_state(rho, sigma)
        assert np.linalg.norm(partial_trace(joint, "A").matrix - rho.matrix) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_stack_equals_single_matrices(self, dims):
        da, db = dims
        rng = np.random.default_rng(sum(dims))
        stack = rng.standard_normal((7, da * db, da * db)) + 1j * rng.standard_normal((7, da * db, da * db))
        for keep in ("A", "B"):
            traced = partial_trace_matrix(stack, da, db, keep)
            for m, t in zip(stack, traced):
                assert np.array_equal(t, partial_trace_matrix(m, da, db, keep))


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_pauli_z(self):
        w, v = eig_hermitian(PAULI_Z)
        np.testing.assert_allclose(w, [-1.0, 1.0])
        assert abs(v[1, 0]) == pytest.approx(1.0)  # |1> belongs to -1
        assert abs(v[0, 1]) == pytest.approx(1.0)  # |0> belongs to +1

    def test_random_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g + g.conj().T
        w, v = eig_hermitian(h)
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(h - (v * w) @ v.conj().T) <= 1e-10 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFrobeniusNorms:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 6, 9])
    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 6, 9])
    def test_bitwise_equal_to_one_norm_per_matrix(self, rows, cols):
        rng = np.random.default_rng([rows, cols])
        stack = rng.standard_normal((50, rows, cols)) + 1j * rng.standard_normal((50, rows, cols))
        stack = stack @ stack.conj().transpose(0, 2, 1) @ stack  # computed, C-ordered matrices
        got = _frobenius_norms(stack)
        assert got.tolist() == [float(np.linalg.norm(m)) for m in stack]

    def test_empty_stack(self):
        assert _frobenius_norms(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityOperator.pure([1, 0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityOperator.maximally_mixed(2)) == pytest.approx(1.0)

    def test_quarter_three_quarter(self):
        # -(0.25 log2 0.25 + 0.75 log2 0.75)
        op = DensityOperator.diagonal([0.25, 0.75])
        assert von_neumann_entropy(op) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_range(self):
        rho = random_density(3, "hilbert-schmidt", 8)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= np.log2(3) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_additivity(self, seed):
        rho = random_density(2, "hilbert-schmidt", seed)
        sigma = random_density(3, "hilbert-schmidt", seed + 7)
        lhs = von_neumann_entropy(tensor(rho, sigma))
        rhs = von_neumann_entropy(rho) + von_neumann_entropy(sigma)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_unitary_invariance(self):
        rho = random_density(4, "hilbert-schmidt", 9)
        u = random_unitary(4, 10)
        rotated = DensityOperator.from_matrix(u @ rho.matrix @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )


class TestPure:
    def test_complex_vectors_give_exactly_hermitian_matrices(self):
        skewed = 0
        for k in range(20):
            rng = np.random.default_rng([46, k])
            v = rng.standard_normal(2 + k % 4) + 1j * rng.standard_normal(2 + k % 4)
            m = DensityOperator.pure(v).matrix
            assert np.array_equal(m, m.conj().T)
            outer = np.outer(v, v.conj()) / np.vdot(v, v).real
            skewed += not np.array_equal(outer, outer.conj().T)
            np.testing.assert_allclose(m, outer, rtol=0, atol=1e-15)
        assert skewed >= 5

    def test_real_vectors_give_the_outer_product(self):
        # Equal as values, and bit for bit but for the sign of a zero entry.
        s = 1 / np.sqrt(2)
        vectors = [[1, 0], [0, 1], [1, 1], [1, -1], [0.6, 0, -0.8], [0, s, -s, 0]]
        vectors.append([s, 0, 0, 0, s, 0])
        vectors += [np.random.default_rng([47, k]).standard_normal(2 + k % 4) for k in range(20)]
        for vec in vectors:
            v = np.asarray(vec, dtype=complex)
            v = v / np.linalg.norm(v)
            want = np.outer(v, v.conj())
            got = DensityOperator.pure(vec).matrix
            assert np.array_equal(got, want)
            parts, want_parts = got.view(float), want.view(float)  # real and imaginary parts
            nonzero = want_parts != 0
            assert parts[nonzero].tobytes() == want_parts[nonzero].tobytes()


class TestRandomEnsembles:
    def test_haar_pure_purity(self):
        rho = random_density(2, "haar-pure", 0)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_determinism(self):
        a = random_density(2, "hilbert-schmidt", 42)
        b = random_density(2, "hilbert-schmidt", 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_hilbert_schmidt_mean(self):
        rng = np.random.default_rng(1234)
        total = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            total += random_density(2, "hilbert-schmidt", rng).matrix
        np.testing.assert_allclose(total / n, np.eye(2) / 2, atol=5e-2)

    def test_rank_ensemble(self):
        rho = random_density(4, "rank", 5, rank=2)
        assert np.sum(rho.eigenvalues() > 1e-10) == 2

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="rank"):
            random_density(2, "rank", 0, rank=3)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError, match="ensemble"):
            random_density(2, "bogus", 0)


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthonormal(self, dim):
        basis = hermitian_basis(dim)
        assert len(basis.elements) == dim * dim
        for i, gi in enumerate(basis.elements):
            assert np.linalg.norm(gi - gi.conj().T) <= 1e-12
            for j, gj in enumerate(basis.elements):
                expected = 1.0 if i == j else 0.0
                assert np.trace(gi @ gj).real == pytest.approx(expected, abs=1e-12)

    def test_identity_first(self):
        basis = hermitian_basis(3)
        np.testing.assert_allclose(basis.elements[0], np.eye(3) / np.sqrt(3))

    def test_qubit_basis_is_paulis(self):
        from discordkit.states import PAULI_X, PAULI_Y, PAULI_Z

        basis = hermitian_basis(2)
        for got, want in zip(basis.elements[1:], (PAULI_X, PAULI_Y, PAULI_Z)):
            np.testing.assert_allclose(got, want / np.sqrt(2), atol=1e-15)


class TestEntangledStates:
    def test_bell_indices(self):
        for k in range(4):
            assert bell_state(k).state.purity() == pytest.approx(1.0)

    def test_max_entangled_marginals(self):
        state = max_entangled(3)
        np.testing.assert_allclose(partial_trace(state, "A").matrix, np.eye(3) / 3, atol=1e-12)
