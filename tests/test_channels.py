import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from discordkit.annihilators import build_da_channel, random_da_spec
from discordkit.channels import (
    InvalidChannelError,
    QuantumChannel,
    UnitalQubitParams,
    _check_trace_preserving,
    _choi_matrices,
    analyze_transfer,
    choi_distance,
    compose,
    extend,
    make_point_channel,
    make_qc_channel,
    make_unital_qubit,
    mix_channels,
    random_channel,
)
from discordkit.classify import tetrahedron_sweep
from discordkit.states import (
    DensityOperator,
    bell_state,
    basis_ket,
    hermitian_basis,
    partial_trace_matrix,
    random_density,
    random_unitary,
)


def choi_contraction_oracle(choi, din, dout, rho):
    """Independent application route: tr_in[J (rho^T (x) 1)]."""
    big = choi @ np.kron(rho.T, np.eye(dout))
    r = big.reshape(din, dout, din, dout)
    return np.trace(r, axis1=0, axis2=2)


def unital_qubit_reference(params):
    """The Choi-block construction that ``make_unital_qubit`` replaced: the
    Choi matrix built entry by entry in the Pauli frame, then ``from_choi``."""
    lam = (params.l1, params.l2, params.l3)
    paulis = hermitian_basis(2).elements[1:]  # X, Y, Z over sqrt(2)

    def image(unit):
        out = np.trace(unit) * np.eye(2, dtype=complex) / 2.0
        for l_i, g in zip(lam, paulis):
            out += l_i * np.trace(g @ unit) * g
        return out

    blocks = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            blocks[i][j] = image(unit)
    return QuantumChannel.from_choi(np.block(blocks), 2, 2)


def choi_from_kraus(kraus):
    """``sum_k vec(K_k^T) vec(K_k^T)^dag`` by one matrix product."""
    vecs = np.asarray(kraus).transpose(0, 2, 1).reshape(len(kraus), -1)
    return vecs.T @ vecs.conj()


def choi_outer_loop(kraus):
    """The ``np.outer`` loop that built ``QuantumChannel.choi`` before the
    stacked helper, kept as its bitwise reference."""
    kraus = np.asarray(kraus)
    d = kraus.shape[1] * kraus.shape[2]
    j = np.zeros((d, d), dtype=complex)
    for vec in kraus.transpose(0, 2, 1).reshape(-1, d):
        j += np.outer(vec, vec.conj())
    return j


def pivot_phase_loop(v):
    """``v`` divided by the phase of its first largest-magnitude entry."""
    pivot = int(np.argmax(np.abs(v)))
    return v / (v[pivot] / abs(v[pivot]))


def eigen_kraus_loop(j, din, dout):
    """The derived Kraus set: one eigenvector of J per eigenvalue above
    ``1e-12 * max(1, largest)``, in descending order, its largest-magnitude
    entry made real and positive, scaled by the root of its eigenvalue."""
    w, v = np.linalg.eigh((j + j.conj().T) / 2)
    cut = 1e-12 * max(1.0, w[-1])
    keep = [i for i in range(len(w) - 1, -1, -1) if w[i] > cut]
    return [(pivot_phase_loop(v[:, i]) * np.sqrt(w[i])).reshape(din, dout).T for i in keep]


def isometry_kraus(din, dout, rank, seed):
    """Kraus set of a sliced Haar isometry, as ``random_channel`` builds it."""
    return random_unitary(dout * rank, seed)[:, :din].reshape(rank, dout, din)


def qc_kraus_loop(povm, kets):
    """A Kraus set of the measure-and-prepare channel: ``sqrt(mu) |k><v|`` over
    the eigenpairs of each POVM element above 1e-14."""
    ops = []
    for f, k in zip(povm, kets):
        eigvals, eigvecs = np.linalg.eigh((f + f.conj().T) / 2.0)
        keep = eigvals > 1e-14
        outers = k[:, None] * eigvecs[:, keep].conj().T[:, None, :]
        ops.append(np.sqrt(eigvals[keep])[:, None, None] * outers)
    return np.concatenate(ops)


def random_qc_inputs(n, dim_in, dim_out, rng):
    """POVMs of ``dim_out`` rank-deficient effects on ``dim_in`` and output frames."""
    povms, frames = [], []
    for _ in range(n):
        iso = random_unitary(dim_in * dim_out, rng)[:, :dim_in]
        blocks = iso.reshape(dim_out, dim_in, dim_in)
        povms.append(blocks.conj().transpose(0, 2, 1) @ blocks)
        frames.append(random_unitary(dim_out, rng).T)
    return np.array(povms), np.array(frames)


def apply_kraus_loop(kraus, m):
    """The Kraus sum one operator at a time, an oracle independent of the
    superoperator."""
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=complex)
    for op in kraus:
        out += op @ m @ op.conj().T
    return out


def transfer_double_loop(channel):
    """The transfer matrix entry by entry from :func:`apply_kraus_loop`."""
    basis_in = hermitian_basis(channel.dim_in).elements
    basis_out = hermitian_basis(channel.dim_out).elements
    t = np.empty((len(basis_out), len(basis_in)))
    kraus = channel.kraus
    for b, g_in in enumerate(basis_in):
        image = apply_kraus_loop(kraus, g_in)
        for a, g_out in enumerate(basis_out):
            t[a, b] = np.trace(g_out @ image).real
    return t


def tetrahedron_points(step):
    """Grid points of the CPTP tetrahedron at ``step``; with 2 / step whole,
    the four vertices are among them."""
    values = -1.0 + step * np.arange(int(round(2.0 / step)) + 1)
    grid = [UnitalQubitParams(a, b, c) for a in values for b in values for c in values]
    points = [p for p in grid if p.in_cptp_tetrahedron()]
    vertices = {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}
    assert vertices <= {(p.l1, p.l2, p.l3) for p in points}
    return points


def z_dephasing():
    return make_qc_channel(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        [basis_ket(2, 0), basis_ket(2, 1)],
    )


class TestApply:
    def test_identity(self):
        rho = random_density(3, "hilbert-schmidt", 0)
        out = QuantumChannel.identity(3).apply(rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_point_channel_output(self):
        sigma = random_density(2, "hilbert-schmidt", 1)
        channel = make_point_channel(sigma)
        for seed in range(4):
            rho = random_density(2, "hilbert-schmidt", 10 + seed)
            out = channel.apply(rho)
            assert np.linalg.norm(out.matrix - sigma.matrix) <= 1e-12

    def test_against_choi_contraction(self):
        channel = random_channel(2, 3, 2, 7)
        for seed in range(5):
            rho = random_density(2, "hilbert-schmidt", seed)
            direct = channel.apply(rho).matrix
            oracle = choi_contraction_oracle(channel.choi, 2, 3, rho.matrix)
            assert np.linalg.norm(direct - oracle) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidChannelError, match="dimension"):
            QuantumChannel.identity(2).apply(random_density(3, "hilbert-schmidt", 0))


class TestChoiConversions:
    def test_identity_choi(self):
        j = QuantumChannel.identity(2).choi
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                expected[i * 2 + i, k * 2 + k] = 1.0
        np.testing.assert_allclose(j, expected, atol=1e-12)
        assert np.linalg.matrix_rank(j) == 1
        assert np.trace(j).real == pytest.approx(2.0)

    def test_point_channel_choi_is_identity_tensor_sigma(self):
        sigma = random_density(2, "hilbert-schmidt", 3)
        j = make_point_channel(sigma).choi
        np.testing.assert_allclose(j, np.kron(np.eye(2), sigma.matrix), atol=1e-12)

    def test_round_trip(self):
        channel = random_channel(2, 2, 3, 11)
        rebuilt = QuantumChannel.from_choi(channel.choi, 2, 2)
        assert choi_distance(channel, rebuilt) <= 1e-10

    def test_kraus_rank_matches_choi_rank(self):
        # The derived Kraus set is the eigen-Kraus set of the stored Choi matrix.
        channel = random_channel(2, 2, 3, 12)
        choi_rank = int(np.sum(np.linalg.eigvalsh(channel.choi) > 1e-10))
        assert len(channel.kraus) == choi_rank
        expected = eigen_kraus_loop(channel.choi, 2, 2)
        assert len(expected) == choi_rank
        for k, e in zip(channel.kraus, expected):
            assert np.array_equal(k, e)

    def test_from_choi_rejects_non_tp(self):
        with pytest.raises(InvalidChannelError, match="trace-preserving"):
            QuantumChannel.from_choi(np.eye(4) * 0.3, 2, 2)

    def test_from_choi_rejects_non_psd(self):
        j = QuantumChannel.identity(2).choi.copy()
        j[0, 3] = j[3, 0] = 2.0  # breaks positivity, keeps tr_out
        with pytest.raises(InvalidChannelError, match="PSD"):
            QuantumChannel.from_choi(j, 2, 2)

    def test_kraus_not_trace_preserving_rejected(self):
        with pytest.raises(InvalidChannelError, match="trace-preserving"):
            QuantumChannel([np.eye(2) * 0.5])

    def test_non_finite_kraus_rejected(self):
        op = np.eye(2, dtype=complex)
        op[0, 1] = np.nan
        with pytest.raises(InvalidChannelError, match="trace-preserving"):
            QuantumChannel([op])

    def test_clipped_negative_part_is_renormalised(self):
        # (1 - eps)|Omega><Omega| + eps SWAP: trace preserving, with the
        # eigenvalue -eps on the singlet.
        eps = 5.8e-8
        j = (1 - eps) * QuantumChannel.identity(2).choi + eps * np.eye(4)[[0, 2, 1, 3]]
        with pytest.raises(InvalidChannelError, match="PSD"):
            QuantumChannel.from_choi(j, 2, 2)
        channel = QuantumChannel.from_choi(j, 2, 2, cp_tol=1e-6)
        marginal = partial_trace_matrix(channel.choi, 2, 2, "A")
        assert np.linalg.norm(marginal - np.eye(2)) <= 1e-14
        assert np.linalg.norm(channel.choi - j) <= 2 * eps
        # A non-unital 2 -> 2 channel and a 2 -> 3 channel, each plus 1e-7 of
        # a Hermitian part with tr_out zero: tr_out J and tr_in J differ, and
        # only tr_out J, the identity, may set R.
        damping = QuantumChannel([np.diag([1.0, 0.7**0.5]), [[0.0, 0.3**0.5], [0.0, 0.0]]])
        for base, seed in ((damping, 1), (random_channel(2, 3, 1, 4), 2)):
            din, dout = base.dim_in, base.dim_out
            g = np.random.default_rng(seed).standard_normal((din * dout, din * dout, 2)) @ [1, 1j]
            h = g + g.conj().T
            h -= np.kron(partial_trace_matrix(h, din, dout, "A"), np.eye(dout) / dout)
            j = base.choi + 1e-7 * h
            w, v = np.linalg.eigh(j)
            clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
            defect = np.linalg.norm(partial_trace_matrix(clipped, din, dout, "A") - np.eye(din))
            assert defect > 1e-9 * din  # the clip alone is not trace preserving
            with pytest.raises(InvalidChannelError, match="PSD"):
                QuantumChannel.from_choi(j, din, dout)
            channel = QuantumChannel.from_choi(j, din, dout, cp_tol=1e-6)
            marginal = partial_trace_matrix(channel.choi, din, dout, "A")
            assert np.linalg.norm(marginal - np.eye(din)) <= 1e-14
            assert np.linalg.norm(channel.choi - j) <= 2 * np.linalg.norm(clipped - j)

    def test_psd_choi_keeps_its_eigen_kraus_set(self):
        # A Choi matrix with no negative eigenvalue (full rank 6) is stored as
        # its Hermitian part, bit for bit; one whose zero eigenvalues come out
        # slightly negative (rank 3) is clipped from its own eigenpairs.
        # Either keeps its eigen-Kraus set.
        clipped = []
        for seed, rank in itertools.product(range(5), (3, 6)):
            j = random_channel(2, 3, rank, seed).choi
            channel = QuantumChannel.from_choi(j, 2, 3)
            expected = (j + j.conj().T) / 2.0
            w, v = np.linalg.eigh(expected)
            if w[0] < 0.0:
                clipped.append(rank)
                expected = (v * np.clip(w, 0.0, None)) @ v.conj().T
                expected = (expected + expected.conj().T) / 2.0
            assert np.array_equal(channel.choi, expected)
            assert np.linalg.norm(channel.choi - j) <= 4e-15 * np.linalg.norm(j)
            assert len(channel.kraus) == rank
        assert clipped == [3] * 5

    def test_choi_is_that_of_the_kept_kraus_set(self):
        # eps is below the default cp_tol, so the eigenvalue -eps passes the
        # PSD check and is dropped; the Choi matrix must drop it too.
        eps = 5e-10
        j = (1 - eps) * QuantumChannel.identity(2).choi + eps * np.eye(4)[[0, 2, 1, 3]]
        channel = QuantumChannel.from_choi(j, 2, 2)
        assert len(channel.kraus) == 3
        assert np.abs(channel.choi - choi_from_kraus(channel.kraus)).max() <= 1e-15
        assert np.linalg.eigvalsh(channel.choi)[0] >= -1e-15

    def test_from_choi_rejects_non_finite(self):
        j = QuantumChannel.identity(2).choi.copy()
        j[1, 1] = np.inf
        with pytest.raises(InvalidChannelError, match="finite"):
            QuantumChannel.from_choi(j, 2, 2)


class TestComposeExtend:
    def test_compose_with_identity(self):
        channel = random_channel(2, 2, 2, 20)
        composed = compose(channel, QuantumChannel.identity(2))
        assert choi_distance(channel, composed) <= 1e-10

    def test_extend_point_on_bell(self):
        sigma = random_density(2, "hilbert-schmidt", 21)
        extended = extend(make_point_channel(sigma), "B", 2)
        out = extended.apply(bell_state(0))
        expected = np.kron(np.eye(2) / 2, sigma.matrix)
        assert np.linalg.norm(out.matrix - expected) <= 1e-10

    def test_point_absorbs_prior_channel(self):
        sigma = random_density(2, "hilbert-schmidt", 22)
        point = make_point_channel(sigma)
        for seed in range(3):
            pre = random_channel(2, 2, 2, 30 + seed)
            assert choi_distance(compose(point, pre), point) <= 1e-10

    def test_compose_dim_mismatch(self):
        with pytest.raises(InvalidChannelError, match="compose"):
            compose(QuantumChannel.identity(2), QuantumChannel.identity(3))

    def test_transfer_multiplicativity(self):
        first = random_channel(2, 2, 2, 40)
        second = random_channel(2, 2, 3, 41)
        lhs = compose(second, first).transfer()
        rhs = second.transfer() @ first.transfer()
        assert np.linalg.norm(lhs - rhs) <= 1e-9


class TestRealTransfer:
    def test_identity(self):
        analysis = analyze_transfer(QuantumChannel.identity(2))
        np.testing.assert_allclose(analysis.matrix, np.eye(4), atol=1e-12)
        assert analysis.det == pytest.approx(1.0)
        assert not analysis.rank_deficient

    def test_analysis_is_cached_and_read_only(self):
        channel = random_channel(4, 4, 2, 5)
        analysis = analyze_transfer(channel)
        assert analyze_transfer(channel) is analysis
        assert analysis.matrix is channel.transfer()
        assert analysis.image.shape == (16, analysis.rank)
        assert not analysis.image.flags.writeable
        with pytest.raises(ValueError):
            analysis.image[0, 0] = 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_point_channel_rank_one(self, dim):
        channel = make_point_channel(DensityOperator.maximally_mixed(dim))
        analysis = analyze_transfer(channel)
        assert analysis.rank == 1
        assert analysis.sigma_min <= 1e-12
        assert analysis.det == 0.0

    def test_unital_qubit_is_diagonal(self):
        lam = (0.3, -0.4, 0.2)
        channel = make_unital_qubit(UnitalQubitParams(*lam))
        np.testing.assert_allclose(
            channel.transfer(), np.diag([1.0, *lam]), atol=1e-10
        )


class TestPointChannel:
    def test_maps_orthogonal_input(self):
        channel = make_point_channel(DensityOperator.pure([1, 0]))
        out = channel.apply(DensityOperator.pure([0, 1]))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_choi_trace_out_is_identity(self):
        sigma = random_density(3, "hilbert-schmidt", 50)
        j = make_point_channel(sigma).choi
        np.testing.assert_allclose(partial_trace_matrix(j, 3, 3, "A"), np.eye(3), atol=1e-10)

    def test_sandwiched_by_channels_stays_point(self):
        sigma = random_density(2, "hilbert-schmidt", 51)
        point = make_point_channel(sigma)
        pre = random_channel(2, 2, 2, 52)
        post = random_channel(2, 2, 2, 53)
        sandwiched = compose(post, compose(point, pre))
        target = make_point_channel(post.apply(sigma))
        assert choi_distance(sandwiched, target) <= 1e-10


class TestQCChannel:
    def test_z_dephasing_on_plus(self):
        channel = z_dephasing()
        out = channel.apply(DensityOperator.pure([1, 1]))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_outputs_commute(self):
        rng = np.random.default_rng(60)
        u = random_unitary(2, rng)
        povm = [
            u @ np.diag([0.7, 0.2]).astype(complex) @ u.conj().T,
            u @ np.diag([0.3, 0.8]).astype(complex) @ u.conj().T,
        ]
        channel = make_qc_channel(povm, [basis_ket(2, 0), basis_ket(2, 1)])
        for seed in range(4):
            a = channel.apply(random_density(2, "hilbert-schmidt", seed)).matrix
            b = channel.apply(random_density(2, "hilbert-schmidt", seed + 100)).matrix
            assert np.linalg.norm(a @ b - b @ a) <= 1e-10

    def test_uniform_povm_gives_point_channel(self):
        channel = make_qc_channel(
            [np.eye(2, dtype=complex) / 2] * 2, [basis_ket(2, 0), basis_ket(2, 1)]
        )
        point = make_point_channel(DensityOperator.maximally_mixed(2))
        assert choi_distance(channel, point) <= 1e-10

    def test_invalid_povm_rejected(self):
        with pytest.raises(InvalidChannelError, match="sum"):
            make_qc_channel([np.eye(2, dtype=complex)] * 2, [basis_ket(2, 0), basis_ket(2, 1)])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(InvalidChannelError, match="orthonormal"):
            make_qc_channel(
                [np.eye(2, dtype=complex) / 2] * 2,
                [basis_ket(2, 0), np.array([1, 1]) / np.sqrt(2)],
            )

    @pytest.mark.parametrize(
        "kets, message",
        [
            ([[1, 0, 0], [0, 1, 0], [0, 2, 0]], r"<1\|2> = 2.000e\+00\+0.000e\+00j"),
            ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], r"<1\|1> = 4.000e\+00\+0.000e\+00j"),
            ([[0, 1j, 0], [0, 1, 0], [0, 0, 1]], r"<0\|1> = 0.000e\+00-1.000e\+00j"),
        ],
    )
    def test_first_non_orthonormal_pair_reported(self, kets, message):
        with pytest.raises(InvalidChannelError, match=message):
            make_qc_channel([np.eye(3, dtype=complex) / 3] * 3, kets)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_stacked_kraus_equals_the_element_loop(self, dims):
        # The Choi matrix of each channel is sum_k F_k^T (x) |k><k| over the
        # Hermitian parts of the (positive definite) elements, written on its
        # (input, output) index pairs, bit for bit, and that of a Kraus set of
        # the channel within rounding: |k><l| over the columns l of the
        # Cholesky factor of F_k.
        dim_in, dim_out = dims
        povms, frames = random_qc_inputs(6, dim_in, dim_out, np.random.default_rng(sum(dims)))
        for povm, frame in zip(povms, frames):
            channel = make_qc_channel(list(povm), list(frame))
            hermitian = (povm + povm.conj().transpose(0, 2, 1)) / 2.0
            assert np.linalg.eigvalsh(hermitian).min() > 0.0
            kets, effects_t = frame.T, hermitian.swapaxes(1, 2)
            formula = np.einsum("ak,ck,kij->iajc", kets, kets.conj(), effects_t)
            assert np.array_equal(channel.choi, formula.reshape(channel.choi.shape))
            factors = np.linalg.cholesky(hermitian)
            kraus = np.einsum("ko,kim->kmoi", frame, factors.conj())
            kraus_route = choi_outer_loop(kraus.reshape(-1, dim_out, dim_in))
            assert np.linalg.norm(channel.choi - kraus_route) <= 1e-15 * np.linalg.norm(kraus_route)

    def test_fewer_outcomes_than_output_dimensions(self):
        # Two outcomes prepared in a qutrit: the CQ form takes K = 2 < d_out kets.
        povm = [np.diag([0.7, 0.2]).astype(complex), np.diag([0.3, 0.8]).astype(complex)]
        kets = [basis_ket(3, 0), basis_ket(3, 2)]
        channel = make_qc_channel(povm, kets)
        assert (channel.dim_in, channel.dim_out) == (2, 3)
        reference = choi_outer_loop(qc_kraus_loop(povm, kets))
        assert np.abs(channel.choi - reference).max() <= 1e-15

    def test_stack_raises_the_first_failing_check(self):
        # Each POVM stack raises its first failing check.
        povms, frames = random_qc_inputs(3, 2, 2, np.random.default_rng(94))
        povms[1, 1] = -povms[1, 1]
        povms[2, 1, 0, 1] += 1.0
        with pytest.raises(InvalidChannelError, match="POVM element 1 is not PSD"):
            make_qc_channel(povms[1], frames[1])
        with pytest.raises(InvalidChannelError, match="POVM element 1 is not Hermitian"):
            make_qc_channel(povms[2], frames[2])
        # Element order: a non-PSD element 0 is reported before a non-Hermitian
        # element 1, and a wrong shape anywhere before either.
        with pytest.raises(InvalidChannelError, match="POVM element 0 is not PSD"):
            make_qc_channel([povms[1, 1], povms[2, 1]], frames[0])
        with pytest.raises(InvalidChannelError, match=r"POVM element 1 has shape \(3, 3\)"):
            make_qc_channel([povms[1, 1], np.eye(3)], frames[0])
        frames[0, 1] = frames[0, 0]
        with pytest.raises(InvalidChannelError, match=r"not orthonormal: <0\|1>"):
            make_qc_channel(povms[0], frames[0])
        povms[0, 0] *= 2.0
        with pytest.raises(InvalidChannelError, match="do not sum to the identity"):
            make_qc_channel(povms[0], frames[0])

    def test_ragged_output_basis_raises(self):
        half = np.eye(2) / 2
        with pytest.raises(
            InvalidChannelError, match="output basis vector 1 has length 3, but vector 0 has length 2"
        ):
            make_qc_channel([half, half], [[1, 0], [0, 1, 0]])
        # The basis is checked last: a POVM that does not sum to the identity wins.
        with pytest.raises(InvalidChannelError, match="do not sum to the identity"):
            make_qc_channel([half, half / 2], [[1, 0], [0, 1, 0]])


class TestUnitalQubit:
    def test_identity_point(self):
        channel = make_unital_qubit(UnitalQubitParams(1, 1, 1))
        assert choi_distance(channel, QuantumChannel.identity(2)) <= 1e-9

    def test_center_is_point_channel(self):
        channel = make_unital_qubit(UnitalQubitParams(0, 0, 0))
        point = make_point_channel(DensityOperator.maximally_mixed(2))
        assert choi_distance(channel, point) <= 1e-9

    def test_z_axis_is_dephasing(self):
        channel = make_unital_qubit(UnitalQubitParams(0, 0, 1))
        assert choi_distance(channel, z_dephasing()) <= 1e-9

    def test_outside_tetrahedron_rejected(self):
        with pytest.raises(InvalidChannelError, match="tetrahedron"):
            make_unital_qubit(UnitalQubitParams(1, 1, -1))

    @pytest.mark.parametrize("vertex", [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    def test_vertices_are_cptp(self, vertex):
        channel = make_unital_qubit(UnitalQubitParams(*vertex))
        w = np.linalg.eigvalsh(channel.choi)
        assert w[0] >= -1e-9

    def test_tetrahedron_excludes_large_l3(self):
        assert not UnitalQubitParams(0, 0, -2).in_cptp_tetrahedron()
        assert not UnitalQubitParams(0, 0, 2).in_cptp_tetrahedron()

    def test_matches_choi_block_reference(self):
        for params in tetrahedron_points(0.125):
            channel = make_unital_qubit(params)
            reference = unital_qubit_reference(params)
            assert np.abs(channel.choi - reference.choi).max() <= 1e-14, params
            assert len(channel.kraus) == len(reference.kraus), params

    def test_transfer_is_diag_one_lambda(self):
        for params in tetrahedron_points(0.125):
            expected = np.diag([1.0, params.l1, params.l2, params.l3])
            assert np.abs(make_unital_qubit(params).transfer() - expected).max() <= 1e-14, params

    def test_built_from_pauli_kraus_without_choi(self, monkeypatch):
        # Built from the Pauli Choi matrices, not through from_choi or Choi blocks.
        def refuse(*args, **kwargs):
            raise AssertionError("make_unital_qubit must not go through from_choi")

        monkeypatch.setattr(QuantumChannel, "from_choi", refuse)
        monkeypatch.setattr(np, "block", refuse)
        channel = make_unital_qubit(UnitalQubitParams(0.5, -0.25, 0.0))
        assert len(channel.kraus) == 4


class TestMixtures:
    def test_mixture_is_cptp(self):
        a = random_channel(2, 2, 2, 70)
        b = random_channel(2, 2, 2, 71)
        mixed = mix_channels([(0.3, a), (0.7, b)])
        w = np.linalg.eigvalsh(mixed.choi)
        assert w[0] >= -1e-10
        np.testing.assert_allclose(
            mixed.choi, 0.3 * a.choi + 0.7 * b.choi, atol=1e-10
        )

    def test_bad_weights_rejected(self):
        a = QuantumChannel.identity(2)
        with pytest.raises(InvalidChannelError, match="weights"):
            mix_channels([(0.5, a), (0.6, a)])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((1.5, -0.5), "mixture weight 1 is -0.5"),
            ((float("nan"), 1.0), "mixture weight 0 is nan"),
            ((0.5, float("inf")), "mixture weight 1 is inf"),
        ],
    )
    def test_negative_or_non_finite_weight_rejected(self, weights, message):
        # A negative weight would sum to a trace-preserving map that is not
        # completely positive; a NaN weight would pass the sum check.
        a, b = random_channel(2, 2, 2, 72), random_channel(2, 2, 2, 73)
        with pytest.raises(InvalidChannelError, match=message):
            mix_channels(list(zip(weights, (a, b))))


class TestChoiForm:
    """Compose, extend, mix and point channels are built on the Choi matrix;
    each is checked against a test-local Kraus route."""

    DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_extend_equals_the_kron_route_bitwise(self, dims, side):
        din, dout = dims
        for seed, dim_other in ((0, 1), (1, 2), (2, 3)):
            ops = isometry_kraus(din, dout, 3, [seed, din, dout])
            eye = np.eye(dim_other)
            kraus = [np.kron(k, eye) if side == "A" else np.kron(eye, k) for k in ops]
            extended = extend(QuantumChannel(ops), side, dim_other)
            assert (extended.dim_in, extended.dim_out) == (din * dim_other, dout * dim_other)
            assert np.array_equal(extended.choi, choi_outer_loop(kraus))

    @pytest.mark.parametrize("dims", DIMS)
    def test_compose_equals_the_kraus_product_route(self, dims):
        din, dmid = dims
        for seed in range(3):
            first_ops = isometry_kraus(din, dmid, 3, [seed, 1])
            second_ops = isometry_kraus(dmid, din, 2, [seed, 2])
            composed = compose(QuantumChannel(second_ops), QuantumChannel(first_ops))
            reference = choi_outer_loop([b @ a for b in second_ops for a in first_ops])
            bound = 1e-14 * max(1.0, np.linalg.norm(reference))
            assert np.linalg.norm(composed.choi - reference) <= bound
            assert (composed.dim_in, composed.dim_out) == (din, din)

    @pytest.mark.parametrize("dims", DIMS)
    def test_mix_equals_the_weighted_kraus_union(self, dims):
        din, dout = dims
        weights = (0.2, 0.5, 0.3)
        sets = [isometry_kraus(din, dout, rank, [rank, din, dout]) for rank in (2, 3, 4)]
        mixed = mix_channels([(w, QuantumChannel(ops)) for w, ops in zip(weights, sets)])
        union = np.concatenate([np.sqrt(w) * ops for w, ops in zip(weights, sets)])
        reference = choi_outer_loop(union)
        assert np.linalg.norm(mixed.choi - reference) <= 1e-14 * max(1.0, np.linalg.norm(reference))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_point_channel_choi_is_exactly_one_kron_sigma(self, dim):
        sigma = random_density(dim, "hilbert-schmidt", 40 + dim)
        assert np.array_equal(make_point_channel(sigma).choi, np.kron(np.eye(dim), sigma.matrix))

    def test_constructors_build_no_kraus_set(self, monkeypatch):
        from discordkit import channels

        a, b = random_channel(2, 2, 2, 60), random_channel(2, 2, 3, 61)
        sigma = random_density(3, "hilbert-schmidt", 62)
        spec = random_da_spec(2, 3, 63)  # its pre-channel is a random (Kraus) channel
        povm, frame = random_qc_inputs(1, 3, 2, np.random.default_rng(64))

        def refuse(*args, **kwargs):
            raise AssertionError("built a Choi matrix from a Kraus set")

        monkeypatch.setattr(channels, "_choi_matrices", refuse)
        monkeypatch.setattr(QuantumChannel, "__init__", refuse)
        assert compose(b, a).dim_in == 2
        assert extend(a, "B", 3).dim_in == 6
        assert mix_channels([(0.25, a), (0.75, b)]).dim_in == 2
        assert make_point_channel(sigma).dim_in == 3
        assert QuantumChannel.identity(3).dim_in == 3
        assert make_qc_channel(list(povm[0]), list(frame[0])).dim_out == 2
        assert make_unital_qubit(UnitalQubitParams(0.5, -0.25, 0.0)).dim_in == 2
        assert build_da_channel(spec).dim_in == 6
        assert QuantumChannel.from_choi(a.choi, 2, 2).dim_in == 2
        assert len(tetrahedron_sweep(1.0, "A", n_probe_states=1)) == 11

    def test_compose_is_the_superoperator_product(self):
        # The BLAS contraction equals S2 S1 bit for bit, 4x4 annihilating
        # channels after their stage included.
        pairs = [(random_channel(3, 2, 2, 70), random_channel(2, 3, 3, 71))]
        for seed in range(3):
            spec = random_da_spec(4, 4, [seed, 17])
            stage = build_da_channel(replace(spec, pre_channel=None))
            pairs.append((stage, build_da_channel(spec)))
        for second, first in pairs:
            composed = compose(second, first)
            assert np.array_equal(composed.superop, second.superop @ first.superop)

    def test_channel_stores_only_its_choi_matrix(self):
        channel = compose(random_channel(2, 3, 2, 63), random_channel(2, 2, 2, 64))
        channel.kraus  # derived on demand, not kept
        arrays = [name for name, value in vars(channel).items() if isinstance(value, np.ndarray)]
        assert arrays == ["choi"]

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 4)])
    def test_derived_kraus_rebuilds_the_choi_matrix(self, dims):
        din, dout = dims
        channel = mix_channels(
            [(0.5, random_channel(din, dout, 2, 65)), (0.5, random_channel(din, dout, 3, 66))]
        )
        kraus = channel.kraus
        assert kraus.shape == (min(5, din * dout), dout, din)
        assert np.linalg.norm(choi_outer_loop(kraus) - channel.choi) <= 1e-14


class TestConstructedChannelInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_channels_are_cptp(self, seed):
        channel = random_channel(3, 2, 2, seed)
        w = np.linalg.eigvalsh(channel.choi)
        assert w[0] >= -1e-9
        marg = partial_trace_matrix(channel.choi, 3, 2, "A")
        assert np.linalg.norm(marg - np.eye(3)) <= 1e-9


class TestKrausStack:
    def test_stack_shape_and_dims(self):
        channel = random_channel(3, 2, 4, 80)
        assert channel.kraus.shape == (4, 2, 3)
        assert channel.kraus.dtype == complex
        assert (channel.dim_in, channel.dim_out) == (3, 2)

    def test_stack_is_read_only(self):
        ops = np.array([np.eye(2, dtype=complex)])
        channel = QuantumChannel(ops)
        reference = choi_outer_loop(ops)
        for stored in (channel.choi, channel.kraus):
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 2.0
        ops[0, 0, 0] = 2.0  # the channel holds no view of its input
        assert np.array_equal(channel.choi, reference)

    def test_empty_rejected(self):
        with pytest.raises(InvalidChannelError, match="at least one Kraus operator"):
            QuantumChannel([])

    def test_ragged_rejected(self):
        with pytest.raises(InvalidChannelError, match=r"operator 1 has shape \(3, 3\)"):
            QuantumChannel([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("kraus", [np.eye(2), [np.zeros((1, 2, 2))]])
    def test_non_3d_rejected(self, kraus):
        with pytest.raises(InvalidChannelError, match="expected a matrix"):
            QuantumChannel(kraus)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 4)])
    def test_apply_matrix_on_a_stack_equals_single_calls(self, dims):
        # Bitwise against single calls; the Kraus sum adds in another order.
        din, dout = dims
        channel = random_channel(din, dout, 3, 81)
        rng = np.random.default_rng(82)
        stack = rng.standard_normal((2, 5, din, din)) + 1j * rng.standard_normal((2, 5, din, din))
        images = channel.apply_matrix(stack)
        assert images.shape == (2, 5, dout, dout)
        for idx in np.ndindex(2, 5):
            single = channel.apply_matrix(stack[idx])
            assert np.array_equal(images[idx], single)
            bound = 1e-14 * max(1.0, np.linalg.norm(stack[idx]))
            assert np.linalg.norm(single - apply_kraus_loop(channel.kraus, stack[idx])) <= bound

    @pytest.mark.parametrize("shape", [(2, 8), (16,), (8, 2), (3, 3)])
    def test_apply_matrix_refuses_a_wrong_trailing_shape(self, shape):
        channel = random_channel(4, 4, 2, 83)
        message = re.escape(f"array of shape {shape}, expected (..., 4, 4)")
        with pytest.raises(InvalidChannelError, match=message):
            channel.apply_matrix(np.zeros(shape))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_superop_is_the_choi_index_map(self, dims):
        din, dout = dims
        channel = random_channel(din, dout, 3, 84)
        j, s = channel.choi, channel.superop
        assert s.shape == (dout * dout, din * din) and not j.flags.writeable
        for a, c, b, d in np.ndindex(dout, dout, din, din):
            assert s[a * dout + c, b * din + d] == j[b * dout + a, d * dout + c]

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_transfer_equals_double_loop(self, dim):
        # Within rounding: the superoperator product adds in another order.
        for din, dout in ((dim, dim), (dim, dim - 1), (dim - 1, dim)):
            channel = random_channel(din, dout, 3, 90 + dim)
            t = channel.transfer()
            assert np.abs(t - transfer_double_loop(channel)).max() <= 1e-14, (din, dout)
            assert t is channel.transfer() and not t.flags.writeable

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (6, 6), (4, 9)])
    def test_choi_equals_outer_loop(self, dims):
        din, dout = dims
        sets = [
            isometry_kraus(din, dout, rank, [seed, rank]) for seed in range(5) for rank in (2, 3, 5)
        ]
        for ops in sets:
            assert np.array_equal(QuantumChannel(ops).choi, choi_outer_loop(ops))
            assert np.array_equal(_choi_matrices(ops), choi_outer_loop(ops))

    def test_zero_operators_add_nothing_to_the_choi(self):
        ops = isometry_kraus(3, 3, 2, 91)
        padded = np.concatenate([ops[:1], np.zeros((2, 3, 3)), ops[1:], np.zeros((1, 3, 3))])
        assert np.array_equal(_choi_matrices(padded), choi_outer_loop(ops))

    def test_trace_preserving_check_names_the_first_bad_member(self):
        # The Choi matrices of the Kraus sets K, 2K and 3K: tr_out reads 1, 4 and 9.
        good = random_channel(2, 2, 2, 92).choi
        stack = np.array([good, 4.0 * good, 9.0 * good])
        with pytest.raises(InvalidChannelError, match=r"tr_out defect 4\.243e\+00"):
            _check_trace_preserving(stack, 2)
        _check_trace_preserving(stack[:1], 2)


class TestDimensionsBelowOne:
    """A dimension below 1 is refused by name, before any division by it or
    any ``np.eye`` of it."""

    CASES = {
        "identity-0": (lambda: QuantumChannel.identity(0), "dim must be at least 1, got 0"),
        "identity-neg": (lambda: QuantumChannel.identity(-1), "dim must be at least 1, got -1"),
        "extend-0": (
            lambda: extend(QuantumChannel.identity(2), "A", 0),
            "dim_other must be at least 1, got 0",
        ),
        "extend-neg": (
            lambda: extend(QuantumChannel.identity(2), "B", -1),
            "dim_other must be at least 1, got -1",
        ),
        "random-0": (lambda: random_channel(0, 2, 1, 0), "dim_in must be at least 1, got 0"),
        "random-neg": (lambda: random_channel(-1, 2, 1, 0), "dim_in must be at least 1, got -1"),
        "kraus-0": (
            lambda: QuantumChannel(np.zeros((1, 0, 2))),
            "dim_out must be at least 1, got 0",
        ),
        "choi-neg": (
            lambda: QuantumChannel.from_choi(np.eye(2), -1, -2),
            "dim_in must be at least 1, got -1",
        ),
        "builder-0": (
            lambda: QuantumChannel._of_choi(np.zeros((0, 0)), 0, 3),
            "dim_in must be at least 1, got 0",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_by_name(self, case):
        build, message = self.CASES[case]
        with pytest.raises(InvalidChannelError, match=message):
            build()
