import numpy as np
import pytest

from discordkit.annihilators import (
    DAChannelSpec,
    IdentityAction,
    InvalidDASpecError,
    MultiEntry,
    PointTo,
    Rank1Entry,
    apply_and_certify,
    build_da_channel,
    induced_cq_subset,
    random_da_spec,
    structural_match,
    _entry_projector,
)
from discordkit.classify import is_local_da
from discordkit.channels import (
    QuantumChannel,
    UnitalQubitParams,
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
from discordkit.cqsets import membership
from discordkit.discord import is_cq_exact
from discordkit.states import (
    basis_ket,
    random_bipartite,
    random_density,
    random_unitary,
)


def z_dephasing():
    return make_qc_channel(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        [basis_ket(2, 0), basis_ket(2, 1)],
    )


def entry_signature(spec):
    sig = []
    for entry in spec.entries:
        rank = int(round(np.trace(_entry_projector(entry, spec.dim_a)).real))
        sig.append((rank, type(entry.action).__name__))
    return sorted(sig)


class TestSpecValidation:
    def test_incomplete_partition_rejected(self):
        with pytest.raises(InvalidDASpecError, match="identity"):
            DAChannelSpec.make(
                2, 2, [Rank1Entry(basis_ket(2, 0), IdentityAction())]
            )

    def test_multi_with_identity_rejected(self):
        with pytest.raises(InvalidDASpecError, match="point"):
            DAChannelSpec.make(
                2, 2, [MultiEntry(np.eye(2, dtype=complex), IdentityAction())]
            )

    def test_overlapping_entries_rejected(self):
        with pytest.raises(InvalidDASpecError, match="overlap"):
            DAChannelSpec.make(
                2,
                2,
                [
                    Rank1Entry(basis_ket(2, 0), IdentityAction()),
                    Rank1Entry(basis_ket(2, 0), IdentityAction()),
                    Rank1Entry(basis_ket(2, 1), IdentityAction()),
                ],
            )

    def test_pre_channel_dimension_checked(self):
        with pytest.raises(InvalidDASpecError, match="pre-channel"):
            DAChannelSpec.make(
                2,
                2,
                [
                    Rank1Entry(basis_ket(2, 0), IdentityAction()),
                    Rank1Entry(basis_ket(2, 1), IdentityAction()),
                ],
                pre_channel=QuantumChannel.identity(2),
            )


class TestBuildDAChannel:
    def test_all_identity_entries_equal_dephasing_on_a(self):
        spec = DAChannelSpec.make(
            2,
            2,
            [
                Rank1Entry(basis_ket(2, 0), IdentityAction()),
                Rank1Entry(basis_ket(2, 1), IdentityAction()),
            ],
        )
        built = build_da_channel(spec)
        assert choi_distance(built, extend(z_dephasing(), "A", 2)) <= 1e-10

    def test_full_space_point_equals_point_on_b(self):
        r = random_density(2, "hilbert-schmidt", 0)
        spec = DAChannelSpec.make(
            2, 2, [MultiEntry(np.eye(2, dtype=complex), PointTo(r))]
        )
        built = build_da_channel(spec)
        assert choi_distance(built, extend(make_point_channel(r), "B", 2)) <= 1e-10

    def test_mixed_spec_on_3x2_is_cptp_and_rank_deficient(self):
        rng = np.random.default_rng(1)
        frame = random_unitary(3, rng)
        block = frame[:, 1:3]
        spec = DAChannelSpec.make(
            3,
            2,
            [
                Rank1Entry(frame[:, 0], PointTo(random_density(2, "hilbert-schmidt", rng))),
                MultiEntry(block @ block.conj().T, PointTo(random_density(2, "hilbert-schmidt", rng))),
            ],
            pre_channel=random_channel(6, 6, 3, rng),
        )
        built = build_da_channel(spec)
        assert np.linalg.eigvalsh(built.choi)[0] >= -1e-9
        analysis = analyze_transfer(built)
        assert analysis.sigma_min < 1e-8 * analysis.sigma_max

    def test_outputs_live_in_induced_subset(self):
        rng = np.random.default_rng(2)
        spec = random_da_spec(3, 2, rng)
        built = build_da_channel(spec)
        subset = induced_cq_subset(spec)
        for seed in range(10):
            out = built.apply(random_bipartite(3, 2, 100 + seed))
            assert membership(subset, out)


class TestApplyAndCertify:
    def test_built_channel_certifies(self):
        spec = random_da_spec(2, 2, 3)
        report = apply_and_certify(build_da_channel(spec), 2, 2, n_samples=200, seed=0)
        assert report.passed
        assert report.worst_residual <= 1e-8

    def test_identity_channel_fails_on_entangled_input(self):
        report = apply_and_certify(QuantumChannel.identity(4), 2, 2, n_samples=10, seed=0)
        assert not report.passed
        assert not is_cq_exact(report.failing_input)  # witness is itself non-CQ

    def test_n_checked_stops_at_first_failure(self):
        # The third boundary input, the maximally entangled state, is the first
        # whose identity image is not CQ.
        report = apply_and_certify(QuantumChannel.identity(4), 2, 2, n_samples=200, seed=0)
        assert not report.passed
        assert report.n_checked == 3

    def test_dephasing_on_a_certifies(self):
        report = apply_and_certify(extend(z_dephasing(), "A", 2), 2, 2, n_samples=100, seed=1)
        assert report.passed

    def test_witness_is_reproducible(self):
        first = apply_and_certify(QuantumChannel.identity(4), 2, 2, n_samples=10, seed=5)
        second = apply_and_certify(QuantumChannel.identity(4), 2, 2, n_samples=10, seed=5)
        assert np.array_equal(first.failing_input.matrix, second.failing_input.matrix)


class TestStructuralMatch:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2), (4, 4)])
    def test_round_trip_recovers_structure(self, dims):
        for seed in range(5):
            spec = random_da_spec(dims[0], dims[1], [seed, dims[0]])
            built = build_da_channel(spec)
            match = structural_match(built, dims[0], dims[1], seed=seed)
            assert match.matched, match.notes
            assert entry_signature(match.spec) == entry_signature(spec)
            assert match.residual <= 1e-6

    def test_identity_channel_yields_counterexample(self):
        match = structural_match(QuantumChannel.identity(4), 2, 2)
        assert not match.matched
        assert match.counterexample is not None
        assert not is_cq_exact(QuantumChannel.identity(4).apply(match.counterexample))

    def test_point_on_b_recovered_as_full_space_entry(self):
        r = random_density(2, "hilbert-schmidt", 7)
        channel = extend(make_point_channel(r), "B", 2)
        match = structural_match(channel, 2, 2)
        assert match.matched
        assert entry_signature(match.spec) == [(2, "PointTo")]
        target = match.spec.entries[0].action.state.matrix
        assert np.linalg.norm(target - r.matrix) <= 1e-7


class TestCompositionClosure:
    def test_pre_composition_stays_annihilating(self):
        spec = random_da_spec(2, 2, 11)
        built = build_da_channel(spec)
        for seed in range(5):
            pre = random_channel(4, 4, 2, 200 + seed)
            composed = compose(built, pre)
            report = apply_and_certify(composed, 2, 2, n_samples=50, seed=seed)
            assert report.passed


class TestNonconvexity:
    def test_mixture_of_incompatible_da_channels_fails(self):
        sigma1 = random_density(2, "hilbert-schmidt", 20)
        sigma2 = random_density(2, "hilbert-schmidt", 21)
        z_spec = DAChannelSpec.make(
            2,
            2,
            [
                Rank1Entry(basis_ket(2, 0), PointTo(sigma1)),
                Rank1Entry(basis_ket(2, 1), PointTo(sigma2)),
            ],
        )
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        sigma3 = random_density(2, "hilbert-schmidt", 22)
        sigma4 = random_density(2, "hilbert-schmidt", 23)
        x_spec = DAChannelSpec.make(
            2,
            2,
            [Rank1Entry(plus, PointTo(sigma3)), Rank1Entry(minus, PointTo(sigma4))],
        )
        mixed = mix_channels([(0.5, build_da_channel(z_spec)), (0.5, build_da_channel(x_spec))])
        report = apply_and_certify(mixed, 2, 2, n_samples=100, seed=0)
        assert not report.passed


class TestIsLocalDA:
    def test_qc_on_a_wins(self):
        verdict = is_local_da(z_dephasing(), random_channel(2, 2, 2, 30))
        assert verdict.kind == "da-via-a"

    def test_point_on_b_wins(self):
        sigma = random_density(2, "hilbert-schmidt", 31)
        verdict = is_local_da(random_channel(2, 2, 2, 32), make_point_channel(sigma))
        assert verdict.kind == "da-via-b"

    def test_neither_gives_witness(self):
        depolarizing = make_unital_qubit(UnitalQubitParams(0.5, 0.5, 0.5))
        verdict = is_local_da(depolarizing, z_dephasing())
        assert verdict.kind == "not-da"
        assert verdict.witness is not None
        product = compose(
            extend(z_dephasing(), "B", 2), extend(depolarizing, "A", 2)
        )
        assert not is_cq_exact(product.apply(verdict.witness))
