import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from discordkit import annihilators
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
    _commutant_element,
)
from discordkit.classify import ActsOnAB, classify_channel, is_local_da
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
from discordkit.cqsets import Hull, membership
from discordkit.discord import _b_blocks, is_cq_exact
from discordkit.serialize import FileFormatError, da_spec_to_json, encode_matrix, load_da_spec
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    as_rng,
    basis_ket,
    hermitian_basis,
    random_bipartite,
    random_density,
    random_unitary,
)
from discordkit.tolerances import CQ_TOL, NULLSPACE_CUTOFF


def z_dephasing():
    return make_qc_channel(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        [basis_ket(2, 0), basis_ket(2, 1)],
    )


def commutant_element_loop(generators, dim, rng):
    """The per-generator loop that ``_commutant_element`` replaced: the
    linear system built one generator and one basis element at a time."""
    basis = hermitian_basis(dim).elements
    rows = []
    for g in generators:
        cols = [(b @ g - g @ b).reshape(-1) for b in basis]
        m = np.column_stack(cols)
        rows.append(m.real)
        rows.append(m.imag)
    stacked = np.vstack(rows)
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    cutoff = NULLSPACE_CUTOFF * max(svals[0], 1e-300)
    null = [vt[i] for i in range(len(svals)) if svals[i] <= cutoff]
    coeffs = np.zeros(dim * dim)
    for direction in null:
        coeffs += rng.standard_normal() * np.asarray(direction)
    x = sum(c * b for c, b in zip(coeffs, basis))
    return (x + x.conj().T) / 2.0


def oblique_spec_entries():
    """{P, I - P} on dA = 4 with P = diag(1, 1, 0, 0) + E_02: P is idempotent
    but not Hermitian, so the pair is not an orthogonal partition."""
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p[0, 2] = 1.0
    sigma = random_density(2, "hilbert-schmidt", 3)
    return [MultiEntry(p, PointTo(sigma)), MultiEntry(np.eye(4) - p, PointTo(sigma))]


def entry_signature(spec):
    sig = []
    for proj, entry in zip(spec.projectors, spec.entries):
        rank = int(round(np.trace(proj).real))
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

    def test_overlapping_pair_named(self):
        entries = [
            Rank1Entry(basis_ket(2, 0), IdentityAction()),
            Rank1Entry(basis_ket(2, 1), IdentityAction()),
            MultiEntry(np.eye(2, dtype=complex), PointTo(DensityOperator.maximally_mixed(2))),
        ]
        with pytest.raises(InvalidDASpecError, match=r"^entries 0 and 2 overlap \(norm 1\.000e\+00\)$"):
            DAChannelSpec.make(2, 2, entries)

    def test_hull_entry_rejected(self):
        gens = (DensityOperator.maximally_mixed(2),)
        entries = [
            Rank1Entry(basis_ket(2, 0), Hull(gens)),
            Rank1Entry(basis_ket(2, 1), IdentityAction()),
        ]
        with pytest.raises(InvalidDASpecError, match="entry 0: a hull is a subset condition"):
            DAChannelSpec.make(2, 2, entries)

    def test_point_target_dimension_checked(self):
        entries = [
            Rank1Entry(basis_ket(2, 0), PointTo(DensityOperator.maximally_mixed(3))),
            Rank1Entry(basis_ket(2, 1), IdentityAction()),
        ]
        with pytest.raises(InvalidDASpecError, match="entry 0: B state has dimension 3, expected 2"):
            DAChannelSpec.make(2, 2, entries)

    def test_projectors_stored_once(self):
        spec = random_da_spec(3, 2, 4)
        assert not spec.projectors.flags.writeable
        assert np.allclose(spec.projectors.sum(axis=0), np.eye(3), atol=1e-10)

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

    def test_oblique_projector_rejected(self):
        entries = oblique_spec_entries()
        p = entries[0].projector
        assert np.linalg.norm(p @ p - p) == 0.0
        assert np.linalg.norm(p - p.conj().T) > 1.4
        with pytest.raises(InvalidDASpecError, match="entry 0: matrix is not an orthogonal"):
            DAChannelSpec.make(4, 2, entries)

    def test_zero_vector_rejected(self):
        entries = [
            Rank1Entry(np.zeros(2), IdentityAction()),
            Rank1Entry(basis_ket(2, 1), IdentityAction()),
        ]
        with pytest.raises(InvalidDASpecError, match="entry 0: vector has zero or non-finite"):
            DAChannelSpec.make(2, 2, entries)

    def test_nan_projector_rejected(self):
        point = PointTo(DensityOperator.maximally_mixed(2))
        entries = [MultiEntry(np.full((2, 2), np.nan, dtype=complex), point)]
        with pytest.raises(InvalidDASpecError, match="entry 0: matrix is not an orthogonal"):
            DAChannelSpec.make(2, 2, entries)

    def test_oblique_projector_in_spec_file_rejected(self, tmp_path):
        entries = oblique_spec_entries()
        halves = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
        orthogonal = [MultiEntry(h, e.action) for h, e in zip(halves, entries)]
        payload = da_spec_to_json(DAChannelSpec.make(4, 2, orthogonal))
        for item, entry in zip(payload["entries"], entries):
            item["projector"] = encode_matrix(entry.projector)
        path = tmp_path / "oblique.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="entry 0: matrix is not an orthogonal") as info:
            load_da_spec(path)
        assert info.value.field == "entries"


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
        # The first probe, the Bell state Phi+, is the first whose identity
        # image is not CQ.
        report = apply_and_certify(QuantumChannel.identity(4), 2, 2, n_samples=200, seed=0)
        assert not report.passed
        assert report.n_checked == 1

    def test_dephasing_on_a_certifies(self):
        report = apply_and_certify(extend(z_dephasing(), "A", 2), 2, 2, n_samples=100, seed=1)
        assert report.passed

    def test_negative_sample_count_rejected(self, monkeypatch):
        draws = []
        monkeypatch.setattr(annihilators, "_ginibre_density", lambda *args: draws.append(args))
        channel = extend(z_dephasing(), "A", 2)
        with pytest.raises(ValueError, match=r"^n_samples must be at least 0, got -5$"):
            apply_and_certify(channel, 2, 2, n_samples=-5)
        with pytest.raises(ValueError, match=r"^n_samples must be at least 0, got -3$"):
            classify_channel(channel, ActsOnAB(2, 2), samples=-3)
        assert draws == []

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
            match = structural_match(built, dims[0], dims[1])
            assert match.matched, match.notes
            assert entry_signature(match.spec) == entry_signature(spec)
            assert match.residual <= 1e-6

    def test_identity_channel_not_matched(self):
        # The identity's image spans every operator, so A is one block whose
        # B conditional follows the input; the sampled scan holds the witness.
        identity = QuantumChannel.identity(4)
        match = structural_match(identity, 2, 2)
        assert not match.matched
        assert match.notes == "rank-2 block has input-dependent B conditional"
        report = apply_and_certify(identity, 2, 2, n_samples=20, seed=0)
        assert not is_cq_exact(identity.apply(report.failing_input))

    @pytest.mark.parametrize("check", [apply_and_certify, structural_match])
    def test_channel_off_the_split_rejected(self, check):
        message = "channel acts on 4 -> 2, but a 2x2 split needs 4 -> 4"
        with pytest.raises(ValueError, match=message):
            check(random_channel(4, 2, 2, 1), 2, 2)

    def test_point_on_b_recovered_as_full_space_entry(self):
        r = random_density(2, "hilbert-schmidt", 7)
        channel = extend(make_point_channel(r), "B", 2)
        match = structural_match(channel, 2, 2)
        assert match.matched
        assert entry_signature(match.spec) == [(2, "PointTo")]
        target = match.spec.entries[0].action.state.matrix
        assert np.linalg.norm(target - r.matrix) <= 1e-7

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_stage_superop_product_is_the_composition(self, dims):
        # The match residual reads S_stage S as the superoperator of stage o channel.
        for seed in range(3):
            spec = random_da_spec(dims[0], dims[1], [seed, 17])
            channel = build_da_channel(spec)
            stage = build_da_channel(replace(spec, pre_channel=None))
            product = stage.superop @ channel.superop
            assert np.linalg.norm(product - compose(stage, channel).superop) <= 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_4x4_match_peak_memory(self, seed):
        # A match holds no (d², r, d, d) Kraus intermediate; at 4x4 it needs 6-8 MiB.
        channel = build_da_channel(random_da_spec(4, 4, seed))
        channel.choi
        tracemalloc.start()
        try:
            assert structural_match(channel, 4, 4).matched
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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


    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2to3", "3to2"])
    def test_non_square_factor_gives_witness(self, dims):
        dim_in, dim_out = dims
        channel_a, channel_b = random_channel(dim_in, dim_out, 2, 40), random_channel(2, 2, 2, 41)
        verdict = is_local_da(channel_a, channel_b)
        assert verdict.kind == "not-da"
        assert verdict.witness.dim_a == dim_in
        product = compose(extend(channel_b, "B", dim_out), extend(channel_a, "A", 2))
        output = BipartiteState.from_matrix(
            product.apply_matrix(verdict.witness.matrix), dim_out, 2
        )
        check = is_cq_exact(output)
        assert not check
        assert verdict.residual == check.residual

    @pytest.mark.parametrize("eps", [1e-7, 5e-8, 2e-8])
    def test_near_qc_factor_never_returns_a_passing_witness(self, eps):
        # A measure-and-prepare A factor in a Haar basis, nudged off the
        # family by eps.  For most such products no probe output fails, and
        # the verdict then carries no witness rather than an input that passes.
        no_witness = 0
        for s in range(10):
            frame = random_unitary(2, [s, 1])
            kets = [frame[:, k] for k in range(2)]
            qc = make_qc_channel([np.outer(k, k.conj()) for k in kets], kets)
            channel_a = mix_channels([(1 - eps, qc), (eps, random_channel(2, 2, 2, [s, 2]))])
            channel_b = random_channel(2, 2, 2, [s, 3])
            verdict = is_local_da(channel_a, channel_b)
            if verdict.kind != "not-da":
                continue
            if verdict.witness is None:
                no_witness += 1
                assert verdict.residual <= CQ_TOL
                continue
            product = compose(extend(channel_b, "B", 2), extend(channel_a, "A", 2))
            assert verdict.residual > CQ_TOL
            assert not is_cq_exact(product.apply(verdict.witness))
        assert no_witness > 0


class TestCommutantElement:
    @staticmethod
    def generator_sets():
        """100 seeded generator sets for dA = 2, 3, 4: the B blocks of DA
        channel outputs (a block commutant) and of generic states (only the
        identity commutes with them all)."""
        sets = []
        for dim_a in (2, 3, 4):
            for k in range(34 if dim_a < 4 else 32):
                if k % 3:
                    channel = build_da_channel(random_da_spec(dim_a, 2, [dim_a, k]))
                    inputs = [random_bipartite(dim_a, 2, [dim_a, k, j]) for j in range(3)]
                    states = [channel.apply(rho) for rho in inputs]
                else:
                    states = [random_bipartite(dim_a, 2, [dim_a, k, j]) for j in range(2)]
                blocks = [
                    _b_blocks(out.matrix, dim_a, 2).reshape(-1, dim_a, dim_a) for out in states
                ]
                sets.append((dim_a, np.concatenate(blocks), [dim_a, k]))
        return sets

    def test_bitwise_equal_to_the_generator_loop(self):
        sets = self.generator_sets()
        assert len(sets) == 100
        for dim_a, generators, seed in sets:
            got = _commutant_element(generators, dim_a, as_rng(seed))
            want = commutant_element_loop(generators, dim_a, as_rng(seed))
            assert np.array_equal(got, want)
