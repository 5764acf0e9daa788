import numpy as np
import pytest

from discordkit.cqsets import (
    BothEntry,
    ConvexCQSubsetSpec,
    FixedEntry,
    PointEntry,
    membership,
    mixing_closure_check,
    sample_state,
    validate_spec,
)
from discordkit.discord import is_cq_exact
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    basis_ket,
    random_density,
    random_unitary,
)


def z_both_spec(dim_b=2, seeds=(0, 1)):
    return ConvexCQSubsetSpec(
        dim_a=2,
        dim_b=dim_b,
        both_entries=(
            BothEntry(basis_ket(2, 0), random_density(dim_b, "hilbert-schmidt", seeds[0])),
            BothEntry(basis_ket(2, 1), random_density(dim_b, "hilbert-schmidt", seeds[1])),
        ),
    )


def fixed_b_spec(dim_a=2, dim_b=2, seed=2):
    """Full A space pinned to one B state: the product-state subset."""
    return ConvexCQSubsetSpec(
        dim_a=dim_a,
        dim_b=dim_b,
        point_entries=(
            PointEntry(np.eye(dim_a, dtype=complex), random_density(dim_b, "hilbert-schmidt", seed)),
        ),
    )


def mixed_spec(seed=3):
    """One BOTH, one FIXED and one rank-2 POINT entry on a 4 (x) 2 system."""
    rng = np.random.default_rng(seed)
    frame = random_unitary(4, rng)
    generators = tuple(random_density(2, "hilbert-schmidt", rng) for _ in range(3))
    block = frame[:, 2:4]
    return ConvexCQSubsetSpec(
        dim_a=4,
        dim_b=2,
        both_entries=(BothEntry(frame[:, 0], random_density(2, "hilbert-schmidt", rng)),),
        fixed_entries=(FixedEntry(frame[:, 1], generators),),
        point_entries=(
            PointEntry(block @ block.conj().T, random_density(2, "hilbert-schmidt", rng)),
        ),
    )


class TestValidateSpec:
    def test_z_both_valid(self):
        assert validate_spec(z_both_spec())

    def test_nan_vector_invalid(self):
        spec = z_both_spec()
        nan_entry = BothEntry(np.array([np.nan, 0.0]), spec.both_entries[0].state)
        spec = ConvexCQSubsetSpec(2, 2, both_entries=(nan_entry, spec.both_entries[1]))
        diag = validate_spec(spec)
        assert not diag
        assert diag.message == "both[0]: vector is not normalised"

    def test_overlapping_point_entries_invalid(self):
        p = np.eye(4, dtype=complex)
        p[3, 3] = 0.0
        q = np.eye(4, dtype=complex)
        q[0, 0] = 0.0
        spec = ConvexCQSubsetSpec(
            dim_a=4,
            dim_b=2,
            point_entries=(
                PointEntry(p, random_density(2, "hilbert-schmidt", 0)),
                PointEntry(q, random_density(2, "hilbert-schmidt", 1)),
            ),
        )
        diag = validate_spec(spec)
        assert not diag
        assert "point[0]" in diag.message and "point[1]" in diag.message

    def test_full_space_point_entry_valid(self):
        assert validate_spec(fixed_b_spec())

    def test_rank_one_point_entry_invalid(self):
        spec = ConvexCQSubsetSpec(
            dim_a=2,
            dim_b=2,
            point_entries=(
                PointEntry(np.diag([1.0, 0.0]).astype(complex), random_density(2, "hilbert-schmidt", 0)),
            ),
        )
        diag = validate_spec(spec)
        assert not diag and "rank" in diag.message

    def test_unnormalised_vector_invalid(self):
        spec = ConvexCQSubsetSpec(
            dim_a=2,
            dim_b=2,
            both_entries=(BothEntry(np.array([2.0, 0.0]), random_density(2, "hilbert-schmidt", 0)),),
        )
        assert not validate_spec(spec)

    def test_subnormalised_coverage_allowed(self):
        spec = ConvexCQSubsetSpec(
            dim_a=3,
            dim_b=2,
            both_entries=(BothEntry(basis_ket(3, 0), random_density(2, "hilbert-schmidt", 0)),),
        )
        assert validate_spec(spec)

    def test_first_overlapping_pair_reported(self):
        spec = ConvexCQSubsetSpec(
            dim_a=3,
            dim_b=2,
            both_entries=tuple(
                BothEntry(basis_ket(3, k), random_density(2, "hilbert-schmidt", k)) for k in (0, 1)
            ),
            point_entries=(PointEntry(np.eye(3), random_density(2, "hilbert-schmidt", 2)),),
        )
        diag = validate_spec(spec)
        assert diag.message == "both[0] and point[0] overlap (norm 1.000e+00)"

    def test_empty_spec_valid_but_holds_no_state(self):
        spec = ConvexCQSubsetSpec(dim_a=2, dim_b=2)
        assert validate_spec(spec)
        assert not membership(spec, BipartiteState(2, 2, DensityOperator.maximally_mixed(4)))


class TestSampleState:
    def test_both_only_is_cq_form(self):
        spec = z_both_spec()
        state = sample_state(spec, 0, weights=[0.5, 0.5])
        expected = 0.5 * np.kron(np.diag([1.0, 0.0]), spec.both_entries[0].state.matrix)
        expected += 0.5 * np.kron(np.diag([0.0, 1.0]), spec.both_entries[1].state.matrix)
        np.testing.assert_allclose(state.matrix, expected, atol=1e-12)

    def test_fixed_b_subset_gives_products(self):
        spec = fixed_b_spec()
        state = sample_state(spec, 7)
        rho_a = np.trace(state.matrix.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        expected = np.kron(rho_a, spec.point_entries[0].state.matrix)
        assert np.linalg.norm(state.matrix - expected) <= 1e-10

    def test_samples_are_cq(self):
        spec = mixed_spec()
        rng = np.random.default_rng(8)
        for _ in range(100):
            assert is_cq_exact(sample_state(spec, rng))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            sample_state(z_both_spec(), 0, weights=[0.9, 0.9])


class TestMembership:
    def test_samples_belong(self):
        spec = mixed_spec()
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert membership(spec, sample_state(spec, rng))

    def test_perturbed_point_state_rejected(self):
        spec = fixed_b_spec(seed=10)
        state = sample_state(spec, 11)
        r = spec.point_entries[0].state.matrix
        bump = np.diag([1e-2, -1e-2])
        perturbed = DensityOperator.from_matrix(r + bump, name="perturbed")
        other = ConvexCQSubsetSpec(
            dim_a=spec.dim_a,
            dim_b=spec.dim_b,
            point_entries=(PointEntry(spec.point_entries[0].projector, perturbed),),
        )
        assert not membership(other, state)

    def test_cross_subspace_coherence_rejected(self):
        spec = z_both_spec(seeds=(12, 13))
        state = sample_state(spec, 14, weights=[0.5, 0.5])
        m = state.matrix.copy()
        sigma = spec.both_entries[0].state.matrix
        m[:2, 2:] += 0.05 * sigma
        m[2:, :2] += 0.05 * sigma.conj().T
        coherent = BipartiteState.from_matrix(m, 2, 2)
        assert not membership(spec, coherent)

    def test_fixed_entry_hull(self):
        gens = (
            DensityOperator.diagonal([1.0, 0.0]),
            DensityOperator.diagonal([0.0, 1.0]),
        )
        spec = ConvexCQSubsetSpec(
            dim_a=2,
            dim_b=2,
            fixed_entries=(FixedEntry(basis_ket(2, 0), gens),),
        )
        inside = BipartiteState.from_matrix(
            np.kron(np.diag([1.0, 0.0]), np.diag([0.4, 0.6])), 2, 2
        )
        outside = BipartiteState.from_matrix(
            np.kron(np.diag([1.0, 0.0]), np.ones((2, 2)) / 2), 2, 2
        )
        assert membership(spec, inside)
        assert not membership(spec, outside)

    def test_wrong_dims_rejected(self):
        assert not membership(z_both_spec(), BipartiteState(2, 3, DensityOperator.maximally_mixed(6)))


class TestConvexity:
    def test_mixtures_stay_members(self):
        spec = mixed_spec(seed=20)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = sample_state(spec, rng)
            y = sample_state(spec, rng)
            w = rng.uniform()
            mixed = BipartiteState.from_matrix(
                w * x.matrix + (1 - w) * y.matrix, spec.dim_a, spec.dim_b
            )
            assert membership(spec, mixed)


class TestMixingClosure:
    def test_valid_spec_closes(self):
        report = mixing_closure_check(mixed_spec(seed=22), n_pairs=200, seed=23)
        assert report.ok
        assert report.n_pairs == 200

    def test_incompatible_specs_break(self):
        rng = np.random.default_rng(24)
        u = random_unitary(2, rng)
        spec_z = z_both_spec(seeds=(25, 26))
        spec_u = ConvexCQSubsetSpec(
            dim_a=2,
            dim_b=2,
            both_entries=(
                BothEntry(u[:, 0], random_density(2, "hilbert-schmidt", 27)),
                BothEntry(u[:, 1], random_density(2, "hilbert-schmidt", 28)),
            ),
        )
        failures = 0
        for k in range(50):
            x = sample_state(spec_z, np.random.default_rng([29, k]))
            y = sample_state(spec_u, np.random.default_rng([30, k]))
            mixed = BipartiteState.from_matrix(0.5 * x.matrix + 0.5 * y.matrix, 2, 2)
            if not is_cq_exact(mixed):
                failures += 1
        assert failures >= 48

    def test_shared_fixed_b_state_always_closes(self):
        r = random_density(2, "hilbert-schmidt", 31)
        spec1 = ConvexCQSubsetSpec(2, 2, point_entries=(PointEntry(np.eye(2, dtype=complex), r),))
        spec2 = ConvexCQSubsetSpec(2, 2, point_entries=(PointEntry(np.eye(2, dtype=complex), r),))
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = sample_state(spec1, rng)
            y = sample_state(spec2, rng)
            mixed = BipartiteState.from_matrix(0.5 * x.matrix + 0.5 * y.matrix, 2, 2)
            assert is_cq_exact(mixed)


def single_entry_pair(rng, relation):
    """Two rank-1 CQ states |psi><psi| (x) sigma with a controlled relation."""
    u = random_unitary(2, rng)
    v1 = u[:, 0]
    sigma1 = random_density(2, "hilbert-schmidt", rng)
    if relation == "generic":
        v2 = random_unitary(2, rng)[:, 0]
        sigma2 = random_density(2, "hilbert-schmidt", rng)
    elif relation == "commuting":
        v2 = u[:, rng.integers(2)]
        sigma2 = random_density(2, "hilbert-schmidt", rng)
    else:  # equal conditionals
        v2 = random_unitary(2, rng)[:, 0]
        sigma2 = sigma1
    return (v1, sigma1), (v2, sigma2)


class TestRankOneMixingDichotomy:
    def test_mixture_cq_iff_commuting_or_equal(self):
        rng = np.random.default_rng(33)
        relations = ["generic", "commuting", "equal"]
        for k in range(150):
            (v1, s1), (v2, s2) = single_entry_pair(rng, relations[k % 3])
            p1 = np.outer(v1, v1.conj())
            p2 = np.outer(v2, v2.conj())
            lhs = (
                np.linalg.norm(p1 @ p2 - p2 @ p1) <= 1e-10
                or np.linalg.norm(s1.matrix - s2.matrix) <= 1e-10
            )
            w = rng.uniform(0.2, 0.8)
            mixed = BipartiteState.from_matrix(
                w * np.kron(p1, s1.matrix) + (1 - w) * np.kron(p2, s2.matrix), 2, 2
            )
            assert bool(is_cq_exact(mixed)) == lhs
