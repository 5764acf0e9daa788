from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import nnls

from discordkit import cqsets
from discordkit.cqsets import (
    ClosureReport,
    ConvexCQSubsetSpec,
    Hull,
    IdentityAction,
    MultiEntry,
    PointTo,
    Rank1Entry,
    membership,
    mixing_closure_check,
    sample_state,
    validate_spec,
)
from discordkit.discord import is_cq_exact
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    as_rng,
    basis_ket,
    random_density,
    random_unitary,
)


def z_both_spec(dim_b=2, seeds=(0, 1)):
    return ConvexCQSubsetSpec(
        dim_a=2,
        dim_b=dim_b,
        entries=(
            Rank1Entry(basis_ket(2, 0), PointTo(random_density(dim_b, "hilbert-schmidt", seeds[0]))),
            Rank1Entry(basis_ket(2, 1), PointTo(random_density(dim_b, "hilbert-schmidt", seeds[1]))),
        ),
    )


def fixed_b_spec(dim_a=2, dim_b=2, seed=2):
    """Full A space pinned to one B state: the product-state subset."""
    return ConvexCQSubsetSpec(
        dim_a=dim_a,
        dim_b=dim_b,
        entries=(
            MultiEntry(
                np.eye(dim_a, dtype=complex), PointTo(random_density(dim_b, "hilbert-schmidt", seed))
            ),
        ),
    )


def mixed_spec(seed=3):
    """A pinned rank-1 entry, a hull rank-1 entry and a pinned rank-2 subspace
    on a 4 (x) 2 system."""
    rng = np.random.default_rng(seed)
    frame = random_unitary(4, rng)
    generators = tuple(random_density(2, "hilbert-schmidt", rng) for _ in range(3))
    block = frame[:, 2:4]
    return ConvexCQSubsetSpec(
        dim_a=4,
        dim_b=2,
        entries=(
            Rank1Entry(frame[:, 0], PointTo(random_density(2, "hilbert-schmidt", rng))),
            Rank1Entry(frame[:, 1], Hull(generators)),
            MultiEntry(block @ block.conj().T, PointTo(random_density(2, "hilbert-schmidt", rng))),
        ),
    )


class TestValidateSpec:
    def test_z_both_valid(self):
        assert validate_spec(z_both_spec())

    def test_nan_vector_invalid(self):
        spec = z_both_spec()
        nan_entry = Rank1Entry(np.array([np.nan, 0.0]), spec.entries[0].action)
        spec = ConvexCQSubsetSpec(2, 2, (nan_entry, spec.entries[1]))
        diag = validate_spec(spec)
        assert not diag
        assert diag.message == "entry 0: vector has zero or non-finite norm nan"

    def test_overlapping_point_entries_invalid(self):
        p = np.eye(4, dtype=complex)
        p[3, 3] = 0.0
        q = np.eye(4, dtype=complex)
        q[0, 0] = 0.0
        spec = ConvexCQSubsetSpec(
            dim_a=4,
            dim_b=2,
            entries=(
                MultiEntry(p, PointTo(random_density(2, "hilbert-schmidt", 0))),
                MultiEntry(q, PointTo(random_density(2, "hilbert-schmidt", 1))),
            ),
        )
        diag = validate_spec(spec)
        assert not diag
        assert diag.message.startswith("entries 0 and 1 overlap (norm ")

    def test_full_space_point_entry_valid(self):
        assert validate_spec(fixed_b_spec())

    def test_rank_one_point_entry_invalid(self):
        spec = ConvexCQSubsetSpec(
            dim_a=2,
            dim_b=2,
            entries=(
                MultiEntry(
                    np.diag([1.0, 0.0]).astype(complex),
                    PointTo(random_density(2, "hilbert-schmidt", 0)),
                ),
            ),
        )
        diag = validate_spec(spec)
        assert not diag and diag.message == "entry 0: subspace has rank 1, below 2"

    def test_free_subspace_invalid(self):
        spec = ConvexCQSubsetSpec(2, 2, (MultiEntry(np.eye(2, dtype=complex), IdentityAction()),))
        diag = validate_spec(spec)
        assert diag.message == "entry 0: a subspace of rank >= 2 must point to a fixed B state"

    def test_empty_hull_invalid(self):
        spec = ConvexCQSubsetSpec(2, 2, (Rank1Entry(basis_ket(2, 0), Hull(())),))
        assert validate_spec(spec).message == "entry 0: hull has no generators"

    def test_pinned_state_of_wrong_dimension_invalid(self):
        # Refused by validation, not left to fail as a numpy broadcast in sample_state.
        entry = Rank1Entry(basis_ket(2, 0), PointTo(random_density(3, "hilbert-schmidt", 0)))
        spec = ConvexCQSubsetSpec(2, 2, (entry,))
        diag = validate_spec(spec)
        assert diag.message == "entry 0: B state has dimension 3, expected 2"
        with pytest.raises(ValueError, match="invalid subset spec: entry 0: B state"):
            sample_state(spec, 0)

    def test_hull_state_of_wrong_dimension_invalid(self):
        gens = (random_density(2, "hilbert-schmidt", 0), random_density(3, "hilbert-schmidt", 1))
        spec = ConvexCQSubsetSpec(
            2,
            2,
            (
                Rank1Entry(basis_ket(2, 0), PointTo(random_density(2, "hilbert-schmidt", 2))),
                Rank1Entry(basis_ket(2, 1), Hull(gens)),
            ),
        )
        diag = validate_spec(spec)
        assert diag.message == "entry 1: B state has dimension 3, expected 2"
        with pytest.raises(ValueError, match="invalid subset spec: entry 1: B state"):
            membership(spec, BipartiteState(2, 2, DensityOperator.maximally_mixed(4)))

    def test_unnormalised_vector_is_normalised_when_used(self):
        # Vectors need only be finite and nonzero, as in annihilating-channel specs.
        sigma = random_density(2, "hilbert-schmidt", 0)
        long, unit = (
            ConvexCQSubsetSpec(2, 2, (Rank1Entry(np.array([scale, 0.0]), PointTo(sigma)),))
            for scale in (2.0, 1.0)
        )
        assert validate_spec(long)
        assert np.array_equal(sample_state(long, 5).matrix, sample_state(unit, 5).matrix)
        inside = sample_state(unit, 6)
        outside = BipartiteState(2, 2, DensityOperator.maximally_mixed(4))
        for state in (inside, outside):
            assert membership(long, state) == membership(unit, state)
        assert membership(long, inside) and not membership(long, outside)

    def test_subnormalised_coverage_allowed(self):
        spec = ConvexCQSubsetSpec(
            dim_a=3,
            dim_b=2,
            entries=(Rank1Entry(basis_ket(3, 0), PointTo(random_density(2, "hilbert-schmidt", 0))),),
        )
        assert validate_spec(spec)

    def test_first_overlapping_pair_reported(self):
        spec = ConvexCQSubsetSpec(
            dim_a=3,
            dim_b=2,
            entries=tuple(
                Rank1Entry(basis_ket(3, k), PointTo(random_density(2, "hilbert-schmidt", k)))
                for k in (0, 1)
            )
            + (MultiEntry(np.eye(3), PointTo(random_density(2, "hilbert-schmidt", 2))),),
        )
        diag = validate_spec(spec)
        assert diag.message == "entries 0 and 2 overlap (norm 1.000e+00)"

    def test_empty_spec_valid_but_holds_no_state(self):
        spec = ConvexCQSubsetSpec(dim_a=2, dim_b=2)
        assert validate_spec(spec)
        assert not membership(spec, BipartiteState(2, 2, DensityOperator.maximally_mixed(4)))


class TestSampleState:
    def test_both_only_is_cq_form(self):
        spec = z_both_spec()
        state = sample_state(spec, 0, weights=[0.5, 0.5])
        expected = 0.5 * np.kron(np.diag([1.0, 0.0]), spec.entries[0].action.state.matrix)
        expected += 0.5 * np.kron(np.diag([0.0, 1.0]), spec.entries[1].action.state.matrix)
        np.testing.assert_allclose(state.matrix, expected, atol=1e-12)

    def test_fixed_b_subset_gives_products(self):
        spec = fixed_b_spec()
        state = sample_state(spec, 7)
        rho_a = np.trace(state.matrix.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        expected = np.kron(rho_a, spec.entries[0].action.state.matrix)
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
        r = spec.entries[0].action.state.matrix
        bump = np.diag([1e-2, -1e-2])
        perturbed = DensityOperator.from_matrix(r + bump, name="perturbed")
        other = ConvexCQSubsetSpec(
            dim_a=spec.dim_a,
            dim_b=spec.dim_b,
            entries=(MultiEntry(spec.entries[0].projector, PointTo(perturbed)),),
        )
        assert not membership(other, state)

    def test_cross_subspace_coherence_rejected(self):
        spec = z_both_spec(seeds=(12, 13))
        state = sample_state(spec, 14, weights=[0.5, 0.5])
        m = state.matrix.copy()
        sigma = spec.entries[0].action.state.matrix
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
            entries=(Rank1Entry(basis_ket(2, 0), Hull(gens)),),
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


def closure_check_loop(spec, n_pairs, seed):
    """The closure check through the public ``sample_state`` and ``membership``,
    which check the spec again on every call."""
    rng = as_rng(seed)
    failures, worst = [], 0.0
    for k in range(n_pairs):
        x, y = sample_state(spec, rng), sample_state(spec, rng)
        w = rng.uniform()
        mixed = BipartiteState.from_matrix(
            w * x.matrix + (1.0 - w) * y.matrix, spec.dim_a, spec.dim_b
        )
        check = is_cq_exact(mixed)
        worst = max(worst, check.residual)
        if not check or not membership(spec, mixed):
            failures.append(k)
    return ClosureReport(n_pairs=n_pairs, failures=tuple(failures), worst_residual=worst)


class TestMixingClosure:
    def test_valid_spec_closes(self):
        report = mixing_closure_check(mixed_spec(seed=22), n_pairs=200, seed=23)
        assert report.ok
        assert report.n_pairs == 200
        assert report == closure_check_loop(mixed_spec(seed=22), n_pairs=200, seed=23)

    def test_spec_checked_once_per_call(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return subset_projectors(spec)

        subset_projectors = cqsets._subset_projectors
        monkeypatch.setattr(cqsets, "_subset_projectors", counted)
        mixing_closure_check(mixed_spec(seed=22), n_pairs=20, seed=23)
        assert len(calls) == 1

    def test_incompatible_specs_break(self):
        rng = np.random.default_rng(24)
        u = random_unitary(2, rng)
        spec_z = z_both_spec(seeds=(25, 26))
        spec_u = ConvexCQSubsetSpec(
            dim_a=2,
            dim_b=2,
            entries=(
                Rank1Entry(u[:, 0], PointTo(random_density(2, "hilbert-schmidt", 27))),
                Rank1Entry(u[:, 1], PointTo(random_density(2, "hilbert-schmidt", 28))),
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
        spec1 = ConvexCQSubsetSpec(2, 2, (MultiEntry(np.eye(2, dtype=complex), PointTo(r)),))
        spec2 = ConvexCQSubsetSpec(2, 2, (MultiEntry(np.eye(2, dtype=complex), PointTo(r)),))
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


# -- the grouped subset model, kept as a reference --------------------------------
#
# Before the entry model, a subset spec held three groups: BOTH (a vector with a
# pinned B state), FIXED (a vector with a free or hull B conditional) and POINT
# (a projector of rank >= 2 with a pinned B state), in that order.  The three
# functions below are that model's validate_spec, sample_state and membership.


@dataclass(frozen=True, eq=False)
class GroupedSpec:
    dim_a: int
    dim_b: int
    both: tuple = ()  # (vector, DensityOperator) pairs
    fixed: tuple = ()  # (vector, generators or None) pairs
    point: tuple = ()  # (projector, DensityOperator) pairs

    def projectors(self):
        projs = []
        for vector, _ in self.both + self.fixed:
            v = vector / np.linalg.norm(vector)
            projs.append(np.outer(v, v.conj()))
        projs += [p for p, _ in self.point]
        return np.array(projs, dtype=complex).reshape(-1, self.dim_a, self.dim_a)

    def as_entries(self) -> ConvexCQSubsetSpec:
        both = [Rank1Entry(v, PointTo(s)) for v, s in self.both]
        fixed = [Rank1Entry(v, IdentityAction() if g is None else Hull(g)) for v, g in self.fixed]
        point = [MultiEntry(p, PointTo(s)) for p, s in self.point]
        return ConvexCQSubsetSpec(self.dim_a, self.dim_b, tuple(both + fixed + point))


def grouped_validate(spec: GroupedSpec) -> bool:
    for vector, _ in spec.both + spec.fixed:
        v = np.asarray(vector).reshape(-1)
        if v.size != spec.dim_a or not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
            return False
    for p, _ in spec.point:
        p = np.asarray(p)
        if p.shape != (spec.dim_a, spec.dim_a):
            return False
        if not (np.linalg.norm(p @ p - p) <= 1e-10 and np.linalg.norm(p - p.conj().T) <= 1e-10):
            return False
        if int(round(np.trace(p).real)) < 2:
            return False
    if any(g is not None and len(g) == 0 for _, g in spec.fixed):
        return False
    projs = spec.projectors()
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            if not np.linalg.norm(projs[i] @ projs[j]) <= 1e-10:
                return False
    return not len(projs) or np.linalg.eigvalsh(projs.sum(axis=0))[-1] <= 1.0 + 1e-10


def grouped_sample(spec: GroupedSpec, rng) -> np.ndarray:
    t = rng.dirichlet(np.ones(len(spec.both) + len(spec.fixed) + len(spec.point)))
    m = np.zeros((spec.dim_a * spec.dim_b,) * 2, dtype=complex)
    idx = 0
    for vector, state in spec.both:
        v = vector / np.linalg.norm(vector)
        m += t[idx] * np.kron(np.outer(v, v.conj()), state.matrix)
        idx += 1
    for vector, generators in spec.fixed:
        v = vector / np.linalg.norm(vector)
        if generators is None:
            sigma = random_density(spec.dim_b, "hilbert-schmidt", rng).matrix
        else:
            coeffs = rng.dirichlet(np.ones(len(generators)))
            sigma = sum(c * g.matrix for c, g in zip(coeffs, generators))
        m += t[idx] * np.kron(np.outer(v, v.conj()), sigma)
        idx += 1
    for projector, state in spec.point:
        eigvals, eigvecs = np.linalg.eigh(projector)
        iso = eigvecs[:, eigvals > 0.5]
        sub = random_density(iso.shape[1], "hilbert-schmidt", rng).matrix
        m += t[idx] * np.kron(iso @ sub @ iso.conj().T, state.matrix)
        idx += 1
    return BipartiteState.from_matrix(m, spec.dim_a, spec.dim_b).matrix


def grouped_membership(spec: GroupedSpec, m: np.ndarray) -> bool:
    db = spec.dim_b
    big = np.kron(spec.projectors(), np.eye(db, dtype=complex))
    whole = big.sum(axis=0)
    if np.linalg.norm(m - whole @ m @ whole) > 1e-8:
        return False
    for i in range(len(big)):
        for j in range(i + 1, len(big)):
            if np.linalg.norm(big[i] @ m @ big[j]) > 1e-8:
                return False
    r4 = m.reshape(spec.dim_a, db, spec.dim_a, db)

    def conditional(vector):
        v = vector / np.linalg.norm(vector)
        block = np.einsum("a,abcd,c->bd", v.conj(), r4, v)
        weight = float(np.trace(block).real)
        return block / weight if weight > 1e-14 else None

    for vector, state in spec.both:
        sigma = conditional(vector)
        if sigma is not None and np.linalg.norm(sigma - state.matrix) > 1e-8:
            return False
    for vector, generators in spec.fixed:
        sigma = conditional(vector)
        if sigma is None:
            continue
        if generators is None:
            try:
                DensityOperator.from_matrix(sigma, name="conditional")
            except ValueError:
                return False
        else:
            cols = [np.concatenate([g.matrix.real.ravel(), g.matrix.imag.ravel()]) for g in generators]
            target = np.concatenate([sigma.real.ravel(), sigma.imag.ravel()])
            if nnls(np.column_stack(cols), target)[1] > 1e-8:
                return False
    for projector, state in spec.point:
        eigvals, eigvecs = np.linalg.eigh(projector)
        iso = eigvecs[:, eigvals > 0.5]
        r = iso.shape[1]
        block = np.einsum("ae,abcd,cf->ebfd", iso.conj(), r4, iso).reshape(r * db, r * db)
        if float(np.trace(block).real) > 1e-14:
            rho_a = np.trace(block.reshape(r, db, r, db), axis1=1, axis2=3)
            if np.linalg.norm(block - np.kron(rho_a, state.matrix)) > 1e-8:
                return False
    return True


def random_grouped_spec(rng) -> GroupedSpec:
    """A Haar frame on A cut into blocks; rank-1 blocks pinned, free or hull."""
    dim_a, dim_b = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    frame = random_unitary(dim_a, rng)
    both, fixed, point = [], [], []
    col = int(rng.integers(0, 2))  # sometimes leave the first direction uncovered
    while col < dim_a:
        size = 1 if col == dim_a - 1 else int(rng.choice([1, 1, 2, dim_a - col]))
        block = frame[:, col : col + size]
        col += size
        kind = rng.uniform()
        if size > 1:
            point.append((block @ block.conj().T, random_density(dim_b, "hilbert-schmidt", rng)))
        elif kind < 1 / 3:
            both.append((block[:, 0], random_density(dim_b, "hilbert-schmidt", rng)))
        elif kind < 2 / 3:
            fixed.append((block[:, 0], None))
        else:
            gens = tuple(random_density(dim_b, "hilbert-schmidt", rng) for _ in range(3))
            fixed.append((block[:, 0], gens))
    return GroupedSpec(dim_a, dim_b, tuple(both), tuple(fixed), tuple(point))


class TestGroupedModelGate:
    """On 200 seeded specs in the grouped order, the entry model samples the same
    bits and gives the same verdicts as the grouped model it replaced."""

    def test_samples_and_verdicts_match_the_grouped_model(self):
        kinds = {"both": 0, "free": 0, "hull": 0, "point": 0}
        for k in range(200):
            rng = np.random.default_rng([88, k])
            grouped = random_grouped_spec(rng)
            spec = grouped.as_entries()
            kinds["both"] += len(grouped.both)
            kinds["point"] += len(grouped.point)
            for _, gens in grouped.fixed:
                kinds["free" if gens is None else "hull"] += 1
            assert grouped_validate(grouped) and validate_spec(spec), k
            expected = grouped_sample(grouped, np.random.default_rng([89, k]))
            sample = sample_state(spec, np.random.default_rng([89, k]))
            assert np.array_equal(sample.matrix, expected), k
            # A member, a mixture with a foreign state, and a dephased foreign state.
            foreign = random_density(spec.dim_a * spec.dim_b, "hilbert-schmidt", rng).matrix
            dephased = sum(np.kron(p, np.eye(spec.dim_b)) @ foreign @ np.kron(p, np.eye(spec.dim_b))
                           for p in grouped.projectors())
            candidates = [expected, 0.9 * expected + 0.1 * foreign]
            if np.trace(dephased).real > 1e-6:
                candidates.append(dephased / np.trace(dephased).real)
            for m in candidates:
                state = BipartiteState.from_matrix(m, spec.dim_a, spec.dim_b)
                assert membership(spec, state) == grouped_membership(grouped, state.matrix), k
            broken = GroupedSpec(
                grouped.dim_a, grouped.dim_b, grouped.both * 2, grouped.fixed * 2, grouped.point * 2
            )
            assert not grouped_validate(broken) and not validate_spec(broken.as_entries()), k
        assert min(kinds.values()) >= 50, kinds
