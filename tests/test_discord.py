import importlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from discordkit.discord import (
    CQCheck,
    DecompositionError,
    Grid,
    Hybrid,
    MultiStart,
    ProjectiveMeasurement,
    _REFINE_TOP,
    _bloch_directions,
    _grid_angles,
    _holevo_like_value,
    _qubit_correlation_ops,
    _b_blocks,
    _qubit_scores,
    classical_correlation,
    cq_decompose,
    discord,
    is_cq_exact,
    measure_and_condition,
    mutual_information,
)
from discordkit.states import (
    PAULIS,
    BipartiteState,
    DensityOperator,
    bell_state,
    max_entangled,
    partial_trace,
    product_state,
    random_bipartite,
    random_density,
    random_unitary,
    von_neumann_entropy,
)
from discordkit.tolerances import REFINE_MARGIN


discord_module = importlib.import_module("discordkit.discord")
MULTISTART_REFERENCE = Path(__file__).with_name("multistart_reference.json")


def classically_correlated():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    return BipartiteState.from_matrix(m, 2, 2)


def cq_state(seed, dim_a=2, dim_b=2):
    """Random state of the classical-quantum form, built directly."""
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim_a, rng)
    probs = rng.dirichlet(np.ones(dim_a))
    m = np.zeros((dim_a * dim_b,) * 2, dtype=complex)
    for k in range(dim_a):
        proj = np.outer(basis[:, k], basis[:, k].conj())
        cond = random_density(dim_b, "hilbert-schmidt", rng).matrix
        m += probs[k] * np.kron(proj, cond)
    return BipartiteState.from_matrix(m, dim_a, dim_b)


def equal_weight_cq(dim_a, dim_b, seed):
    """sum_k |psi_k><psi_k| (x) sigma_k / dim_a in a Haar basis: rho_A is I / dim_a,
    so its eigenbasis says nothing about the optimal measurement."""
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim_a, rng)
    m = np.zeros((dim_a * dim_b,) * 2, dtype=complex)
    for k in range(dim_a):
        proj = np.outer(basis[:, k], basis[:, k].conj())
        m += np.kron(proj, random_density(dim_b, "hilbert-schmidt", rng).matrix) / dim_a
    return BipartiteState.from_matrix(m, dim_a, dim_b)


def is_cq_exact_loop(rho, tol=1e-9):
    """The block-pair loop that ``is_cq_exact`` replaced: every normality
    defect and commutator one at a time, a strictly larger one replacing
    the worst so far."""
    blocks = _b_blocks(rho)
    db = rho.dim_b
    scale = float(np.linalg.norm(rho.matrix))
    worst = None
    worst_val = 0.0
    labels = [(i, j) for i in range(db) for j in range(db)]
    flat = [blocks[i, j] for i, j in labels]
    for x, (i, j) in enumerate(labels):
        a_ij = flat[x]
        defect = float(np.linalg.norm(a_ij @ a_ij.conj().T - a_ij.conj().T @ a_ij))
        if defect > worst_val:
            worst_val = defect
            worst = ("normality", (i, j))
        for y in range(x + 1, len(labels)):
            a_kl = flat[y]
            comm = float(np.linalg.norm(a_ij @ a_kl - a_kl @ a_ij))
            if comm > worst_val:
                worst_val = comm
                worst = ("commutator", (i, j), labels[y])
    residual = worst_val / max(scale, 1e-300)
    return CQCheck(is_cq=residual <= tol, residual=residual, worst=worst, tol=tol)


def cq_test_corpus():
    """900 seeded states over every dA, dB in 1..4: Hilbert-Schmidt draws,
    exact CQ states, products, the maximally mixed state (no defect at all)
    and maximally entangled states (many tied block pairs)."""
    states = [bell_state(k) for k in range(4)]
    for dim_a in range(1, 5):
        for dim_b in range(1, 5):
            d = dim_a * dim_b
            seed = 100 * dim_a + 10 * dim_b
            states += [random_bipartite(dim_a, dim_b, [seed, k]) for k in range(48)]
            states += [cq_state([seed, k], dim_a, dim_b) for k in range(4)]
            states += [
                product_state(
                    random_density(dim_a, "hilbert-schmidt", [seed, 50 + k]),
                    random_density(dim_b, "hilbert-schmidt", [seed, 60 + k]),
                )
                for k in range(2)
            ]
            states.append(BipartiteState(dim_a, dim_b, DensityOperator.maximally_mixed(d)))
            states.append(max_entangled(dim_a, dim_b))
    return states


def dense_grid_oracle(rho, n_theta=128, n_phi=256):
    """Independent exhaustive evaluation of the classical correlation.

    Builds the projectors explicitly per angle and conditions through
    tensordot; shares no code with the library's optimiser path.
    """
    thetas = np.linspace(0.0, np.pi, n_theta + 1)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    r4 = rho.matrix.reshape(2, rho.dim_b, 2, rho.dim_b)
    s_b = _entropy_oracle(np.trace(r4, axis1=0, axis2=2))
    best = -np.inf
    for theta in thetas:
        for phi in phis:
            v0 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            v1 = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
            avg = 0.0
            for v in (v0, v1):
                block = np.einsum("a,abcd,c->bd", v.conj(), r4, v)
                p = np.trace(block).real
                if p > 1e-12:
                    avg += p * _entropy_oracle(block / p)
            best = max(best, s_b - avg)
    return best


def _entropy_oracle(m):
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def nelder_mead_reference(rho, strategy=Hybrid()):
    """Hybrid's former refinement: the same grid and top starts, each
    refined alone by scipy's Nelder-Mead on (theta, phi)."""
    t0, ts = _qubit_correlation_ops(rho)
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    angles = _grid_angles(strategy.n_theta, strategy.n_phi)
    scores = _qubit_scores(t0, ts, s_b, _bloch_directions(angles))
    best_idx = int(np.argmax(scores))
    best_val, best_angles = float(scores[best_idx]), angles[best_idx]

    def negative(x):
        return -float(_qubit_scores(t0, ts, s_b, _bloch_directions(x[None, :]))[0])

    for start in angles[np.argsort(scores)[::-1][:_REFINE_TOP]]:
        res = minimize(
            negative,
            x0=start,
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-12, "maxiter": 250},
        )
        if -res.fun > best_val + REFINE_MARGIN:
            best_val, best_angles = -float(res.fun), res.x
    return _holevo_like_value(rho, ProjectiveMeasurement.from_bloch(*best_angles))


# Bell-diagonal correlation vectors c lie in the tetrahedron spanned by the
# four Bell states.
BELL_TETRAHEDRON = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)


def bell_diagonal(c):
    """(I + sum_i c_i sigma_i (x) sigma_i) / 4."""
    m = np.eye(4, dtype=complex)
    for ci, s in zip(c, PAULIS):
        m = m + ci * np.kron(s, s)
    return BipartiteState.from_matrix(m / 4.0, 2, 2)


def binary_entropy(p):
    return float(-sum(x * np.log2(x) for x in (p, 1.0 - p) if x > 0))


class TestMutualInformation:
    def test_product_state(self):
        rho = product_state(
            random_density(2, "hilbert-schmidt", 0), random_density(2, "hilbert-schmidt", 1)
        )
        assert abs(mutual_information(rho)) <= 1e-9

    def test_bell(self):
        assert mutual_information(bell_state(0)) == pytest.approx(2.0, abs=1e-12)

    def test_classically_correlated(self):
        assert mutual_information(classically_correlated()) == pytest.approx(1.0, abs=1e-12)


class TestProjectiveMeasurement:
    def test_from_unitary_accepted(self):
        meas = ProjectiveMeasurement.from_unitary(random_unitary(4, 3))
        assert len(meas.projectors) == 4

    @pytest.mark.parametrize(
        "vectors, pair",
        [
            ([[1, 0, 0], [1, 1, 0], [0, 0, 1]], "0 and 1"),
            ([[1, 0, 0], [0, 1, 0], [0, 1, 1]], "1 and 2"),
            ([[1, 0, 1], [0, 1, 0], [1, 0, 0]], "0 and 2"),
        ],
    )
    def test_first_non_orthogonal_pair_reported(self, vectors, pair):
        with pytest.raises(ValueError, match=f"projectors {pair} are not orthogonal"):
            ProjectiveMeasurement.from_vectors(vectors)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="do not resolve the identity"):
            ProjectiveMeasurement.from_vectors([[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("bad", [[0, 0], [np.nan, 1]], ids=["zero", "nan"])
    def test_zero_or_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="vector 1 has zero or non-finite norm"):
            ProjectiveMeasurement.from_vectors([[1, 0], bad])

    def test_nan_projectors_fail_the_check(self):
        nan = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="projectors 0 and 0 are not orthogonal"):
            ProjectiveMeasurement(dim=2, projectors=(nan, np.eye(2) - nan))._check()


class TestMeasureAndCondition:
    def test_product_state_conditionals(self):
        sigma = random_density(2, "hilbert-schmidt", 2)
        rho = product_state(random_density(2, "hilbert-schmidt", 3), sigma)
        meas = ProjectiveMeasurement.from_bloch(0.7, 1.2)
        for _, cond in measure_and_condition(rho, meas):
            assert np.linalg.norm(cond.matrix - sigma.matrix) <= 1e-10

    def test_bell_in_z(self):
        meas = ProjectiveMeasurement.from_bloch(0.0, 0.0)
        outcomes = measure_and_condition(bell_state(0), meas)
        assert len(outcomes) == 2
        for p, cond in outcomes:
            assert p == pytest.approx(0.5, abs=1e-12)
            assert cond.purity() == pytest.approx(1.0, abs=1e-10)

    def test_no_signalling(self):
        rho = random_bipartite(2, 3, 4)
        meas = ProjectiveMeasurement.from_bloch(1.1, 0.3)
        total = sum(p * cond.matrix for p, cond in measure_and_condition(rho, meas))
        assert np.linalg.norm(total - partial_trace(rho, "B").matrix) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            measure_and_condition(random_bipartite(3, 2, 0), ProjectiveMeasurement.from_bloch(0, 0))


class TestClassicalCorrelation:
    def test_product_state_zero(self):
        rho = product_state(
            random_density(2, "hilbert-schmidt", 5), random_density(2, "hilbert-schmidt", 6)
        )
        j, _ = classical_correlation(rho, Hybrid())
        assert abs(j) <= 1e-9

    def test_bell_against_dense_grid(self):
        j, _ = classical_correlation(bell_state(0), Hybrid())
        assert j == pytest.approx(1.0, abs=1e-3)
        assert j == pytest.approx(dense_grid_oracle(bell_state(0)), abs=1e-3)

    def test_z_correlated_measurement_direction(self):
        _, meas = classical_correlation(classically_correlated(), Hybrid())
        assert abs(meas.bloch_vector()[2]) >= 1.0 - 1e-3

    def test_grid_requires_qubit(self):
        with pytest.raises(ValueError, match="dim_a"):
            classical_correlation(random_bipartite(3, 2, 7), Grid())

    def test_grid_refinement_monotone(self):
        rho = random_bipartite(2, 2, 8)
        coarse, _ = classical_correlation(rho, Grid(8, 8))
        fine, _ = classical_correlation(rho, Grid(16, 16))
        assert fine >= coarse - 1e-12

    def test_multistart_matches_hybrid_on_qubit(self):
        rho = random_bipartite(2, 2, 9)
        j_hybrid, _ = classical_correlation(rho, Hybrid())
        j_multi, _ = classical_correlation(rho, MultiStart(restarts=8), seed=1)
        assert j_multi == pytest.approx(j_hybrid, abs=2e-3)

    @pytest.mark.parametrize("dim_b", [2, 3, 4])
    def test_multistart_reaches_hybrid_optimum_on_qubit(self, dim_b):
        for seed in range(20):
            rho = random_bipartite(2, dim_b, 50 + 10 * dim_b + seed)
            j_hybrid, _ = classical_correlation(rho, Hybrid())
            j_multi, _ = classical_correlation(rho, MultiStart(restarts=2), seed=seed)
            assert abs(j_multi - j_hybrid) <= 1e-10, seed


class TestDiscord:
    def test_product_state(self):
        rho = product_state(
            random_density(2, "hilbert-schmidt", 10), random_density(2, "hilbert-schmidt", 11)
        )
        assert abs(discord(rho).value) <= 1e-6

    def test_bell(self):
        assert discord(bell_state(0)).value == pytest.approx(1.0, abs=1e-3)

    def test_cq_states_near_zero(self):
        for seed in range(5):
            rho = cq_state(seed)
            assert discord(rho).value <= 5e-3

    def test_identity_decomposition(self):
        result = discord(random_bipartite(2, 2, 12))
        assert result.value == pytest.approx(
            result.mutual_information - result.classical_correlation, abs=1e-12
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        rho = random_bipartite(2, 2, seed)
        assert discord(rho).value >= -1e-9

    def test_local_unitary_covariance(self):
        rho = random_bipartite(2, 2, 13)
        rng = np.random.default_rng(14)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = BipartiteState.from_matrix(u @ rho.matrix @ u.conj().T, 2, 2)
        assert discord(rotated).value == pytest.approx(discord(rho).value, abs=2e-3)
        assert bool(is_cq_exact(rotated)) == bool(is_cq_exact(rho))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_hybrid_invariant_under_local_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        rho = BipartiteState(2, 2, random_density(4, "hilbert-schmidt", rng))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = BipartiteState.from_matrix(u @ rho.matrix @ u.conj().T, 2, 2)
        assert abs(discord(rotated, Hybrid()).value - discord(rho, Hybrid()).value) <= 1e-9

    def test_multistart_on_qutrit_a(self):
        rho = product_state(
            random_density(3, "hilbert-schmidt", 15), random_density(2, "hilbert-schmidt", 16)
        )
        result = discord(rho, MultiStart(restarts=5), seed=0)
        assert result.value <= 1e-6

    def test_cq_state_on_qutrit_a(self):
        rho = cq_state(17, dim_a=3, dim_b=2)
        result = discord(rho, MultiStart(restarts=8), seed=0)
        assert result.value <= 5e-3


class TestUnitaryScores:
    @pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_match_one_measurement_at_a_time(self, dims):
        """The batched score of each basis equals _holevo_like_value there,
        also when outcomes have zero probability (identity frame on |0><0|)."""
        dim_a, dim_b = dims
        rng = np.random.default_rng(90 + dim_a)
        sigma = random_density(dim_b, "hilbert-schmidt", rng)
        pinned = DensityOperator.diagonal([1.0] + [0.0] * (dim_a - 1))
        us = np.stack([np.eye(dim_a)] + [random_unitary(dim_a, rng) for _ in range(8)])
        for rho in (random_bipartite(dim_a, dim_b, rng), product_state(pinned, sigma)):
            r4 = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
            s_b = von_neumann_entropy(partial_trace(rho, "B"))
            scores = discord_module._unitary_scores(r4, s_b, us.astype(complex))
            expected = [_holevo_like_value(rho, ProjectiveMeasurement.from_unitary(u)) for u in us]
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)


class TestMultiStartClosedForm:
    @pytest.mark.parametrize("dims", [(3, 2), (3, 3), (4, 2)], ids=["3x2", "3x3", "4x2"])
    def test_equal_weight_cq_states(self, dims):
        """A CQ state has zero discord, so D = I - J is the optimiser's shortfall."""
        dim_a, dim_b = dims
        for seed in range(6):
            rho = equal_weight_cq(dim_a, dim_b, 100 * dim_a + 10 * dim_b + seed)
            assert discord(rho, MultiStart(restarts=2)).value <= 1e-12, seed


class TestMultiStartAgainstNelderMead:
    @pytest.mark.parametrize("dims", ["3x2", "3x3", "4x2"])
    def test_never_below_reference(self, dims):
        """J is a certified lower bound, so it must not fall below what the
        former per-restart Nelder-Mead reached (tests/make_multistart_reference.py)."""
        table = json.loads(MULTISTART_REFERENCE.read_text())
        rows = [row for row in table["states"] if row["dims"] == dims]
        assert len(rows) == 8
        dim_a, dim_b = map(int, dims.split("x"))
        for row in rows:
            rho = random_bipartite(dim_a, dim_b, row["state_seed"])
            j, _ = classical_correlation(
                rho, MultiStart(restarts=table["restarts"]), seed=table["seed"]
            )
            assert j >= row["j"] - 1e-12, row["state_seed"]


class TestOptimizerTrace:
    @staticmethod
    def count_points(monkeypatch):
        """Count every point the optimiser scores."""
        scored = []
        qubit, unitary = discord_module._qubit_scores, discord_module._unitary_scores

        def count_qubit(t0, ts, s_b, directions):
            scored.append(len(directions))
            return qubit(t0, ts, s_b, directions)

        def count_unitary(r4, s_b, us):
            scored.append(len(us))
            return unitary(r4, s_b, us)

        monkeypatch.setattr(discord_module, "_qubit_scores", count_qubit)
        monkeypatch.setattr(discord_module, "_unitary_scores", count_unitary)
        return scored

    CASES = [
        (2, 3, Grid()),
        (2, 3, Hybrid()),
        (2, 2, MultiStart(restarts=3)),
        (3, 3, MultiStart(restarts=2)),
        (4, 2, MultiStart(restarts=0)),
    ]
    IDS = ["grid-2x3", "hybrid-2x3", "multistart-2x2", "multistart-3x3", "multistart0-4x2"]

    @pytest.mark.parametrize("dim_a, dim_b, strategy", CASES, ids=IDS)
    def test_n_evals_counts_points_scored(self, monkeypatch, dim_a, dim_b, strategy):
        scored = self.count_points(monkeypatch)
        trace = discord(random_bipartite(dim_a, dim_b, 77), strategy).trace
        assert trace.converged
        assert trace.n_evals == sum(scored)
        if isinstance(strategy, Grid):
            assert trace.n_evals == len(_grid_angles(strategy.n_theta, strategy.n_phi))

    @pytest.mark.parametrize("dim_a, dim_b, strategy", CASES[1:], ids=IDS[1:])
    def test_not_converged_only_at_round_cap(self, monkeypatch, dim_a, dim_b, strategy):
        rho = random_bipartite(dim_a, dim_b, 78)
        scored = self.count_points(monkeypatch)
        assert discord(rho, strategy).trace.converged
        rounds = len(scored) - 1  # the first call scores the grid or the frames
        assert rounds < discord_module.PATTERN_MAX_ROUNDS
        monkeypatch.setattr(discord_module, "PATTERN_MAX_ROUNDS", rounds)
        assert discord(rho, strategy).trace.converged
        monkeypatch.setattr(discord_module, "PATTERN_MAX_ROUNDS", rounds - 1)
        assert not discord(rho, strategy).trace.converged

    def test_one_dimensional_a_has_nothing_to_search(self):
        rho = BipartiteState(1, 2, random_density(2, "hilbert-schmidt", 79))
        result = discord(rho, MultiStart(restarts=2))
        assert result.trace.converged
        assert result.trace.n_evals == 3
        assert abs(result.classical_correlation) <= 1e-12


class TestIsCQExact:
    def test_cq_form_accepted(self):
        for seed in range(5):
            assert is_cq_exact(cq_state(seed))

    def test_bell_rejected_with_witness(self):
        check = is_cq_exact(bell_state(0))
        assert not check
        assert check.worst is not None
        assert check.residual > 1e-2

    def test_mixture_of_incompatible_cq_states(self):
        conds = [random_density(2, "hilbert-schmidt", 40 + k).matrix for k in range(4)]
        z_cq = 0.5 * np.kron(np.diag([1.0, 0.0]), conds[0]) + 0.5 * np.kron(
            np.diag([0.0, 1.0]), conds[1]
        )
        plus = np.ones((2, 2)) / 2
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        x_cq = 0.5 * np.kron(plus, conds[2]) + 0.5 * np.kron(minus, conds[3])
        mixed = BipartiteState.from_matrix(0.5 * z_cq + 0.5 * x_cq, 2, 2)
        assert not is_cq_exact(mixed)

    def test_trivial_b(self):
        rho = BipartiteState(2, 1, random_density(2, "hilbert-schmidt", 21))
        assert is_cq_exact(rho)

    def test_bitwise_equal_to_the_pair_loop(self):
        corpus = cq_test_corpus()
        assert len(corpus) == 900
        none_worst = 0
        for rho in corpus:
            got, want = is_cq_exact(rho), is_cq_exact_loop(rho)
            assert got.residual == want.residual
            assert got.worst == want.worst
            assert got.is_cq == want.is_cq
            none_worst += want.worst is None
        assert none_worst >= 16

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)])
    def test_first_pair_wins_ties(self, dims):
        rho = max_entangled(*dims)
        blocks = _b_blocks(rho).reshape(-1, dims[0], dims[0])
        pairs = [(a, a.conj().T) for a in blocks]
        pairs += list(itertools.combinations(blocks, 2))
        values = [float(np.linalg.norm(a @ b - b @ a)) for a, b in pairs]
        assert values.count(max(values)) >= 2
        assert is_cq_exact(rho).worst == is_cq_exact_loop(rho).worst

    def test_exactly_cq_state_has_no_worst_pair(self):
        rho = BipartiteState(3, 3, DensityOperator.maximally_mixed(9))
        check = is_cq_exact(rho)
        assert check.is_cq and check.residual == 0.0 and check.worst is None


class TestCQDecompose:
    def test_z_basis_recovery(self):
        sigma1 = random_density(2, "hilbert-schmidt", 30)
        sigma2 = random_density(2, "hilbert-schmidt", 31)
        m = 0.5 * np.kron(np.diag([1.0, 0.0]), sigma1.matrix) + 0.5 * np.kron(
            np.diag([0.0, 1.0]), sigma2.matrix
        )
        rho = BipartiteState.from_matrix(m, 2, 2)
        decomp = cq_decompose(rho)
        np.testing.assert_allclose(sorted(decomp.probs), [0.5, 0.5], atol=1e-10)
        overlap = np.abs(decomp.basis.conj().T @ np.eye(2)) ** 2
        assert np.allclose(np.sort(overlap.ravel()), [0, 0, 1, 1], atol=1e-10)
        assert (
            np.linalg.norm(decomp.reconstruct().matrix - rho.matrix) <= 1e-8
        )

    def test_rotated_basis_recovery(self):
        rng = np.random.default_rng(32)
        u = random_unitary(2, rng)
        sigma1 = random_density(2, "hilbert-schmidt", rng)
        sigma2 = random_density(2, "hilbert-schmidt", rng)
        m = 0.6 * np.kron(np.outer(u[:, 0], u[:, 0].conj()), sigma1.matrix) + 0.4 * np.kron(
            np.outer(u[:, 1], u[:, 1].conj()), sigma2.matrix
        )
        rho = BipartiteState.from_matrix(m, 2, 2)
        decomp = cq_decompose(rho)
        overlaps = np.abs(decomp.basis.conj().T @ u) ** 2
        assert np.max(overlaps, axis=0).min() >= 1.0 - 1e-8

    def test_product_with_nondegenerate_marginal(self):
        rho_a = DensityOperator.diagonal([0.8, 0.2])
        rho = product_state(rho_a, random_density(2, "hilbert-schmidt", 33))
        decomp = cq_decompose(rho)
        overlap = np.abs(decomp.basis.conj().T @ np.eye(2)) ** 2
        assert np.allclose(np.sort(overlap.ravel()), [0, 0, 1, 1], atol=1e-8)

    def test_rejects_non_cq(self):
        with pytest.raises(DecompositionError, match="not classical-quantum"):
            cq_decompose(bell_state(0))

    def test_degenerate_weights_still_decompose(self):
        # Equal probabilities and equal conditionals: every basis works.
        rho = product_state(
            DensityOperator.maximally_mixed(2), random_density(2, "hilbert-schmidt", 34)
        )
        decomp = cq_decompose(rho)
        assert np.linalg.norm(decomp.reconstruct().matrix - rho.matrix) <= 1e-8


class TestHybridAgainstOracle:
    def test_random_states(self):
        for seed in range(6):
            rho = random_bipartite(2, 2, 100 + seed)
            j_hybrid, _ = classical_correlation(rho, Hybrid())
            j_oracle = dense_grid_oracle(rho, 64, 128)
            assert j_hybrid == pytest.approx(j_oracle, abs=1e-3)


class TestHybridAgainstNelderMead:
    @pytest.mark.parametrize("dim_b", [2, 3, 4])
    def test_never_below_reference(self, dim_b):
        for seed in range(20):
            rho = random_bipartite(2, dim_b, 1000 * dim_b + seed)
            result = discord(rho)
            assert result.classical_correlation >= nelder_mead_reference(rho) - 1e-12
            assert result.trace.restarts == 5
            assert len(result.trace.best_values) == 5


class TestLuoClosedForm:
    def test_bell_diagonal_states(self):
        """J = 1 - h((1 + max|c_i|) / 2) (Luo 2008); every odd state is
        turned by a random U_A (x) U_B, so its optimum lies off the grid."""
        rng = np.random.default_rng(2008)
        for k in range(60):
            c = rng.dirichlet(np.ones(4)) @ BELL_TETRAHEDRON
            rho = bell_diagonal(c)
            if k % 2:
                u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
                rho = BipartiteState.from_matrix(u @ rho.matrix @ u.conj().T, 2, 2)
            j, _ = classical_correlation(rho, Hybrid())
            expected = 1.0 - binary_entropy((1.0 + np.max(np.abs(c))) / 2.0)
            assert abs(j - expected) <= 1e-12, (k, c)
