import importlib
import importlib.util
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
    PATTERN_MAX_ROUNDS,
    Grid,
    Hybrid,
    MultiStart,
    ProjectiveMeasurement,
    _REFINE_TOP,
    _bloch_directions,
    _grid_angles,
    _qubit_correlation_ops,
    DECOMPOSE_RETRIES,
    DECOMPOSE_SEED,
    _b_blocks,
    _block_pairs,
    _cq_draws,
    _cq_residuals,
    _entropy_terms,
    _qubit_scores,
    _qubit_value_grad,
    _unitary_factor,
    _unitary_scores,
    _unitary_value_grad,
    _weighted_entropies,
    classical_correlation,
    cq_decompose,
    discord,
    is_cq_exact,
    mutual_information,
)
from discordkit.states import (
    PAULIS,
    BipartiteState,
    DensityOperator,
    _frobenius_norms,
    _validate_states,
    as_rng,
    bell_state,
    max_entangled,
    partial_trace,
    partial_trace_matrix,
    product_state,
    random_bipartite,
    random_density,
    random_unitary,
    von_neumann_entropy,
)
from discordkit.annihilators import _probe_stream, build_da_channel, random_da_spec
from discordkit.channels import _cq_form, _swap_slots, make_qc_channel, random_channel
from discordkit.tolerances import ANGLE_STEP_TOL, REFINE_MARGIN, ZERO_CUTOFF


discord_module = importlib.import_module("discordkit.discord")
MULTISTART_REFERENCE = Path(__file__).with_name("multistart_reference.json")
BENCH_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


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
    defect and commutator one at a time, the residual being the largest of
    them all.  Each normality defect must equal the commutator of the block
    with its adjoint block bit for bit (0 on the diagonal), so ``worst`` is
    the first commutator pair to reach the maximum: a strictly larger one
    replaces the worst so far."""
    blocks = _b_blocks(rho.matrix, rho.dim_a, rho.dim_b)
    db = rho.dim_b
    scale = float(np.linalg.norm(rho.matrix))
    worst = None
    worst_val = 0.0
    normality = []
    labels = [(i, j) for i in range(db) for j in range(db)]
    flat = [blocks[i, j] for i, j in labels]
    for x, (i, j) in enumerate(labels):
        a_ij = flat[x]
        defect = float(np.linalg.norm(a_ij @ a_ij.conj().T - a_ij.conj().T @ a_ij))
        a_ji = blocks[j, i]
        assert defect == (0.0 if i == j else float(np.linalg.norm(a_ij @ a_ji - a_ji @ a_ij)))
        normality.append(defect)
        for y in range(x + 1, len(labels)):
            a_kl = flat[y]
            comm = float(np.linalg.norm(a_ij @ a_kl - a_kl @ a_ij))
            if comm > worst_val:
                worst_val = comm
                worst = ("commutator", (i, j), labels[y])
    residual = max(worst_val, *normality) / max(scale, 1e-300)
    return CQCheck(is_cq=residual <= tol, residual=residual, worst=worst, tol=tol)


def orbit_first(worst, dim_b):
    """The first, in row-major order of the upper triangle, of the pair
    ``worst`` names and its adjoint partner, the pair of transposed blocks."""
    if worst is None:
        return None
    (i, j), (k, l) = worst[1:]
    partner = sorted([(j, i), (l, k)])
    return ("commutator", *min([(i, j), (k, l)], partner))


def loop_value(rho, worst):
    """The loop's relative commutator norm of the pair ``worst`` names (0 for None)."""
    if worst is None:
        return 0.0
    blocks = _b_blocks(rho.matrix, rho.dim_a, rho.dim_b)
    a, b = (blocks[index] for index in worst[1:])
    return float(np.linalg.norm(a @ b - b @ a)) / max(float(np.linalg.norm(rho.matrix)), 1e-300)


def assert_within_rounding_of_the_loop(check, rho, loop=None):
    """``check`` against the pair loop on ``rho``: the same verdict, the
    residual within ``dim_a`` ulps of 1 (the block products sum in another
    order), and as ``worst`` the first pair of the loop's worst pair and its
    adjoint partner, unless the pair it names ties the loop's maximum to
    within that bound (every pair does on a state that is CQ up to rounding)."""
    loop = loop or is_cq_exact_loop(rho)
    bound = rho.dim_a * np.finfo(float).eps
    assert abs(check.residual - loop.residual) <= bound
    assert check.is_cq == loop.is_cq
    if check.worst != orbit_first(loop.worst, rho.dim_b):
        assert loop.residual - loop_value(rho, check.worst) <= bound


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


def holevo_like_value(rho, measurement):
    """S(B) minus the average conditional entropy at one measurement: every
    outcome projected with np.kron, every conditional state validated, and
    outcomes below ZERO_CUTOFF skipped.  The library's former second
    evaluation of J, kept as an oracle for the scorers."""
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    eye_b = np.eye(rho.dim_b, dtype=complex)
    avg = 0.0
    for proj in measurement.projectors:
        big = np.kron(proj, eye_b)
        block = big @ rho.matrix @ big
        p = float(np.trace(block).real)
        if p < ZERO_CUTOFF:
            continue
        cond = partial_trace_matrix(block, rho.dim_a, rho.dim_b, "B") / p
        avg += p * von_neumann_entropy(DensityOperator.from_matrix(cond, name="conditional state"))
    return s_b - avg


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
    return holevo_like_value(rho, ProjectiveMeasurement.from_bloch(*best_angles))


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


class TestStrategyCounts:
    @pytest.mark.parametrize(
        "strategy, args",
        [(Grid, (0, 64)), (Grid, (32, 0)), (Hybrid, (0, 64)), (Hybrid, (32, -1)), (MultiStart, (-3,))],
        ids=["grid-0x64", "grid-32x0", "hybrid-0x64", "hybrid-32xneg1", "multistart-neg3"],
    )
    def test_count_below_minimum_rejected(self, strategy, args):
        # Grid(0, 64) used to run and report D = -0.499 with a NaN Bloch vector,
        # and MultiStart(-3) ran with no restarts.
        with pytest.raises(ValueError, match="must be at least"):
            strategy(*args)

    def test_smallest_counts_run(self):
        for strategy in (Grid(1, 1), Hybrid(1, 1)):
            assert np.isfinite(discord(bell_state(0), strategy).value)
        assert discord(cq_state(3, 3, 2), MultiStart(0)).trace.restarts == 1


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


def pinned_a_states(dim_a, dim_b, seed):
    """States whose best frames have an outcome of probability zero: a
    product with a pure A, and a CQ state with no weight on the last vector
    of a Haar A basis."""
    rng = np.random.default_rng(seed)
    pinned = DensityOperator.diagonal([1.0] + [0.0] * (dim_a - 1))
    basis = random_unitary(dim_a, rng)
    probs = rng.dirichlet(np.ones(dim_a - 1))
    m = np.zeros((dim_a * dim_b,) * 2, dtype=complex)
    for k, p in enumerate(probs):
        proj = np.outer(basis[:, k], basis[:, k].conj())
        m += p * np.kron(proj, random_density(dim_b, "hilbert-schmidt", rng).matrix)
    return [
        product_state(pinned, random_density(dim_b, "hilbert-schmidt", rng)),
        BipartiteState.from_matrix(m, dim_a, dim_b),
    ]


def one_evaluator_corpus(dims):
    """Eight seeded Hilbert-Schmidt states and the two pinned-A states of ``dims``."""
    dim_a, dim_b = dims
    seed = 300 + 10 * dim_a + dim_b
    states = [random_bipartite(dim_a, dim_b, [seed, k]) for k in range(8)]
    return states + pinned_a_states(dim_a, dim_b, seed)


class TestOneEvaluator:
    """The reported J is the score that the optimiser's own scorer gave the
    returned measurement, and I and J share one S(B)."""

    CASES = [
        (Grid(), (2, 2)),
        (Grid(), (2, 3)),
        (Hybrid(), (2, 2)),
        (Hybrid(), (2, 3)),
        (Hybrid(), (2, 4)),
        (MultiStart(restarts=2), (3, 2)),
        (MultiStart(restarts=2), (3, 3)),
        (MultiStart(restarts=2), (4, 2)),
    ]
    IDS = ["grid-2x2", "grid-2x3", "hybrid-2x2", "hybrid-2x3", "hybrid-2x4"]
    IDS += ["multistart-3x2", "multistart-3x3", "multistart-4x2"]

    @pytest.mark.parametrize("strategy, dims", CASES, ids=IDS)
    def test_j_is_the_optimisers_best_score(self, strategy, dims):
        for k, rho in enumerate(one_evaluator_corpus(dims)):
            result = discord(rho, strategy)
            best = max(result.trace.best_values)
            j = result.classical_correlation
            if isinstance(strategy, Hybrid):
                assert best - REFINE_MARGIN <= j <= best, k
            else:
                assert j == best, k
            assert result.mutual_information == mutual_information(rho), k
            assert result.value == result.mutual_information - j, k

    @pytest.mark.parametrize("strategy, dims", CASES, ids=IDS)
    def test_j_matches_the_kron_oracle(self, strategy, dims):
        zero_outcomes = 0
        for k, rho in enumerate(one_evaluator_corpus(dims)):
            j, meas = classical_correlation(rho, strategy)
            assert abs(j - holevo_like_value(rho, meas)) <= 1e-14, k
            probs = [np.trace(p @ partial_trace(rho, "A").matrix).real for p in meas.projectors]
            zero_outcomes += min(probs) < ZERO_CUTOFF
        if isinstance(strategy, MultiStart):
            assert zero_outcomes >= 1

    @pytest.mark.parametrize("dim_a", [1, 2, 3])
    def test_zero_discord_states_read_at_most_rounding_below_zero(self, dim_a):
        states = []
        for dim_b in (2, 3):
            seed = 400 + 10 * dim_a + dim_b
            states += [
                product_state(
                    random_density(dim_a, "hilbert-schmidt", [seed, k]),
                    random_density(dim_b, "hilbert-schmidt", [seed, 10 + k]),
                )
                for k in range(4)
            ]
            for k in range(4):
                channel = build_da_channel(random_da_spec(dim_a, dim_b, [seed, 20 + k]))
                states.append(channel.apply(random_bipartite(dim_a, dim_b, [seed, 30 + k])))
        for k, rho in enumerate(states):
            assert is_cq_exact(rho), k
            assert discord(rho).value >= -1e-14, k


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_entropy_terms_stay_within_the_cutoff_bound(dim_a, dim_b):
    """The scorer drops outcomes with p <= c and eigenvalues w <= c, with
    c = ZERO_CUTOFF: each dropped outcome held at most p log2 dB <= c log2 dB
    of conditional entropy, and each block at most dB - 1 eigenvalues, each
    worth -w log2 w <= c log2(1/c).  So the summed p H(w) falls short of the
    exact one by at most dA c log2 dB + (dB - 1) c log2(1/c), and J exceeds
    its measurement's exact value by at most that."""
    c = ZERO_CUTOFF
    bound = dim_a * c * np.log2(dim_b) + (dim_b - 1) * c * np.log2(1.0 / c)
    rng = np.random.default_rng([dim_a, dim_b])
    worst = 0.0
    for trial in range(200):
        # Spectra whose small entries lie at, or at most c below, the cutoff.
        shape = (dim_a, dim_b - 1)
        small = np.where(rng.random(shape) < 0.5, c, rng.uniform(0.0, c, shape))
        w = np.concatenate([1.0 - small.sum(axis=1, keepdims=True), small], axis=1)
        # Outcomes with p at or below the cutoff, the rest sharing the remainder.
        dropped = rng.random(dim_a) < 0.5
        dropped[0] = False
        p = np.where(dropped, np.where(rng.random(dim_a) < 0.5, c, rng.uniform(0.0, c, dim_a)), 0.0)
        p[~dropped] = rng.dirichlet(np.ones(np.count_nonzero(~dropped))) * (1.0 - p.sum())
        if trial == 0:  # every entry at the cutoff where the form allows one
            w[:, 1:] = c
            w[:, 0] = 1.0 - (dim_b - 1) * c
            p[1:] = c
            p[0] = 1.0 - (dim_a - 1) * c
        positive = np.where(w > 0.0, w, 1.0)
        exact = np.sum(p * -np.sum(w * np.log2(positive), axis=1))
        gap = exact - np.sum(_entropy_terms(p, w)[0])
        assert -1e-15 <= gap <= bound, trial
        worst = max(worst, gap)
    # The first trial drops dB - 1 eigenvalues at the cutoff from an outcome
    # of weight near 1, which brings it within 10 % of the bound.
    assert worst >= 0.9 * bound


class TestUnitaryScores:
    @pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_match_one_measurement_at_a_time(self, dims):
        """The batched score of each basis equals holevo_like_value there,
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
            expected = [holevo_like_value(rho, ProjectiveMeasurement.from_unitary(u)) for u in us]
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
        """Count every point the optimiser scores, or rates with its gradient."""
        scored = []
        qubit, unitary = discord_module._qubit_scores, discord_module._unitary_scores
        value_grad = discord_module._qubit_value_grad
        unitary_value_grad = discord_module._unitary_value_grad

        def count_qubit(t0, ts, s_b, directions):
            scored.append(len(directions))
            return qubit(t0, ts, s_b, directions)

        def count_value_grad(t0, ts, s_b, directions):
            scored.append(len(directions))
            return value_grad(t0, ts, s_b, directions)

        def count_unitary(r4, s_b, us):
            scored.append(len(us))
            return unitary(r4, s_b, us)

        def count_unitary_value_grad(r4, s_b, us):
            scored.append(len(us))
            return unitary_value_grad(r4, s_b, us)

        monkeypatch.setattr(discord_module, "_qubit_scores", count_qubit)
        monkeypatch.setattr(discord_module, "_qubit_value_grad", count_value_grad)
        monkeypatch.setattr(discord_module, "_unitary_scores", count_unitary)
        monkeypatch.setattr(discord_module, "_unitary_value_grad", count_unitary_value_grad)
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
        """A 1x1 frame is a phase, whose gradient is zero: the ascent rates
        the three frames, takes no step and scores them again."""
        rho = BipartiteState(1, 2, random_density(2, "hilbert-schmidt", 79))
        result = discord(rho, MultiStart(restarts=2))
        assert result.trace.converged
        assert result.trace.n_evals == 3 + 3 + 3
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

    def test_within_rounding_of_the_pair_loop(self):
        corpus = cq_test_corpus()
        assert len(corpus) == 900
        none_worst = 0
        for rho in corpus:
            want = is_cq_exact_loop(rho)
            assert_within_rounding_of_the_loop(is_cq_exact(rho), rho, want)
            none_worst += want.worst is None
        assert none_worst >= 16

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)])
    def test_first_pair_wins_ties(self, dims):
        rho = max_entangled(*dims)
        blocks = _b_blocks(rho.matrix, rho.dim_a, rho.dim_b).reshape(-1, dims[0], dims[0])
        pairs = [(a, a.conj().T) for a in blocks]
        pairs += list(itertools.combinations(blocks, 2))
        values = [float(np.linalg.norm(a @ b - b @ a)) for a, b in pairs]
        assert values.count(max(values)) >= 2
        assert is_cq_exact(rho).worst == is_cq_exact_loop(rho).worst

    def test_exactly_cq_state_has_no_worst_pair(self):
        rho = BipartiteState(3, 3, DensityOperator.maximally_mixed(9))
        check = is_cq_exact(rho)
        assert check.is_cq and check.residual == 0.0 and check.worst is None

    def test_state_that_is_not_exactly_hermitian(self):
        """A complex pure state is Hermitian only up to rounding; it is judged
        on its Hermitian part, as the loop judges that part."""
        def skewed_pure(dim, seed):
            # |v><v| of the vector random_density(dim, "haar-pure", seed) draws,
            # without taking its Hermitian part.
            rng = as_rng(seed)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v = v / np.linalg.norm(v)
            return np.outer(v, v.conj())

        matrices = [skewed_pure(6, [9, k]) for k in range(5)]
        products = [np.kron(skewed_pure(3, [10, k]), skewed_pure(2, k)) for k in range(5)]
        states = [BipartiteState(2, 3, DensityOperator(6, m)) for m in matrices]
        states += [BipartiteState(3, 2, DensityOperator(6, m)) for m in products]
        skewed = 0
        for rho in states:
            m = rho.matrix
            herm = BipartiteState(rho.dim_a, rho.dim_b, DensityOperator(len(m), (m + m.conj().T) / 2))
            skewed += not np.array_equal(m, m.conj().T)
            assert_within_rounding_of_the_loop(is_cq_exact(rho), herm)
        assert skewed >= 5


class TestStackedCQResiduals:
    """One stacked scan gives each state's residual bit for bit as a scan of that
    state alone, and the worst pair from which ``is_cq_exact`` builds its
    ``worst`` label; both are within rounding of the pair loop."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_bitwise_equal_to_one_state_at_a_time(self, dims):
        d = dims[0] * dims[1]
        states = [random_bipartite(*dims, [7, *dims, k]) for k in range(300)]
        states += [cq_state([8, k], *dims) for k in range(10)]
        states += [max_entangled(*dims), BipartiteState(*dims, DensityOperator.maximally_mixed(d))]
        residuals, pairs = _cq_residuals(np.array([rho.matrix for rho in states]), *dims)
        assert len(residuals) == len(pairs) == len(states)
        for rho, residual in zip(states, residuals):
            check = is_cq_exact(rho)
            assert residual == check.residual
            assert_within_rounding_of_the_loop(check, rho)
        assert residuals[-1] == 0.0 and is_cq_exact(states[-1]).worst is None
        assert sum(r <= 1e-12 for r in residuals) >= 11

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)])
    def test_ties_between_states_of_a_stack(self, dims):
        tied = max_entangled(*dims)
        states = [tied, random_bipartite(*dims, 3), tied]
        residuals, pairs = _cq_residuals(np.array([rho.matrix for rho in states]), *dims)
        assert pairs[0] == pairs[2]
        assert is_cq_exact(tied).worst == is_cq_exact_loop(tied).worst
        assert residuals[0] == residuals[2] == is_cq_exact(tied).residual

    def test_empty_stack(self):
        residuals, pairs = _cq_residuals(np.zeros((0, 6, 6), dtype=complex), 3, 2)
        assert residuals.tolist() == [] and len(pairs) == 0

    def test_one_dimensional_b_has_no_pair(self):
        states = [random_bipartite(3, 1, [11, k]) for k in range(4)]
        states.append(BipartiteState(3, 1, random_density(3, "haar-pure", 12)))
        residuals, pairs = _cq_residuals(np.array([rho.matrix for rho in states]), 3, 1)
        assert residuals.tolist() == [0.0] * 5 and len(pairs) == 5
        for rho in states:
            check = is_cq_exact(rho)
            assert check.is_cq and check.residual == 0.0 and check.worst is None

    @pytest.mark.parametrize(
        "dims", list(itertools.product(range(1, 6), repeat=2)), ids=lambda d: f"{d[0]}x{d[1]}"
    )
    def test_every_split_matches_the_loop(self, dims):
        """Validated probe-stream states and their images under a random channel:
        the stacked scan gives each state's residual alone bit for bit, within
        rounding of the loop's (normality defects included), and the first
        pair of the loop's worst pair and its adjoint partner."""
        d = dims[0] * dims[1]
        probes, error = _validate_states(_probe_stream(*dims, 23, n_draws=12)(100))
        assert error is None
        images, error = _validate_states(random_channel(d, d, 2, [d, 5]).apply_matrix(probes))
        assert error is None
        stack = np.concatenate((probes, images))
        residuals, pairs = _cq_residuals(stack, *dims)
        for m, residual in zip(stack, residuals):
            rho = BipartiteState(*dims, DensityOperator(d, m))
            check = is_cq_exact(rho)
            assert residual == check.residual
            assert_within_rounding_of_the_loop(check, rho)
        assert (max(residuals) > 1e-3) == (min(dims) > 1)


class TestBlockPairs:
    """The pair table keeps one pair of each adjoint partner pair: with ``p^T``
    the index of the transposed block, ``[A_{p^T}, A_{q^T}] = -[A_p, A_q]^dag``."""

    @staticmethod
    def transposed(p, dim_b):
        """The index of the transposed block of block ``p``."""
        return (p % dim_b) * dim_b + p // dim_b

    @pytest.mark.parametrize("dim_b", range(1, 6))
    def test_one_kept_pair_per_partner_orbit(self, dim_b):
        m = dim_b * dim_b
        kept = list(zip(*(index.tolist() for index in _block_pairs(dim_b))))
        assert len(kept) == (m * (m - 1) // 2 + dim_b * (dim_b - 1)) // 2
        assert kept == sorted(kept) and all(p < q for p, q in kept)
        for pair in itertools.combinations(range(m), 2):
            orbit = {pair, tuple(sorted(self.transposed(p, dim_b) for p in pair))}
            assert len(orbit & set(kept)) == 1
            assert min(orbit) in kept

    @pytest.mark.parametrize("dim_b", range(2, 6))
    @pytest.mark.parametrize("dim_a", [1, 2, 3])
    def test_dropped_pair_is_the_negated_adjoint_of_its_partner(self, dim_a, dim_b):
        m = dim_b * dim_b
        rng = as_rng([31, dim_a, dim_b])
        d = dim_a * dim_b
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks = _b_blocks(g + g.conj().T, dim_a, dim_b).reshape(m, dim_a, dim_a)
        kept = set(zip(*(index.tolist() for index in _block_pairs(dim_b))))
        for p, q in set(itertools.combinations(range(m), 2)) - kept:
            pt, qt = (self.transposed(k, dim_b) for k in (p, q))
            comm = blocks[p] @ blocks[q] - blocks[q] @ blocks[p]
            partner = blocks[pt] @ blocks[qt] - blocks[qt] @ blocks[pt]
            np.testing.assert_allclose(partner, -comm.conj().T, rtol=0, atol=1e-13)


def test_every_caller_hands_the_cq_test_a_hermitian_stack(monkeypatch):
    """``_cq_scan``, ``_qc_decision`` and ``is_cq_exact`` pass validated states,
    which equal their adjoint bit for bit, so reading the Hermitian part
    changes nothing and ``A_ji = A_ij^dag`` holds exactly; and validation
    returns each stack bit for bit, so the test reads what a state holds."""
    annihilators = importlib.import_module("discordkit.annihilators")
    classify = importlib.import_module("discordkit.classify")
    seen = {}
    original = discord_module._cq_residuals
    for module in (annihilators, classify, discord_module):

        def spy(matrices, dim_a, dim_b, name=module.__name__):
            exact = np.array_equal(matrices, matrices.conj().transpose(0, 2, 1))
            exact &= _validate_states(matrices)[0].tobytes() == matrices.tobytes()
            seen.setdefault(name, []).append(exact)
            return original(matrices, dim_a, dim_b)

        monkeypatch.setattr(module, "_cq_residuals", spy)
    annihilators.apply_and_certify(build_da_channel(random_da_spec(2, 3, 5)), 2, 3, n_samples=30)
    annihilators.apply_and_certify(random_channel(4, 4, 2, 6), 2, 2, n_samples=30)
    dephasing = make_qc_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.eye(3)[:2])
    for channel in (dephasing, *(random_channel(2, 3, 2, seed) for seed in range(3))):
        classify.is_qc_channel(channel)
    for rho in cq_test_corpus()[::7]:
        is_cq_exact(BipartiteState.from_matrix(rho.matrix, rho.dim_a, rho.dim_b))
    assert set(seen) == {"discordkit.annihilators", "discordkit.classify", "discordkit.discord"}
    assert all(all(exact) for exact in seen.values())


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

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
    def test_reconstruct_equals_the_kron_sum(self, dims):
        # The CQ form of the decomposition, against one np.kron term per outcome.
        for seed in range(5):
            rho = cq_state(seed, *dims)
            decomp = cq_decompose(rho)
            m = np.zeros_like(rho.matrix)
            for k, (p, cond) in enumerate(zip(decomp.probs, decomp.conditional_states)):
                proj = np.outer(decomp.basis[:, k], decomp.basis[:, k].conj())
                m += p * np.kron(proj, cond.matrix)
            assert np.linalg.norm(decomp.reconstruct().matrix - m) <= 1e-15
            assert np.linalg.norm(decomp.reconstruct().matrix - rho.matrix) <= 1e-12

    def test_degenerate_weights_still_decompose(self):
        # Equal probabilities and equal conditionals: every basis works.
        rho = product_state(
            DensityOperator.maximally_mixed(2), random_density(2, "hilbert-schmidt", 34)
        )
        decomp = cq_decompose(rho)
        assert np.linalg.norm(decomp.reconstruct().matrix - rho.matrix) <= 1e-8


def cq_draws_loop(matrices, dim_a, dim_b, tol):
    """The draws of ``_cq_draws`` with each draw's block combination summed by a
    Python double loop over the B blocks, one coefficient pair per block."""
    n = len(matrices)
    blocks = _b_blocks(matrices, dim_a, dim_b)
    scales = np.maximum(1.0, _frobenius_norms(matrices))
    rng = as_rng(DECOMPOSE_SEED)
    for _ in range(DECOMPOSE_RETRIES):
        combined = np.zeros((n, dim_a, dim_a), dtype=complex)
        for i in range(dim_b):
            for j in range(dim_b):
                a_ij = blocks[:, i, j]
                herm = (a_ij + a_ij.conj().transpose(0, 2, 1)) / 2.0
                skew = (a_ij - a_ij.conj().transpose(0, 2, 1)) / 2j
                combined += rng.standard_normal() * herm + rng.standard_normal() * skew
        _, basis = np.linalg.eigh(combined)
        cond = np.einsum("nak,nijab,nbk->nkij", basis.conj(), blocks, basis)
        weights = np.clip(np.einsum("nkii->nk", cond).real, 0.0, None)
        residuals = _frobenius_norms(_cq_form(basis, cond) - matrices)
        yield residuals / scales, residuals <= tol * scales, basis, weights, cond


class TestCQDrawsStacked:
    """The stacked block combination of ``_cq_draws`` equals the block loop bit
    for bit, on the CQ stacks of ``cq_decompose`` and the slot-swapped Choi
    stacks of ``_qc_decision``."""

    @staticmethod
    def assert_same_draws(matrices, dim_a, dim_b):
        draws = list(_cq_draws(matrices, dim_a, dim_b, 1e-9))
        loop = list(cq_draws_loop(matrices, dim_a, dim_b, 1e-9))
        assert len(draws) == len(loop) == DECOMPOSE_RETRIES
        for got, want in zip(draws, loop):
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)])
    def test_cq_stacks(self, dims):
        states = [cq_state([41, *dims, k], *dims).matrix for k in range(20)]
        states += [equal_weight_cq(*dims, [42, k]).matrix for k in range(5)]
        self.assert_same_draws(np.array(states), *dims)
        for m in states[:5]:
            self.assert_same_draws(m[None], *dims)

    @pytest.mark.parametrize("dim_in, dim_out", [(2, 2), (3, 3), (4, 2), (2, 4)])
    def test_slot_swapped_choi_stacks(self, dim_in, dim_out):
        chois = []
        for k in range(8):
            frame = random_unitary(dim_out, [43, dim_in, dim_out, k])
            kets = [frame[:, j] for j in range(min(dim_in, dim_out))]
            rng = as_rng([44, dim_in, dim_out, k])
            effects = np.array([random_density(dim_in, "hilbert-schmidt", rng).matrix for _ in kets])
            root = np.linalg.inv(np.linalg.cholesky(effects.sum(axis=0)))
            povm = [root @ f @ root.conj().T for f in effects]
            chois.append(make_qc_channel(povm, kets).choi)
            chois.append(random_channel(dim_in, dim_out, 2, [45, dim_in, dim_out, k]).choi)
        nus, error = _validate_states(_swap_slots(np.array(chois), dim_in, dim_out) / dim_in)
        assert error is None
        self.assert_same_draws(nus, dim_out, dim_in)


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


def luo_corpus():
    """60 seeded Bell-diagonal states and their correlation vectors c; every
    odd state is turned by a random U_A (x) U_B, so its optimum lies off the
    grid."""
    rng = np.random.default_rng(2008)
    corpus = []
    for k in range(60):
        c = rng.dirichlet(np.ones(4)) @ BELL_TETRAHEDRON
        rho = bell_diagonal(c)
        if k % 2:
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rho = BipartiteState.from_matrix(u @ rho.matrix @ u.conj().T, 2, 2)
        corpus.append((rho, c))
    return corpus


class TestLuoClosedForm:
    def test_bell_diagonal_states(self):
        """J = 1 - h((1 + max|c_i|) / 2) (Luo 2008)."""
        for k, (rho, c) in enumerate(luo_corpus()):
            j, _ = classical_correlation(rho, Hybrid())
            expected = 1.0 - binary_entropy((1.0 + np.max(np.abs(c))) / 2.0)
            assert abs(j - expected) <= 1e-12, (k, c)


# -- the qubit path before the closed-form spectra and the hemisphere grid ------


def full_sphere_grid_angles(n_theta, n_phi):
    """The grid before the hemisphere cut: every (theta_k, phi_j) in row-major
    order, both pole rows and both points of every antipodal pair included."""
    thetas = np.pi * np.arange(n_theta + 1) / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.column_stack([tt.ravel(), pp.ravel()])


def eigvalsh_weighted_entropies(blocks):
    """``_weighted_entropies`` before the 2x2 closed form: one stacked
    ``eigvalsh`` for every block size."""
    p = np.trace(blocks, axis1=-2, axis2=-1).real
    blocks /= np.clip(p, ZERO_CUTOFF, None)[..., None, None]
    w = np.clip(np.linalg.eigvalsh(blocks), 0.0, None)
    logs = np.where(w > ZERO_CUTOFF, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    return np.where(p > ZERO_CUTOFF, p * -np.sum(w * logs, axis=-1), 0.0)


# The 3x3 angle stencil around a start of the retired qubit pattern search,
# less its centre (whose score is known), in units of the start's
# (theta, phi) step.
STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)


def angle_neighbours(x, h):
    return x[:, None, :] + STENCIL * h[:, None, :]


def _pattern_search(score, neighbours, starts, values, step):
    """The retired refinement of both paths: every start at once by a
    pattern search.

    ``neighbours(x, h)`` gives the candidates around the live starts ``x`` at
    steps ``h``, shape (live, m) + point shape, and ``score`` rates a flat
    stack of points; each round makes one ``score`` call for all live
    starts.  A start moves to its best neighbour only when that scores
    strictly higher than the start, and otherwise halves its steps; it stops
    once all its steps are below ``ANGLE_STEP_TOL``.  Returns the points,
    their scores, the number of points scored and whether every start
    stopped within ``PATTERN_MAX_ROUNDS``.
    """
    x = starts.copy()
    val = values.copy()
    h = np.tile(step, (len(x), 1))
    n_evals = 0
    for _ in range(PATTERN_MAX_ROUNDS):
        live = np.flatnonzero(h.max(axis=1) >= ANGLE_STEP_TOL)
        if live.size == 0:
            break
        cand = neighbours(x[live], h[live])
        scores = score(cand.reshape((-1,) + x.shape[1:])).reshape(cand.shape[:2])
        n_evals += scores.size
        pick = np.argmax(scores, axis=1)
        gain = scores[np.arange(live.size), pick]
        moved = gain > val[live]
        x[live[moved]] = cand[moved, pick[moved]]
        val[live[moved]] = gain[moved]
        h[live[~moved]] /= 2.0
    converged = bool((h.max(axis=1) < ANGLE_STEP_TOL).all())
    return x, val, n_evals, converged


def rotation_neighbours(us, h):
    """Neighbours ``u @ R`` of frames ``u`` for the 2·d(d−1) rotations
    R = exp(±i·h·G), G the real or the imaginary off-diagonal generator of a
    pair i < j: the Givens rotation cos h on (i, i) and (j, j),
    −e^{−iφ}·sin(±h) at (i, j) and e^{iφ}·sin(±h) at (j, i), with φ = 0 or π/2."""
    live, dim, _ = us.shape
    i, j = np.triu_indices(dim, 1)
    n = len(i)
    i, j = np.repeat(i, 4), np.repeat(j, 4)
    phase = np.tile([1.0, 1.0, 1j, 1j], n)
    angle = h * np.tile([1.0, -1.0, 1.0, -1.0], n)
    c, s = np.cos(angle), np.sin(angle)
    k = np.arange(4 * n)
    r = np.broadcast_to(np.eye(dim, dtype=complex), (live, 4 * n, dim, dim)).copy()
    r[:, k, i, i] = c
    r[:, k, j, j] = c
    r[:, k, i, j] = -phase.conj() * s
    r[:, k, j, i] = phase * s
    return us[:, None] @ r


def old_multistart_j(rho, restarts, seed=42):
    """J of the former MultiStart path: the same frames (the rho_A eigenbasis
    and ``restarts`` Haar frames drawn from ``seed``), each refined by the
    pattern search over the Givens rotations above, first step pi/4."""
    dim_a = rho.dim_a
    r4 = rho.matrix.reshape(dim_a, rho.dim_b, dim_a, rho.dim_b)
    s_b = von_neumann_entropy(partial_trace_matrix(rho.matrix, dim_a, rho.dim_b, "B"))

    def score(us):
        return _unitary_scores(r4, s_b, us)

    rng = as_rng(seed)
    rho_a = partial_trace_matrix(rho.matrix, dim_a, rho.dim_b, "A")
    _, eigbasis = np.linalg.eigh((rho_a + rho_a.conj().T) / 2.0)
    frames = np.stack([eigbasis] + [random_unitary(dim_a, rng) for _ in range(restarts)])
    step = np.array([np.pi / 4.0 if dim_a > 1 else 0.0])
    _, values, _, _ = _pattern_search(score, rotation_neighbours, frames, score(frames), step)
    return float(values.max())


def old_path_j(rho, strategy):
    """J of the former qubit path: the full-sphere grid scored through
    ``eigvalsh`` and, for Hybrid, the retired pattern search on (theta, phi)
    from its 5 best points, which may repeat a measurement: the library's
    ``_pattern_search`` with the angle stencil above, first steps the grid
    spacing."""
    t0, ts = _qubit_correlation_ops(rho)
    s_b = von_neumann_entropy(partial_trace_matrix(rho.matrix, 2, rho.dim_b, "B"))

    def score(angles):
        correlated = np.tensordot(_bloch_directions(angles), ts, axes=(1, 0))
        blocks = np.concatenate([t0 + correlated, t0 - correlated]) * 0.5
        weighted = eigvalsh_weighted_entropies(blocks)
        return s_b - (weighted[: len(angles)] + weighted[len(angles) :])

    angles = full_sphere_grid_angles(strategy.n_theta, strategy.n_phi)
    scores = score(angles)
    best = float(scores.max())
    if isinstance(strategy, Grid):
        return best
    top = np.argsort(scores)[::-1][:_REFINE_TOP]
    step = np.array([np.pi / strategy.n_theta, 2.0 * np.pi / strategy.n_phi])
    _, refined, _, _ = _pattern_search(score, angle_neighbours, angles[top], scores[top], step)
    for val in refined:
        if val > best + REFINE_MARGIN:
            best = float(val)
    return best


def bench_qubit_pool():
    """The 40 qubit-A members of the benchmark's discord pool: eight of each
    kind whose A is a qubit, unrotated."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    states = []
    for kind, (dim_a, dim_b) in corpus.DISCORD_KINDS.items():
        if dim_a == 2:
            for index in range(8):
                _, m = corpus.discord_input(kind, index)
                states.append(BipartiteState.from_matrix(m, dim_a, dim_b))
    return states


def seeded_qubit_states(per_dims):
    return [
        random_bipartite(2, dim_b, [1700, dim_b, k]) for dim_b in (2, 3, 4) for k in range(per_dims)
    ]


def conditional_block_stack(dim, seed):
    """Unnormalised conditional blocks (2, 30, dim, dim): Hilbert-Schmidt draws
    of spread weights, pure blocks, maximally mixed blocks, blocks of weight
    below ``ZERO_CUTOFF`` and zero blocks."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(60):
        p = 10.0 ** rng.uniform(-6, 0)
        kind = k % 6
        if kind < 2:
            m = random_density(dim, "hilbert-schmidt", rng).matrix
        elif kind == 2:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            m = np.outer(v, v.conj()) / np.vdot(v, v).real
        elif kind == 3:
            m = np.eye(dim, dtype=complex) / dim
        else:
            m = random_density(dim, "hilbert-schmidt", rng).matrix
            p = 0.0 if kind == 5 else ZERO_CUTOFF * rng.uniform(0.1, 0.9)
        blocks.append(p * m)
    return np.array(blocks).reshape(2, 30, dim, dim)


class TestClosedFormSpectra:
    def test_2x2_blocks_match_eigvalsh(self):
        """Degenerate (r = 0), pure (r = 1) and below-cutoff blocks included."""
        for seed in range(5):
            blocks = conditional_block_stack(2, [17, seed])
            got = _weighted_entropies(blocks.copy())
            want = eigvalsh_weighted_entropies(blocks.copy())
            assert got.shape == (2, 30)
            assert np.abs(got - want).max() <= 1e-15, seed
            assert (got[:, 4::6] == 0.0).all() and (got[:, 5::6] == 0.0).all()

    def test_pure_and_degenerate_blocks(self):
        v = np.array([0.6, 0.8j])
        blocks = np.array([np.outer(v, v.conj()), np.eye(2) / 2.0], dtype=complex) * 0.5
        got = _weighted_entropies(blocks)
        assert abs(got[0]) <= 1e-15
        assert abs(got[1] - 0.5) <= 1e-15

    @pytest.mark.parametrize("dim", [3, 4])
    def test_larger_blocks_keep_eigvalsh_bit_for_bit(self, dim):
        for seed in range(3):
            blocks = conditional_block_stack(dim, [18, dim, seed])
            got = _weighted_entropies(blocks.copy())
            assert np.array_equal(got, eigvalsh_weighted_entropies(blocks.copy())), seed

    def test_2x2_hybrid_diagonalises_no_conditional_block(self, monkeypatch):
        # Drawn before the patch: validating a state takes an eigvalsh too.
        rho_22, rho_23 = random_bipartite(2, 2, 77), random_bipartite(2, 3, 77)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        discord(rho_22, Hybrid())
        # Only the entropies S(B), S(A) and S(AB) of I(A:B).
        assert shapes == [(2, 2), (2, 2), (4, 4)]
        shapes.clear()
        discord(rho_23, Hybrid())
        assert shapes[:3] == [(3, 3), (2, 2), (6, 6)]
        assert len(shapes) > 3 and all(len(s) == 3 and s[1:] == (3, 3) for s in shapes[3:])


class TestHemisphereGrid:
    SHAPES = [(32, 64), (8, 8), (5, 8), (4, 3), (7, 5), (2, 2), (1, 1), (1, 4), (3, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_no_two_points_are_one_measurement(self, shape):
        d = _bloch_directions(_grid_angles(*shape))
        overlap = np.abs(d @ d.T)
        np.fill_diagonal(overlap, 0.0)
        assert overlap.max() <= 1.0 - 1e-9

    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_full_sphere_measurement_is_kept(self, shape):
        old = _bloch_directions(full_sphere_grid_angles(*shape))
        new = _bloch_directions(_grid_angles(*shape))
        assert (np.abs(old @ new.T).max(axis=1) >= 1.0 - 1e-12).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_points_keep_their_angles_and_row_major_order(self, shape):
        old, new = full_sphere_grid_angles(*shape), _grid_angles(*shape)
        positions = [int(np.flatnonzero((old == point).all(axis=1))[0]) for point in new]
        assert positions[0] == 0
        assert positions == sorted(set(positions))

    @pytest.mark.parametrize(
        "shape, count",
        [((32, 64), 993), ((8, 8), 29), ((5, 8), 17), ((4, 3), 10), ((7, 5), 31), ((1, 1), 1)],
        ids=["default", "even", "odd-theta", "odd-phi", "odd-both", "1x1"],
    )
    def test_counts(self, shape, count):
        # Odd n_phi has no antipodal pairs off the poles, so its lower rows stay.
        assert len(_grid_angles(*shape)) == count
        assert len(full_sphere_grid_angles(*shape)) == (shape[0] + 1) * shape[1]


class TestAgainstTheFullSphereEigvalshPath:
    """J never falls below what the full-sphere grid and stacked ``eigvalsh``
    reached with the same pattern search."""

    CORPORA = {
        "seeded": lambda: seeded_qubit_states(20),
        "luo": lambda: [rho for rho, _ in luo_corpus()],
        "bench-pool": bench_qubit_pool,
    }

    @pytest.mark.parametrize("corpus", list(CORPORA))
    def test_never_below_the_old_path(self, corpus):
        states = self.CORPORA[corpus]()
        assert len(states) in (40, 60)
        for k, rho in enumerate(states):
            for strategy in (Hybrid(), Grid()):
                j, _ = classical_correlation(rho, strategy)
                assert j >= old_path_j(rho, strategy) - 1e-14, (k, strategy)


def degenerate_qubit_states():
    """Pure, product and CQ 2 x dB states, whose conditional blocks are rank
    deficient at the optimum, and Bell-diagonal states, one of them with
    |c_2| = |c_3| > |c_1| (Bell weights p_1 = p_2), whose optima form a
    circle of directions."""
    states = []
    for dim_b in (2, 3, 4):
        seed = [3100, dim_b]
        states.append(BipartiteState(2, dim_b, random_density(2 * dim_b, "haar-pure", seed)))
        states.append(
            product_state(
                random_density(2, "hilbert-schmidt", seed + [1]),
                random_density(dim_b, "hilbert-schmidt", seed + [2]),
            )
        )
        states.append(cq_state(seed + [3], 2, dim_b))
    for weights in ([0.3, 0.3, 0.0, 0.4], [0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]):
        rho = bell_diagonal(np.array(weights) @ BELL_TETRAHEDRON)
        u = np.kron(random_unitary(2, 3101), random_unitary(2, 3102))
        states += [rho, BipartiteState.from_matrix(u @ rho.matrix @ u.conj().T, 2, 2)]
    return states


class TestQubitAscent:
    """Hybrid refines its grid starts by gradient ascent on the Bloch sphere."""

    @pytest.mark.parametrize("dim_b", [2, 3, 4])
    def test_gradient_matches_a_central_difference(self, dim_b):
        eps = 1e-5
        for k in range(5):
            rho = random_bipartite(2, dim_b, [3000, dim_b, k])
            t0, ts = _qubit_correlation_ops(rho)
            rng = np.random.default_rng([3001, dim_b, k])
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            _, (grad,) = _qubit_value_grad(t0, ts, 0.0, n[None])
            assert abs(grad @ n) <= 1e-15
            # Two unit tangent vectors at n and the retracted points n +- eps u.
            tangents = np.linalg.svd(n[None])[2][1:]
            points = n + eps * np.concatenate([tangents, -tangents])
            points /= np.linalg.norm(points, axis=1)[:, None]
            values = _qubit_scores(t0, ts, 0.0, points)
            difference = (values[:2] - values[2:]) / (2.0 * eps)
            assert np.abs(difference - tangents @ grad).max() <= 1e-6 * np.linalg.norm(grad), k

    def test_values_are_the_scores_up_to_rounding(self):
        for dim_b in (2, 3, 4):
            rho = random_bipartite(2, dim_b, [3002, dim_b])
            t0, ts = _qubit_correlation_ops(rho)
            directions = _bloch_directions(_grid_angles(8, 8))
            values, _ = _qubit_value_grad(t0, ts, 0.5, directions)
            scores = _qubit_scores(t0, ts, 0.5, directions)
            assert np.abs(values - scores).max() <= 1e-14, dim_b

    def test_degenerate_states_reach_the_old_path(self):
        for k, rho in enumerate(degenerate_qubit_states()):
            result = discord(rho, Hybrid())
            assert result.trace.converged, k
            assert result.classical_correlation >= old_path_j(rho, Hybrid()) - 1e-14, k

    def test_circle_of_optima(self):
        """c = (-0.2, 0.4, -0.4): every direction in the yz plane is optimal."""
        rho = degenerate_qubit_states()[9]
        result = discord(rho, Hybrid())
        expected = 1.0 - binary_entropy(0.7)
        assert abs(result.classical_correlation - expected) <= 1e-12
        assert abs(result.optimal_measurement.bloch_vector()[0]) <= 1e-6

    @pytest.mark.parametrize("dim_b", [2, 3, 4])
    def test_flat_objective_takes_no_step(self, dim_b):
        """On a product state J is 0 for every measurement, so the gradient is
        rounding and no step's first-order gain exceeds REFINE_MARGIN: the
        ascent rates its starts, scores them again and stops."""
        rho = degenerate_qubit_states()[3 * (dim_b - 2) + 1]
        trace = discord(rho, Hybrid()).trace
        assert trace.converged
        assert trace.n_evals == len(_grid_angles(32, 64)) + 2 * _REFINE_TOP

    @pytest.mark.parametrize(
        "dim_b, seed, n_evals", [(2, 3200, 1033), (3, 3201, 1036), (4, 3202, 1034)]
    )
    def test_evaluation_counts_pinned(self, dim_b, seed, n_evals):
        """Grid points, the five starts, every trial point and the final
        rescore; the ascent is deterministic."""
        assert discord(random_bipartite(2, dim_b, seed), Hybrid()).trace.n_evals == n_evals


# -- Koashi-Winter oracle for rank-2 dA x 2 states --------------------------------


def rank_two_state(dim_a, seed):
    """A rank-2 dA x 2 state from a Haar 2-frame and Dirichlet weights, and
    the columns sqrt(w_e) |f_e> of its purification on a qubit E."""
    rng = np.random.default_rng(seed)
    frame = random_unitary(2 * dim_a, rng)[:, :2] * np.sqrt(rng.dirichlet(np.ones(2)))
    rho = BipartiteState.from_matrix(frame @ frame.conj().T, dim_a, 2)
    return rho, frame


def koashi_winter_j(rho, frame):
    """J(B|A) over POVMs on A, S(B) - E_F(rho_BE) (Koashi and Winter 2004).

    With |psi> = sum_e sqrt(w_e) |f_e>_AB |e>_E, rho_BE = sum_a x_a x_a^dag
    for x_a = <a|_A psi, and Wootters' concurrence is max(0, l_1 - l_2 - ...)
    over the singular values l of X^T (sigma_y (x) sigma_y) X (Wootters 1998).
    """
    x = frame.reshape(rho.dim_a, 4).T
    yy = np.kron(PAULIS[1], PAULIS[1])
    sv = np.linalg.svd(x.T @ yy @ x, compute_uv=False)
    concurrence = max(0.0, sv[0] - sv[1:].sum())
    e_f = binary_entropy((1.0 + np.sqrt(1.0 - concurrence**2)) / 2.0)
    return von_neumann_entropy(partial_trace(rho, "B")) - e_f


class TestKoashiWinter:
    COUNTS = {2: 30, 3: 8, 4: 8}

    def test_oracle_on_states_of_known_j(self):
        """A pure A times a rank-2 B state has J = 0, so E_F(rho_BE) = S(B) > 0;
        a rank-2 Bell-diagonal state has J = 1 - h((1 + max|c_i|) / 2) = 1,
        because any two vertices of the tetrahedron share a coordinate."""
        rng = np.random.default_rng(2004)
        bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]).T
        for k in range(20):
            psi = random_unitary(2, rng)[:, 0]
            q = rng.uniform(0.1, 0.5)
            frame = np.kron(psi[:, None], random_unitary(2, rng) * np.sqrt([q, 1.0 - q]))
            rho = BipartiteState.from_matrix(frame @ frame.conj().T, 2, 2)
            assert von_neumann_entropy(partial_trace(rho, "B")) >= 0.4, k
            assert abs(koashi_winter_j(rho, frame)) <= 1e-13, k
            frame = bells[:, rng.choice(4, 2, replace=False)] / np.sqrt(2.0)
            frame = frame * np.sqrt(rng.dirichlet(np.ones(2)))
            rho = BipartiteState.from_matrix(frame @ frame.conj().T, 2, 2)
            assert abs(koashi_winter_j(rho, frame) - 1.0) <= 1e-13, k

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_j_never_exceeds_the_povm_value(self, dim_a):
        strategies = [Hybrid(), MultiStart(restarts=2)] + ([Grid()] if dim_a == 2 else [])
        for k in range(self.COUNTS[dim_a]):
            rho, frame = rank_two_state(dim_a, [2004, dim_a, k])
            j_kw = koashi_winter_j(rho, frame)
            for strategy in strategies:
                j, _ = classical_correlation(rho, strategy)
                assert j <= j_kw + 1e-14, (k, strategy)
                if dim_a == 2 and isinstance(strategy, Hybrid):
                    assert j_kw - j <= 1e-7, k


# -- MultiStart: gradient ascent on U(dA) -----------------------------------------


def random_tangents(us, rng):
    """A unit tangent vector Omega U at each frame U, Omega skew-Hermitian."""
    a = rng.standard_normal(us.shape) + 1j * rng.standard_normal(us.shape)
    tangents = (a - a.conj().swapaxes(-1, -2)) @ us
    return tangents / np.linalg.norm(tangents, axis=(1, 2))[:, None, None]


def rank_deficient_qudit_states(dim_a):
    """States with pure or vanishing conditional blocks at their optimal
    frames: the two pinned-A states, a Haar-pure A times a mixed B, and CQ
    states, at dB = 2 and 3."""
    states = []
    for dim_b in (2, 3):
        seed = [3500, dim_a, dim_b]
        states += pinned_a_states(dim_a, dim_b, seed)
        states.append(
            product_state(
                random_density(dim_a, "haar-pure", seed + [1]),
                random_density(dim_b, "hilbert-schmidt", seed + [2]),
            )
        )
        states += [cq_state(seed + [3], dim_a, dim_b), equal_weight_cq(dim_a, dim_b, seed + [4])]
    return states


class TestUnitaryAscent:
    """MultiStart refines its frames by gradient ascent on U(dA)."""

    DIMS = [(3, 2), (3, 3), (4, 2)]
    IDS = ["3x2", "3x3", "4x2"]

    @staticmethod
    def operators(rho):
        r4 = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
        return r4, von_neumann_entropy(partial_trace(rho, "B"))

    @pytest.mark.parametrize("dims", DIMS, ids=IDS)
    def test_gradient_matches_a_central_difference(self, dims):
        eps = 1e-5
        for k in range(5):
            rho = random_bipartite(*dims, [3400, *dims, k])
            r4, s_b = self.operators(rho)
            rng = np.random.default_rng([3401, *dims, k])
            us = np.stack([random_unitary(dims[0], rng) for _ in range(4)])
            _, grads = _unitary_value_grad(r4, s_b, us)
            # The gradient is a tangent vector: U^dag (G U) is skew-Hermitian.
            skew = us.conj().swapaxes(-1, -2) @ grads
            assert np.abs(skew + skew.conj().swapaxes(-1, -2)).max() <= 1e-14, k
            tangents = random_tangents(us, rng)
            plus = _unitary_scores(r4, s_b, _unitary_factor(us, eps * tangents))
            minus = _unitary_scores(r4, s_b, _unitary_factor(us, -eps * tangents))
            difference = (plus - minus) / (2.0 * eps)
            slopes = (grads.conj() * tangents).real.sum(axis=(1, 2))
            norms = np.linalg.norm(grads, axis=(1, 2))
            assert (np.abs(difference - slopes) <= 1e-6 * norms).all(), k

    @pytest.mark.parametrize("dims", DIMS + [(4, 4)], ids=IDS + ["4x4"])
    def test_values_are_the_scores_up_to_rounding(self, dims):
        rng = np.random.default_rng([3402, *dims])
        for rho in [random_bipartite(*dims, rng)] + pinned_a_states(*dims, rng):
            r4, s_b = self.operators(rho)
            frames = [random_unitary(dims[0], rng) for _ in range(8)]
            us = np.stack([np.eye(dims[0], dtype=complex)] + frames)
            values, _ = _unitary_value_grad(r4, s_b, us)
            assert np.abs(values - _unitary_scores(r4, s_b, us)).max() <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_retracted_frames_are_unitary(self, dim):
        """Steps as long as the first step pi/4 or as short as the step
        tolerance; a zero step stays at its frame."""
        rng = np.random.default_rng([3403, dim])
        us = np.stack([random_unitary(dim, rng) for _ in range(12)])
        lengths = np.array([np.pi / 4.0, discord_module._MAX_STEP, ANGLE_STEP_TOL] * 4)
        for steps in (random_tangents(us, rng) * lengths[:, None, None], np.zeros_like(us)):
            q = _unitary_factor(us, steps)
            defect = q.conj().swapaxes(-1, -2) @ q - np.eye(dim)
            assert np.abs(defect).max() <= 1e-14
        assert np.abs(q - us).max() <= 1e-14

    @pytest.mark.parametrize("dim_a", [3, 4])
    def test_rank_deficient_conditionals_reach_zero_discord(self, dim_a):
        """Every state here has zero discord, so J = I(A:B) exactly.  The
        pattern search could read up to 1.5e-12 above that, by moving an
        outcome's probability just below ZERO_CUTOFF, where the scorer drops
        it; J matches it wherever it stayed at or below the exact value."""
        for k, rho in enumerate(rank_deficient_qudit_states(dim_a)):
            result = discord(rho, MultiStart())
            assert abs(result.value) <= 1e-14, k
            exact = result.mutual_information
            assert result.classical_correlation >= min(old_multistart_j(rho, 20), exact) - 1e-14, k

    @pytest.mark.parametrize("dims", DIMS + [(4, 4)], ids=IDS + ["4x4"])
    def test_never_below_the_pattern_search(self, dims):
        for k in range(6):
            rho = random_bipartite(*dims, [3300, *dims, k])
            j, _ = classical_correlation(rho, MultiStart())
            assert j >= old_multistart_j(rho, 20) - 1e-14, k

    @pytest.mark.parametrize("dims, seed, n_evals", [((3, 3), 3404, 965), ((4, 2), 3405, 647)])
    def test_evaluation_counts_pinned(self, dims, seed, n_evals):
        """The frames, the ascent's starts, every trial point and the final
        rescore; the ascent is deterministic."""
        assert discord(random_bipartite(*dims, seed), MultiStart()).trace.n_evals == n_evals

    def test_rank_two_shortfall_closes(self):
        """The default MultiStart(20) once stopped 2.19e-7 below the
        Koashi-Winter value on this 4x2 state."""
        rho, frame = rank_two_state(4, [17, 4, 5])
        j, _ = classical_correlation(rho, MultiStart())
        assert 0.0 <= koashi_winter_j(rho, frame) - j <= 1e-9
