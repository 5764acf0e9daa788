import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit import classify

from discordkit.annihilators import random_da_spec, build_da_channel
from discordkit.channels import (
    QuantumChannel,
    UnitalQubitParams,
    compose,
    extend,
    make_point_channel,
    make_qc_channel,
    make_unital_qubit,
    mix_channels,
    random_channel,
)
from discordkit.classify import (
    ActsOnA,
    ActsOnAB,
    ActsOnB,
    _hermitian_probe_inputs,
    _probe_pair_witness,
    classify_channel,
    is_entanglement_breaking,
    is_point_channel,
    is_qc_channel,
    recheck_witness,
    sweep_to_csv,
    tetrahedron_sweep,
    witness_probe_states,
)
from discordkit.discord import Hybrid, discord, is_cq_exact
from discordkit.states import (
    DensityOperator,
    basis_ket,
    bell_state,
    random_density,
    random_unitary,
)


def z_dephasing():
    return make_qc_channel(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        [basis_ket(2, 0), basis_ket(2, 1)],
    )


def random_povm(dim, n_outcomes, rng):
    """POVM from a random pure-state instrument (columns of a Haar isometry)."""
    u = random_unitary(dim * n_outcomes, rng)
    iso = u[:, :dim]
    return [
        iso[k * dim : (k + 1) * dim].conj().T @ iso[k * dim : (k + 1) * dim]
        for k in range(n_outcomes)
    ]


# The scalar scores the probe-pair witnesses used before pairs became one stack.
PAIR_SCORES_LOOP = {
    "distinct-outputs": ("distance", lambda x, y: float(np.linalg.norm(x - y))),
    "noncommuting-outputs": (
        "commutator_norm",
        lambda x, y: float(np.linalg.norm(x @ y - y @ x)),
    ),
}


def probe_pair_witness_loop(channel, kind):
    """The pair loop that ``_probe_pair_witness`` replaced: pairs in order,
    a strictly higher score replacing the best so far."""
    score_key, score = PAIR_SCORES_LOOP[kind]
    probes = _hermitian_probe_inputs(channel.dim_in)
    images = channel.apply_matrix(np.array(probes))
    best = None
    best_score = 0.0
    for a in range(len(probes)):
        for b in range(a + 1, len(probes)):
            value = score(images[a], images[b])
            if value > best_score:
                best_score = value
                best = (probes[a], probes[b])
    return {
        "kind": kind,
        "input_a": DensityOperator.from_matrix(best[0], name="witness input"),
        "input_b": DensityOperator.from_matrix(best[1], name="witness input"),
        score_key: best_score,
    }


def qutrit_dephasing():
    """The completely dephasing qutrit channel: its probe outputs tie in many pairs."""
    return QuantumChannel([np.diag(basis_ket(3, k)) for k in range(3)])


class TestIsPointChannel:
    def test_point_channel_yes(self):
        sigma = random_density(2, "hilbert-schmidt", 0)
        verdict = is_point_channel(make_point_channel(sigma))
        assert verdict.kind == "yes"
        assert np.linalg.norm(verdict.details["fixed_state"].matrix - sigma.matrix) <= 1e-9

    def test_center_of_tetrahedron_yes(self):
        assert is_point_channel(make_unital_qubit(UnitalQubitParams(0, 0, 0))).kind == "yes"

    def test_dephasing_no_with_witness(self):
        verdict = is_point_channel(z_dephasing())
        assert verdict.kind == "no"
        w = verdict.witness
        assert w["kind"] == "distinct-outputs"
        assert recheck_witness(z_dephasing(), w) >= w["distance"] / 2


class TestIsQCChannel:
    def test_z_povm_recovered(self):
        effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        channel = make_qc_channel(effects, [basis_ket(2, 0), basis_ket(2, 1)])
        verdict = is_qc_channel(channel)
        assert verdict.kind == "yes"
        rebuilt = make_qc_channel(verdict.details["povm"], verdict.details["basis"])
        from discordkit.channels import choi_distance

        assert choi_distance(rebuilt, channel) <= 1e-8

    def test_partial_z_contraction_yes(self):
        assert is_qc_channel(make_unital_qubit(UnitalQubitParams(0, 0, 0.7))).kind == "yes"

    def test_random_qc_channels_yes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            povm = random_povm(2, 2, rng)
            channel = make_qc_channel(povm, [basis_ket(2, 0), basis_ket(2, 1)])
            assert is_qc_channel(channel).kind == "yes"

    @pytest.mark.parametrize("weight", [1e-4, 3e-4, 1e-3, 3e-3])
    def test_loose_tolerance_always_gives_a_verdict(self, weight):
        # Near-QC channels pass the CQ test at 1e-3; a decomposition that
        # does not rebuild the channel within it is a "no", not an error.
        tol = 1e-3
        kinds = []
        for k in range(60):
            rng = np.random.default_rng([k, 3])
            frame = random_unitary(2, rng)
            qc = make_qc_channel(random_povm(2, 2, rng), [frame[:, 0], frame[:, 1]])
            channel = mix_channels([(1 - weight, qc), (weight, random_channel(2, 2, 2, rng))])
            verdict = is_qc_channel(channel, tol=tol)
            assert (verdict.kind == "yes") == (verdict.residual <= tol), (k, verdict)
            kinds.append(verdict.kind)
        if weight < tol:
            assert "yes" in kinds

    def test_depolarizing_no_with_noncommuting_witness(self):
        channel = make_unital_qubit(UnitalQubitParams(0.5, 0.5, 0.5))
        verdict = is_qc_channel(channel)
        assert verdict.kind == "no"
        w = verdict.witness
        assert w["kind"] == "noncommuting-outputs"
        assert recheck_witness(channel, w) >= w["commutator_norm"] / 2


class TestEntanglementBreaking:
    def test_identity_no(self):
        verdict = is_entanglement_breaking(QuantumChannel.identity(2))
        assert verdict.kind == "no"
        assert recheck_witness(QuantumChannel.identity(2), verdict.witness) >= verdict.residual / 2

    def test_point_channel_yes(self):
        sigma = random_density(3, "hilbert-schmidt", 2)
        assert is_entanglement_breaking(make_point_channel(sigma)).kind == "yes"

    def test_depolarizing_boundary_at_one_third(self):
        def flips_at(lo, hi, tol=1e-7):
            while hi - lo > tol:
                mid = (lo + hi) / 2
                verdict = is_entanglement_breaking(
                    make_unital_qubit(UnitalQubitParams(mid, mid, mid))
                )
                if verdict.kind == "yes":
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        boundary = flips_at(0.2, 0.5)
        assert boundary == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_point_channel_yes_in_larger_dims(self):
        # product Choi, separable regardless of dimension
        sigma = random_density(4, "hilbert-schmidt", 3)
        assert is_entanglement_breaking(make_point_channel(sigma)).kind == "yes"

    def test_larger_dims_give_unknown_when_ppt_is_all_we_have(self):
        rng = np.random.default_rng(40)
        povm = random_povm(3, 3, rng)
        channel = make_qc_channel(povm, [basis_ket(3, k) for k in range(3)])
        # separable (measure-and-prepare) but non-product Choi in 3x3
        assert is_entanglement_breaking(channel).kind == "unknown"


class TestClassifyChannel:
    def test_dephasing_on_a(self):
        report = classify_channel(z_dephasing(), ActsOnA(dim_b=2))
        assert report.label == "db-a"
        assert report.eb_verdict.kind == "yes"

    def test_dephasing_on_b_rejected_with_witness(self):
        report = classify_channel(z_dephasing(), ActsOnB(dim_a=2))
        assert report.label == "not-db-b"
        w = report.witness
        assert w["kind"] == "discordant-output"
        extended = extend(z_dephasing(), "B", 2)
        assert not is_cq_exact(extended.apply(w["input"]))

    def test_point_on_b(self):
        sigma = random_density(2, "hilbert-schmidt", 4)
        report = classify_channel(make_point_channel(sigma), ActsOnB(dim_a=2))
        assert report.label == "db-b"

    def test_built_da_channel_on_ab(self):
        spec = random_da_spec(2, 2, 5)
        report = classify_channel(build_da_channel(spec), ActsOnAB(2, 2), samples=60)
        assert report.label == "da"
        assert report.match.matched
        assert report.transfer.rank_deficient

    def test_cq_tol_reaches_structural_match(self):
        # Passes certification at cq_tol = 1e-3 but not at the default; the
        # structural stage must not re-judge the channel at the default.
        da = build_da_channel(random_da_spec(2, 2, 0))
        channel = mix_channels([(1 - 1e-5, da), (1e-5, QuantumChannel.identity(4))])
        assert classify_channel(channel, ActsOnAB(2, 2), samples=20).label == "not-da"
        report = classify_channel(channel, ActsOnAB(2, 2), cq_tol=1e-3)
        assert report.certification.passed
        assert report.match.counterexample is None
        assert "certification" not in report.match.notes

    def test_identity_on_ab_not_da(self):
        report = classify_channel(QuantumChannel.identity(4), ActsOnAB(2, 2), samples=20)
        assert report.label == "not-da"
        assert report.witness["kind"] == "discordant-output"
        assert not report.transfer.rank_deficient

    def test_fifty_random_constructors_classify_correctly(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            povm = random_povm(2, 2, rng)
            qc = make_qc_channel(povm, [basis_ket(2, 0), basis_ket(2, 1)])
            assert classify_channel(qc, ActsOnA(dim_b=2)).label == "db-a"
            sigma = random_density(2, "hilbert-schmidt", rng)
            assert classify_channel(make_point_channel(sigma), ActsOnB(dim_a=2)).label == "db-b"

    def test_classifier_closure_under_pre_composition(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            povm = random_povm(2, 2, rng)
            qc = make_qc_channel(povm, [basis_ket(2, 0), basis_ket(2, 1)])
            pre = random_channel(2, 2, 2, 100 + seed)
            assert classify_channel(compose(qc, pre), ActsOnA(dim_b=2)).label == "db-a"
            sigma = random_density(2, "hilbert-schmidt", 200 + seed)
            point = make_point_channel(sigma)
            assert classify_channel(compose(point, pre), ActsOnB(dim_a=2)).label == "db-b"
            assert classify_channel(compose(pre, point), ActsOnB(dim_a=2)).label == "db-b"


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: ActsOnA(dim_b=0), "dim_b"),
        (lambda: ActsOnB(dim_a=0), "dim_a"),
        (lambda: ActsOnAB(dim_a=0, dim_b=2), "dim_a"),
        (lambda: ActsOnAB(dim_a=2, dim_b=-1), "dim_b"),
    ],
    ids=["A", "B", "AB-a", "AB-b"],
)
def test_context_dimension_below_one_rejected(make, field):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        make()


class TestUnitaryInvariance:
    """Point and measure-and-prepare channels stay so under unitaries before
    and after, and channels outside those families stay outside."""

    @staticmethod
    def family_member(family, dim, rng):
        if family == "qc":
            basis = random_unitary(dim, rng)
            return make_qc_channel(random_povm(dim, dim, rng), list(basis.T))
        if family == "point":
            return make_point_channel(random_density(dim, "hilbert-schmidt", rng))
        return random_channel(dim, dim, 2, rng)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["qc", "point", "random"]),
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_verdict_kinds_invariant(self, family, dim, seed):
        rng = np.random.default_rng(seed)
        channel = self.family_member(family, dim, rng)
        pre = QuantumChannel([random_unitary(dim, rng)])
        post = QuantumChannel([random_unitary(dim, rng)])
        turned = compose(post, compose(channel, pre))
        expected = {
            is_qc_channel: family != "random",
            is_point_channel: family == "point",
        }
        for verdict, yes in expected.items():
            assert verdict(channel).kind == ("yes" if yes else "no")
            assert verdict(turned).kind == verdict(channel).kind


class TestTetrahedronSweep:
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_rows_follow_the_verdicts(self, side):
        verdict = is_qc_channel if side == "A" else is_point_channel
        for row in tetrahedron_sweep(step=0.25, side=side):
            channel = make_unital_qubit(UnitalQubitParams(row.l1, row.l2, row.l3))
            assert row.is_db == (verdict(channel).kind == "yes")

    def test_sweep_builds_no_witness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep discards witnesses, so it must not build one")

        monkeypatch.setattr(classify, "_probe_pair_witness", refuse)
        for side in ("A", "B"):
            assert any(not row.is_db for row in tetrahedron_sweep(step=0.25, side=side))

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_eb_closed_form(self, side):
        # Ruskai 2003: a unital qubit channel is entanglement breaking exactly
        # when |l1| + |l2| + |l3| <= 1.  Grid values are dyadic, so the sum is exact.
        rows = tetrahedron_sweep(step=0.125, side=side)
        assert len(rows) == 1649
        for row in rows:
            assert row.is_eb == (abs(row.l1) + abs(row.l2) + abs(row.l3) <= 1.0), row

    def test_axis_law_side_a(self):
        rows = tetrahedron_sweep(step=0.25, side="A")
        for row in rows:
            on_axis = sum(1 for v in (row.l1, row.l2, row.l3) if abs(v) < 1e-12) >= 2
            assert row.is_db == on_axis

    def test_side_b_flags_only_origin(self):
        rows = tetrahedron_sweep(step=0.25, side="B")
        flagged = [(r.l1, r.l2, r.l3) for r in rows if r.is_db]
        assert flagged == [(0.0, 0.0, 0.0)]

    def test_identity_vertex_keeps_bell_discord(self):
        channel = extend(make_unital_qubit(UnitalQubitParams(1, 1, 1)), "A", 2)
        result = discord(channel.apply(bell_state(0)), Hybrid())
        assert result.value == pytest.approx(1.0, abs=1e-3)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            tetrahedron_sweep(step=0.0, side="A")

    @pytest.mark.parametrize("dim_other", [0, -1])
    def test_dimension_below_one_rejected(self, dim_other):
        with pytest.raises(ValueError, match="dim_other must be at least 1"):
            tetrahedron_sweep(step=0.5, side="A", dim_other=dim_other, n_probe_states=1)

    def test_csv_deterministic(self):
        rows1 = tetrahedron_sweep(step=0.5, side="A", n_probe_states=3, seed=9)
        rows2 = tetrahedron_sweep(step=0.5, side="A", n_probe_states=3, seed=9)
        assert sweep_to_csv(rows1) == sweep_to_csv(rows2)

    def test_csv_header_and_shape(self):
        rows = tetrahedron_sweep(step=1.0, side="A")
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "l1,l2,l3,is_db,is_eb,max_discord"
        assert len(lines) == len(rows) + 1


class TestProbePairWitness:
    @staticmethod
    def corpus():
        channels = [random_channel(d, d, 1 + k % 4, [d, k]) for d in (2, 3, 4) for k in range(60)]
        channels += [qutrit_dephasing(), z_dephasing(), QuantumChannel([np.eye(3)])]
        channels += [
            make_unital_qubit(UnitalQubitParams(l1, l2, l3))
            for l1, l2, l3 in [(1, 0, 0), (0.5, 0.5, 0), (0.5, -0.5, 0), (0.25, 0.25, 0.25)]
        ]
        return channels

    @pytest.mark.parametrize(
        "kind, verdict",
        [("distinct-outputs", is_point_channel), ("noncommuting-outputs", is_qc_channel)],
    )
    def test_bitwise_equal_to_the_pair_loop(self, kind, verdict):
        key = PAIR_SCORES_LOOP[kind][0]
        # A witness is built only for a "no", as the verdicts build it.
        channels = [c for c in self.corpus() if verdict(c).kind == "no"]
        assert len(channels) >= 180
        for channel in channels:
            got = _probe_pair_witness(channel, kind)
            want = probe_pair_witness_loop(channel, kind)
            assert got[key] == want[key]
            assert np.array_equal(got["input_a"].matrix, want["input_a"].matrix)
            assert np.array_equal(got["input_b"].matrix, want["input_b"].matrix)
            assert recheck_witness(channel, got) == got[key]

    def test_first_pair_wins_ties(self):
        channel = qutrit_dephasing()
        images = channel.apply_matrix(np.array(_hermitian_probe_inputs(3)))
        scores = [
            float(np.linalg.norm(images[a] - images[b]))
            for a in range(len(images))
            for b in range(a + 1, len(images))
        ]
        assert scores.count(max(scores)) > 1
        got = _probe_pair_witness(channel, "distinct-outputs")
        assert np.array_equal(got["input_a"].matrix, np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(got["input_b"].matrix, np.diag([0.0, 1.0, 0.0]))


class TestWitnessProbeStates:
    def test_budget_counts_states(self):
        assert len(witness_probe_states(2, 2, budget=3)) == 3
        assert witness_probe_states(2, 2, budget=0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be at least 0"):
            witness_probe_states(2, 2, budget=-1)
