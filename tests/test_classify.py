import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit import classify

from discordkit.annihilators import random_da_spec, build_da_channel
from discordkit.channels import (
    QuantumChannel,
    UnitalQubitParams,
    _in_cptp_tetrahedron,
    _cq_form,
    _swap_slots,
    _unital_qubit_chois,
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
    Verdict,
    _eb_decision,
    _hermitian_probe_inputs,
    _point_decision,
    _probe_pair_witness,
    _qc_decision,
    classify_channel,
    is_entanglement_breaking,
    is_point_channel,
    is_qc_channel,
    recheck_witness,
    sweep_to_csv,
    tetrahedron_sweep,
    witness_probe_states,
)
from discordkit.discord import (
    Hybrid,
    _cq_conditionals,
    _cq_draws,
    _cq_residuals,
    discord,
    is_cq_exact,
)
from discordkit.serialize import da_spec_to_json
from discordkit.states import (
    DensityOperator,
    _validate_states,
    basis_ket,
    bell_state,
    random_density,
    random_unitary,
)
from discordkit.tolerances import CQ_TOL


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


def near_qc_channel(k, weight):
    """The k-th seeded qubit QC channel mixed with ``weight`` of a random channel."""
    rng = np.random.default_rng([k, 3])
    frame = random_unitary(2, rng)
    qc = make_qc_channel(random_povm(2, 2, rng), [frame[:, 0], frame[:, 1]])
    return mix_channels([(1 - weight, qc), (weight, random_channel(2, 2, 2, rng))])


def near_qc_corpus(dim_in, dim_out, weight, n):
    """``n`` seeded measure-and-prepare channels ``dim_in -> dim_out``, each
    mixed with ``weight`` of a random channel."""
    channels = []
    for k in range(n):
        rng = np.random.default_rng([k, dim_in, dim_out, 17])
        frame = random_unitary(dim_out, rng)
        qc = make_qc_channel(random_povm(dim_in, dim_out, rng), list(frame.T))
        noise = random_channel(dim_in, dim_out, 2, rng)
        channels.append(mix_channels([(1 - weight, qc), (weight, noise)]) if weight else qc)
    return channels


def qc_decision_kraus_route(chois, dim_in, tol):
    """The kinds and residuals of ``_qc_decision`` as it rebuilt channels
    before it read the Choi matrix off the CQ form: each accepted draw's POVM
    ``F_k = dim_in * p_k * tau_k^T`` and basis became the Kraus operators
    ``sqrt(mu_m) |k><v_m|`` (one ``eigh`` per element, ``mu_m`` above 1e-14),
    checked for completeness, and their Choi matrix was compared with the
    channel's."""
    n, d = chois.shape[:2]
    dim_out = d // dim_in
    swapped = chois.reshape(n, dim_in, dim_out, dim_in, dim_out).transpose(0, 2, 1, 4, 3)
    nus, error = _validate_states(swapped.reshape(n, d, d) / dim_in)
    assert error is None
    residuals, _ = _cq_residuals(nus, dim_out, dim_in)
    verdicts = [("no", residual) for residual in residuals]
    cq = np.flatnonzero(np.array(residuals) <= tol)
    done = {}
    misses = {int(row): [] for row in cq}
    for relative, accepted, basis, weights, blocks in _cq_draws(nus[cq], dim_out, dim_in, tol):
        rows = [i for i in np.flatnonzero(accepted).tolist() if i not in done]
        if rows:
            probs, conditionals = _cq_conditionals(weights[rows], blocks[rows])
            for i, p, taus in zip(rows, probs, conditionals):
                kraus = []
                for p_k, tau, ket in zip(p, taus, basis[i].T):
                    f = dim_in * p_k * tau.T
                    eigvals, eigvecs = np.linalg.eigh((f + f.conj().T) / 2.0)
                    for mu, vec in zip(eigvals, eigvecs.T):
                        if mu > 1e-14:
                            kraus.append(np.sqrt(mu) * np.outer(ket, vec.conj()))
                row = int(cq[i])
                choi = QuantumChannel(np.array(kraus)).choi
                residual = np.linalg.norm(choi - chois[row]) / max(1.0, np.linalg.norm(chois[row]))
                if residual <= tol:
                    done[i] = verdicts[row] = ("yes", residual)
                else:
                    misses[row].append(residual)
        if len(done) == len(cq):
            break
    for i, row in enumerate(cq.tolist()):
        if i not in done:
            verdicts[row] = ("no", min(misses[row], default=float(relative[i])))
    return verdicts


def qc_decision_eager(chois, dim_in, tol):
    """The verdicts of ``_qc_decision`` as it built them before it answered in
    arrays: the rebuild made a ``Verdict`` for every CQ row and kept each row's
    rebuild misses in a list."""
    dim_out = chois.shape[-1] // dim_in
    nus, error = _validate_states(_swap_slots(chois, dim_in, dim_out) / dim_in, name="swapped Choi")
    assert error is None
    residuals, _ = _cq_residuals(nus, dim_out, dim_in)
    cq = np.flatnonzero(residuals <= tol).tolist()
    scales = np.maximum(1.0, np.array([np.linalg.norm(chois[row]) for row in cq]))
    verdicts = {row: None for row in cq}
    misses = {row: [] for row in cq}
    for relative, accepted, basis, weights, blocks in _cq_draws(nus[cq], dim_out, dim_in, tol):
        rows = [i for i in np.flatnonzero(accepted).tolist() if verdicts[cq[i]] is None]
        if rows:
            probs, conditionals = _cq_conditionals(weights[rows], blocks[rows])
            weighted = (dim_in * probs)[..., None, None] * conditionals
            rebuilt = _swap_slots(_cq_form(basis[rows], weighted), dim_out, dim_in)
            for k, i in enumerate(rows):
                residual = float(np.linalg.norm(rebuilt[k] - chois[cq[i]]) / scales[i])
                if residual <= tol:
                    povm, kets = list(weighted[k].transpose(0, 2, 1)), list(basis[i].T)
                    details = {"povm": povm, "basis": kets}
                    verdicts[cq[i]] = Verdict(kind="yes", residual=residual, details=details)
                else:
                    misses[cq[i]].append(residual)
        if all(verdicts.values()):
            break
    notes = (
        "Choi is classical on the output slot but the extracted form "
        "does not reproduce the channel"
    )
    for i, row in enumerate(cq):
        if verdicts[row] is None:
            residual = min(misses[row], default=float(relative[i]))
            verdicts[row] = Verdict(kind="no", residual=residual, notes=notes)
    return [
        verdicts.get(row) or Verdict(kind="no", residual=float(residual))
        for row, residual in enumerate(residuals)
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
            verdict = is_qc_channel(near_qc_channel(k, weight), tol=tol)
            assert (verdict.kind == "yes") == (verdict.residual <= tol), (k, verdict)
            kinds.append(verdict.kind)
        if weight < tol:
            assert "yes" in kinds

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_rebuild_matches_the_kraus_route(self, dims, tol):
        kinds = []
        for weight in (0.0, 1e-9, 1e-4, 1e-3):
            chois = np.array([c.choi for c in near_qc_corpus(*dims, weight, 12)])
            reference = qc_decision_kraus_route(chois, dims[0], tol)
            for verdict, (kind, residual) in zip(_qc_decision(chois, dims[0], tol), reference):
                assert verdict.kind == kind
                assert abs(verdict.residual - residual) <= 1e-15
                kinds.append(kind)
        assert "yes" in kinds and "no" in kinds

    def test_details_rebuild_the_decisions_choi_matrix(self, monkeypatch):
        # make_qc_channel on a "yes" verdict's POVM and basis builds, bit for
        # bit, the Choi matrix that the decision rebuilt and accepted.
        swap, rebuilt = classify._swap_slots, []

        def recorded(*args):
            rebuilt.append(swap(*args))
            return rebuilt[-1]

        monkeypatch.setattr(classify, "_swap_slots", recorded)
        channels = [z_dephasing(), make_unital_qubit(UnitalQubitParams(0, 0, 0.7))]
        for dims in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            channels += near_qc_corpus(*dims, 0.0, 6) + near_qc_corpus(*dims, 1e-9, 6)
        for channel in channels:
            verdict = is_qc_channel(channel)
            assert verdict.kind == "yes"
            built = make_qc_channel(verdict.details["povm"], verdict.details["basis"])
            assert np.array_equal(built.choi, rebuilt[-1][0])

    @pytest.mark.parametrize("k", [16, 22, 33, 36, 57])
    def test_loose_tolerance_tries_every_draw(self, k):
        # The channel rebuilt from the first accepted decomposition draw misses
        # by 1.0e-3 to 1.6e-3; a later draw rebuilds it within 1.3e-4.
        verdict = is_qc_channel(near_qc_channel(k, 1e-4), tol=1e-3)
        assert verdict.kind == "yes"
        assert verdict.residual <= 1e-3

    def test_depolarizing_no_with_noncommuting_witness(self):
        channel = make_unital_qubit(UnitalQubitParams(0.5, 0.5, 0.5))
        verdict = is_qc_channel(channel)
        assert verdict.kind == "no"
        w = verdict.witness
        assert w["kind"] == "noncommuting-outputs"
        assert recheck_witness(channel, w) >= w["commutator_norm"] / 2


def verdict_bytes(verdict):
    """Kind, residual, notes and details of a witness-free verdict, as bytes."""
    details = {
        key: [(a.shape, a.tobytes()) for a in map(np.asarray, value)]
        for key, value in (verdict.details or {}).items()
    }
    return verdict.kind, struct.pack("<d", verdict.residual), verdict.notes, details


def qc_corpus():
    """Seeded channels by ``(dim_in, dim_out)``: qubit measure-and-prepare
    channels mixed with a little of a random channel, mixtures at d = 2 and 3,
    random channels and point channels.  At each tolerance some CQ rows are
    not rebuilt."""
    corpus = {dims: [] for dims in [(2, 2), (2, 3), (3, 2), (3, 3)]}
    for eps in (0.0, 2e-8, 5e-8, 1e-7, 1e-4, 1e-3, 5e-3):
        corpus[2, 2] += [near_qc_channel(k, eps) for k in range(12)]
    for dims in [(2, 3), (3, 2), (3, 3)]:
        for weight in (0.0, 1e-7, 1e-4, 1e-3):
            corpus[dims] += near_qc_corpus(*dims, weight, 4)
    for d in (2, 3):
        corpus[d, d] += [random_channel(d, d, 2, [d, k, 29]) for k in range(3)]
        sigmas = [random_density(d, "hilbert-schmidt", [d, k]) for k in range(2)]
        corpus[d, d] += [make_point_channel(sigma) for sigma in sigmas]
    return corpus


class TestQCDecisionMatchesEagerRebuild:
    """The array bookkeeping of ``_qc_decision`` gives, bit for bit, the
    verdicts that the eager rebuild built row by row."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 3e-3])
    def test_stacks_and_single_channels(self, tol):
        kinds, unrebuilt = set(), 0
        for (dim_in, _), channels in qc_corpus().items():
            chois = np.array([c.choi for c in channels])
            reference = [verdict_bytes(v) for v in qc_decision_eager(chois, dim_in, tol)]
            assert [verdict_bytes(v) for v in _qc_decision(chois, dim_in, tol)] == reference
            for choi, expected in zip(chois, reference):
                (single,) = _qc_decision(choi[None], dim_in, tol)
                assert verdict_bytes(single) == expected
                kinds.add(expected[0])
                unrebuilt += bool(expected[2])
        assert kinds == {"yes", "no"}
        assert unrebuilt > 0


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

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 2)])
    def test_ab_takes_one_svd_of_the_transfer_matrix(self, monkeypatch, dims):
        # The screening and the structural match read one cached analysis; the
        # commutant's SVD factors a matrix of another shape.
        channel = build_da_channel(random_da_spec(*dims, [3, 17]))
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = classify_channel(channel, ActsOnAB(*dims))
        assert report.label == "da" and report.match.matched
        t_shape = channel.transfer().shape
        assert shapes.count(t_shape) == 1
        assert len(shapes) > 1

    def test_point_on_b(self):
        sigma = random_density(2, "hilbert-schmidt", 4)
        report = classify_channel(make_point_channel(sigma), ActsOnB(dim_a=2))
        assert report.label == "db-b"

    @staticmethod
    def near_family_corpus(side, eps):
        """A measure-and-prepare channel in a Haar basis (side A) or a point
        channel (side B), mixed with ``eps`` of a random channel, seeds 0-9."""
        for s in range(10):
            if side == "A":
                frame = random_unitary(2, [s, 1])
                kets = [frame[:, k] for k in range(2)]
                member = make_qc_channel([np.outer(k, k.conj()) for k in kets], kets)
            else:
                member = make_point_channel(random_density(2, "hilbert-schmidt", [s, 1]))
            yield mix_channels([(1 - eps, member), (eps, random_channel(2, 2, 2, [s, 2]))])

    @pytest.mark.parametrize(
        "side, eps, witnessed, unwitnessed",
        [("A", 2e-8, 0, 6), ("B", 5e-8, 0, 10), ("A", 1e-3, 10, 0), ("B", 1e-3, 10, 0)],
    )
    def test_every_not_db_report_says_why(self, side, eps, witnessed, unwitnessed):
        """Each "not-db" label carries a witness whose output re-checks as not
        CQ, or a note that every probe output was CQ within ``cq_tol``."""
        context = ActsOnA(dim_b=2) if side == "A" else ActsOnB(dim_a=2)
        notes, n_witnessed = [], 0
        for channel in self.near_family_corpus(side, eps):
            report = classify_channel(channel, context)
            if report.label == "db-" + side.lower():
                continue
            assert report.label == "not-db-" + side.lower()
            if report.witness is None:
                notes.append(report.db_verdict.notes)
                continue
            check = is_cq_exact(extend(channel, side, 2).apply(report.witness["input"]))
            assert check.residual == report.witness["cq_residual"] > CQ_TOL
            assert "no discordant output" not in report.db_verdict.notes
            n_witnessed += 1
        assert (n_witnessed, len(notes)) == (witnessed, unwitnessed)
        for note in notes:
            _, found, tail = note.partition("no discordant output among 500 probe inputs: ")
            assert found and tail.endswith(f" is within cq_tol {CQ_TOL:.3e}")
            assert float(tail.split()[4]) <= CQ_TOL

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
        assert report.label == "inconclusive"
        assert "certification" not in report.match.notes

    @pytest.mark.parametrize("dims", [(3, 2), (4, 2)])
    def test_recovered_spec_independent_of_seed(self, dims):
        channel = build_da_channel(random_da_spec(*dims, [13, *dims]))
        specs = set()
        for seed in range(5):
            report = classify_channel(channel, ActsOnAB(*dims), seed=seed, samples=20)
            assert report.label == "da"
            specs.add(json.dumps(da_spec_to_json(report.match.spec), sort_keys=True))
        assert len(specs) == 1

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
    "make, message",
    [
        (lambda: ActsOnA(dim_b=0), "dim_b must be at least 2, got 0"),
        (lambda: ActsOnB(dim_a=0), "dim_a must be at least 2, got 0"),
        (lambda: ActsOnAB(dim_a=0, dim_b=2), "dim_a must be at least 1, got 0"),
        (lambda: ActsOnAB(dim_a=2, dim_b=-1), "dim_b must be at least 1, got -1"),
        (lambda: ActsOnA(dim_b=1), "dim_b must be at least 2, got 1"),
        (lambda: ActsOnB(dim_a=1), "dim_a must be at least 2, got 1"),
    ],
    ids=["A", "B", "AB-a", "AB-b", "A-1", "B-1"],
)
def test_context_dimension_below_one_rejected(make, message):
    """A one-dimensional other subsystem on side A or B is refused too: every
    state on it is CQ, so every channel would break discord there."""
    with pytest.raises(ValueError, match=f"^{message}$"):
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


def bits(verdict):
    return verdict.kind, struct.pack("<d", verdict.residual)


def grid_slabs(step):
    """The sweep's slabs at ``step``: each ``l1`` with the arrays of the
    ``(l2, l3)`` grid points inside the tetrahedron, in row order."""
    values = -1.0 + step * np.arange(int(round(2.0 / step)) + 1)
    l2, l3 = (a.ravel() for a in np.meshgrid(values, values, indexing="ij"))
    for l1 in values.tolist():
        inside = _in_cptp_tetrahedron(l1, l2, l3)
        if inside.any():
            yield l1, l2[inside], l3[inside]


def special_points():
    """The four vertices, where three Pauli weights drop, and points on the six
    edges, where two drop."""
    vertices = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=float)
    points = [tuple(v) for v in vertices.tolist()]
    for a in range(4):
        for b in range(a + 1, 4):
            for t in (0.125, 0.3, 0.5, 0.7):
                points.append(tuple(((1 - t) * vertices[a] + t * vertices[b]).tolist()))
    return points


def interior_points(n, seed):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        lam = rng.uniform(-1.0, 1.0, 3)
        if _in_cptp_tetrahedron(*lam, tol=-1e-3):
            points.append(tuple(lam.tolist()))
    return points


class TestStackedDecisions:
    """The slab path of the sweep (Choi stack, stacked decisions) against one
    channel at a time, bit for bit."""

    DECISIONS = (_qc_decision, _point_decision)

    def assert_stack_matches(self, l1, l2, l3):
        chois = _unital_qubit_chois(l1, l2, l3)
        stacked = [decide(chois, 2) for decide in self.DECISIONS] + [_eb_decision(chois, 2)]
        points = np.broadcast_arrays(l1, l2, l3)
        for i, lam in enumerate(zip(*(p.tolist() for p in points))):
            channel = make_unital_qubit(UnitalQubitParams(*lam))
            assert np.array_equal(chois[i], channel.choi), lam
            singles = [decide(channel.choi[None], 2) for decide in self.DECISIONS]
            singles.append(_eb_decision(channel.choi[None], 2))
            for verdicts, (single,) in zip(stacked, singles):
                assert bits(verdicts[i]) == bits(single), lam
        return stacked

    def test_every_grid_point_at_step_sixteenth(self):
        n_rows = 0
        for l1, l2, l3 in grid_slabs(0.0625):
            n_rows += len(self.assert_stack_matches(l1, l2, l3)[0])
        assert n_rows == 12001

    @pytest.mark.parametrize(
        "points", [interior_points(100, 2026), special_points()], ids=["interior", "vertices-edges"]
    )
    def test_public_verdicts(self, points):
        l1, l2, l3 = np.array(points).T
        qc, point, eb = self.assert_stack_matches(l1, l2, l3)
        for i, lam in enumerate(points):
            channel = make_unital_qubit(UnitalQubitParams(*lam))
            assert bits(qc[i]) == bits(is_qc_channel(channel)), lam
            assert bits(point[i]) == bits(is_point_channel(channel)), lam
            assert bits(eb[i]) == bits(is_entanglement_breaking(channel)), lam

    @pytest.mark.parametrize("weight", [1e-4, 1e-3])
    def test_rows_that_need_later_draws(self, weight):
        # At tol 1e-3 rows finish at different draws, and at weight 1e-3 four
        # stay "no"; the stack must decide each row as it would alone.
        channels = [near_qc_channel(k, weight) for k in range(60)]
        stacked = _qc_decision(np.array([c.choi for c in channels]), 2, 1e-3)
        for channel, verdict in zip(channels, stacked):
            (single,) = _qc_decision(channel.choi[None], 2, 1e-3)
            assert bits(verdict) == bits(single)
            assert bits(verdict) == bits(is_qc_channel(channel, 1e-3))
        assert sum(v.kind == "no" for v in stacked) == (0 if weight < 1e-3 else 4)

    def test_weights_drop_where_expected(self):
        # The Pauli Choi matrices are orthogonal rank-one projectors times 2, so
        # the rank of J counts the kept weights.
        chois = _unital_qubit_chois(*np.array(special_points()).T)
        ranks = (np.linalg.eigvalsh(chois) > 1e-12).sum(axis=1)
        assert ranks.tolist() == [1] * 4 + [2] * 24

    def test_eb_column_is_ruskai_closed_form(self):
        # Ruskai 2003: entanglement breaking exactly when |l1| + |l2| + |l3| <= 1.
        points = interior_points(100, 2027) + special_points()
        l1, l2, l3 = np.array(points).T
        chois = _unital_qubit_chois(l1, l2, l3)
        for lam, verdict in zip(points, _eb_decision(chois, 2)):
            total = sum(abs(v) for v in lam)
            if abs(total - 1.0) > 1e-9:
                assert (verdict.kind == "yes") == (total < 1.0), lam


class TestTetrahedronSweep:
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_one_stacked_decision_per_stack(self, monkeypatch, side):
        calls = {"decide": [], "eb": []}
        name = "_qc_decision" if side == "A" else "_point_decision"
        decide, eb = getattr(classify, name), classify._eb_decision

        def counted(chois, dim_in, tol=classify.CQ_TOL):
            calls["decide"].append(len(chois))
            return decide(chois, dim_in, tol)

        def counted_eb(chois, dim_in):
            calls["eb"].append(len(chois))
            return eb(chois, dim_in)

        def refuse(*args, **kwargs):
            raise AssertionError("without probes the sweep builds no channel per row")

        monkeypatch.setattr(classify, name, counted)
        monkeypatch.setattr(classify, "_eb_decision", counted_eb)
        monkeypatch.setattr(classify, "QuantumChannel", refuse)
        assert len(tetrahedron_sweep(step=0.25, side=side)) == 249
        assert calls == {"decide": [249], "eb": [249]}
        # Slabs of up to 545 rows at step 1/16: stacks split and join them.
        calls["decide"], calls["eb"] = [], []
        rows = tetrahedron_sweep(step=0.0625, side=side)
        sizes = calls["decide"]
        assert calls["eb"] == sizes and sum(sizes) == len(rows) == 12001
        assert sizes[:-1] == [classify.SWEEP_STACK] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= classify.SWEEP_STACK

    @pytest.mark.parametrize("side, cq_rows", [("A", 49), ("B", 0)])
    def test_no_verdict_for_a_row_that_is_not_cq(self, monkeypatch, side, cq_rows):
        # The sweep reads only the yes masks, so no row gets a Verdict, a
        # witness or a fixed state: not even side A's 49 CQ rows on the axes,
        # which are rebuilt and all pass.
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs["kind"])
            return Verdict(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a no-probe sweep builds no witness or state per row")

        monkeypatch.setattr(classify, "Verdict", counted)
        monkeypatch.setattr(classify, "DensityOperator", refuse)
        monkeypatch.setattr(classify, "_probe_pair_witness", refuse)
        rows = tetrahedron_sweep(step=0.125, side=side)
        assert built == []
        if side == "A":
            assert sum(row.is_db for row in rows) == cq_rows

    @pytest.mark.parametrize("bound", [1, 7, 10**6])
    def test_csv_does_not_depend_on_the_stack_bound(self, monkeypatch, bound):
        expected = {side: sweep_to_csv(tetrahedron_sweep(step=0.25, side=side)) for side in "AB"}
        monkeypatch.setattr(classify, "SWEEP_STACK", bound)
        for side in "AB":
            assert sweep_to_csv(tetrahedron_sweep(step=0.25, side=side)) == expected[side]

    @pytest.mark.parametrize("step", [1e-30, 1e-300, 5e-324])
    def test_step_beyond_an_array_rejected(self, step):
        with pytest.raises(ValueError, match="step .* than numpy can allocate"):
            tetrahedron_sweep(step=step, side="A")

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

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((0, 2), "dim_a must be at least 1, got 0"),
            ((-1, 2), "dim_a must be at least 1, got -1"),
            ((2, 0), "dim_b must be at least 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("budget", [0, 3])
    def test_dimension_below_one_rejected_by_name(self, dims, message, budget):
        with pytest.raises(ValueError, match=f"^{message}$"):
            witness_probe_states(*dims, budget=budget)
