"""The one CQ scan: a lazy, chunked pull that matches the eager scan bit for bit.

``_cq_scan`` pulls its inputs in chunks of 1, 2, 4, ... and every input family
is a generator.  The eager reference below is a verbatim copy of the list
builders and the scan loop that came before: each test checks that the lazy
scan returns the same outputs, ``n_checked``, residuals and worst and failing
inputs, bit for bit, and that a failing scan builds at most
``2 * n_checked - 1`` inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from discordkit import annihilators, classify
from discordkit.annihilators import (
    CertificationReport,
    _cq_scan,
    apply_and_certify,
    build_da_channel,
    random_da_spec,
    structural_match,
)
from discordkit.channels import (
    QuantumChannel,
    compose,
    extend,
    make_point_channel,
    random_channel,
)
from discordkit.classify import (
    ActsOnA,
    ActsOnB,
    _discordant_output_witness,
    _fourier_ket,
    classify_channel,
    is_local_da,
    witness_probe_states,
)
from discordkit.discord import is_cq_exact
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    as_rng,
    basis_ket,
    bell_state,
    max_entangled,
    random_density,
)
from discordkit.tolerances import CQ_TOL

# -- eager reference: the list builders and scan loop, verbatim ----------------------


@dataclass(frozen=True, eq=False)
class _CQScan:
    """Outputs of a channel on a run of inputs, up to the first non-CQ one."""

    outputs: list[BipartiteState]
    worst_residual: float
    worst_input: BipartiteState | None
    failing_input: BipartiteState | None = None
    failing_residual: float | None = None


def cq_scan_loop(channel: QuantumChannel, inputs, tol: float = CQ_TOL) -> _CQScan:
    outputs = []
    worst, worst_input = 0.0, None
    for state in inputs:
        outputs.append(channel.apply(state))
        check = is_cq_exact(outputs[-1], tol)
        if check.residual > worst:
            worst, worst_input = check.residual, state
        if not check:
            return _CQScan(outputs, worst, worst_input, state, check.residual)
    return _CQScan(outputs, worst, worst_input)


def boundary_inputs_list(dim_a: int, dim_b: int, rng) -> list[BipartiteState]:
    states = []
    pure_a = basis_ket(dim_a, 0)
    pure_b = basis_ket(dim_b, 0)
    states.append(
        BipartiteState(dim_a, dim_b, DensityOperator.pure(np.kron(pure_a, pure_b)))
    )
    va = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    vb = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
    states.append(BipartiteState(dim_a, dim_b, DensityOperator.pure(np.kron(va, vb))))
    if min(dim_a, dim_b) >= 2:
        states.append(max_entangled(dim_a, dim_b))
    d = dim_a * dim_b
    if d >= 2:
        states.append(
            BipartiteState(dim_a, dim_b, random_density(d, "rank", rng, rank=max(1, d // 2)))
        )
    return states


def certification_inputs_list(dim_a, dim_b, n_samples=200, seed=0):
    d = dim_a * dim_b
    inputs = boundary_inputs_list(dim_a, dim_b, as_rng([seed, 0xB0]))
    for index in range(n_samples):
        inputs.append(
            BipartiteState(
                dim_a, dim_b, random_density(d, "hilbert-schmidt", as_rng([seed, index]))
            )
        )
    return inputs


def match_probes_list(dim_a, dim_b, rng):
    d = dim_a * dim_b
    probes = [BipartiteState(dim_a, dim_b, DensityOperator.maximally_mixed(d))]
    for _ in range(4 * dim_a * dim_a):
        mixed = DensityOperator.maximally_mixed(d).matrix
        noise = random_density(d, "hilbert-schmidt", rng).matrix
        probes.append(BipartiteState.from_matrix((mixed + noise) / 2.0, dim_a, dim_b))
    return probes


def witness_probe_states_list(dim_a: int, dim_b: int, budget: int = 500, seed: int = 137):
    states: list[BipartiteState] = []
    if dim_a == 2 and dim_b == 2:
        states.extend(bell_state(k) for k in range(4))
    elif min(dim_a, dim_b) >= 2:
        states.append(max_entangled(dim_a, dim_b))
    for i in range(min(dim_a, 2)):
        for j in range(min(dim_b, 2)):
            states.append(
                BipartiteState(
                    dim_a,
                    dim_b,
                    DensityOperator.pure(np.kron(basis_ket(dim_a, i), basis_ket(dim_b, j))),
                )
            )
    plus_a = _fourier_ket(dim_a, 1) if dim_a > 1 else basis_ket(1, 0)
    plus_b = _fourier_ket(dim_b, 1) if dim_b > 1 else basis_ket(1, 0)
    zero_a, zero_b = basis_ket(dim_a, 0), basis_ket(dim_b, 0)
    half = 0.5
    mixtures = [
        half * np.kron(np.outer(zero_a, zero_a.conj()), np.outer(zero_b, zero_b.conj()))
        + half * np.kron(np.outer(plus_a, plus_a.conj()), np.outer(plus_b, plus_b.conj())),
        half * np.kron(np.outer(zero_a, zero_a.conj()), np.outer(zero_b, zero_b.conj()))
        + half
        * np.kron(
            np.outer(plus_a, plus_a.conj()),
            np.outer(basis_ket(dim_b, dim_b - 1), basis_ket(dim_b, dim_b - 1).conj()),
        ),
    ]
    for m in mixtures:
        states.append(BipartiteState.from_matrix(m, dim_a, dim_b))
    rng = as_rng(seed)
    while len(states) < budget:
        states.append(
            BipartiteState(dim_a, dim_b, random_density(dim_a * dim_b, "hilbert-schmidt", rng))
        )
    return states[:budget]


def discordant_output_witness_eager(channel, side, dim_other, seed, tol):
    extended = extend(channel, side, dim_other)
    dims = (channel.dim_in, dim_other) if side == "A" else (dim_other, channel.dim_in)
    scan = cq_scan_loop(extended, witness_probe_states_list(dims[0], dims[1], seed=seed), tol)
    if scan.failing_input is None:
        return None
    return {
        "kind": "discordant-output",
        "input": scan.failing_input,
        "output": scan.outputs[-1],
        "cq_residual": scan.failing_residual,
    }


# -- comparison helpers ----------------------------------------------------------------


def same_state(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return (x.dim_a, x.dim_b) == (y.dim_a, y.dim_b) and np.array_equal(x.matrix, y.matrix)


def assert_same_scan(new: CertificationReport, old: _CQScan):
    assert new.n_checked == len(old.outputs)
    assert all(same_state(a, b) for a, b in zip(new.outputs, old.outputs))
    assert new.worst_residual == old.worst_residual
    assert new.failing_residual == old.failing_residual
    assert same_state(new.worst_input, old.worst_input)
    assert same_state(new.failing_input, old.failing_input)
    assert new.passed == (old.failing_input is None)


def classical_then_bell(k: int, n: int = 40) -> list[BipartiteState]:
    """``n`` two-qubit inputs: diagonal (classical) states with a Bell state at
    position ``k`` (1-based), so the identity's first non-CQ output is the k-th."""
    rng = as_rng(k)
    inputs = [
        BipartiteState(2, 2, DensityOperator.diagonal(rng.dirichlet(np.ones(4))))
        for _ in range(n)
    ]
    inputs[k - 1] = bell_state(k % 4)
    return inputs


DA_DIMS = [(2, 2), (3, 2), (2, 3), (3, 3)]


# -- certification -------------------------------------------------------------------------


class TestCertificationMatchesEagerScan:
    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_da_channels_check_every_input(self, dims):
        for seed in range(2):
            channel = build_da_channel(random_da_spec(*dims, [seed, *dims]))
            report = apply_and_certify(channel, *dims, seed=seed)
            assert report.passed and report.n_checked == 204
            assert_same_scan(report, cq_scan_loop(channel, certification_inputs_list(*dims, seed=seed)))

    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_random_channels(self, dims):
        d = dims[0] * dims[1]
        for seed in range(4):
            channel = random_channel(d, d, 2, [seed, d])
            report = apply_and_certify(channel, *dims, n_samples=50, seed=seed)
            assert not report.passed
            old = cq_scan_loop(channel, certification_inputs_list(*dims, 50, seed))
            assert_same_scan(report, old)

    def test_identity_fails_at_the_third_input(self):
        channel = QuantumChannel.identity(4)
        report = apply_and_certify(channel, 2, 2)
        assert report.n_checked == 3
        assert_same_scan(report, cq_scan_loop(channel, certification_inputs_list(2, 2)))

    def test_first_failure_at_every_position(self):
        channel = QuantumChannel.identity(4)
        for k in range(1, 41):
            inputs = classical_then_bell(k)
            pulled = []
            report = _cq_scan(channel, (pulled.append(s) or s for s in inputs))
            assert report.n_checked == k
            assert_same_scan(report, cq_scan_loop(channel, inputs))
            assert k <= len(pulled) <= 2 * k - 1


class TestStructuralMatchProbes:
    def record(self, monkeypatch):
        scans, rng_states = [], []
        original_scan, original_element = annihilators._cq_scan, annihilators._commutant_element

        def scan(*args):
            scans.append(original_scan(*args))
            return scans[-1]

        def element(generators, dim, rng):
            rng_states.append(rng.bit_generator.state)
            return original_element(generators, dim, rng)

        monkeypatch.setattr(annihilators, "_cq_scan", scan)
        monkeypatch.setattr(annihilators, "_commutant_element", element)
        return scans, rng_states

    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_passing_probes_drain_the_rng_first(self, monkeypatch, dims):
        scans, rng_states = self.record(monkeypatch)
        for seed in range(2):
            channel = build_da_channel(random_da_spec(*dims, [seed, *dims]))
            assert structural_match(channel, *dims, seed=seed).matched
            rng = as_rng([seed, 0xA1])
            assert_same_scan(scans[-1], cq_scan_loop(channel, match_probes_list(*dims, rng)))
            assert rng_states[-1] == rng.bit_generator.state

    def test_failing_probes(self, monkeypatch):
        scans, rng_states = self.record(monkeypatch)
        channel = QuantumChannel.identity(6)
        match = structural_match(channel, 3, 2, seed=4)
        assert match.counterexample is not None and not rng_states
        old = cq_scan_loop(channel, match_probes_list(3, 2, as_rng([4, 0xA1])))
        assert_same_scan(scans[-1], old)
        assert same_state(match.counterexample, old.failing_input)


# -- witness searches ------------------------------------------------------------------------


def complete_dephasing() -> QuantumChannel:
    return QuantumChannel(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex))


def assert_same_witness(new, old):
    if old is None:
        assert new is None
        return
    assert new["kind"] == old["kind"]
    assert same_state(new["input"], old["input"])
    assert same_state(new["output"], old["output"])
    assert new["cq_residual"] == old["cq_residual"]


class TestWitnessSearchesMatchEagerScan:
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("dim, dim_other", [(2, 2), (2, 3), (3, 2)])
    def test_random_channels(self, side, dim, dim_other):
        for seed in range(3):
            channel = random_channel(dim, dim, 2, [seed, dim, dim_other])
            new = _discordant_output_witness(channel, side, dim_other, 137 + seed, CQ_TOL)
            old = discordant_output_witness_eager(channel, side, dim_other, 137 + seed, CQ_TOL)
            assert old is not None
            assert_same_witness(new, old)

    @pytest.mark.parametrize(
        "side, channel",
        [
            ("A", complete_dephasing()),
            ("B", make_point_channel(random_density(2, "hilbert-schmidt", 8))),
        ],
        ids=["dephasing-A", "point-B"],
    )
    def test_every_probe_checked(self, side, channel):
        assert _discordant_output_witness(channel, side, 2, 137, CQ_TOL) is None
        assert discordant_output_witness_eager(channel, side, 2, 137, CQ_TOL) is None

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 2)])
    def test_local_da(self, dim_a, dim_b):
        for seed in range(3):
            channel_a = random_channel(dim_a, dim_a, 2, [seed, 1])
            channel_b = random_channel(dim_b, dim_b, 2, [seed, 2])
            verdict = is_local_da(channel_a, channel_b)
            product = compose(
                extend(channel_b, "B", channel_a.dim_out), extend(channel_a, "A", dim_b)
            )
            old = cq_scan_loop(product, witness_probe_states_list(dim_a, dim_b, 200, 5))
            assert verdict.kind == "not-da"
            assert same_state(verdict.witness, old.worst_input)
            assert verdict.residual == old.worst_residual

    def test_probe_list_is_the_stream_prefix(self):
        for dims in [(1, 3), (2, 2), (3, 2), (2, 1)]:
            for budget in (0, 3, 12, 40):
                new = witness_probe_states(*dims, budget=budget, seed=9)
                old = witness_probe_states_list(*dims, budget=budget, seed=9)
                assert len(new) == len(old)
                assert all(same_state(a, b) for a, b in zip(new, old))


# -- laziness ---------------------------------------------------------------------------------


def count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestInputsDrawnOnDemand:
    @pytest.mark.parametrize("context", [ActsOnA(dim_b=2), ActsOnB(dim_a=2)], ids=["A", "B"])
    def test_side_witness_draws_no_random_probe(self, monkeypatch, context):
        draws = count_calls(monkeypatch, classify, "random_density")
        for seed in range(3):
            report = classify_channel(random_channel(2, 2, 2, 60 + seed), context, seed=seed)
            assert report.witness is not None
        assert draws == []

    def test_failing_certification_builds_few_inputs(self, monkeypatch):
        draws = count_calls(monkeypatch, annihilators, "random_density")
        channels = [(QuantumChannel.identity(4), 2, 2), (QuantumChannel.identity(6), 3, 2)]
        channels += [(random_channel(d, d, 2, [seed, d]), d // 2, 2) for d in (4, 6) for seed in range(3)]
        for channel, dim_a, dim_b in channels:
            draws.clear()
            report = apply_and_certify(channel, dim_a, dim_b)
            assert not report.passed
            assert len(draws) <= 2 * report.n_checked - 1


def test_report_counts_its_outputs():
    report = apply_and_certify(QuantumChannel.identity(4), 2, 2)
    assert report.n_checked == len(report.outputs) == 3
    assert not report.passed
    assert report.failing_residual == report.worst_residual > CQ_TOL
