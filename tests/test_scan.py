"""The one CQ scan over the one probe stream and the witness family: a lazy,
chunked pull that matches the eager scan bit for bit.

``_cq_scan`` takes raw input matrices in chunks of 1, 2, 4, ..., and
``_probe_stream`` builds each chunk when it is taken, the fixed head probe by
probe and the chunk's seeded draws as one stack.  The eager reference
below builds the stream as a list, the fixed head state by state and then the
seeded draws one index at a time, and the witness family as the same head and
then one two-block input per pair, and scans it one input at a time: each test
checks that the lazy scan returns the same ``n_checked``, residuals, worst and
failing inputs and failing output, bit for bit, and that a failing scan builds
at most ``2 * n_checked - 1`` inputs.
"""

from __future__ import annotations

import itertools
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
)
from discordkit.channels import (
    QuantumChannel,
    compose,
    extend,
    make_point_channel,
    make_qc_channel,
    mix_channels,
    random_channel,
)
from discordkit.classify import (
    ActsOnA,
    ActsOnAB,
    ActsOnB,
    _discordant_output_witness,
    _hermitian_probe_inputs,
    _probe_pair_witness,
    classify_channel,
    is_local_da,
    witness_probe_states,
)
from discordkit.discord import is_cq_exact
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    InvalidStateError,
    as_rng,
    basis_ket,
    bell_state,
    max_entangled,
    random_density,
    random_unitary,
)
from discordkit.tolerances import CQ_TOL

# -- eager reference: the probe stream as a list, scanned one input at a time ---------


@dataclass(frozen=True, eq=False)
class _CQScan:
    """Outputs of a channel on a run of inputs, up to the first non-CQ one."""

    outputs: list[BipartiteState]
    worst_residual: float
    failing_input: BipartiteState | None = None
    failing_residual: float | None = None


def cq_scan_loop(channel: QuantumChannel, inputs, tol: float = CQ_TOL) -> _CQScan:
    """The scan one input at a time, each input validated as it is reached."""
    outputs = []
    worst = 0.0
    for state in inputs:
        state = BipartiteState.from_matrix(state.matrix, state.dim_a, state.dim_b)
        outputs.append(channel.apply(state))
        check = is_cq_exact(outputs[-1], tol)
        worst = max(worst, check.residual)
        if not check:
            return _CQScan(outputs, worst, state, check.residual)
    return _CQScan(outputs, worst)


def probe_head_list(dim_a: int, dim_b: int) -> list[BipartiteState]:
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
    plus_a = fourier_ket(dim_a, 1) if dim_a > 1 else basis_ket(1, 0)
    plus_b = fourier_ket(dim_b, 1) if dim_b > 1 else basis_ket(1, 0)
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
    return states


def fourier_ket(dim: int, k: int) -> np.ndarray:
    phases = np.exp(2j * np.pi * k * np.arange(dim) / dim)
    return phases / np.sqrt(dim)


def draws_list(dim_a: int, dim_b: int, n: int, seed: int) -> list[BipartiteState]:
    d = dim_a * dim_b
    return [
        BipartiteState(dim_a, dim_b, random_density(d, "hilbert-schmidt", as_rng([seed, index])))
        for index in range(n)
    ]


def certification_inputs_list(dim_a, dim_b, n_samples=200, seed=0):
    return probe_head_list(dim_a, dim_b) + draws_list(dim_a, dim_b, n_samples, seed)


def witness_probe_states_list(dim_a: int, dim_b: int, budget: int, seed: int):
    states = probe_head_list(dim_a, dim_b)
    states += draws_list(dim_a, dim_b, max(0, budget - len(states)), seed)
    return states[:budget]


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def two_block_list(dim_a, dim_b, blocks) -> list[BipartiteState]:
    """The probe head, then ``(X (x) P + Y (x) Q) / 2`` for each ``(X, P, Y, Q)``."""
    pairs = [
        BipartiteState.from_matrix(0.5 * (np.kron(x, p) + np.kron(y, q)), dim_a, dim_b)
        for x, p, y, q in blocks
    ]
    return probe_head_list(dim_a, dim_b) + pairs


def side_family_list(dim_in: int, side: str, dim_other: int) -> list[BipartiteState]:
    """Side A pairs the Hermitian probe inputs a < b against |0><0| and |1><1|,
    side B pairs them a != b against |0><0| and |+><+|, one pair at a time."""
    probes = _hermitian_probe_inputs(dim_in)
    zero, one = projector(basis_ket(dim_other, 0)), projector(basis_ket(dim_other, 1))
    plus = projector((basis_ket(dim_other, 0) + basis_ket(dim_other, 1)) / np.sqrt(2))
    n = len(probes)
    if side == "A":
        blocks = [(probes[a], zero, probes[b], one) for a in range(n) for b in range(a + 1, n)]
        return two_block_list(dim_in, dim_other, blocks)
    blocks = [(zero, probes[a], plus, probes[b]) for a in range(n) for b in range(n) if a != b]
    return two_block_list(dim_other, dim_in, blocks)


def local_family_list(channel_a, channel_b) -> list[BipartiteState]:
    a = _probe_pair_witness(channel_a, "noncommuting-outputs")
    b = _probe_pair_witness(channel_b, "distinct-outputs")
    x, y = a["input_a"].matrix, a["input_b"].matrix
    p, q = b["input_a"].matrix, b["input_b"].matrix
    return two_block_list(channel_a.dim_in, channel_b.dim_in, [(x, p, y, q), (x, q, y, p)])


def discordant_output_witness_eager(channel, side, dim_other, tol):
    extended = extend(channel, side, dim_other)
    scan = cq_scan_loop(extended, side_family_list(channel.dim_in, side, dim_other), tol)
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
    assert same_state(new.failing_output, old.outputs[-1] if old.failing_input else None)
    assert new.worst_residual == old.worst_residual
    assert new.failing_residual == old.failing_residual
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


def head_length(dim_a: int, dim_b: int) -> int:
    return len(probe_head_list(dim_a, dim_b))


def take_from(matrices):
    """A ``take`` over an iterable of matrices, pulling each only when taken."""
    matrices = iter(matrices)
    return lambda n: np.array(list(itertools.islice(matrices, n)), dtype=complex).reshape(-1, 4, 4)


def scan_states(channel, states, tol=CQ_TOL) -> CertificationReport:
    """``_cq_scan`` on the matrices of two-qubit states."""
    return _cq_scan(channel, take_from(state.matrix for state in states), (2, 2), tol)


# -- certification -------------------------------------------------------------------------


class TestCertificationMatchesEagerScan:
    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_da_channels_check_every_input(self, dims):
        for seed in range(2):
            channel = build_da_channel(random_da_spec(*dims, [seed, *dims]))
            report = apply_and_certify(channel, *dims, seed=seed)
            assert report.passed and report.n_checked == head_length(*dims) + 200
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

    def test_identity_fails_at_the_first_input(self):
        channel = QuantumChannel.identity(4)
        report = apply_and_certify(channel, 2, 2)
        assert report.n_checked == 1
        assert_same_scan(report, cq_scan_loop(channel, certification_inputs_list(2, 2)))

    def test_first_failure_at_every_position(self):
        channel = QuantumChannel.identity(4)
        for k in range(1, 41):
            inputs = classical_then_bell(k)
            pulled = []
            report = scan_states(channel, (pulled.append(s) or s for s in inputs))
            assert report.n_checked == k
            assert_same_scan(report, cq_scan_loop(channel, inputs))
            assert k <= len(pulled) <= 2 * k - 1


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


def near_family(side: str, dim: int, eps: float, seed: int) -> QuantumChannel:
    """A measure-and-prepare channel (side A) or a point channel (side B),
    mixed with ``eps`` of a random channel."""
    if side == "A":
        frame = random_unitary(dim, [seed, 1])
        kets = list(frame.T)
        member = make_qc_channel([projector(k) for k in kets], kets)
    else:
        member = make_point_channel(random_density(dim, "hilbert-schmidt", [seed, 1]))
    return mix_channels([(1 - eps, member), (eps, random_channel(dim, dim, 2, [seed, 2]))])


class TestWitnessSearchesMatchEagerScan:
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("dim, dim_other", [(2, 2), (2, 3), (3, 2)])
    def test_random_channels(self, side, dim, dim_other):
        for seed in range(3):
            channel = random_channel(dim, dim, 2, [seed, dim, dim_other])
            new, note = _discordant_output_witness(channel, side, dim_other, CQ_TOL)
            assert note == ""
            old = discordant_output_witness_eager(channel, side, dim_other, CQ_TOL)
            assert old is not None
            assert_same_witness(new, old)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("dim, dim_other", [(2, 2), (3, 2), (3, 3)])
    def test_witnesses_past_the_head(self, side, dim, dim_other):
        # Near the family the first failing input is a two-block one, or none.
        past_head = 0
        for seed in range(6):
            channel = near_family(side, dim, {"A": 5e-8, "B": 1e-7}[side], seed)
            new, _ = _discordant_output_witness(channel, side, dim_other, CQ_TOL)
            old = discordant_output_witness_eager(channel, side, dim_other, CQ_TOL)
            assert_same_witness(new, old)
            family = side_family_list(dim, side, dim_other)
            scan = cq_scan_loop(extend(channel, side, dim_other), family)
            past_head += len(scan.outputs) > head_length(dim, dim_other)
        assert past_head > 0

    @pytest.mark.parametrize(
        "side, channel",
        [
            ("A", complete_dephasing()),
            ("B", make_point_channel(random_density(2, "hilbert-schmidt", 8))),
        ],
        ids=["dephasing-A", "point-B"],
    )
    def test_every_probe_checked(self, side, channel):
        witness, note = _discordant_output_witness(channel, side, 2, CQ_TOL)
        assert witness is None
        # 10 head inputs, then the 6 pairs a < b (side A) or the 12 pairs
        # a != b (side B) of the 4 Hermitian probe inputs of a qubit.
        count = {"A": 16, "B": 22}[side]
        assert note.startswith(f"no discordant output among {count} probe inputs: ")
        assert len(side_family_list(2, side, 2)) == count
        assert discordant_output_witness_eager(channel, side, 2, CQ_TOL) is None

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 2)])
    def test_local_da(self, dim_a, dim_b):
        for seed in range(3):
            channel_a = random_channel(dim_a, dim_a, 2, [seed, 1])
            channel_b = random_channel(dim_b, dim_b, 2, [seed, 2])
            verdict = is_local_da(channel_a, channel_b)
            product = compose(
                extend(channel_b, "B", channel_a.dim_out), extend(channel_a, "A", dim_b)
            )
            old = cq_scan_loop(product, local_family_list(channel_a, channel_b))
            assert verdict.kind == "not-da"
            assert same_state(verdict.witness, old.failing_input)
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


def drawn_rows(calls) -> int:
    """Hilbert-Schmidt draws made by recorded ``_ginibre_density`` calls: one
    per generator."""
    return sum(len(rngs) for _, _, rngs in calls)


def count_pulls(monkeypatch) -> list:
    """Record every probe the certification takes from the probe stream."""
    pulled = []
    original = annihilators._probe_stream

    def counted(*args, **kwargs):
        take = original(*args, **kwargs)

        def counted_take(n):
            stack = take(n)
            pulled.extend(stack)
            return stack

        return counted_take

    monkeypatch.setattr(annihilators, "_probe_stream", counted)
    return pulled


class TestInputsDrawnOnDemand:
    @pytest.mark.parametrize("context", [ActsOnA(dim_b=2), ActsOnB(dim_a=2)], ids=["A", "B"])
    def test_side_witness_draws_no_random_probe(self, monkeypatch, context):
        draws = count_calls(monkeypatch, annihilators, "_ginibre_density")
        for seed in range(3):
            report = classify_channel(random_channel(2, 2, 2, 60 + seed), context, seed=seed)
            assert report.witness is not None
        assert draws == []

    def test_witness_in_the_head_builds_no_pair_input(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness lies in the head, so no pair input is built")

        for name in ("_kron_rows", "_hermitian_probe_inputs", "_probe_pair_witness"):
            monkeypatch.setattr(classify, name, refuse)
        for seed in range(3):
            channel = random_channel(2, 2, 2, 60 + seed)
            for side, dim_other in (("A", 2), ("B", 3)):
                witness, _ = _discordant_output_witness(channel, side, dim_other, CQ_TOL)
                assert witness is not None
            channel_a, channel_b = random_channel(2, 2, 2, [seed, 1]), random_channel(3, 3, 2, [seed, 2])
            verdict = is_local_da(channel_a, channel_b)
            assert verdict.witness is not None

    def test_pair_inputs_are_built_once(self, monkeypatch):
        # Each family builds its pair inputs from two Kronecker stacks.
        krons = count_calls(monkeypatch, classify, "_kron_rows")
        # Witnesses at inputs 25 and 16, past the head of 7 and 10 inputs.
        for side, dim, eps in (("A", 3, 5e-8), ("B", 2, 1e-7)):
            channel = near_family(side, dim, eps, 5)
            krons.clear()
            witness, _ = _discordant_output_witness(channel, side, 2, CQ_TOL)
            assert witness is not None and len(krons) == 2
        # A point channel passes on the whole family.
        point = make_point_channel(random_density(2, "hilbert-schmidt", 8))
        witness, _ = _discordant_output_witness(point, "B", 2, CQ_TOL)
        assert witness is None and len(krons) == 4
        krons.clear()
        verdict = is_local_da(near_family("A", 2, 1e-7, 0), near_family("B", 2, 1e-7, 0))
        assert verdict.kind == "not-da" and len(krons) == 2

    def test_head_is_built_one_probe_per_pull(self, monkeypatch):
        bells = count_calls(monkeypatch, annihilators, "bell_state")
        draws = count_calls(monkeypatch, annihilators, "_ginibre_density")
        take = annihilators._probe_stream(2, 2, 0)
        assert bells == [] and draws == []
        for k in range(1, 15):
            assert len(take(1)) == 1
            assert len(bells) == min(k, 4)
            assert drawn_rows(draws) == max(0, k - head_length(2, 2))

    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_each_chunk_draws_once(self, monkeypatch, dims):
        draws = count_calls(monkeypatch, annihilators, "_ginibre_density")
        head = head_length(*dims)
        take = annihilators._probe_stream(*dims, 0, n_draws=40)
        pulled = 0
        for size in (1, 2, 4, 8, 16, 32, 64):
            calls, rows = len(draws), drawn_rows(draws)
            pulled += len(take(size))
            assert drawn_rows(draws) == min(max(0, pulled - head), 40)
            assert len(draws) - calls == (drawn_rows(draws) > rows)
        assert pulled == head + 40 and len(take(1)) == 0

    def test_failing_certification_builds_few_inputs(self, monkeypatch):
        pulled = count_pulls(monkeypatch)
        draws = count_calls(monkeypatch, annihilators, "_ginibre_density")
        channels = [(QuantumChannel.identity(4), 2, 2), (QuantumChannel.identity(6), 3, 2)]
        channels += [(random_channel(d, d, 2, [seed, d]), d // 2, 2) for d in (4, 6) for seed in range(3)]
        for channel, dim_a, dim_b in channels:
            pulled.clear()
            draws.clear()
            report = apply_and_certify(channel, dim_a, dim_b)
            assert not report.passed
            assert len(pulled) <= 2 * report.n_checked - 1
            assert drawn_rows(draws) == max(0, len(pulled) - head_length(dim_a, dim_b))

    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_structural_match_draws_no_input(self, monkeypatch, dims):
        # The one scan of classify --side AB is its certification.
        channel = build_da_channel(random_da_spec(*dims, [0, *dims]))
        scans = count_calls(monkeypatch, annihilators, "_cq_scan")
        draws = count_calls(monkeypatch, annihilators, "_ginibre_density")
        report = classify_channel(channel, ActsOnAB(*dims), samples=20)
        assert report.label == "da" and len(scans) == 1
        assert drawn_rows(draws) == 20  # the certification's samples

    def test_passing_certification_takes_two_eigh_per_chunk(self, monkeypatch):
        channel = build_da_channel(random_da_spec(3, 3, [0, 3, 3]))
        n_inputs = head_length(3, 3) + 200
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        report = apply_and_certify(channel, 3, 3, seed=0)
        assert report.passed and report.n_checked == n_inputs
        # Chunks of 1, 2, ..., 128 inputs: one stacked validation of the
        # inputs and one of the outputs each.
        assert len(calls) <= 2 * 8

    def test_passing_certification_draws_once_per_chunk(self, monkeypatch):
        channel = build_da_channel(random_da_spec(3, 3, [0, 3, 3]))
        draws = count_calls(monkeypatch, annihilators, "_ginibre_density")
        report = apply_and_certify(channel, 3, 3, seed=0)
        assert report.passed and report.n_checked == head_length(3, 3) + 200
        # Chunks of 1, 2, ..., 128 inputs, each drawing its rows in one call.
        assert len(draws) <= 8
        assert drawn_rows(draws) == report.n_checked - head_length(3, 3)


class TestCertificationChecksTheProbeStates:
    @pytest.mark.parametrize("dims", DA_DIMS)
    def test_checked_inputs_are_the_probe_states(self, monkeypatch, dims):
        d = dims[0] * dims[1]
        pulled = count_pulls(monkeypatch)
        for seed in range(3):
            for channel in (
                build_da_channel(random_da_spec(*dims, [seed, *dims])),
                random_channel(d, d, 2, [seed, d]),
            ):
                pulled.clear()
                report = apply_and_certify(channel, *dims, n_samples=30, seed=seed)
                probes = witness_probe_states(*dims, budget=report.n_checked, seed=seed)
                checked = [BipartiteState.from_matrix(m, *dims) for m in pulled[: report.n_checked]]
                assert len(checked) == len(probes) == report.n_checked
                assert all(same_state(a, b) for a, b in zip(checked, probes))


# -- chunk order ------------------------------------------------------------------------------


class SpoiledIdentity(QuantumChannel):
    """The two-qubit identity, except that its image of ``marked`` is ``image``."""

    def __init__(self, marked, image):
        super().__init__(np.eye(4, dtype=complex)[None])
        self.marked, self.image = marked, image

    def apply_matrix(self, m):
        out = super().apply_matrix(m)
        out[np.all(m == self.marked, axis=(-2, -1))] = self.image
        return out


NOT_PSD = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)


class TestFirstFailureInAChunk:
    """Member k and k + 1 fail in a chunk: the earlier one decides, as one at a time."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_non_cq_output_before_an_invalid_one(self, k):
        inputs = classical_then_bell(k)
        channel = SpoiledIdentity(inputs[k].matrix, NOT_PSD)
        report = scan_states(channel, inputs)
        assert report.n_checked == k and not report.passed
        assert_same_scan(report, cq_scan_loop(channel, inputs))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_invalid_output_before_a_non_cq_one(self, k):
        inputs = classical_then_bell(k + 1)
        channel = SpoiledIdentity(inputs[k - 1].matrix, NOT_PSD)
        with pytest.raises(InvalidStateError) as eager:
            cq_scan_loop(channel, inputs)
        with pytest.raises(InvalidStateError) as chunked:
            scan_states(channel, inputs)
        assert str(chunked.value) == str(eager.value)
        assert "channel output: matrix is not positive semidefinite" in str(chunked.value)


def test_worst_residual_of_a_tie():
    # The identity's images of the Bell states tie in CQ residual; inputs 4
    # to 7 make one chunk.
    mixed = BipartiteState(2, 2, DensityOperator.diagonal(np.full(4, 0.25)))
    inputs = [mixed] * 3 + [bell_state(k) for k in (2, 0, 1, 3)]
    report = scan_states(QuantumChannel.identity(4), inputs, tol=1.0)
    assert report.passed
    assert_same_scan(report, cq_scan_loop(QuantumChannel.identity(4), inputs, tol=1.0))


def test_report_keeps_the_failing_output():
    for seed in range(4):
        channel = random_channel(4, 4, 2, [seed, 4])
        report = apply_and_certify(channel, 2, 2)
        assert not report.passed
        assert report.failing_residual == report.worst_residual > CQ_TOL
        expected = channel.apply(report.failing_input)
        assert same_state(report.failing_output, expected)
