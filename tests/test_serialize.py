import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit.annihilators import apply_and_certify, build_da_channel, random_da_spec
from discordkit.channels import (
    QuantumChannel,
    UnitalQubitParams,
    choi_distance,
    make_unital_qubit,
    random_channel,
)
from discordkit.classify import is_point_channel, is_qc_channel
from discordkit.cli import main
from discordkit.discord import Hybrid, MultiStart, discord
from discordkit import serialize
from discordkit.serialize import (
    FileFormatError,
    certification_to_json,
    channel_to_json,
    decode_matrix,
    encode_matrix,
    da_spec_to_json,
    discord_result_to_json,
    json_text,
    load_channel,
    load_da_spec,
    load_state,
    save_channel,
    save_state,
    state_to_json,
    verdict_to_json,
)
from discordkit.states import (
    BipartiteState,
    DensityOperator,
    basis_ket,
    bell_state,
    random_bipartite,
    random_density,
    random_unitary,
)


def da_superop_pair(dims, seed):
    """An annihilating channel of ``random_da_spec`` and the product
    ``S_stage S_pre`` of the superoperators of its two parts."""
    spec = random_da_spec(*dims, seed)
    stage = build_da_channel(replace(spec, pre_channel=None))
    return build_da_channel(spec), stage.superop @ spec.pre_channel.superop


def pauli_superop_pair(params, seed):
    """A Pauli channel and its superoperator conjugated by a unitary and back."""
    channel = make_unital_qubit(UnitalQubitParams(*params))
    u = random_unitary(2, seed)
    return channel, np.kron(u.conj().T, u.T) @ (np.kron(u, u.conj()) @ channel.superop)


class TestStateFiles:
    def test_round_trip_bipartite(self, tmp_path):
        state = random_bipartite(2, 3, 0)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(state)))
        loaded = load_state(path)
        assert isinstance(loaded, BipartiteState)
        assert (loaded.dim_a, loaded.dim_b) == (2, 3)
        np.testing.assert_allclose(loaded.matrix, state.matrix, atol=1e-12)

    def test_round_trip_single(self):
        op = random_density(3, "hilbert-schmidt", 1)
        loaded = load_state(state_to_json(op))
        assert isinstance(loaded, DensityOperator)
        np.testing.assert_allclose(loaded.matrix, op.matrix, atol=1e-12)

    def test_missing_dims(self):
        with pytest.raises(FileFormatError, match="dims"):
            load_state({"matrix": []})

    def test_bad_dims(self):
        with pytest.raises(FileFormatError, match="dims"):
            load_state({"dims": [2, 0], "matrix": []})

    @pytest.mark.parametrize("dims", [[True, 2], [True, True], [False], [2, 2.0]])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(FileFormatError, match="dims: expected"):
            load_state({"dims": dims, "matrix": [[1.0, 0.0]]})

    def test_matrix_length_mismatch(self):
        with pytest.raises(FileFormatError, match="matrix"):
            load_state({"dims": [2], "matrix": [[1.0, 0.0]]})

    def test_bad_entry_names_index(self):
        payload = state_to_json(random_density(2, "hilbert-schmidt", 2))
        payload["matrix"][3] = "oops"
        with pytest.raises(FileFormatError, match=r"matrix\[3\]"):
            load_state(payload)

    def test_json_booleans_rejected(self):
        payload = {"dims": [1], "matrix": [[True, False]]}
        with pytest.raises(FileFormatError, match=r"matrix\[0\]"):
            load_state(payload)

    def test_non_finite_entry_rejected(self):
        payload = state_to_json(random_density(2, "hilbert-schmidt", 2))
        payload["matrix"][1] = [float("nan"), 0.0]
        with pytest.raises(FileFormatError, match=r"matrix\[1\]"):
            load_state(payload)

    def test_invalid_state_rejected(self):
        payload = {"dims": [2], "matrix": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(FileFormatError, match="matrix"):
            load_state(payload)


def decode_reference(data, shape):
    """Entry by entry: ``complex(re, im)`` of each pair."""
    out = np.empty(len(data), dtype=complex)
    for idx, (re, im) in enumerate(data):
        out[idx] = complex(re, im)
    return out.reshape(shape)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**64), 2**64),
    st.sampled_from([0, -0.0, 5e-324, -2.5e-320, 2**53 + 1, -(2**53 + 3), 10**300, 2**1023]),
)
REFUSED = [True, False, "1.0", None, [1.0], [1.0, 2.0], float("nan"), float("inf"), 10**400]


class TestArrayDecode:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=12))
    def test_matches_the_entry_by_entry_reference(self, values):
        checks = []
        data = [list(pair) for pair in values]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_is_finite_number", lambda x: checks.append(x))
            decoded = decode_matrix(data, (len(data), 1), "m")
        assert decoded.tobytes() == decode_reference(data, (len(data), 1)).tobytes()
        assert checks == []  # decoded as one array

    @pytest.mark.parametrize("bad", REFUSED, ids=repr)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_bad_value_is_refused_at_its_index(self, bad, slot):
        data = [[0.5, -0.0], [1, 2], [3.0, 4], [5.5, 6.5]]
        data[2][slot] = bad
        with pytest.raises(FileFormatError) as exc:
            decode_matrix(data, (2, 2), "m")
        assert str(exc.value) == f"m[2]: expected an [re, im] pair of finite numbers, got {data[2]!r}"

    @pytest.mark.parametrize(
        "pair", [[1.0], [1.0, 2.0, 3.0], [], "ab", None, 7, (1.0, True), {"re": 1.0, "im": 0.0}],
        ids=repr,
    )
    def test_bad_pair_is_refused_at_its_index(self, pair):
        data = [[0.5, 0.0], pair, [3.0, 4.0], [5.5, 6.5]]
        with pytest.raises(FileFormatError) as exc:
            decode_matrix(data, (4, 1), "m")
        assert str(exc.value) == f"m[1]: expected an [re, im] pair of finite numbers, got {pair!r}"

    def test_valid_channel_load_checks_no_entry(self, monkeypatch, tmp_path):
        checks = []
        monkeypatch.setattr(serialize, "_is_finite_number", lambda x: checks.append(x))
        channel = random_channel(3, 3, 4, 12)
        save_channel(channel, tmp_path / "channel.json")
        loaded = load_channel(tmp_path / "channel.json")
        assert checks == []
        assert choi_distance(loaded, channel) <= 1e-9

    def test_encode_matches_the_entry_by_entry_writer(self):
        rng = np.random.default_rng(4)
        m = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))).T  # not contiguous
        m[0, 0] = complex(-0.0, 5e-324)
        assert encode_matrix(m) == [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        assert json.dumps(encode_matrix(m)) == json.dumps(
            [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        )


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        channel = random_channel(2, 3, 2, 10)
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel_to_json(channel)))
        loaded = load_channel(path)
        assert choi_distance(loaded, channel) <= 1e-9

    def test_writer_emits_descending_kraus(self):
        channel = random_channel(2, 2, 3, 11)
        payload = channel_to_json(channel)
        norms = [
            np.linalg.norm([complex(re, im) for re, im in k]) for k in payload["data"]
        ]
        assert norms == sorted(norms, reverse=True)

    @pytest.mark.parametrize(
        "pair, arg, seed",
        [
            pytest.param(da_superop_pair, (2, 2), 7, id="da-2x2-7"),
            pytest.param(da_superop_pair, (3, 3), 8, id="da-3x3-8"),
            pytest.param(da_superop_pair, (2, 3), 9, id="da-2x3-9"),
            pytest.param(da_superop_pair, (4, 2), 10, id="da-4x2-10"),
            pytest.param(pauli_superop_pair, (0.3, 0.2, 0.1), 0, id="pauli-0"),
            pytest.param(pauli_superop_pair, (0.3, 0.2, 0.1), 1, id="pauli-1"),
            pytest.param(pauli_superop_pair, (0.1, 0.05, -0.3), 2, id="pauli-2"),
        ],
    )
    def test_rounding_in_the_choi_matrix_moves_written_kraus_by_rounding(self, pair, arg, seed):
        # A channel against the same channel with its Choi matrix permuted back
        # from a superoperator that differs by rounding, and clipped by
        # from_choi.  The written Kraus entries must differ by rounding too.
        # With no phase rule, da 2x3 seed 9 wrote operators that differ by
        # 0.65; with the pivot taken by argmax alone, the Pauli cases, whose
        # eigenvectors vec(s_k^T)/sqrt(2) have two entries of equal
        # magnitude, wrote operators that differ by up to 1.12.
        channel, s = pair(arg, seed)
        d = channel.dim_in
        j = s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
        rounded = QuantumChannel.from_choi(j, d, d)
        assert 0 < np.abs(rounded.choi - channel.choi).max() <= 1e-14
        written = [np.array(channel_to_json(c)["data"]) for c in (channel, rounded)]
        assert written[0].shape == written[1].shape
        assert np.abs(written[0] - written[1]).max() <= 1e-12

    def test_choi_input_accepted(self):
        channel = random_channel(2, 2, 2, 12)
        payload = {
            "type": "choi",
            "d_in": 2,
            "d_out": 2,
            "data": [[z.real, z.imag] for z in channel.choi.reshape(-1)],
        }
        loaded = load_channel(payload)
        assert choi_distance(loaded, channel) <= 1e-9

    def test_bad_type(self):
        with pytest.raises(FileFormatError, match="type"):
            load_channel({"type": "magic", "d_in": 2, "d_out": 2, "data": []})

    @pytest.mark.parametrize(
        "d_in, d_out, field", [(True, 1, "d_in"), (1, True, "d_out"), (1, 0, "d_out")]
    )
    def test_non_integer_dimension_rejected(self, d_in, d_out, field):
        payload = {"type": "kraus", "d_in": d_in, "d_out": d_out, "data": [[[1.0, 0.0]]]}
        with pytest.raises(FileFormatError, match=f"{field}: expected a positive integer"):
            load_channel(payload)

    def test_non_tp_choi_rejected(self):
        payload = {
            "type": "choi",
            "d_in": 2,
            "d_out": 2,
            "data": [[float(x), 0.0] for x in (np.eye(4) * 0.25).reshape(-1)],
        }
        with pytest.raises(FileFormatError, match="data"):
            load_channel(payload)


class TestDASpecFiles:
    def test_round_trip(self):
        spec = random_da_spec(2, 2, 20)
        loaded = load_da_spec(da_spec_to_json(spec))
        assert choi_distance(build_da_channel(loaded), build_da_channel(spec)) <= 1e-9

    @pytest.mark.parametrize("dims", [[True, 2], [2, False], [2], "2x2"])
    def test_non_integer_dims_rejected(self, dims):
        payload = da_spec_to_json(random_da_spec(2, 2, 21))
        payload["dims"] = dims
        with pytest.raises(FileFormatError, match=r"dims: expected \[dA, dB\]"):
            load_da_spec(payload)

    def test_multi_identity_rejected_with_constraint_message(self):
        payload = {
            "dims": [2, 2],
            "entries": [
                {
                    "kind": "multi",
                    "projector": [[float(x), 0.0] for x in np.eye(2).reshape(-1)],
                    "action": {"type": "identity"},
                }
            ],
        }
        with pytest.raises(FileFormatError, match="rank-1"):
            load_da_spec(payload)

    def test_incomplete_partition_rejected(self):
        payload = {
            "dims": [2, 2],
            "entries": [
                {
                    "kind": "rank1",
                    "vector": [[1.0, 0.0], [0.0, 0.0]],
                    "action": {"type": "identity"},
                }
            ],
        }
        with pytest.raises(FileFormatError, match="entries"):
            load_da_spec(payload)


class TestResultPayloads:
    def test_discord_result_fields(self):
        result = discord(bell_state(0), Hybrid())
        payload = discord_result_to_json(result)
        assert set(payload) == {
            "discord",
            "mutual_information",
            "classical_correlation",
            "measurement",
            "optimizer",
        }
        assert payload["measurement"]["type"] == "bloch"
        assert len(payload["measurement"]["vector"]) == 3

    def test_verdict_with_witness_serialises(self):
        from discordkit.channels import make_qc_channel

        channel = make_qc_channel(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
            [basis_ket(2, 0), basis_ket(2, 1)],
        )
        verdict = is_point_channel(channel)
        payload = verdict_to_json(verdict)
        assert payload["kind"] == "no"
        assert "witness" in payload
        json.dumps(payload)  # must be JSON-clean


def dumps_reference(payload, sort_keys=False) -> str:
    return json.dumps(payload, indent=2, sort_keys=sort_keys, allow_nan=False)


def json_outcome(write, payload, sort_keys):
    try:
        return write(payload, sort_keys=sort_keys)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e16, -1e16, 1e300, 0.1, 2.0**53]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), FLOATS, st.text(max_size=8)
)
# Lists of two-entry lists: float pairs take the matrix path; int, bool and
# mixed pairs, and pairs of other lengths, must not.
PAIRS = st.one_of(
    st.lists(st.lists(FLOATS, min_size=2, max_size=2), min_size=1, max_size=6),
    st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.lists(st.booleans(), min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(-5, 5), FLOATS).map(list), min_size=1, max_size=4),
    st.lists(st.lists(FLOATS, min_size=0, max_size=3), min_size=1, max_size=4),
)
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, PAIRS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


def report_payloads():
    """One of each payload the package writes."""
    spec = random_da_spec(2, 3, 5)
    da = build_da_channel(spec)
    qc = random_channel(2, 2, 2, 3)
    report = apply_and_certify(da, 2, 3, n_samples=4, seed=1)
    return [
        state_to_json(random_bipartite(2, 3, 0)),
        state_to_json(random_density(3, "hilbert-schmidt", 1)),
        state_to_json(bell_state(2)),
        channel_to_json(da),
        channel_to_json(qc),
        da_spec_to_json(spec),
        da_spec_to_json(replace(spec, pre_channel=None)),
        verdict_to_json(is_point_channel(qc)),
        verdict_to_json(is_qc_channel(qc)),
        certification_to_json(report),
        discord_result_to_json(discord(random_bipartite(2, 2, 4), Hybrid())),
        discord_result_to_json(discord(random_bipartite(3, 2, 4), MultiStart(restarts=2))),
    ]


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(payload=JSON_VALUES, sort_keys=st.booleans())
    def test_equals_json_dumps_indent_2(self, payload, sort_keys):
        assert json_text(payload, sort_keys=sort_keys) == dumps_reference(payload, sort_keys)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            [[]],
            {"a": [], "b": {}, "c": [{}]},
            [[-0.0, 0.0], [1e-300, 1e16]],
            [[1, 2], [3, 4]],
            [[True, False]],
            [[1, 2.0], [3.5, 4]],
            [[1.0, 2.0], [3.0]],
            [(1.0, 2.0)],
            ([1.0, 2.0], [3.0, 4.0]),
            [[np.float64(0.1), 2.0]],
            {"héllo ✓": "ünïcödé \u2028 \"quoted\"\n", "z": None},
            {"report": {"label": "da", "notes": ["x", "y"], "m": [[0.5, -0.5]]}},
            {1: "int", 2.5: "float", False: "bool"},
            {2: "int", True: "bool", None: "none"},  # unsortable: json's TypeError
        ],
    )
    def test_edge_payloads(self, payload):
        for sort_keys in (False, True):
            assert json_outcome(json_text, payload, sort_keys) == json_outcome(
                dumps_reference, payload, sort_keys
            )

    def test_every_report_payload(self):
        for payload in report_payloads():
            for sort_keys in (False, True):
                assert json_text(payload, sort_keys=sort_keys) == dumps_reference(payload, sort_keys)

    @pytest.mark.parametrize(
        "payload",
        [
            float("nan"),
            [float("inf")],
            {"a": -float("inf")},
            [[1.0, float("nan")]],
            [[float("inf"), 0.0], [1.0, 2.0]],
            {float("nan"): 1},
            [np.float64("-inf")],
            {"x": [[1.0, 2.0]], "y": {1.0, 2.0}},
            {(1, 2): 3},
        ],
    )
    def test_refuses_what_json_refuses(self, payload):
        for sort_keys in (False, True):
            want = json_outcome(dumps_reference, payload, sort_keys)
            assert isinstance(want, tuple)
            assert json_outcome(json_text, payload, sort_keys) == want

    def test_files_and_reports_are_the_indented_json_of_their_payload(self, tmp_path, capsys):
        channel, state = build_da_channel(random_da_spec(3, 2, 6)), random_bipartite(2, 2, 7)
        save_channel(channel, tmp_path / "c.json")
        save_state(state, tmp_path / "s.json")
        assert (tmp_path / "c.json").read_text() == dumps_reference(channel_to_json(channel)) + "\n"
        assert (tmp_path / "s.json").read_text() == dumps_reference(state_to_json(state)) + "\n"
        for argv in (
            ["classify", str(tmp_path / "c.json"), "--side", "AB", "--dims", "3x2", "--samples", "5"],
            ["discord", str(tmp_path / "s.json")],
            ["gen-da", "--random", "2x2", "--out", str(tmp_path / "g.json")],
        ):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == dumps_reference(json.loads(out), sort_keys=True) + "\n"


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "discordkit"


def indented_json_calls(source: str) -> list[int]:
    """Lines of the ``json.dump``/``json.dumps`` calls (or bare ``dump``/``dumps``)
    in ``source`` that pass ``indent``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_indented_json_call_is_found():
    source = "import json\njson.dumps(x)\njson.dumps(x, indent=2)\nfrom json import dump\ndump(x, f, indent=None)\n"
    assert indented_json_calls(source) == [3, 5]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "serialize.py"), ids=lambda p: p.name
)
def test_only_the_writer_encodes_indented_json(path):
    # json's indenting encoder is pure Python; serialize.json_text writes the same text.
    assert not indented_json_calls(path.read_text())
