import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discordkit import cli
from discordkit.annihilators import (
    DAChannelSpec,
    PointTo,
    Rank1Entry,
    apply_and_certify,
    build_da_channel,
    random_da_spec,
)
from discordkit.channels import (
    QuantumChannel,
    compose,
    make_point_channel,
    make_qc_channel,
    mix_channels,
    random_channel,
)
from discordkit.cli import build_parser, main
from discordkit.discord import is_cq_exact
from discordkit.serialize import (
    encode_matrix,
    load_channel,
    load_state,
    save_channel,
    save_state,
    state_to_json,
)
from discordkit.states import (
    BipartiteState,
    basis_ket,
    bell_state,
    product_state,
    random_bipartite,
    random_density,
    random_unitary,
)
from discordkit.tolerances import CQ_TOL, REBUILD_TOL, VALIDITY_TOL


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(bell_state(0), path)
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.json"
    save_state(
        product_state(
            random_density(2, "hilbert-schmidt", 0), random_density(2, "hilbert-schmidt", 1)
        ),
        path,
    )
    return str(path)


@pytest.fixture
def qutrit_a_file(tmp_path):
    path = tmp_path / "s32.json"
    save_state(random_bipartite(3, 2, 2), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiscordCommand:
    def test_bell(self, bell_file, capsys):
        code, out, _ = run(capsys, "discord", bell_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["discord"] == pytest.approx(1.0, abs=1e-3)

    def test_product(self, product_file, capsys):
        code, out, _ = run(capsys, "discord", product_file)
        assert code == 0
        assert json.loads(out)["discord"] <= 1e-6

    def test_single_system_state_rejected(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        save_state(random_density(4, "hilbert-schmidt", 2), path)
        code, _, err = run(capsys, "discord", str(path))
        assert code == 2
        assert "dims" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        payload = state_to_json(bell_state(0))
        payload["dims"] = [2, 3]  # inconsistent with the matrix size
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "discord", str(path))
        assert code == 2
        assert "matrix" in err

    def test_non_finite_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        payload = state_to_json(bell_state(0))
        payload["matrix"][1] = [float("nan"), 0.0]
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "discord", str(path))
        assert code == 2
        assert "matrix[1]" in err

    def test_boolean_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool_dims.json"
        payload = state_to_json(bell_state(0))
        payload["dims"] = [True, 2]
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "discord", str(path))
        assert code == 2
        assert "dims" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "discord", "/nonexistent/state.json")
        assert code == 2

    def test_one_dimensional_a(self, tmp_path, capsys):
        path = tmp_path / "one_by_two.json"
        save_state(BipartiteState(1, 2, random_density(2, "hilbert-schmidt", 3)), path)
        code, out, _ = run(capsys, "discord", str(path))
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["classical_correlation"]) <= 1e-12
        assert abs(payload["discord"]) <= 1e-12

    def test_zero_restarts_searches_the_eigenbasis_frame(self, tmp_path, capsys):
        path = tmp_path / "s32.json"
        save_state(random_bipartite(3, 2, 2), path)
        code, out, _ = run(
            capsys, "discord", str(path), "--strategy", "multistart", "--restarts", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["optimizer"]["restarts"] == 1
        assert len(payload["optimizer"]["best_values"]) == 1
        assert 0.0 <= payload["discord"] <= payload["mutual_information"]

    @pytest.mark.parametrize(
        "flags",
        [
            ("--grid", "32x0"),
            ("--grid=-4x8",),
            ("--grid", "0x64"),
            ("--strategy", "multistart", "--restarts", "-3"),
        ],
        ids=["grid-32x0", "grid-neg4x8", "grid-0x64", "restarts-neg3"],
    )
    def test_degenerate_optimiser_setting_exits_2(self, bell_file, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["discord", bell_file, *flags])
        assert exc.value.code == 2
        flag = "--restarts" if "--restarts" in flags else "--grid"
        assert f"argument {flag}" in capsys.readouterr().err


    def test_restarts_reach_qudit_a(self, qutrit_a_file, capsys):
        code, out, _ = run(capsys, "discord", qutrit_a_file, "--restarts", "2")
        assert code == 0
        assert json.loads(out)["optimizer"]["restarts"] == 3
        _, multistart, _ = run(
            capsys, "discord", qutrit_a_file, "--strategy", "multistart", "--restarts", "2"
        )
        assert out == multistart

    def test_default_on_qudit_a_is_multistart(self, qutrit_a_file, capsys):
        code, out, _ = run(capsys, "discord", qutrit_a_file)
        assert code == 0
        assert json.loads(out)["optimizer"]["restarts"] == 21
        _, multistart, _ = run(capsys, "discord", qutrit_a_file, "--strategy", "multistart")
        assert out == multistart

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--grid", "2x2"), "--grid"),
            (("--strategy", "grid"), "--strategy grid"),
            (("--strategy", "grid", "--grid", "8x8"), "--strategy grid"),
            (("--strategy", "multistart", "--grid", "8x8"), "--grid"),
        ],
        ids=["grid", "strategy-grid", "strategy-grid-with-grid", "multistart-with-grid"],
    )
    def test_qubit_only_flags_on_qudit_a_exit_2(self, qutrit_a_file, capsys, flags, named):
        code, out, err = run(capsys, "discord", qutrit_a_file, *flags)
        assert code == 2
        assert out == ""
        assert f"error: {named} needs a qubit A" in err


class TestClassifyCommand:
    def test_point_channel_side_b(self, tmp_path, capsys):
        from discordkit.channels import make_point_channel

        path = tmp_path / "point.json"
        save_channel(make_point_channel(random_density(2, "hilbert-schmidt", 3)), path)
        code, out, _ = run(capsys, "classify", str(path), "--side", "B")
        assert code == 0
        assert json.loads(out)["label"] == "db-b"

    def test_dephasing_side_a(self, tmp_path, capsys):
        from discordkit.channels import make_qc_channel

        channel = make_qc_channel(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
            [basis_ket(2, 0), basis_ket(2, 1)],
        )
        path = tmp_path / "dephasing.json"
        save_channel(channel, path)
        code, out, _ = run(capsys, "classify", str(path), "--side", "A")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "db-a"
        assert payload["eb"]["kind"] == "yes"

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_sides_a_and_b_do_not_read_the_seed(self, tmp_path, capsys, side):
        # Near the family a "no" still carries a witness.  On B the first
        # failing input lies past the fixed probe head, where a seeded search
        # would print a different report per seed.
        dim, eps = (3, 1e-7) if side == "A" else (2, 1e-7)
        k = 5
        if side == "A":
            frame = random_unitary(dim, [k, 1])
            kets = list(frame.T)
            member = make_qc_channel([np.outer(v, v.conj()) for v in kets], kets)
        else:
            member = make_point_channel(random_density(dim, "hilbert-schmidt", [k, 1]))
        path = tmp_path / "near.json"
        noise = random_channel(dim, dim, 2, [k, 2])
        save_channel(mix_channels([(1 - eps, member), (eps, noise)]), path)
        outs = [run(capsys, "classify", str(path), "--side", side, "--seed", seed) for seed in "12"]
        assert outs[0] == outs[1]
        assert "witness" in json.loads(outs[0][1])

    def test_identity_on_ab(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        save_channel(QuantumChannel.identity(4), path)
        code, out, _ = run(
            capsys, "classify", str(path), "--side", "AB", "--dims", "2x2", "--samples", "20"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "not-da"
        assert "witness" in payload

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2to3", "3to2"])
    def test_non_square_channel_on_one_side(self, tmp_path, capsys, side, dims):
        # The witness output lives on the output split, not the input split.
        dim_in, dim_out = dims
        path = tmp_path / "non_square.json"
        save_channel(random_channel(dim_in, dim_out, 2, 11), path)
        code, out, err = run(capsys, "classify", str(path), "--side", side)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["label"] == f"not-db-{side.lower()}"
        assert payload["witness"]["kind"] == "discordant-output"
        output_path = tmp_path / "output.json"
        output_path.write_text(json.dumps(payload["witness"]["output"]))
        output = load_state(output_path)
        expected = (dim_out, 2) if side == "A" else (2, dim_out)
        assert (output.dim_a, output.dim_b) == expected
        assert not is_cq_exact(output)

    def test_non_finite_kraus_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        payload = {
            "type": "kraus",
            "d_in": 2,
            "d_out": 2,
            "data": [[[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [1.0, 0.0]]],
        }
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "classify", str(path), "--side", "B")
        assert code == 2
        assert "data[0][1]" in err

    def test_boolean_dimensions_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bool_dims.json"
        payload = {"type": "kraus", "d_in": True, "d_out": True, "data": [[[1.0, 0.0]]]}
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "classify", str(path), "--side", "B")
        assert code == 2
        assert "d_in" in err

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_tol_cq_reaches_side_verdicts(self, tmp_path, capsys, side):
        rng = np.random.default_rng(8)
        if side == "A":
            effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
            exact = make_qc_channel(effects, [basis_ket(2, 0), basis_ket(2, 1)])
        else:
            exact = make_point_channel(random_density(2, "hilbert-schmidt", rng))
        channel = mix_channels([(1 - 1e-4, exact), (1e-4, random_channel(2, 2, 2, rng))])
        path = tmp_path / "near.json"
        save_channel(channel, path)
        label = "db-" + side.lower()
        _, out, _ = run(capsys, "classify", str(path), "--side", side)
        assert json.loads(out)["label"] == "not-" + label
        code, out, _ = run(capsys, "classify", str(path), "--side", side, "--tol-cq", "1e-3")
        assert code == 0
        assert json.loads(out)["label"] == label

    def test_tol_cptp_admits_slightly_negative_choi(self, tmp_path, capsys):
        # (1 - eps)|Omega><Omega| + eps SWAP has the eigenvalue -eps on the singlet.
        eps = 5.8e-8
        j = (1 - eps) * QuantumChannel.identity(2).choi + eps * np.eye(4)[[0, 2, 1, 3]]
        path = tmp_path / "choi.json"
        path.write_text(
            json.dumps({"type": "choi", "d_in": 2, "d_out": 2, "data": encode_matrix(j)})
        )
        code, out, _ = run(capsys, "classify", str(path), "--side", "A", "--tol-cptp", "1e-6")
        assert code == 0
        assert json.loads(out)["label"] == "not-db-a"
        code, _, err = run(capsys, "classify", str(path), "--side", "A")
        assert code == 2
        assert "not PSD" in err

    def test_inconclusive_report_says_why(self, tmp_path, capsys):
        # Certified at --tol-cq 1e-3, but its rank-2 block keeps B input-dependent.
        da = build_da_channel(random_da_spec(2, 2, 0))
        path = tmp_path / "near_da.json"
        save_channel(mix_channels([(1 - 1e-5, da), (1e-5, QuantumChannel.identity(4))]), path)
        code, out, _ = run(
            capsys, "classify", str(path), "--side", "AB", "--dims", "2x2", "--tol-cq", "1e-3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "inconclusive"
        assert payload["match_notes"] == "rank-2 block has input-dependent B conditional"
        assert "recovered_spec" not in payload

    def test_ab_requires_dims(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        save_channel(QuantumChannel.identity(4), path)
        code, _, err = run(capsys, "classify", str(path), "--side", "AB")
        assert code == 2
        assert "dims" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "{c}", "--side", "AB", "--dims", "2x2"],
            ["verify-da", "--channel", "{c}", "--dims", "2x2", "--witness-out", "{w}"],
        ],
        ids=["classify", "verify-da"],
    )
    def test_ab_dims_check_both_sides_of_the_channel(self, tmp_path, capsys, argv):
        path = tmp_path / "shrink.json"
        save_channel(random_channel(4, 2, 2, 1), path)
        witness = tmp_path / "witness.json"
        argv = [a.format(c=path, w=witness) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and not witness.exists()
        assert err == "error: dims: channel acts on 4 -> 2, but --dims gives 4\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "{deph}", "--side", "A", "--dim-other", "0"], "--dim-other"),
        (["classify", "{deph}", "--side", "B", "--dim-other", "-1"], "--dim-other"),
        (["classify", "{deph}", "--side", "A", "--dim-other", "1"], "--dim-other"),
        (["classify", "{deph}", "--side", "B", "--dim-other", "1"], "--dim-other"),
        (
            ["tetra-sweep", "--step", "0.5", "--side", "A", "--dim-other", "0", "--probes", "1"],
            "--dim-other",
        ),
        (["classify", "{id4}", "--side", "AB", "--dims", "2x2", "--samples", "-5"], "--samples"),
        (
            [
                "verify-da", "--channel", "{id4}", "--dims", "2x2", "--samples", "-5",
                "--witness-out", "{w}/witness.json",
            ],
            "--samples",
        ),
        (["tetra-sweep", "--step", "0.5", "--side", "A", "--probes", "-1"], "--probes"),
        (["gen-da", "--random", "2x2", "--seed", "-1", "--out", "{w}/da.json"], "--seed"),
        (["tetra-sweep", "--step", "0.5", "--side", "A", "--probes", "1", "--seed", "-1"], "--seed"),
    ],
    ids=[
        "classify-A-dim-other-0", "classify-B-dim-other-neg1", "classify-A-dim-other-1",
        "classify-B-dim-other-1", "sweep-dim-other-0",
        "classify-samples-neg5", "verify-samples-neg5", "sweep-probes-neg1",
        "gen-da-seed-neg1", "sweep-seed-neg1",
    ],
)
def test_out_of_range_count_exits_2(tmp_path, capsys, argv, flag):
    deph = tmp_path / "deph.json"
    kraus = [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.diag([1.0, -1.0])]
    save_channel(QuantumChannel(kraus), deph)
    save_channel(QuantumChannel.identity(4), tmp_path / "id4.json")
    names = {"deph": deph, "id4": tmp_path / "id4.json", "w": tmp_path}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**names) for arg in argv])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["discord", "{s}", "--seed", "abc"], "--seed"),
        (["discord", "{s}", "--restarts", "1.5"], "--restarts"),
        (["discord", "{s}", "--grid", "2xa"], "--grid"),
        (["discord", "{s}", "--grid", "ax"], "--grid"),
        (["classify", "{deph}", "--side", "A", "--dim-other", "two"], "--dim-other"),
        (["classify", "{deph}", "--side", "A", "--tol-cq", "abc"], "--tol-cq"),
        (["classify", "{deph}", "--side", "A", "--tol-cptp", "1e-9x"], "--tol-cptp"),
        (["classify", "{deph}", "--side", "AB", "--dims", "2x2", "--samples", "ten"], "--samples"),
        (["verify-da", "--channel", "{deph}", "--dims", "2x1", "--samples", ""], "--samples"),
        (["tetra-sweep", "--step", "abc", "--side", "A"], "--step"),
        (["tetra-sweep", "--step", "0.5", "--side", "A", "--dim-other", "x"], "--dim-other"),
        (["tetra-sweep", "--step", "0.5", "--side", "A", "--probes", "3.0"], "--probes"),
        (["gen-da", "--random", "2x2", "--seed", "seven", "--out", "{w}/da.json"], "--seed"),
    ],
    ids=[
        "discord-seed", "discord-restarts", "discord-grid", "discord-grid-empty",
        "classify-dim-other", "classify-tol-cq", "classify-tol-cptp", "classify-samples",
        "verify-samples", "sweep-step", "sweep-dim-other", "sweep-probes", "gen-da-seed",
    ],
)
def test_non_numeric_flag_exits_2_naming_only_the_flag(tmp_path, capsys, argv, flag):
    deph = tmp_path / "deph.json"
    save_channel(QuantumChannel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.diag([1.0, -1.0])]), deph)
    save_state(random_bipartite(2, 2, 1), tmp_path / "s.json")
    names = {"deph": deph, "s": tmp_path / "s.json", "w": tmp_path}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**names) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    # The message names no private function of the CLI, such as an argparse type.
    assert re.search(r"(?<![\w-])_[A-Za-z]", err) is None, err


HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "kind, field",
    [("state", "matrix[0]"), ("channel", "data[0][0]"), ("spec", "entries[0].vector[0]")],
)
def test_out_of_range_integer_entry_exits_2(tmp_path, capsys, kind, field):
    path = tmp_path / f"{kind}.json"
    if kind == "state":
        payload = state_to_json(bell_state(0))
        payload["matrix"][0] = [HUGE, 0]
        argv = ["discord", str(path)]
    elif kind == "channel":
        payload = {"type": "kraus", "d_in": 2, "d_out": 2, "data": [encode_matrix(np.eye(2))]}
        payload["data"][0][0] = [HUGE, 0]
        argv = ["classify", str(path), "--side", "B"]
    else:
        identity = {"type": "identity"}
        entries = [
            {"kind": "rank1", "vector": encode_matrix(basis_ket(2, k)), "action": identity}
            for k in range(2)
        ]
        entries[0]["vector"][0] = [HUGE, 0]
        payload = {"dims": [2, 2], "entries": entries}
        argv = ["gen-da", "--spec", str(path), "--out", str(tmp_path / "na.json")]
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: expected an [re, im] pair of finite numbers, got [1000")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol-cq", "--tol-cptp"])
@pytest.mark.parametrize("command", ["classify", "verify-da"])
def test_out_of_range_tolerance_exits_2(tmp_path, capsys, command, flag, value):
    path = tmp_path / "id4.json"
    save_channel(QuantumChannel.identity(4), path)
    if command == "classify":
        argv = ["classify", str(path), "--side", "B"]
    else:
        argv = ["verify-da", "--channel", str(path), "--dims", "2x2",
                "--witness-out", str(tmp_path / "witness.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "contents",
    [
        "{}".encode("utf-16"),  # starts with the bytes ff fe
        b'{"dims": [2, 2], "matrix": [[' + b"9" * 5000 + b", 0]]}",
        b"[" * 100_000,
    ],
    ids=["undecodable", "oversized-integer", "too-deep"],
)
@pytest.mark.parametrize("command", ["discord", "classify", "verify-da"])
def test_malformed_file_contents_exit_2(tmp_path, capsys, command, contents):
    path = tmp_path / "bad.json"
    path.write_bytes(contents)
    argv = {
        "discord": ["discord", str(path)],
        "classify": ["classify", str(path), "--side", "A"],
        "verify-da": ["verify-da", "--channel", str(path), "--dims", "2x2",
                      "--witness-out", str(tmp_path / "witness.json")],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {path}: invalid JSON ")


@pytest.mark.parametrize(
    "argv",
    [["discord", "{d}"], ["tetra-sweep", "--step", "0.5", "--side", "A", "--out", "{d}"]],
    ids=["read", "write"],
)
def test_path_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(arg.format(d=tmp_path) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and str(tmp_path) in err


class TestSweepCommand:
    def test_axis_rows_side_a(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "tetra-sweep", "--step", "0.25", "--side", "A", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "l1,l2,l3,is_db,is_eb,max_discord"
        for line in lines[1:]:
            l1, l2, l3, is_db, _, _ = line.split(",")
            on_axis = sum(1 for v in (l1, l2, l3) if float(v) == 0.0) >= 2
            assert (is_db == "true") == on_axis

    def test_side_b_single_row(self, tmp_path, capsys):
        out_path = tmp_path / "sweep_b.csv"
        code, _, _ = run(
            capsys, "tetra-sweep", "--step", "0.25", "--side", "B", "--out", str(out_path)
        )
        assert code == 0
        flagged = [
            line for line in out_path.read_text().strip().split("\n")[1:]
            if line.split(",")[3] == "true"
        ]
        assert len(flagged) == 1
        assert flagged[0].startswith("0,0,0,")

    def test_rerun_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "tetra-sweep", "--step", "0.5", "--side", "A",
                "--probes", "2", "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "side, digest",
        [
            ("A", "4c456851aa8d92f276ca053189755bd549222761fd51919ed09cc31a9a10b634"),
            ("B", "502a1fbda6c9e1171b13f8c282c4b2c63b6bf8fd742d1715879db45a6df4bfab"),
        ],
    )
    def test_step_eighth_output_pinned(self, capsys, side, digest):
        # The rows hold only booleans and nan, so the digest does not depend
        # on the BLAS build.
        code, out, _ = run(capsys, "tetra-sweep", "--step", "0.125", "--side", side)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_step(self, capsys):
        code, _, err = run(capsys, "tetra-sweep", "--step", "1.5", "--side", "A")
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("step", ["1e-30", "5e-324"])
    def test_step_beyond_an_array_is_an_input_error(self, capsys, step):
        code, out, err = run(capsys, "tetra-sweep", "--step", step, "--side", "A")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --step {step} gives more grid values")


class TestGenAndVerify:
    def test_random_generation_verifies(self, tmp_path, capsys):
        channel_path = tmp_path / "da.json"
        code, out, _ = run(
            capsys, "gen-da", "--random", "2x2", "--seed", "7", "--out", str(channel_path)
        )
        assert code == 0
        spec_echo = json.loads(out)
        assert spec_echo["dims"] == [2, 2]
        code, out, _ = run(
            capsys,
            "verify-da", "--channel", str(channel_path), "--dims", "2x2",
            "--samples", "100", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["certification"]["passed"] is True

    def test_gen_da_rerun_byte_identical(self, tmp_path, capsys):
        outputs = []
        for name in ("da1.json", "da2.json"):
            path = tmp_path / name
            code, out, _ = run(
                capsys, "gen-da", "--random", "3x2", "--seed", "11", "--out", str(path)
            )
            assert code == 0
            outputs.append((path.read_bytes(), out))
        assert outputs[0] == outputs[1]

    def test_spec_with_multi_identity_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad_spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "dims": [2, 2],
                    "entries": [
                        {
                            "kind": "multi",
                            "projector": [[float(x), 0.0] for x in np.eye(2).reshape(-1)],
                            "action": {"type": "identity"},
                        }
                    ],
                }
            )
        )
        code, _, err = run(
            capsys, "gen-da", "--spec", str(spec_path), "--out", str(tmp_path / "na.json")
        )
        assert code == 2
        assert "rank-1" in err

    def test_spec_with_oblique_projector_exits_2(self, tmp_path, capsys):
        # P = diag(1, 1, 0, 0) + E_02 is idempotent but not Hermitian.
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        p[0, 2] = 1.0
        point = {"type": "point", "state": encode_matrix(np.diag([0.5, 0.5]))}
        entries = [
            {"kind": "multi", "projector": encode_matrix(q), "action": point}
            for q in (p, np.eye(4) - p)
        ]
        spec_path = tmp_path / "oblique.json"
        spec_path.write_text(json.dumps({"dims": [4, 2], "entries": entries}))
        code, _, err = run(
            capsys, "gen-da", "--spec", str(spec_path), "--out", str(tmp_path / "na.json")
        )
        assert code == 2
        assert "entries: entry 0: matrix is not an orthogonal projector" in err

    def test_spec_with_zero_vector_exits_2(self, tmp_path, capsys):
        identity = {"type": "identity"}
        entries = [
            {"kind": "rank1", "vector": encode_matrix(v), "action": identity}
            for v in (np.zeros(2), basis_ket(2, 1))
        ]
        spec_path = tmp_path / "zero.json"
        spec_path.write_text(json.dumps({"dims": [2, 2], "entries": entries}))
        code, _, err = run(
            capsys, "gen-da", "--spec", str(spec_path), "--out", str(tmp_path / "na.json")
        )
        assert code == 2
        assert "entries: entry 0: vector has zero or non-finite norm 0.0" in err
        assert "Warning" not in err

    def test_spec_with_overlapping_entries_exits_2(self, tmp_path, capsys):
        identity = {"type": "identity"}
        entries = [
            {"kind": "rank1", "vector": encode_matrix(v), "action": identity}
            for v in (basis_ket(2, 0), basis_ket(2, 1), np.array([1.0, 1.0]))
        ]
        spec_path = tmp_path / "overlap.json"
        spec_path.write_text(json.dumps({"dims": [2, 2], "entries": entries}))
        code, _, err = run(
            capsys, "gen-da", "--spec", str(spec_path), "--out", str(tmp_path / "na.json")
        )
        assert code == 2
        assert "entries: entries 0 and 2 overlap (norm 7.071e-01)" in err

    @pytest.mark.parametrize(
        "pre, message",
        [
            ([1, 2], "pre_channel: expected an object"),
            (7, "pre_channel: expected an object"),
            (None, "pre_channel: expected an object"),
            ("prep.json", "pre_channel: expected an object"),
            (
                {"type": "kraus", "d_in": 0, "d_out": 4, "data": []},
                "pre_channel.d_in: expected a positive integer, got 0",
            ),
            (
                {"type": "kraus", "d_in": 4, "d_out": 4, "data": [[[1.0, 0.0]]]},
                "pre_channel.data[0]: expected 16 entries for shape (4, 4), got 1",
            ),
            (
                {"type": "kraus", "d_in": 2, "d_out": 2, "data": [encode_matrix(np.eye(2))]},
                "pre_channel: pre-channel acts on 2 -> 2, expected 4 -> 4",
            ),
            (
                {
                    "type": "kraus",
                    "d_in": 4,
                    "d_out": 2,
                    "data": [encode_matrix(np.eye(4)[2 * k : 2 * k + 2]) for k in range(2)],
                },
                "pre_channel: pre-channel acts on 4 -> 2, expected 4 -> 4",
            ),
        ],
        ids=["list", "number", "null", "path", "bad-dimension", "bad-kraus", "qubit", "4to2"],
    )
    def test_spec_pre_channel_must_be_a_channel_object(
        self, tmp_path, capsys, monkeypatch, pre, message
    ):
        # A string is not read as a path, even where it names a channel file.
        monkeypatch.chdir(tmp_path)
        save_channel(QuantumChannel.identity(4), tmp_path / "prep.json")
        identity = {"type": "identity"}
        entries = [
            {"kind": "rank1", "vector": encode_matrix(basis_ket(2, k)), "action": identity}
            for k in range(2)
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dims": [2, 2], "entries": entries, "pre_channel": pre}))
        code, out, err = run(capsys, "gen-da", "--spec", str(spec_path), "--out", "na.json")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "na.json").exists()

    @pytest.mark.parametrize("dims", ["2x2", "2x3", "3x2", "3x3", "4x2"])
    def test_recovered_spec_round_trips(self, tmp_path, capsys, dims):
        # The printed spec is the stage alone; the channel is its own pre-channel.
        channel_path, spec_path, stage_path = (tmp_path / n for n in ("da", "spec", "stage"))
        code, _, _ = run(
            capsys, "gen-da", "--random", dims, "--seed", "5", "--out", str(channel_path)
        )
        assert code == 0
        code, out, _ = run(capsys, "classify", str(channel_path), "--side", "AB", "--dims", dims)
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "da"
        assert "pre_channel" not in payload["recovered_spec"]
        spec_path.write_text(json.dumps(payload["recovered_spec"]))
        code, out, _ = run(capsys, "gen-da", "--spec", str(spec_path), "--out", str(stage_path))
        assert code == 0
        assert json.loads(out) == payload["recovered_spec"]
        channel, stage = load_channel(channel_path), load_channel(stage_path)
        superop = channel.superop
        distance = np.linalg.norm(compose(stage, channel).superop - superop)
        assert distance <= REBUILD_TOL * max(1.0, np.linalg.norm(superop))

    def test_full_space_point_spec(self, tmp_path, capsys):
        from discordkit.channels import choi_distance, extend, make_point_channel
        from discordkit.states import DensityOperator

        r = DensityOperator.diagonal([0.7, 0.3])
        spec_path = tmp_path / "point_spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "dims": [2, 2],
                    "entries": [
                        {
                            "kind": "multi",
                            "projector": [[float(x), 0.0] for x in np.eye(2).reshape(-1)],
                            "action": {
                                "type": "point",
                                "state": [[float(x), 0.0] for x in r.matrix.real.reshape(-1)],
                            },
                        }
                    ],
                }
            )
        )
        out_path = tmp_path / "point_channel.json"
        code, _, _ = run(capsys, "gen-da", "--spec", str(spec_path), "--out", str(out_path))
        assert code == 0
        built = load_channel(str(out_path))
        assert choi_distance(built, extend(make_point_channel(r), "B", 2)) <= 1e-9

    def test_identity_fails_verification(self, tmp_path, capsys):
        channel_path = tmp_path / "identity.json"
        save_channel(QuantumChannel.identity(4), channel_path)
        witness_path = tmp_path / "witness.json"
        code, _, err = run(
            capsys,
            "verify-da", "--channel", str(channel_path), "--dims", "2x2",
            "--samples", "20", "--witness-out", str(witness_path),
        )
        assert code == 3
        payload = json.loads(witness_path.read_text())
        assert payload["certification"]["passed"] is False
        assert "witness" in payload
        assert payload["screening"]["rank_deficient"] is False

    @pytest.mark.parametrize("dims", ["1x3", "3x1", "1x1"])
    def test_invertible_channel_passes_where_a_side_is_trivial(self, tmp_path, capsys, dims):
        """With a 1-dimensional side every state is CQ, so an invertible
        annihilating channel passes; the screening is printed all the same."""
        channel_path = str(tmp_path / "channel.json")
        if dims == "3x1":
            save_channel(QuantumChannel.identity(3), channel_path)
        else:
            spec_path = tmp_path / "spec.json"
            rank1 = {"kind": "rank1", "vector": [[1.0, 0.0]], "action": {"type": "identity"}}
            spec_path.write_text(json.dumps({"dims": [1, 3], "entries": [rank1]}))
            source = ["--random", "1x1", "--seed", "4"] if dims == "1x1" else ["--spec", str(spec_path)]
            assert run(capsys, "gen-da", *source, "--out", channel_path)[0] == 0
        code, out, _ = run(capsys, "verify-da", "--channel", channel_path, "--dims", dims)
        assert code == 0
        payload = json.loads(out)
        assert payload["certification"]["passed"] is True
        assert payload["screening"]["rank_deficient"] is False
        assert "witness" not in payload
        code, out, _ = run(capsys, "classify", channel_path, "--side", "AB", "--dims", dims)
        assert (code, json.loads(out)["label"]) == (0, "da")

    def test_mixture_of_da_channels_fails_verification(self, tmp_path, capsys):
        sigma = [random_density(2, "hilbert-schmidt", 40 + k) for k in range(4)]
        z_spec = DAChannelSpec.make(
            2,
            2,
            [
                Rank1Entry(basis_ket(2, 0), PointTo(sigma[0])),
                Rank1Entry(basis_ket(2, 1), PointTo(sigma[1])),
            ],
        )
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        x_spec = DAChannelSpec.make(
            2,
            2,
            [Rank1Entry(plus, PointTo(sigma[2])), Rank1Entry(minus, PointTo(sigma[3]))],
        )
        mixed = mix_channels([(0.5, build_da_channel(z_spec)), (0.5, build_da_channel(x_spec))])
        channel_path = tmp_path / "mixture.json"
        save_channel(mixed, channel_path)
        code, _, _ = run(
            capsys,
            "verify-da", "--channel", str(channel_path), "--dims", "2x2",
            "--samples", "100", "--witness-out", str(tmp_path / "w.json"),
        )
        assert code == 3


def test_tolerance_flags_only_where_read():
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    tolerance_flags = {"--tol-cq", "--tol-cptp"}
    for name, sub in commands.items():
        flags = set(sub._option_string_actions)
        assert "--seed" in flags, name
        expected = tolerance_flags if name in {"classify", "verify-da"} else set()
        assert flags & tolerance_flags == expected, name
    args = parser.parse_args(["verify-da", "--channel", "c.json", "--dims", "2x2"])
    assert (args.tol_cq, args.tol_cptp) == (CQ_TOL, VALIDITY_TOL)


def test_parser_built_once_keeps_no_parse_state(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    channel = tmp_path / "da.json"
    assert run(capsys, "gen-da", "--random", "2x2", "--out", str(channel))[0] == 0
    seen = []

    def spy(*args, **kwargs):
        seen.append((kwargs["n_samples"], kwargs["tol"]))
        return apply_and_certify(*args, **kwargs)

    monkeypatch.setattr(cli, "apply_and_certify", spy)
    argv = ["verify-da", "--channel", str(channel), "--dims", "2x2"]
    run(capsys, *argv, "--samples", "5", "--tol-cq", "1e-3")
    code, out, _ = run(capsys, *argv)
    assert seen == [(5, 1e-3), (200, CQ_TOL)]
    src = Path(__file__).resolve().parents[1] / "src"
    fresh = subprocess.run(
        [sys.executable, "-m", "discordkit.cli", *argv], capture_output=True, text=True,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
    )
    assert (fresh.returncode, fresh.stdout) == (code, out)
