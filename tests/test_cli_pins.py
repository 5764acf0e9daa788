"""SHA-256 pins of the CLI's output on seeded inputs.

Every command runs in process with the default ``--seed`` 42 unless it
names one.  The digests cover stdout and every file a command writes, and
hold for the pinned numpy 2.4 / OpenBLAS build; another BLAS build may
round the printed floats differently.  A change that moves a digest on
purpose records the old and new digest, and why, in CHANGES.md.  The
step-0.125 sweeps are pinned in ``test_cli.py``; the two ``--probes 3``
sweeps here pin the per-row discord column.

Inputs: ``s22`` = ``random_bipartite(2, 2, 1)``, ``s32`` =
``random_bipartite(3, 2, 2)``, ``rand2`` = ``random_channel(2, 2, 2, 3)``,
``rand4`` = ``random_channel(4, 4, 2, 5)``, ``rand3`` =
``random_channel(3, 3, 2, 7)``, ``deph`` = Kraus {sqrt(0.7) I, sqrt(0.3) Z},
``dephfull`` = {sqrt(0.5) I, sqrt(0.5) Z} and ``deph3`` = {|k><k|}, the
completely dephasing qutrit channel, whose probe outputs tie in many pairs;
every channel written by ``save_channel``.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from discordkit.channels import QuantumChannel, random_channel
from discordkit.cli import main
from discordkit.serialize import save_channel, save_state
from discordkit.states import PAULI_I, PAULIS, random_bipartite

GEN_DA = {
    "gen_22": ["--random", "2x2", "--seed", "7", "--out", "{w}/da22.json"],
    "gen_33": [
        "--random", "3x3", "--seed", "8", "--out", "{w}/da33.json",
        "--spec-out", "{w}/da33_spec.json",
    ],
    "gen_23": ["--random", "2x3", "--seed", "9", "--out", "{w}/da23.json"],
    "gen_42": ["--random", "4x2", "--seed", "10", "--out", "{w}/da42.json"],
}

# (name, argv, exit code); every name is the digest of that command's stdout.
COMMANDS = [
    ("cls_AB_da22", ["classify", "{w}/da22.json", "--side", "AB", "--dims", "2x2"], 0),
    (
        "cls_AB_da22_s20",
        ["classify", "{w}/da22.json", "--side", "AB", "--dims", "2x2", "--samples", "20"],
        0,
    ),
    ("cls_AB_da23", ["classify", "{w}/da23.json", "--side", "AB", "--dims", "2x3"], 0),
    ("cls_AB_da33", ["classify", "{w}/da33.json", "--side", "AB", "--dims", "3x3"], 0),
    ("cls_AB_da42", ["classify", "{w}/da42.json", "--side", "AB", "--dims", "4x2"], 0),
    ("cls_AB_rand", ["classify", "{w}/rand4.json", "--side", "AB", "--dims", "2x2"], 0),
    ("cls_A_deph", ["classify", "{w}/deph.json", "--side", "A"], 0),
    ("cls_A_dephfull", ["classify", "{w}/dephfull.json", "--side", "A"], 0),
    ("cls_A_rand", ["classify", "{w}/rand2.json", "--side", "A"], 0),
    ("cls_B_deph", ["classify", "{w}/deph.json", "--side", "B"], 0),
    ("cls_B_dephfull", ["classify", "{w}/dephfull.json", "--side", "B"], 0),
    ("cls_B_rand", ["classify", "{w}/rand2.json", "--side", "B"], 0),
    ("cls_A_rand3", ["classify", "{w}/rand3.json", "--side", "A"], 0),
    ("cls_B_rand3", ["classify", "{w}/rand3.json", "--side", "B"], 0),
    ("cls_A_deph3", ["classify", "{w}/deph3.json", "--side", "A"], 0),
    ("cls_B_deph3", ["classify", "{w}/deph3.json", "--side", "B"], 0),
    ("discord_22", ["discord", "{w}/s22.json"], 0),
    ("grid_22", ["discord", "{w}/s22.json", "--strategy", "grid"], 0),
    (
        "discord_32",
        ["discord", "{w}/s32.json", "--strategy", "multistart", "--restarts", "2"],
        0,
    ),
    ("default_32", ["discord", "{w}/s32.json"], 0),
    ("verify_pass", ["verify-da", "--channel", "{w}/da22.json", "--dims", "2x2"], 0),
    ("verify_da23", ["verify-da", "--channel", "{w}/da23.json", "--dims", "2x3"], 0),
    ("verify_da33", ["verify-da", "--channel", "{w}/da33.json", "--dims", "3x3"], 0),
    ("verify_da42", ["verify-da", "--channel", "{w}/da42.json", "--dims", "4x2"], 0),
    (
        "verify_fail",
        [
            "verify-da", "--channel", "{w}/rand4.json", "--dims", "2x2",
            "--witness-out", "{w}/witness.json",
        ],
        3,
    ),
    ("sweep_A", ["tetra-sweep", "--step", "0.25", "--side", "A"], 0),
    ("sweep_B", ["tetra-sweep", "--step", "0.25", "--side", "B"], 0),
    ("sweep_A_probes", ["tetra-sweep", "--step", "0.5", "--side", "A", "--probes", "3"], 0),
    ("sweep_B_probes", ["tetra-sweep", "--step", "0.5", "--side", "B", "--probes", "3"], 0),
]

DIGESTS = {
    "gen_22": "a1cbeebfdd9a704204802e8fba18ec2403d18916391b60fd7722da1ce7d9d774",
    "gen_33": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "gen_23": "6c150b23e55c10a101fe9cf10b3e784e4b7f24e074f961d503efa9b7d38e9373",
    "gen_42": "1118bd93f2dec523bd8026e685860e44cd475377564ad0a15f3ef87bd2daec6b",
    "da22.json": "66bc020fab4ca260beaa162a467d08d2cb068c54ed78df65005e6d941197cec0",
    "da23.json": "595fcd4249821f727aaae241f5e551360364df61e6eb8e091c18591c08f2235e",
    "da33.json": "bac63b7b6f4135287d01e620c7bf0ff216fe9c48b3e7af70df0fd43ac9ca32ca",
    "da33_spec.json": "a306d0358b1ede5d5867db25f1d5862b21e46791a120235cc58b7efacf2b7990",
    "da42.json": "f7d577bb17cfba210677420240922272713c7bd427a2be7a292b78d9ffd2e2be",
    "cls_AB_da22": "5af734863bf930ce0ba29c38397da447870900ab618a70e8a443c559b72092cc",
    "cls_AB_da22_s20": "5ad224d2e6b6170b124db7b5cd0b99ec7cf77ad79784af433bd2c105642f51a4",
    "cls_AB_da23": "a4769deefc4d5d7dee85b425b335645cdc61973b030d2942ac181ab22f703897",
    "cls_AB_da33": "d8d59b02517e4c4b454a535ea539b2c8870cf3110f9916140d5516dd73f8f5dd",
    "cls_AB_da42": "afe553dd9effbaf92a5cd7f96facf3ca8faac56c6dab64cc23e1680ee36a5ea7",
    "cls_AB_rand": "a93f550b105a23fed77f95f4036e1a5b6f93fa26528cb821b31206a81cf069b7",
    "cls_A_deph": "cf70682bb4c96bb0fde1e55172b1ead8ac90bcbae099aea9deee9241181b12e4",
    "cls_A_dephfull": "385216202b5d30d54c19a28bc534dd88713ce03d31b98350616c0c314defa208",
    "cls_A_rand": "312048ba1289be3b334acbccb8eb16ea1c2ece1835e2eea71d871a7acdc3254a",
    "cls_B_deph": "3d4f37346858c023ef97c313c9059f3209fb428c6733e8f1fdbb2e123a6e60f6",
    "cls_B_dephfull": "1de52b75da8c2175d348da355d6932b4f8a72bc5c1682e2a262ad8b9668f9994",
    "cls_B_rand": "8f088e9f219076f45dfdfb8b694ec7a53450081824909bf55566d6f4f7c77d83",
    "cls_A_rand3": "0fc4c745b36d5c9192a8c4594773034a8f2299819364ef0efc91149c0ec2cf2f",
    "cls_B_rand3": "775b94c00061df318d5b68b41036532a5a5db056f440de2d0ebab5ed294241cd",
    "cls_A_deph3": "a4a280037d71a74d808d26995f8245c942bef43ea29c564145ecd57a4a947b4c",
    "cls_B_deph3": "b28c4483f1fbf1c405542ae3b55cee8cb5235c99872db71d43e2f652cd675510",
    "discord_22": "d66face605a146db4c495b431da8228ab585c272a138d7c7a95e17de67a8edf7",
    "grid_22": "2dfe63b5e65b0e01bdaeb46c54e1304b584100a4ffc173c462f89abe34517470",
    "discord_32": "7fcc72975128bb97f5490f4e0625a43f8c7bc35ce8c43b2a52302c20a98b3285",
    "default_32": "1e9843faeb83d1ce5d3218a791609f7b836837df42ed9262094a09f30dfe60b7",
    "verify_pass": "2d16eb7f6d3bf3a0962b8c973a6a9ddf6b4a20f527637ec6d9b6286c376c7d91",
    "verify_da23": "e8a932d5abf79657bc62204a61cc5ef7c1c69e76ebd81c57e69583f0c84d7719",
    "verify_da33": "280cf46dee5a5f0ffbd4d0188aea69176640f56af06236a7ae00a55e9113260f",
    "verify_da42": "1c468ec4122438aa6cb6ba7244e84e550a9c99144841c49d1248a52968711a7e",
    "verify_fail": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "witness.json": "bd29216f4751a51a78d57cb5bb1dc125f3ea791fb4d3ac0e7c01436f165949b9",
    "sweep_A": "5864d72ec2b19cc30caa2921749f25c9e5db64f497736726e9b3ef118f31482c",
    "sweep_B": "7ded4d5ba4f1e1318525af2d0d3c728c5b4052c192f1d070884dfabd977c7ba8",
    "sweep_A_probes": "32be2fa791f0b19c43af15fbcb29cbf003991cc1f3a02032ef33a6a0857ac72b",
    "sweep_B_probes": "98be79853fcef5e5991ae747ed5d72c2003486b5521791e8de14b0029c295ebb",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv, work) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.format(w=work) for arg in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The input files, then the four ``gen-da`` runs and their stdout."""
    w = tmp_path_factory.mktemp("pins")
    save_state(random_bipartite(2, 2, 1), w / "s22.json")
    save_state(random_bipartite(3, 2, 2), w / "s32.json")
    save_channel(random_channel(2, 2, 2, 3), w / "rand2.json")
    save_channel(random_channel(4, 4, 2, 5), w / "rand4.json")
    save_channel(random_channel(3, 3, 2, 7), w / "rand3.json")
    save_channel(QuantumChannel([np.diag(np.eye(3)[k]) for k in range(3)]), w / "deph3.json")
    for name, p, q in (("deph", 0.7, 0.3), ("dephfull", 0.5, 0.5)):
        kraus = [np.sqrt(p) * PAULI_I, np.sqrt(q) * PAULIS[2]]
        save_channel(QuantumChannel(kraus), w / f"{name}.json")
    gen_stdout = {name: run_cli(["gen-da", *argv], w) for name, argv in GEN_DA.items()}
    return w, gen_stdout


@pytest.mark.parametrize("name", list(GEN_DA))
def test_gen_da_stdout_pinned(work, name):
    code, out = work[1][name]
    assert code == 0
    assert sha256(out.encode()) == DIGESTS[name]


@pytest.mark.parametrize(
    "name", ["da22.json", "da23.json", "da33.json", "da33_spec.json", "da42.json"]
)
def test_gen_da_files_pinned(work, name):
    assert sha256((work[0] / name).read_bytes()) == DIGESTS[name]


@pytest.mark.parametrize("name, argv, code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_stdout_pinned(work, name, argv, code):
    got_code, out = run_cli(argv, work[0])
    assert got_code == code
    assert sha256(out.encode()) == DIGESTS[name]
    if name == "verify_fail":
        assert sha256((work[0] / "witness.json").read_bytes()) == DIGESTS["witness.json"]
