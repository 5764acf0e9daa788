"""Seeded benchmark inputs, built with plain numpy and written in the README formats.

Nothing here calls a ``discordkit`` sampler, so a change to the library's
random ensembles cannot change what the benchmark feeds it.

Discord inputs are fixed pool members turned by a seeded local unitary on
B: member ``i`` of kind ``k`` is generated from ``default_rng([kind number,
i])`` and the run seed draws ``U_B`` for each, so the file the CLI reads
changes with the seed.  Rotating B leaves the measurement problem on A the
same, so J, the reference table of certified J values
(``reference_j.json``) and the optimiser's work hold for every seed; a
rotation on A would change which local optimum MultiStart finds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Discord input kinds, with (dA, dB).  The order fixes each kind's number,
# so append new kinds at the end.
DISCORD_KINDS = {
    "hs2x2": (2, 2),
    "hs2x3": (2, 3),
    "hs2x4": (2, 4),
    "bell_unital": (2, 2),
    "product_unital": (2, 2),
    "hs3x2": (3, 2),
    "hs3x3": (3, 3),
}

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# -- numpy samplers ---------------------------------------------------------------


def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def hs_state(rng, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    d = np.diag(r)
    return q * (d / np.abs(d))


def pure(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_kraus(rng, dim_in: int, dim_out: int, rank: int) -> list[np.ndarray]:
    """Kraus operators of a random channel: row blocks of a Haar isometry."""
    iso = haar_unitary(rng, dim_out * rank)[:, :dim_in]
    return [iso[m * dim_out : (m + 1) * dim_out] for m in range(rank)]


def pauli_weights(lam) -> np.ndarray:
    """Pauli-channel weights of the unital qubit channel diag(1, l1, l2, l3)."""
    l1, l2, l3 = lam
    return np.array(
        [1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3]
    ) / 4.0


def unital_on_a(lam, rho: np.ndarray, dim_b: int) -> np.ndarray:
    """Apply the unital qubit channel with contractions ``lam`` to qubit A."""
    out = np.zeros_like(rho)
    for p, s in zip(pauli_weights(lam), PAULIS):
        k = np.kron(s, np.eye(dim_b))
        out += p * (k @ rho @ k.conj().T)
    return out


def random_lambda(rng, on_axis: bool) -> tuple[float, float, float]:
    """A point of the CPTP tetrahedron; on an axis two contractions vanish."""
    if on_axis:
        lam = [0.0, 0.0, 0.0]
        lam[int(rng.integers(3))] = float(rng.uniform(-1.0, 1.0))
        return tuple(lam)
    p0, p1, p2, p3 = rng.dirichlet(np.ones(4))
    return (p0 + p1 - p2 - p3, p0 - p1 + p2 - p3, p0 - p1 - p2 + p3)


def discord_input(kind: str, index: int) -> tuple[tuple[int, int], np.ndarray]:
    """Pool member ``index`` of ``kind``: its dims and density matrix."""
    number = list(DISCORD_KINDS).index(kind)
    rng = np.random.default_rng([number, index])
    da, db = DISCORD_KINDS[kind]
    if kind.startswith("hs"):
        return (da, db), hs_state(rng, da * db)
    lam = random_lambda(rng, on_axis=index % 2 == 0)
    if kind == "bell_unital":
        bell = np.zeros(4, dtype=complex)
        which = int(rng.integers(4))
        if which < 2:
            bell[[0, 3]] = 1.0, (-1.0) ** which
        else:
            bell[[1, 2]] = 1.0, (-1.0) ** which
        probe = pure(bell)
    else:
        probe = sum(
            0.5 * np.kron(pure(ginibre(rng, 2, 1)[:, 0]), pure(ginibre(rng, 2, 1)[:, 0]))
            for _ in range(2)
        )
    return (da, db), unital_on_a(lam, probe, db)


def rotate_b(rng, dims, matrix: np.ndarray) -> np.ndarray:
    """``(I_A x U_B) rho (I_A x U_B)^dagger`` for a Haar-random ``U_B``."""
    u = np.kron(np.eye(dims[0]), haar_unitary(rng, dims[1]))
    return u @ matrix @ u.conj().T


def da_spec(rng, dim_a: int, dim_b: int, blocks) -> dict:
    """An annihilating-channel spec in the README format: a random rank-2
    pre-channel, then a random orthogonal partition of A into ``(rank,
    action)`` blocks, action ``"identity"`` (rank 1 only) or ``"point"`` to a
    Hilbert-Schmidt random B state."""
    frame = haar_unitary(rng, dim_a)
    entries, col = [], 0
    for size, action in blocks:
        block = frame[:, col : col + size]
        col += size
        if action == "identity":
            act = {"type": "identity"}
        else:
            act = {"type": "point", "state": encode_matrix(hs_state(rng, dim_b))}
        if size == 1:
            entries.append({"kind": "rank1", "vector": encode_matrix(block), "action": act})
        else:
            entries.append({"kind": "multi", "projector": encode_matrix(block @ block.conj().T), "action": act})
    d = dim_a * dim_b
    pre = kraus_json(random_kraus(rng, d, d, 2))
    return {"dims": [dim_a, dim_b], "entries": entries, "pre_channel": pre}


def random_da_kraus(rng, dim_a: int, dim_b: int, blocks) -> list[np.ndarray]:
    """An annihilating channel: a random rank-2 pre-channel, then a pinch into
    a random orthogonal partition of A with the given ``(rank, action)``
    blocks, action ``"identity"`` (rank 1 only) or ``"point"`` on B."""
    frame = haar_unitary(rng, dim_a)
    stage, col = [], 0
    for size, action in blocks:
        block = frame[:, col : col + size]
        col += size
        proj = block @ block.conj().T
        if action == "identity":
            stage.append(np.kron(proj, np.eye(dim_b)))
            continue
        mu, vecs = np.linalg.eigh(hs_state(rng, dim_b))
        for m in range(dim_b):
            for n in range(dim_b):
                point = np.zeros((dim_b, dim_b), dtype=complex)
                point[:, n] = np.sqrt(max(mu[m], 0.0)) * vecs[:, m]
                stage.append(np.kron(proj, point))
    d = dim_a * dim_b
    pre = random_kraus(rng, d, d, 2)
    return [s @ p for s in stage for p in pre]


def mix_kraus(weight: float, first: list, second: list) -> list[np.ndarray]:
    """Kraus set of ``(1 - weight) first + weight second``."""
    return [np.sqrt(1.0 - weight) * k for k in first] + [np.sqrt(weight) * k for k in second]


# -- file formats ------------------------------------------------------------------


def encode_matrix(m: np.ndarray) -> list:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def decode_matrix(data, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def write_state(path: Path, dims, matrix: np.ndarray) -> str:
    path.write_text(json.dumps({"dims": list(dims), "matrix": encode_matrix(matrix)}))
    return str(path)


def kraus_json(ops) -> dict:
    d_out, d_in = ops[0].shape
    return {"type": "kraus", "d_in": d_in, "d_out": d_out, "data": [encode_matrix(k) for k in ops]}


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def write_kraus(path: Path, ops) -> str:
    return write_json(path, kraus_json(ops))

