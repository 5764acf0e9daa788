"""JSON and CSV interchange formats.

Complex matrices are encoded as row-major flat lists of ``[re, im]``
pairs, written and read as one float array: a list of finite int or float
pairs decodes in one pass, and any other list is checked entry by entry so
the error names the first bad entry.  State files carry
``{"dims": [dA, dB] or [d], "matrix": ...}``; channel files carry
``{"type": "kraus"|"choi", "d_in": ..., "d_out": ..., "data": ...}``.
The channel writer always emits the canonical form:
Kraus operators extracted from the Choi eigendecomposition in descending
eigenvalue order, each with the phase that makes its pivot (its first entry
within a relative ``ZERO_CUTOFF`` of the largest magnitude) real and
positive, so Choi matrices that differ by rounding write entries that do
too, unless a kept eigenvalue is degenerate.  Readers enforce the physical
invariants and raise :class:`FileFormatError` naming the offending field.
Every JSON text the package writes (state and channel files, and the CLI's
reports and spec echoes) comes from one writer, :func:`json_text`.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .annihilators import (
    CertificationReport,
    DAChannelSpec,
    Entry,
    IdentityAction,
    InvalidDASpecError,
    MultiEntry,
    PointTo,
    Rank1Entry,
)
from .channels import InvalidChannelError, QuantumChannel
from .discord import DiscordResult
from .states import BipartiteState, DensityOperator, InvalidStateError
from .tolerances import VALIDITY_TOL


class FileFormatError(ValueError):
    """Malformed input file; the message names the field at fault."""

    def __init__(self, field: str, problem: str):
        self.field, self.problem = field, problem
        super().__init__(f"{field}: {problem}")


def encode_matrix(m: np.ndarray) -> list:
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()


_encode = json.JSONEncoder(allow_nan=False).encode


def json_text(payload, *, sort_keys: bool = False) -> str:
    """``json.dumps(payload, indent=2, sort_keys=sort_keys, allow_nan=False)``,
    byte for byte.

    json's indenting encoder is pure Python; this one walks dicts and lists
    itself and writes each list of ``[re, im]`` pairs of finite floats (what
    :func:`encode_matrix` makes) with one ``%r`` template, since json writes
    a float as ``float.__repr__``.  Every other value is json's own encoding
    of it, so a non-finite float raises json's ``ValueError``.
    """
    return _render(payload, "\n", sort_keys)


def _render(value, newline: str, sort_keys: bool) -> str:
    """``value`` as :func:`json_text` writes it, where ``newline`` is a line
    break followed by the indent of the enclosing line."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items()) if sort_keys else value.items()
        body = ",".join(f"{inner}{_key(k)}: {_render(v, inner, sort_keys)}" for k, v in items)
        return "{" + body + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        floats = _float_pairs(value)
        if floats is not None:
            pair = f"{inner}[{inner}  %r,{inner}  %r{inner}]"
            return "[" + ",".join([pair] * len(value)) % floats + newline + "]"
        return "[" + ",".join(inner + _render(v, inner, sort_keys) for v in value) + newline + "]"
    return _scalar(value)


def _scalar(value) -> str:
    """json's text for a value that is not a list or dict, with the error
    json's indenting encoder raises for a non-finite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return _encode(value)


def _key(key) -> str:
    """A dict key as json writes it: a string, or the JSON spelling of an
    int, float, bool or None as a string."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return _encode(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float_pairs(items) -> tuple | None:
    """The entries of ``items``, a list of two-entry lists of finite floats,
    as one flat tuple; None for any other list.  Exact floats only: the
    ``%r`` of a float subclass, or of a bool, is not json's spelling."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = tuple(itertools.chain.from_iterable(items))
    if set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):
        return flat
    return None


def _is_finite_number(x) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers; an int
    # beyond the float range is not finite.
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _dimensions(value, field: str, lengths: tuple[int, ...] | None = None):
    """``value`` if it is a positive integer (``lengths`` None) or a list of
    positive integers of one of the ``lengths``; otherwise a
    :class:`FileFormatError` naming ``field``.  JSON true/false are refused
    even though bool is a subclass of int."""
    items = [value] if lengths is None else value
    if (lengths is None or isinstance(value, list) and len(value) in lengths) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in items
    ):
        return value
    if lengths is None:
        raise FileFormatError(field, f"expected a positive integer, got {value!r}")
    shapes = " or ".join({1: "[d]", 2: "[dA, dB]"}[n] for n in lengths)
    raise FileFormatError(field, f"expected {shapes} of positive integers, got {value!r}")


def decode_matrix(data, shape: tuple[int, int], field: str) -> np.ndarray:
    if not isinstance(data, list):
        raise FileFormatError(field, f"expected a list of [re, im] pairs, got {type(data).__name__}")
    expected = shape[0] * shape[1]
    if len(data) != expected:
        raise FileFormatError(field, f"expected {expected} entries for shape {shape}, got {len(data)}")
    # Pairs of ints and floats convert as one array, each int to the float
    # complex() makes of it; any other list goes entry by entry below.
    try:
        if set(map(type, itertools.chain.from_iterable(data))) <= {int, float}:
            pairs = np.array(data, dtype=float)
            if pairs.shape == (expected, 2) and np.isfinite(pairs).all():
                return pairs.view(complex).reshape(shape)
    except (TypeError, ValueError, OverflowError):  # a scalar or ragged pair, a huge int
        pass
    out = np.empty(expected, dtype=complex)
    for idx, pair in enumerate(data):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_finite_number(x) for x in pair)
        ):
            raise FileFormatError(
                f"{field}[{idx}]", f"expected an [re, im] pair of finite numbers, got {pair!r}"
            )
        out[idx] = complex(pair[0], pair[1])
    return out.reshape(shape)


def decode_vector(data, dim: int, field: str) -> np.ndarray:
    return decode_matrix(data, (dim, 1), field).reshape(-1)


def _state_field(data, dim: int, field: str) -> DensityOperator:
    m = decode_matrix(data, (dim, dim), field)
    try:
        return DensityOperator.from_matrix(m, name=field)
    except InvalidStateError as exc:
        raise FileFormatError(field, str(exc)) from exc


def _load_json(source) -> dict:
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        payload = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # undecodable bytes, oversized or too deep JSON
        raise FileFormatError(str(path), f"invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(str(path), "top-level value must be an object")
    return payload


# -- states ---------------------------------------------------------------------


def state_to_json(state: DensityOperator | BipartiteState) -> dict:
    if isinstance(state, BipartiteState):
        return {"dims": [state.dim_a, state.dim_b], "matrix": encode_matrix(state.matrix)}
    return {"dims": [state.dim], "matrix": encode_matrix(state.matrix)}


def load_state(source) -> DensityOperator | BipartiteState:
    payload = _load_json(source)
    if "dims" not in payload:
        raise FileFormatError("dims", "missing")
    dims = _dimensions(payload["dims"], "dims", (1, 2))
    total = int(np.prod(dims))
    if "matrix" not in payload:
        raise FileFormatError("matrix", "missing")
    op = _state_field(payload["matrix"], total, "matrix")
    if len(dims) == 2:
        return BipartiteState(dims[0], dims[1], op)
    return op


def save_state(state, path):
    Path(path).write_text(json_text(state_to_json(state)) + "\n")


# -- channels --------------------------------------------------------------------


def channel_to_json(channel: QuantumChannel) -> dict:
    return {
        "type": "kraus",
        "d_in": channel.dim_in,
        "d_out": channel.dim_out,
        "data": [encode_matrix(k) for k in channel.kraus],
    }


def load_channel(source, *, cp_tol: float = VALIDITY_TOL) -> QuantumChannel:
    payload = _load_json(source)
    kind = payload.get("type")
    if kind not in ("kraus", "choi"):
        raise FileFormatError("type", f"expected 'kraus' or 'choi', got {kind!r}")
    din, dout = (_dimensions(payload.get(key), key) for key in ("d_in", "d_out"))
    data = payload.get("data")
    try:
        if kind == "kraus":
            if not isinstance(data, list) or not data:
                raise FileFormatError("data", "expected a non-empty list of Kraus matrices")
            ops = [
                decode_matrix(item, (dout, din), f"data[{i}]") for i, item in enumerate(data)
            ]
            return QuantumChannel(ops)
        d = din * dout
        j = decode_matrix(data, (d, d), "data")
        return QuantumChannel.from_choi(j, din, dout, cp_tol=cp_tol)
    except InvalidChannelError as exc:
        raise FileFormatError("data", str(exc)) from exc


def save_channel(channel: QuantumChannel, path):
    Path(path).write_text(json_text(channel_to_json(channel)) + "\n")


# -- annihilating-channel specs ----------------------------------------------------


def _action_to_json(action) -> dict:
    if isinstance(action, PointTo):
        return {"type": "point", "state": encode_matrix(action.state.matrix)}
    return {"type": "identity"}


def da_spec_to_json(spec: DAChannelSpec) -> dict:
    entries = []
    for entry in spec.entries:
        if isinstance(entry, Rank1Entry):
            entries.append(
                {
                    "kind": "rank1",
                    "vector": encode_matrix(np.asarray(entry.vector).reshape(-1, 1)),
                    "action": _action_to_json(entry.action),
                }
            )
        else:
            entries.append(
                {
                    "kind": "multi",
                    "projector": encode_matrix(entry.projector),
                    "action": _action_to_json(entry.action),
                }
            )
    payload = {"dims": [spec.dim_a, spec.dim_b], "entries": entries}
    if spec.pre_channel is not None:
        payload["pre_channel"] = channel_to_json(spec.pre_channel)
    return payload


def _action_from_json(data, dim_b: int, field: str):
    if not isinstance(data, dict) or data.get("type") not in ("point", "identity"):
        raise FileFormatError(field, "expected an action of type 'point' or 'identity'")
    if data["type"] == "identity":
        return IdentityAction()
    return PointTo(_state_field(data.get("state"), dim_b, f"{field}.state"))


def load_da_spec(source) -> DAChannelSpec:
    payload = _load_json(source)
    dim_a, dim_b = _dimensions(payload.get("dims"), "dims", (2,))
    raw_entries = payload.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise FileFormatError("entries", "expected a non-empty list")
    entries: list[Entry] = []
    for i, item in enumerate(raw_entries):
        field = f"entries[{i}]"
        if not isinstance(item, dict):
            raise FileFormatError(field, "expected an object")
        kind = item.get("kind")
        action = _action_from_json(item.get("action"), dim_b, f"{field}.action")
        if kind == "rank1":
            vec = decode_vector(item.get("vector"), dim_a, f"{field}.vector")
            entries.append(Rank1Entry(vector=vec, action=action))
        elif kind == "multi":
            if isinstance(action, IdentityAction):
                raise FileFormatError(
                    f"{field}.action",
                    "a multi-dimensional subspace requires a point action "
                    "(the identity is only allowed on rank-1 entries)",
                )
            proj = decode_matrix(item.get("projector"), (dim_a, dim_a), f"{field}.projector")
            entries.append(MultiEntry(projector=proj, action=action))
        else:
            raise FileFormatError(f"{field}.kind", f"expected 'rank1' or 'multi', got {kind!r}")
    pre = None
    if "pre_channel" in payload:
        if not isinstance(payload["pre_channel"], dict):
            raise FileFormatError("pre_channel", "expected an object")
        try:
            pre = load_channel(payload["pre_channel"])
        except FileFormatError as exc:
            raise FileFormatError(f"pre_channel.{exc.field}", exc.problem) from exc
    try:
        return DAChannelSpec.make(dim_a, dim_b, entries, pre_channel=pre)
    except InvalidDASpecError as exc:
        raise FileFormatError(exc.field, str(exc)) from exc


# -- results -------------------------------------------------------------------------


def discord_result_to_json(result: DiscordResult) -> dict:
    meas = result.optimal_measurement
    if meas.dim == 2:
        measurement = {
            "type": "bloch",
            "vector": [float(x) for x in meas.bloch_vector()],
        }
    else:
        columns = []
        for proj in meas.projectors:
            eigvals, eigvecs = np.linalg.eigh(proj)
            columns.append(encode_matrix(eigvecs[:, -1].reshape(-1, 1)))
        measurement = {"type": "unitary-columns", "columns": columns}
    return {
        "discord": result.value,
        "mutual_information": result.mutual_information,
        "classical_correlation": result.classical_correlation,
        "measurement": measurement,
        "optimizer": {
            "restarts": result.trace.restarts,
            "best_values": list(result.trace.best_values),
        },
    }


def certification_to_json(report: CertificationReport) -> dict:
    return {key: getattr(report, key) for key in ("passed", "n_checked", "worst_residual")}


def verdict_to_json(verdict) -> dict:
    payload = {"kind": verdict.kind, "residual": verdict.residual, "notes": verdict.notes}
    if verdict.witness is not None:
        payload["witness"] = _jsonify(verdict.witness)
    return payload


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (DensityOperator, BipartiteState)):
        return state_to_json(value)
    if isinstance(value, np.ndarray):
        return encode_matrix(value.reshape(-1, 1)) if value.ndim == 1 else encode_matrix(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
