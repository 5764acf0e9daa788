"""Command-line interface.

Subcommands: ``discord`` (evaluate a state file), ``classify`` (verdict on
a channel file), ``tetra-sweep`` (CSV over the unital-qubit tetrahedron),
``gen-da`` (build an annihilating channel) and ``verify-da`` (certify one).

Exit codes: 0 success or verdict delivered, 2 malformed input, 3
certification failure (verify-da only), 1 internal error.  All randomness
derives from a single ``--seed`` flag (default 42), so reruns with the
same flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .annihilators import apply_and_certify, build_da_channel, random_da_spec
from .channels import InvalidChannelError, analyze_transfer
from .classify import (
    ActsOnA,
    ActsOnAB,
    ActsOnB,
    _axis_count,
    classify_channel,
    sweep_to_csv,
    tetrahedron_sweep,
)
from .discord import Grid, Hybrid, MultiStart, discord
from .serialize import (
    FileFormatError,
    certification_to_json,
    da_spec_to_json,
    discord_result_to_json,
    load_channel,
    load_da_spec,
    load_state,
    save_channel,
    state_to_json,
    verdict_to_json,
    _jsonify,
)
from .states import BipartiteState, InvalidStateError
from .tolerances import CQ_TOL, VALIDITY_TOL

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CERTIFICATION = 3


class InputError(Exception):
    """User-facing input problem mapped to exit code 2."""


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InputError(f"dims must look like '2x2', got {text!r}")
    try:
        da, db = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"dims must be integers, got {text!r}") from None
    if da < 1 or db < 1:
        raise InputError(f"dims must be positive, got {text!r}")
    return da, db


def _ab_dims(channel, text: str) -> tuple[int, int]:
    """The ``--dims`` split of a channel on AB, which must map it to itself."""
    da, db = _parse_dims(text)
    if channel.dim_in != da * db or channel.dim_out != da * db:
        raise InputError(
            f"dims: channel acts on {channel.dim_in} -> {channel.dim_out}, "
            f"but --dims gives {da * db}"
        )
    return da, db


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _strategy_from_args(args, dim_a: int) -> Grid | MultiStart | Hybrid:
    if dim_a != 2 and (args.strategy == "grid" or args.grid):
        flag = "--strategy grid" if args.strategy == "grid" else "--grid"
        raise InputError(f"{flag} needs a qubit A (dA = 2), but the state has dA = {dim_a}")
    if args.strategy == "multistart" or dim_a != 2:
        return MultiStart(restarts=args.restarts)
    n_theta, n_phi = args.grid or (Grid.n_theta, Grid.n_phi)
    if args.strategy == "grid":
        return Grid(n_theta=n_theta, n_phi=n_phi)
    return Hybrid(n_theta=n_theta, n_phi=n_phi)


def cmd_discord(args) -> int:
    state = load_state(args.state)
    if not isinstance(state, BipartiteState):
        raise InputError("dims: discord needs a bipartite state file with dims [dA, dB]")
    result = discord(state, _strategy_from_args(args, state.dim_a), seed=args.seed)
    _emit(discord_result_to_json(result), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    channel = load_channel(args.channel, cp_tol=args.tol_cptp)
    side = args.side.upper()
    if side == "A":
        context = ActsOnA(dim_b=args.dim_other)
    elif side == "B":
        context = ActsOnB(dim_a=args.dim_other)
    else:
        if args.dims is None:
            raise InputError("--dims dAxdB is required for side AB")
        context = ActsOnAB(*_ab_dims(channel, args.dims))
    report = classify_channel(
        channel, context, seed=args.seed, samples=args.samples, cq_tol=args.tol_cq
    )
    payload: dict = {"label": report.label, "side": side}
    if report.db_verdict is not None:
        payload["db"] = verdict_to_json(report.db_verdict)
    if report.eb_verdict is not None:
        payload["eb"] = verdict_to_json(report.eb_verdict)
    if report.witness is not None:
        payload["witness"] = _jsonify(report.witness)
    if report.transfer is not None:
        payload["transfer"] = {
            "sigma_min": report.transfer.sigma_min,
            "sigma_max": report.transfer.sigma_max,
            "rank_deficient": report.transfer.rank_deficient,
            "det": report.transfer.det,
        }
    if report.certification is not None:
        payload["certification"] = certification_to_json(report.certification)
    if report.match is not None and report.match.matched:
        payload["recovered_spec"] = da_spec_to_json(report.match.spec)
        payload["match_residual"] = report.match.residual
    _emit(payload, args.out)
    return EXIT_OK


def cmd_tetra_sweep(args) -> int:
    try:
        _axis_count(args.step)
    except ValueError as exc:
        raise InputError(f"--{exc}") from None
    rows = tetrahedron_sweep(
        step=args.step,
        side=args.side,
        dim_other=args.dim_other,
        n_probe_states=args.probes,
        seed=args.seed,
    )
    csv_text = sweep_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_gen_da(args) -> int:
    if (args.spec is None) == (args.random is None):
        raise InputError("provide exactly one of --spec FILE or --random dAxdB")
    if args.spec is not None:
        spec = load_da_spec(args.spec)
    else:
        da, db = _parse_dims(args.random)
        spec = random_da_spec(da, db, rng=args.seed)
    channel = build_da_channel(spec)
    save_channel(channel, args.out)
    _emit(da_spec_to_json(spec), args.spec_out)
    return EXIT_OK


def cmd_verify_da(args) -> int:
    channel = load_channel(args.channel, cp_tol=args.tol_cptp)
    da, db = _ab_dims(channel, args.dims)
    analysis = analyze_transfer(channel)
    report = apply_and_certify(
        channel, da, db, n_samples=args.samples, seed=args.seed, tol=args.tol_cq
    )
    payload = {
        "screening": {
            "sigma_min": analysis.sigma_min,
            "sigma_max": analysis.sigma_max,
            "rank_deficient": analysis.rank_deficient,
        },
        "certification": certification_to_json(report),
    }
    ok = report.passed and analysis.rank_deficient
    if ok:
        _emit(payload, None)
        return EXIT_OK
    if report.failing_input is not None:
        payload["witness"] = {
            "input": state_to_json(report.failing_input),
            "cq_residual": report.failing_residual,
        }
    _emit(payload, args.witness_out)
    sys.stderr.write(
        f"verification failed; report written to {args.witness_out}\n"
    )
    return EXIT_CERTIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="discordkit",
        description="Construct, apply and classify quantum channels that destroy discord.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_nonnegative_int, default=42, help="seed for all randomness")

    def add_tolerances(p):
        p.add_argument("--tol-cq", type=_tolerance, default=CQ_TOL, dest="tol_cq",
                       help="tolerance of every classical-quantum, measure-and-prepare "
                       "and point-channel verdict")
        p.add_argument("--tol-cptp", type=_tolerance, default=VALIDITY_TOL, dest="tol_cptp",
                       help="tolerance of the complete-positivity check of Choi channel "
                       "files (trace preservation and Kraus files keep the default)")

    p = sub.add_parser("discord", help="evaluate discord of a bipartite state file")
    p.add_argument("state", help="JSON state file with dims [dA, dB]")
    p.add_argument("--strategy", choices=["hybrid", "grid", "multistart"], default="hybrid")
    p.add_argument("--grid", type=_grid_pair, default=None,
                   help="theta x phi grid of hybrid and grid, dA = 2 only (default 32x64); "
                   "each measurement is scored once, so antipodal points are skipped")
    p.add_argument("--restarts", type=_nonnegative_int, default=20,
                   help="Haar frames of multistart, which every dA other than 2 uses; "
                   "hybrid and grid on a qubit A ignore it")
    p.add_argument("--out", default=None, help="write the JSON result here instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("classify", help="classify a channel file")
    p.add_argument("channel", help="JSON channel file")
    p.add_argument("--side", choices=["A", "B", "AB", "a", "b", "ab"], required=True)
    p.add_argument("--dim-other", type=_positive_int, default=2, dest="dim_other",
                   help="dimension of the untouched subsystem (sides A and B)")
    p.add_argument("--dims", default=None, help="dAxdB split for side AB")
    p.add_argument("--samples", type=_nonnegative_int, default=200,
                   help="seeded Hilbert-Schmidt draws certified after the fixed probes (side AB)")
    p.add_argument("--out", default=None)
    add_common(p)
    add_tolerances(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tetra-sweep", help="sweep the unital-qubit tetrahedron to CSV")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--side", choices=["A", "B", "a", "b"], required=True)
    p.add_argument("--dim-other", type=_positive_int, default=2, dest="dim_other")
    p.add_argument("--probes", type=_nonnegative_int, default=0,
                   help="probe states per grid point for the discord column (0 = skip)")
    p.add_argument("--out", default=None)
    add_common(p)
    p.set_defaults(func=cmd_tetra_sweep)

    p = sub.add_parser("gen-da", help="build a discord-annihilating channel")
    p.add_argument("--spec", default=None, help="JSON spec file")
    p.add_argument("--random", default=None, metavar="dAxdB",
                   help="draw a random spec for these dimensions")
    p.add_argument("--out", required=True, help="channel file to write")
    p.add_argument("--spec-out", default=None, dest="spec_out",
                   help="write the spec echo here instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_gen_da)

    p = sub.add_parser("verify-da", help="certify a channel as discord-annihilating")
    p.add_argument("--channel", required=True)
    p.add_argument("--dims", required=True, metavar="dAxdB")
    p.add_argument("--samples", type=_nonnegative_int, default=200,
                   help="seeded Hilbert-Schmidt draws certified after the fixed probes")
    p.add_argument("--witness-out", default="da_witness.json", dest="witness_out")
    add_common(p)
    add_tolerances(p)
    p.set_defaults(func=cmd_verify_da)
    return parser


def _grid_pair(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected NTHETAxNPHI, got {text!r}")
    n_theta, n_phi = int(parts[0]), int(parts[1])
    if n_theta < 1 or n_phi < 1:
        raise argparse.ArgumentTypeError(f"grid counts must be at least 1, got {text!r}")
    return n_theta, n_phi


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number at least 0, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileFormatError, InvalidStateError, InvalidChannelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
