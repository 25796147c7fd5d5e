"""Command-line front end.

Every computation is reachable as a subcommand with machine-readable
output; rationals are always emitted as "num/den" strings and +infinity as
"inf", so downstream comparisons stay bit-exact.

Exit codes: 0 success, 1 failed verification, 2 parameter errors (a
request that would span more than ``dims.MAX_WEIGHTS`` weights, and one
that runs out of memory, among them), and
141 when the reader of stdout closes it early (the status a shell gives a
process that SIGPIPE ended; ``main`` returns it and leaves the signal
handlers as they are).  csv and table output keep an empty list or dict
as a row of its key path alone, and csv rows end in a line feed.

Each command imports only the modules it runs: ``steinberg`` is loaded by
``delta`` and ``ns``, and ``verify`` by ``verify`` and ``scan`` (and by the
parser when it may have to describe those two), and ``csv`` by ``--format
csv``; no query imports ``dataclasses``, as the records are plain classes.
An ``--out`` that is a directory, or lies in a missing one, is refused
before any work is done.  Any other parameter error is the ValueError of
the library function that reads the value (``n_max must be >= 1, got
0``), raised before that function does any work.  This module checks only
what no library function checks first: the bound flags of ``verify`` and
``scan``, so that their messages name the flags, ``--kmax``, and the
weights that ``ghost``, ``dims`` and ``ns`` walk.

The weight limit bounds the span of a query, not its time: an ``ns``
query below the limit still visits every weight of its window and builds
the whole duality profile of each weight near enough to the point, so its
time grows with the square of ``--nmax``.  A range scan that stops after
the first few hull segments of each profile would bound it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import List, Optional, Tuple

from . import dimensions as dims
from . import ghost_series as ghost
from . import newton
from .weight_space import GhostContext, WeightPoint, new_context, parse_point

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARAMS = 2
EXIT_BROKEN_PIPE = 141


# --------------------------------------------------------------- payloads


def _payload_dims(args) -> dict:
    if args.kmax < 2:
        raise ValueError("--kmax must be >= 2")
    p = args.p
    _check_weights("dims", (p - 1) * (args.kmax - 1))
    disks = []
    for s_eps in range(0, p - 1):
        ctx = new_context(p, args.a, s_eps)
        row = {
            "s_eps": s_eps,
            "k_eps": ctx.k_eps,
            "d_iw": [[k, dims.d_iw(ctx, k)] for k in range(2, args.kmax + 1)],
            "triples": [
                [k, dims.d_ur(ctx, k), dims.d_new(ctx, k)]
                for k in range(ctx.k_eps, args.kmax + 1, p - 1)
            ],
        }
        disks.append(row)
    return {"p": p, "a": args.a, "kmax": args.kmax, "disks": disks}


def _payload_ghost(args) -> dict:
    ctx = new_context(args.p, args.a, args.seps)
    zeros = dims.zero_window(ctx, args.n)  # len() overflows past 2^63 weights
    _check_weights("ghost", max(zeros.stop - zeros.start, 0))
    return ghost.coefficient(ctx, args.n).to_json_dict()


def _point_query(args) -> Tuple[GhostContext, WeightPoint]:
    """Context and parsed --point of an np or ns query."""
    return new_context(args.p, args.a, args.seps), parse_point(args.point)


def _check_weights(command: str, weights: int) -> None:
    """Refuse a ghost, dims or ns request that would span more than
    ``dims.MAX_WEIGHTS`` weights; those three walk their weights outside
    the window table that holds every other request to the limit (ns reads
    it only for the weights near its point)."""
    if weights > dims.MAX_WEIGHTS:
        raise ValueError(f"the {command} request spans {weights} weights, "
                         f"past the limit of {dims.MAX_WEIGHTS}")


def _payload_np(args) -> dict:
    ctx, point = _point_query(args)
    np_, buffer_used = newton.np_of_ghost_auto(ctx, point, args.nmax)
    payload = {"point": args.point, "n_max": args.nmax, "buffer_used": buffer_used}
    payload.update(np_.to_json_dict())
    return payload


def _payload_delta(args) -> dict:
    from . import steinberg

    ctx = new_context(args.p, args.a, args.seps)
    return steinberg.delta_profile(ctx, args.k).to_json_dict()


def _payload_ns(args) -> dict:
    from . import steinberg

    ctx, point = _point_query(args)
    window = dims.zero_window(ctx, 1, args.nmax)  # the weights the range scan walks
    _check_weights("ns", max(window.stop - window.start, 0))
    ranges = steinberg.near_steinberg_ranges(ctx, point, args.nmax)
    pair = steinberg.check_nested(ranges)
    return {
        "point": args.point,
        "n_max": args.nmax,
        "ranges": [r.to_json_dict() for r in ranges],
        "nested": pair is None,
        "nest_witness": None
        if pair is None
        else [pair[0].to_json_dict(), pair[1].to_json_dict()],
    }


def _bound_names(suites) -> List[str]:
    """The bounds the suites read, each once, from the suite table."""
    from . import verify

    return list(dict.fromkeys(b for name in suites for b in verify.suite_bounds(name)))


def _bounds_from(args, suites) -> dict:
    """The bound flags given, each of which one of the suites must read."""
    from . import verify

    bounds = {b: getattr(args, b) for b in _bound_names(verify.SUITES)}
    read = _bound_names(suites)
    for b, val in bounds.items():
        if val is not None and b not in read:
            raise ValueError(f"no selected suite reads --{b.replace('_', '-')}")
    return {b: val for b, val in bounds.items() if val is not None}


def _payload_verify(args) -> dict:
    from . import verify

    ctx = new_context(args.p, args.a, args.seps)
    return verify.run_suite(args.suite, ctx, **_bounds_from(args, [args.suite]))


def _payload_scan(args) -> dict:
    from . import verify

    ps = [int(x) for x in args.p_list.split(",")]
    suites = sorted(verify.SUITES) if args.suites is None else args.suites.split(",")
    reports = verify.run_grid(ps, suites, _bounds_from(args, suites), workers=args.workers)
    failed = sum(1 for r in reports if r["status"] != "pass")
    return {"suites": suites, "p_list": ps, "failed": failed, "reports": reports}


# ------------------------------------------------------------- rendering


def _rows_for(payload: dict) -> List[List[str]]:
    """Flatten a payload into rows holding exactly the JSON's numbers; an
    empty list or dict is a row that holds its key path alone."""
    rows: List[List[str]] = []

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, (dict, list)) and not obj:
            rows.append([prefix])
        elif isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}.{key}" if prefix else str(key), val)
        elif isinstance(obj, list):
            if all(not isinstance(x, (dict, list)) for x in obj):
                rows.append([prefix] + [str(x) for x in obj])
            else:
                for i, val in enumerate(obj):
                    walk(f"{prefix}[{i}]", val)
        else:
            rows.append([prefix, str(obj)])

    walk("", payload)
    return rows


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2)
    rows = _rows_for(payload)
    if fmt == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerows(rows)
        return out.getvalue().rstrip("\n")
    if fmt == "table":
        width = max(len(r[0]) for r in rows) if rows else 0
        return "\n".join(f"{r[0]:<{width}}  " + "  ".join(r[1:]) if r[1:] else r[0]
                         for r in rows)
    raise ValueError(f"unknown format {fmt!r}")


# -------------------------------------------------------------- argparse


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of ``ghostline``, for argv whose first entry is ``command``.

    The ``verify`` and ``scan`` subparsers take their ``--suite`` choices and
    bound flags from ``verify``.  When ``command`` names another subcommand
    they are never consulted, so ``verify`` is not imported and they get no
    suite names or bound flags.
    """
    parser = argparse.ArgumentParser(
        prog="ghostline",
        description="Exact ghost-series computations: dimensions, coefficients, "
        "Newton polygons, duality profiles, near-Steinberg ranges, and "
        "verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seps=True):
        sp.add_argument("--p", type=int, required=True, help="prime >= 5")
        sp.add_argument("--a", type=int, required=True, help="niveau parameter in [1, p-4]")
        if seps:
            sp.add_argument("--seps", type=int, required=True,
                            help="disk selector in [0, p-2]")
        sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("dims", help="rank tables across all p-1 disks")
    common(sp, seps=False)
    sp.add_argument("--kmax", type=int, required=True)
    sp.set_defaults(payload=_payload_dims)

    sp = sub.add_parser("ghost", help="factored coefficient g_n")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(payload=_payload_ghost)

    sp = sub.add_parser("np", help="certified Newton polygon at a point")
    common(sp)
    sp.add_argument("--point", required=True,
                    help="classical:K | perturbed:K0:NUM/DEN | boundary:NUM/DEN")
    sp.add_argument("--nmax", type=int, required=True)
    sp.set_defaults(payload=_payload_np)

    sp = sub.add_parser("delta", help="duality profile of one weight")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(payload=_payload_delta)

    sp = sub.add_parser("ns", help="near-Steinberg ranges with nestedness verdict")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.set_defaults(payload=_payload_ns)

    suites: List[str] = []
    bounds: List[str] = []
    if command not in sub.choices:  # the commands above never consult these two
        from . import verify

        suites, bounds = sorted(verify.SUITES), _bound_names(verify.SUITES)

    sp = sub.add_parser("verify", help="run one verification suite")
    common(sp)
    sp.add_argument("--suite", required=True, choices=suites)
    for bound in bounds:
        sp.add_argument("--" + bound.replace("_", "-"), type=int)
    sp.set_defaults(payload=_payload_verify)

    sp = sub.add_parser("scan", help="suite grid over (p, a, s_eps) in parallel")
    sp.add_argument("--p-list", default="5,7", help="comma-separated primes")
    sp.add_argument("--suites", default=None, help="comma-separated suite names")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker processes (default the number of CPUs this "
                         "process may use; capped at that and the task count)")
    for bound in bounds:
        sp.add_argument("--" + bound.replace("_", "-"), type=int)
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(payload=_payload_scan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAMS if exc.code not in (0, None) else 0
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        print(f"error: no directory for --out {args.out!r}", file=sys.stderr)
        return EXIT_PARAMS
    if args.out and os.path.isdir(args.out):
        print(f"error: --out {args.out!r} is a directory", file=sys.stderr)
        return EXIT_PARAMS
    try:
        payload = args.payload(args)
        text = render(payload, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except MemoryError:
        print(f"error: the {args.command} request ran out of memory", file=sys.stderr)
        return EXIT_PARAMS

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARAMS
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the rest of the output has no reader; send it to devnull, so
            # that the interpreter's flush at exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
            return EXIT_BROKEN_PIPE

    if args.command == "verify" and payload.get("status") != "pass":
        return EXIT_VERIFY_FAILED
    if args.command == "scan" and payload.get("failed"):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
