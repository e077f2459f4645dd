"""Command-line interface: moments, CDF tables, MGF, polynomials, checks.

One table, ``_COMMANDS``, maps each command's weights and flags to a result
that renders itself: ``run`` writes its ``to_csv()`` or ``to_json()``.

Exit codes: 0 on success, 1 on a domain error (the message names the
violated invariant), 2 on usage errors and on output that cannot be
written.  ``--output -``, the default, is stdout.  Output is deterministic
UTF-8 with exact rationals rendered as ``p/q`` and floats with 17
significant digits, so identical invocations produce byte-identical files.
Only the float renderers (``--mode fast`` and ``mgf``) import :mod:`.fast`,
and with it numpy.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Sequence

from .analysis import check_decay, check_lipschitz
from .errors import CantorMeasureError
from .legendre import GRID_POINTS, BasisExport, monic_basis_general
from .measure import WeightVector, cdf_table, parse_weights
from .moments import exact_moments, shifted_moments


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-measures",
        description="Exact and certified-fast computations for weighted Cantor measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--weights",
            required=True,
            help="comma-separated exact rationals, e.g. 1/2,0,1/2",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="output path; - (default) is stdout")

    for name, text in (("moments", "raw moments, exact or certified-fast"),
                       ("shifted-moments", "moments on [-1/2,1/2] (palindromic)")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--m", type=int, required=True, help="highest moment index")
        p.add_argument("--mode", choices=("exact", "fast"), default="exact")
        p.add_argument("--eps", type=float, default=None, help="fast-mode error budget")

    p = sub.add_parser("cdf", help="exact CDF table on the depth-k grid")
    common(p)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("legendre", help="monic orthogonal polynomial basis")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--grid-points",
        type=int,
        default=None,
        help=f"grid resolution of the CSV plot-data export (default {GRID_POINTS})",
    )

    p = sub.add_parser("mgf", help="partial-product MGF value at s")
    common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--depth", type=int, default=30)

    p = sub.add_parser("decay", help="moment decay regime report")
    common(p)
    p.add_argument("--m", type=int, default=64, help="highest moment to check")

    p = sub.add_parser("lipschitz", help="CDF Lipschitz bound check for two vectors")
    common(p)
    p.add_argument("--weights-b", required=True)
    p.add_argument("--depth", type=int, required=True)
    return parser


#: (attribute, flag, smallest accepted value) of the integer size flags.
_MINIMUMS = (("m", "--m", 0), ("degree", "--degree", 0),
             ("depth", "--depth", 1), ("grid_points", "--grid-points", 2))


#: Built once per process: ``parse_args`` leaves a parser unchanged, so every
#: in-process ``run`` shares it.
_PARSER = _build_parser()


def _parse(argv: Sequence[str] | None) -> tuple[argparse.Namespace, WeightVector]:
    """Parsed flags and weights; a usage error exits 2, bad weights raise."""
    # argparse reads a dash-led value such as "-1/3,4/3", "-inf" or "-1e-9"
    # as a flag; bind it to the flag before it, as "--flag=value" does.
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch("--[a-z-]+", argv[i - 1]) and re.match("-[^-]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _PARSER.parse_args(argv)
    for attr, flag, low in _MINIMUMS:
        value = getattr(args, attr, None)
        if value is not None and value < low:
            _PARSER.error(f"{args.command} {flag} must be at least {low}, got {value}")
    weights = parse_weights(args.weights)
    fast = getattr(args, "mode", None) == "fast"
    if fast and args.eps is None:
        _PARSER.error(f"{args.command} --mode fast requires --eps")
    if not fast and getattr(args, "eps", None) is not None:
        _PARSER.error(f"{args.command} --eps applies only to --mode fast")
    if args.format == "json" and getattr(args, "grid_points", None) is not None:
        _PARSER.error(f"{args.command} --grid-points applies only to --format csv")
    return args, weights


def _moments(w: WeightVector, args: argparse.Namespace):
    shifted = args.command == "shifted-moments"
    if shifted and not w.is_palindromic:
        raise CantorMeasureError(
            f"shifted-moments requires a palindromic weight vector "
            f"(alpha[N-1-n] == alpha[n] for all n), got {w}"
        )
    if args.mode == "fast":
        from . import fast

        compute = fast.shifted_fast_moments if shifted else fast.fast_moments
        return compute(w, args.m, args.eps)
    return (shifted_moments if shifted else exact_moments)(w, args.m)


def _mgf(w: WeightVector, args: argparse.Namespace):
    from . import fast

    return fast.MgfValue(args.s, args.depth, fast.mgf_eval(w, args.s, args.depth))


#: Each entry looks its functions up when called, so a wrapper rebound on a
#: module's names (as the benchmark's tracer installs) sees the call.
_COMMANDS = {
    "moments": _moments,
    "shifted-moments": _moments,
    "cdf": lambda w, args: cdf_table(w, args.depth),
    "legendre": lambda w, args: BasisExport(monic_basis_general(w, args.degree),
                                            args.grid_points or GRID_POINTS),
    "mgf": _mgf,
    "decay": lambda w, args: check_decay(w, args.m),
    "lipschitz": lambda w, args: check_lipschitz(
        w, parse_weights(args.weights_b), args.depth
    ),
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse flags, dispatch, write output; return the process exit code."""
    try:
        args, weights = _parse(argv)
        result = _COMMANDS[args.command](weights, args)
        text = result.to_csv() if args.format == "csv" else result.to_json()
    except SystemExit as exc:
        return int(exc.code or 0)
    except CantorMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.output == "-":
            print(text, end="", flush=True)
        else:
            with open(args.output, "w", encoding="utf-8") as out:
                out.write(text)
    except OSError as exc:
        target = "stdout" if args.output == "-" else args.output
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:  # run() reported it; drain the rest so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
