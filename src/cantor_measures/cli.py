"""Command-line interface: moments, CDF tables, MGF, polynomials, checks.

Exit codes: 0 on success, 1 on a domain error (the message names the
violated invariant), 2 on usage errors.  Output is deterministic UTF-8 with
exact rationals rendered as ``p/q`` and floats with 17 significant digits,
so identical invocations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import check_decay, check_lipschitz
from .errors import CantorMeasureError
from .fast import fast_moments, mgf_eval, shifted_fast_moments
from .legendre import grid_csv, monic_basis_general
from .measure import WeightVector, cdf_table, parse_weights
from .moments import exact_moments, shifted_moments
from .rational import format_float, format_rational


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
        p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("moments", help="raw moments, exact or certified-fast")
    common(p)
    p.add_argument("--m", type=int, required=True, help="highest moment index")
    p.add_argument("--mode", choices=("exact", "fast"), default="exact")
    p.add_argument("--eps", type=float, default=None, help="fast-mode error budget")

    p = sub.add_parser("shifted-moments", help="moments on [-1/2,1/2] (palindromic)")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "fast"), default="exact")
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("cdf", help="exact CDF table on the depth-k grid")
    common(p)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("legendre", help="monic orthogonal polynomial basis")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--grid-points",
        type=int,
        default=201,
        help="grid resolution of the CSV plot-data export",
    )

    p = sub.add_parser("mgf", help="partial-product MGF value at s")
    common(p)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--depth", type=int, default=30)

    p = sub.add_parser("decay", help="moment decay regime report")
    common(p)
    p.add_argument("--m", type=int, default=64, help="highest moment to check")
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser("lipschitz", help="CDF Lipschitz bound check for two vectors")
    common(p)
    p.add_argument("--weights-b", required=True)
    p.add_argument("--depth", type=int, required=True)
    return parser


#: (attribute, flag, smallest accepted value) of the integer size flags.
_MINIMUMS = (("m", "--m", 0), ("degree", "--degree", 0),
             ("depth", "--depth", 1), ("grid_points", "--grid-points", 2))


def _parse(
    parser: argparse.ArgumentParser, argv: Sequence[str] | None
) -> tuple[argparse.Namespace, WeightVector]:
    """Parsed flags and weights; a usage error exits 2, bad weights raise."""
    args = parser.parse_args(argv)
    for attr, flag, low in _MINIMUMS:
        value = getattr(args, attr, low)
        if value < low:
            parser.error(f"{args.command} {flag} must be at least {low}, got {value}")
    weights = parse_weights(args.weights)
    if getattr(args, "mode", None) == "fast" and args.eps is None:
        parser.error(f"{args.command} --mode fast requires --eps")
    return args, weights


def _render_moments(w: WeightVector, args: argparse.Namespace) -> str:
    if args.mode == "fast":
        result = fast_moments(w, args.m, args.eps)
        return result.to_csv() if args.format == "csv" else result.to_json()
    ms = exact_moments(w, args.m)
    return ms.to_csv() if args.format == "csv" else ms.to_json()


def _render_shifted(w: WeightVector, args: argparse.Namespace) -> str:
    if not w.is_palindromic:
        raise CantorMeasureError(
            f"shifted-moments requires a palindromic weight vector "
            f"(alpha[N-1-n] == alpha[n] for all n), got {w}"
        )
    if args.mode == "fast":
        result = shifted_fast_moments(w, args.m, args.eps)
        return result.to_csv() if args.format == "csv" else result.to_json()
    ms = shifted_moments(w, args.m)
    return ms.to_csv() if args.format == "csv" else ms.to_json()


def _render_cdf(w: WeightVector, args: argparse.Namespace) -> str:
    table = cdf_table(w, args.depth)
    return table.to_csv() if args.format == "csv" else table.to_json()


def _render_legendre(w: WeightVector, args: argparse.Namespace) -> str:
    basis = monic_basis_general(w, args.degree)
    if args.format == "json":
        return basis.to_json()
    return grid_csv(basis, args.grid_points)


def _render_mgf(w: WeightVector, args: argparse.Namespace) -> str:
    value = mgf_eval(w, args.s, args.depth)
    if args.format == "json":
        return json.dumps({"s": args.s, "depth": args.depth, "value": value})
    return (
        "s,depth,value\n"
        f"{format_float(args.s)},{args.depth},{format_float(value)}\n"
    )


def _render_decay(w: WeightVector, args: argparse.Namespace) -> str:
    report = check_decay(w, exact_moments(w, args.m), args.threshold)
    if args.format == "json":
        return report.to_json()
    gamma = "inf" if report.regime == "exponential" else format_float(report.gamma)
    lines = ["regime,gamma,witness_constant,max_m_checked,ok"]
    lines.append(
        f"{report.regime},{gamma},{format_float(report.witness_constant)},"
        f"{report.max_m_checked},{not report.violations}"
    )
    return "\n".join(lines) + "\n"


def _render_lipschitz(w: WeightVector, args: argparse.Namespace) -> str:
    result = check_lipschitz(w, parse_weights(args.weights_b), args.depth)
    if args.format == "json":
        return result.to_json()
    return (
        "distance,bound,ok\n"
        f"{format_rational(result.distance)},{format_rational(result.bound)},"
        f"{result.ok}\n"
    )


_RENDERERS = {
    "moments": _render_moments,
    "shifted-moments": _render_shifted,
    "cdf": _render_cdf,
    "legendre": _render_legendre,
    "mgf": _render_mgf,
    "decay": _render_decay,
    "lipschitz": _render_lipschitz,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse flags, dispatch, write output; return the process exit code."""
    parser = _build_parser()
    try:
        args, weights = _parse(parser, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CantorMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        text = _RENDERERS[args.command](weights, args)
    except CantorMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
