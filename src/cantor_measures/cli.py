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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .analysis import check_decay, check_lipschitz
from .errors import CantorMeasureError
from .fast import fast_moments, mgf_eval, shifted_fast_moments
from .legendre import grid_csv, monic_basis_general
from .measure import WeightVector, cdf_table, parse_weights
from .moments import exact_moments, shifted_moments
from .rational import format_float, format_rational


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation options, normalized from parsed flags."""

    command: str
    weights: WeightVector
    mode: str = "exact"
    m_max: int = 0
    degree: int = 0
    depth: int = 1
    eps: float | None = None
    s: float = 0.0
    threshold: float | None = None
    grid_points: int = 201
    weights_b: WeightVector | None = None
    format: str = "csv"
    output: str | None = None


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


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> RunConfig:
    for attr, flag, low in _MINIMUMS:
        value = getattr(args, attr, low)
        if value < low:
            parser.error(f"{args.command} {flag} must be at least {low}, got {value}")
    weights = parse_weights(args.weights)
    cfg = RunConfig(
        command=args.command,
        weights=weights,
        mode=getattr(args, "mode", "exact"),
        m_max=getattr(args, "m", 0),
        degree=getattr(args, "degree", 0),
        depth=getattr(args, "depth", 1),
        eps=getattr(args, "eps", None),
        s=getattr(args, "s", 0.0),
        threshold=getattr(args, "threshold", None),
        grid_points=getattr(args, "grid_points", 201),
        weights_b=(
            parse_weights(args.weights_b) if getattr(args, "weights_b", None) else None
        ),
        format=args.format,
        output=args.output,
    )
    if cfg.mode == "fast" and cfg.eps is None:
        parser.error(f"{cfg.command} --mode fast requires --eps")
    return cfg


def _render_moments(cfg: RunConfig) -> str:
    if cfg.mode == "fast":
        result = fast_moments(cfg.weights, cfg.m_max, cfg.eps)
        return result.to_csv() if cfg.format == "csv" else result.to_json()
    ms = exact_moments(cfg.weights, cfg.m_max)
    return ms.to_csv() if cfg.format == "csv" else ms.to_json()


def _render_shifted(cfg: RunConfig) -> str:
    if not cfg.weights.is_palindromic:
        raise CantorMeasureError(
            f"shifted-moments requires a palindromic weight vector "
            f"(alpha[N-1-n] == alpha[n] for all n), got {cfg.weights}"
        )
    if cfg.mode == "fast":
        result = shifted_fast_moments(cfg.weights, cfg.m_max, cfg.eps)
        return result.to_csv() if cfg.format == "csv" else result.to_json()
    ms = shifted_moments(cfg.weights, cfg.m_max)
    return ms.to_csv() if cfg.format == "csv" else ms.to_json()


def _render_cdf(cfg: RunConfig) -> str:
    table = cdf_table(cfg.weights, cfg.depth)
    return table.to_csv() if cfg.format == "csv" else table.to_json()


def _render_legendre(cfg: RunConfig) -> str:
    basis = monic_basis_general(cfg.weights, cfg.degree)
    if cfg.format == "json":
        return basis.to_json()
    return grid_csv(basis, cfg.grid_points)


def _render_mgf(cfg: RunConfig) -> str:
    value = mgf_eval(cfg.weights, cfg.s, cfg.depth)
    if cfg.format == "json":
        return json.dumps({"s": cfg.s, "depth": cfg.depth, "value": value})
    return (
        "s,depth,value\n"
        f"{format_float(cfg.s)},{cfg.depth},{format_float(value)}\n"
    )


def _render_decay(cfg: RunConfig) -> str:
    report = check_decay(
        cfg.weights, exact_moments(cfg.weights, cfg.m_max), cfg.threshold
    )
    if cfg.format == "json":
        return report.to_json()
    gamma = "inf" if report.regime == "exponential" else format_float(report.gamma)
    lines = ["regime,gamma,witness_constant,max_m_checked,ok"]
    lines.append(
        f"{report.regime},{gamma},{format_float(report.witness_constant)},"
        f"{report.max_m_checked},{not report.violations}"
    )
    return "\n".join(lines) + "\n"


def _render_lipschitz(cfg: RunConfig) -> str:
    result = check_lipschitz(cfg.weights, cfg.weights_b, cfg.depth)
    if cfg.format == "json":
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
        args = parser.parse_args(argv)
        cfg = _config_from_args(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CantorMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        text = _RENDERERS[cfg.command](cfg)
    except CantorMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        Path(cfg.output).write_text(text, encoding="utf-8")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
