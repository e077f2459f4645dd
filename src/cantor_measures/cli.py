"""Command-line interface: moments, CDF tables, MGF, polynomials, checks.

``_parse`` reads argv in one pass against ``_FLAGS``, the flags of each
command, which ``-h`` or ``--help`` prints; the token after a flag is its
value unless it starts with ``--``.  ``_COMMANDS`` maps each command's
weights and flags to a result that renders itself, and ``run`` writes its
``to_csv()`` or ``to_json()`` to ``--output`` (``-``, the default, is stdout).

Exit codes: 0 on success, 1 on a domain error (the message names the
violated invariant), 2 on a usage error (one ``error:`` line) and on output
that cannot be written.

Importing this module loads only what parsing needs (:mod:`.weights`,
:mod:`.errors` and :mod:`.rational`); each command imports the modules it
runs when it runs, so an exact ``moments`` request never compiles the CDF
tables or the bases.  Only ``--mode fast`` imports :mod:`.fast`, and with
it numpy.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .errors import CantorMeasureError
from .weights import WeightVector, parse_weights

_REQUIRED = object()  # the default of a flag that must be given
#: flag: (int, float, str or a tuple of choices; default; minimum; help)
_COMMON = {
    "--weights": (str, _REQUIRED, None, "comma-separated exact rationals, e.g. 1/2,0,1/2"),
    "--format": (("csv", "json"), "csv", None, "output format"),
    "--output": (str, "-", None, "output path; - is stdout"),
}
_MOMENTS = {
    "--m": (int, _REQUIRED, 0, "highest moment index"),
    "--mode": (("exact", "fast"), "exact", None, "exact rationals or certified floats"),
    "--eps": (float, None, None, "fast-mode error budget"),
}
_DEPTH = (int, _REQUIRED, 1, "grid depth k (N**k cells)")

#: command: (help, flags besides ``_COMMON``)
_FLAGS = {
    "moments": ("raw moments, exact or certified-fast", _MOMENTS),
    "shifted-moments": ("moments on [-1/2,1/2] (palindromic)", _MOMENTS),
    "cdf": ("exact CDF table on the depth-k grid", {"--depth": _DEPTH}),
    "legendre": ("monic orthogonal polynomial basis", {
        "--degree": (int, _REQUIRED, 0, "highest degree"),
        # legendre.GRID_POINTS, written out so that help imports no legendre.
        "--grid-points": (int, None, 2, "CSV plot-data grid size (default 201)")}),
    "mgf": ("partial-product MGF value at s", {"--s": (float, _REQUIRED, None, "argument s"),
                                               "--depth": (int, 30, 1, "product factors")}),
    "decay": ("moment decay regime report", {"--m": (int, 64, 0, "highest moment to check")}),
    "lipschitz": ("CDF Lipschitz bound check for two vectors", {
        "--weights-b": (str, _REQUIRED, None, "the second weight vector"), "--depth": _DEPTH}),
}


def _expects(kind, low: int | None) -> str:
    """What a flag takes, as help and errors name it: ``int >= 0``, ``csv|json``."""
    return ("|".join(kind) if isinstance(kind, tuple)
            else kind.__name__ + ("" if low is None else f" >= {low}"))


def _usage(command: str | None) -> str:
    """The help text: the flags of ``command``, or the commands."""
    rows = [f"{name:<16} {about}" for name, (about, _) in _FLAGS.items()] if command is None else [
        f"{flag:<14} {_expects(kind, low):<11} {about}"
        + {None: "", _REQUIRED: " (required)"}.get(default, f" (default {default})")
        for flag, (kind, default, low, about) in {**_COMMON, **_FLAGS[command][1]}.items()]
    return "\n  ".join([f"usage: cantor-measures {command or 'COMMAND'} --flag VALUE ...\n",
                        *rows])


def _exit(code: int, text: str) -> None:
    """Print the help (code 0) to stdout or one error line to stderr, and exit."""
    print(f"error: {text}" if code else text, file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def _parse(argv: Sequence[str] | None) -> tuple[SimpleNamespace, WeightVector]:
    """Parsed flags and weights; a usage error exits 2, bad weights raise."""
    command, *rest = (sys.argv[1:] if argv is None else argv) or [""]
    if command in ("-h", "--help"):
        _exit(0, _usage(None))
    if command not in _FLAGS:
        _exit(2, f"unknown command {command!r}; choose from {', '.join(_FLAGS)}")
    flags, given = {**_COMMON, **_FLAGS[command][1]}, {}
    for token in (tokens := iter(rest)):
        if token in ("-h", "--help"):
            _exit(0, _usage(command))
        flag, eq, text = token.partition("=")
        if flag not in flags or flag in given:
            _exit(2, f"{command}: {'repeated' if flag in given else 'unknown'} argument {token!r}")
        if not eq and (text := next(tokens, "--")).startswith("--"):
            _exit(2, f"{command} {flag}: expected a value")
        kind, _, low, _ = flags[flag]
        try:
            if kind in (int, float) and (not text.isascii() or "_" in text):
                raise ValueError  # int() and float() read "３" and "1_0"
            value = text if isinstance(kind, tuple) else kind(text)
            valid = value in kind if isinstance(kind, tuple) else low is None or value >= low
        except ValueError:
            valid = False
        if not valid:
            _exit(2, f"{command} {flag}: invalid value {text!r}, expected {_expects(kind, low)}")
        given[flag] = value
    if missing := [f for f, spec in flags.items() if spec[1] is _REQUIRED and f not in given]:
        _exit(2, f"{command} {missing[0]}: required")
    args = SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): given.get(flag, spec[1]) for flag, spec in flags.items()})
    weights = parse_weights(args.weights)
    if hasattr(args, "eps") and (args.mode == "fast") == (args.eps is None):
        _exit(2, f"{command} --eps goes with --mode fast, and only with it")
    if args.format == "json" and getattr(args, "grid_points", None) is not None:
        _exit(2, f"{command} --grid-points applies only to --format csv")
    return args, weights


def _moments(w: WeightVector, args: SimpleNamespace):
    shifted = args.command == "shifted-moments"
    if shifted and not w.is_palindromic:
        raise CantorMeasureError(
            f"shifted-moments requires a palindromic weight vector "
            f"(alpha[N-1-n] == alpha[n] for all n), got {w}"
        )
    if args.mode == "fast":
        from .fast import fast_moments, shifted_fast_moments
        return (shifted_fast_moments if shifted else fast_moments)(w, args.m, args.eps)
    from .moments import exact_moments, shifted_moments
    return (shifted_moments if shifted else exact_moments)(w, args.m)


def _cdf(w: WeightVector, args: SimpleNamespace):
    from .measure import cdf_table
    return cdf_table(w, args.depth)


def _legendre(w: WeightVector, args: SimpleNamespace):
    from .legendre import GRID_POINTS, BasisExport, monic_basis_general
    return BasisExport(monic_basis_general(w, args.degree), args.grid_points or GRID_POINTS)


def _analysis(w: WeightVector, args: SimpleNamespace):
    """``mgf``, ``decay`` and ``lipschitz``: the commands of :mod:`.analysis`."""
    from .analysis import MgfValue, check_decay, check_lipschitz, mgf_eval
    if args.command == "mgf":
        return MgfValue(args.s, args.depth, mgf_eval(w, args.s, args.depth))
    if args.command == "decay":
        return check_decay(w, args.m)
    return check_lipschitz(w, parse_weights(args.weights_b), args.depth)


#: Each command imports its names from their module when it runs, so it
#: calls whatever the module binds then (the benchmark's tracer rebinds them
#: to timing wrappers), and ``python -X importtime`` logs the module.
_COMMANDS = {
    "moments": _moments,
    "shifted-moments": _moments,
    "cdf": _cdf,
    "legendre": _legendre,
    "mgf": _analysis,
    "decay": _analysis,
    "lipschitz": _analysis,
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
