"""Run-to-run spread of the metrics over several seeds, and agreement of two sets.

    python3 perfbench/spread.py --workload cdf-staircase --seeds 1-10
    python3 perfbench/spread.py --workload cdf-staircase --seeds 1-3 --trace 1
    python3 perfbench/spread.py --compare

A set runs ``run.py`` once per seed, one run at a time, for ``run_seconds``
of ``BENCHMARK.json``.  For ``--trace 0`` it prints for each end-to-end metric
the median and the distance between the first and third quartiles as a share
of the median (``statistics.quantiles(values, n=4)``), next to its bound.  For
``--trace 1`` it prints the per-layer medians and whether each count that
must repeat is the same in every run.  Both print the share of failed
requests of every run.  Each set's summary is appended to
``perfbench/out/sets.jsonl``; ``--compare`` reads that file and puts the
medians of the last two untraced sets of each workload side by side, with
their relative difference and whether it is within the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = HERE / "out" / "sets.jsonl"

sys.path.insert(0, str(HERE))
from run import EXACT_COUNTS  # noqa: E402


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload: str, seeds: list[int], trace: int, spec: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(line)
        print(f"seed {seed}: attempted={line['attempted']} failed={line['failed']} "
              f"correct={line['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), file=sys.stderr)
    shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})
    correct = all(r["correct"] for r in runs)
    print(f"{workload} trace={trace}: {len(runs)} runs, seeds {seeds[0]}-{seeds[-1]}, "
          f"failed shares {shares}, all correct: {correct}")
    medians, spreads = {}, {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        medians[name] = statistics.median(values)
        if trace and name in EXACT_COUNTS:
            print(f"  {name:32s} {values[0]:.6g}  same in every run: {len(set(values)) == 1}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spreads[name] = (q3 - q1) / medians[name] if medians[name] else 0.0
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"  {name:32s} median {medians[name]:.6g}  IQR/median {spreads[name]:.4f}{bound}")
    with open(SETS, "a") as log:
        log.write(json.dumps({"workload": workload, "trace": trace, "seeds": [seeds[0], seeds[-1]],
                              "failed_shares": shares, "correct": correct,
                              "medians": medians, "spreads": spreads}) + "\n")
    return 0 if correct and len(shares) == 1 else 1


def compare(spec: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [json.loads(line) for line in SETS.read_text().splitlines()]
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        pair = [s for s in sets if s["workload"] == workload and s["trace"] == 0][-2:]
        if len(pair) < 2:
            print(f"{workload}: fewer than two untraced sets in {SETS.name}")
            ok = False
            continue
        first, second = pair
        same_share = first["failed_shares"] == second["failed_shares"]
        ok &= same_share
        print(f"{workload}: seeds {first['seeds']} vs {second['seeds']}, failed shares "
              f"{first['failed_shares']} vs {second['failed_shares']}")
        for name, bound in bounds.items():
            a, b = first["medians"][name], second["medians"][name]
            change = (b - a) / a
            within = abs(change) <= bound
            ok &= within
            print(f"  {name:16s} {a:10.5g} {b:10.5g}  {change:+.3f}  bound {bound}  "
                  f"{'within' if within else 'OUTSIDE'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(spec)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    SETS.parent.mkdir(exist_ok=True)
    return run_set(args.workload, seeds_from(args.seeds), args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
