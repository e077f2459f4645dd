"""Benchmark of the cantor-measures CLI: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact-spectral --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Each workload is a closed loop with one client: a fresh serving process
(``worker.py``) runs one ``cantor_measures.cli.run(argv)`` request at a time
with stdout captured, and this process checks each output against its own
references before it sends the next request.  Rounds of the same seeded
request list repeat until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are in hand.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs every request traced and untraced back to back and
prints the per-layer metrics.  Every reported time is scaled to a nominal
machine speed by a reference loop timed after each request (``NOMINAL_REF_S``),
and the end-to-end latencies are taken over each request's median across the
run's rounds.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (sample
counts, failing requests and their faults) go to stderr and to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.set_int_max_str_digits(0)

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from checks import Checker, References, Verdict  # noqa: E402
from workloads import BUILDERS, SETUP_REQUEST, WORKLOADS  # noqa: E402

#: Fresh processes timed for ``setup_s`` (median reported).
SETUP_RUNS = 9
#: Reference-loop timings taken in each set-up probe after its request.
SETUP_REFS = 5
#: The nominal machine speed: every reported time is scaled by
#: ``NOMINAL_REF_S / r``, where ``r`` is the reference-loop time measured
#: next to it.  A time reads as the work would take on a machine whose
#: reference loop (``worker.ref_loop``) takes ``NOMINAL_REF_S``; this
#: cancels the machine's drift, which moves both alike.
NOMINAL_REF_S = 0.005
#: Reference timings on either side of a request that set its local speed.
REF_WINDOW = 3
#: Rounds needed before a run may stop: each request's median latency is
#: then taken over at least three samples.
MIN_ROUNDS = 3
#: A run gives up (exit 1, no result) after this long.
DEADLINE_S = 170

PER_LAYER_TIMES = (
    "fast.series_mul_trunc", "fast.partial_product_series", "fast.fast_moments",
    "fast.shifted_fast_moments", "fast.mgf_eval", "fast.render",
    "moments.exact_moments", "moments.shifted_moments", "moments.render",
    "legendre.basis", "legendre.inner_product", "legendre.render", "legendre.grid_csv",
    "analysis.check_decay", "analysis.check_lipschitz",
    "measure.cdf_table", "measure.kronecker_power", "measure.cdf_sup_distance",
    "measure.render", "measure.parse_weights", "cli",
)
#: Counts that must repeat exactly from one traced round to the next.
EXACT_COUNTS = (
    "fast.series_mul_trunc_calls", "legendre.inner_product_calls",
    "moments.exact_moment_indices", "measure.table_entries",
)


class BenchError(Exception):
    pass


class Worker:
    """A serving process started from this checkout's sources."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=HERE.parent,
        )

    def call(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        header = self.proc.stdout.readline()
        if not header:
            raise BenchError(f"serving process exited with code {self.proc.wait()}")
        return json.loads(header)

    def run(self, argv) -> tuple[dict, str, str]:
        head = self.call({"op": "run", "argv": list(argv)})
        out = self.proc.stdout.read(head["out_len"]).decode()
        err = self.proc.stdout.read(head["err_len"]).decode()
        return head, out, err

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call({"op": "exit"})
            except (BenchError, OSError, ValueError):
                pass
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Round:
    #: The index in the request list of each request served, in order.
    slots: list[int] = field(default_factory=list)
    #: Raw request latencies, in seconds.
    latencies: list[float] = field(default_factory=list)
    #: In a traced run, the untraced twin of each request in ``latencies``.
    untraced: list[float] = field(default_factory=list)
    #: The reference-loop time measured right after each request.
    refs: list[float] = field(default_factory=list)
    #: ``NOMINAL_REF_S`` over the local reference time of each request.
    scales: list[float] = field(default_factory=list)
    output_bytes: int = 0
    trace: dict = field(default_factory=dict)

    @property
    def nominal(self) -> list[float]:
        """Latencies at the nominal machine speed."""
        return [t * k for t, k in zip(self.latencies, self.scales)]

    @property
    def scale(self) -> float:
        """The round's median scale, for times summed over the round."""
        return statistics.median(self.scales)


def set_scales(rounds: list[Round]) -> None:
    """Give each request the scale of the median reference time of the
    ``REF_WINDOW`` requests on either side of it (its own included), across
    round boundaries: local enough to follow the drift, wide enough that one
    disturbed reference timing does not decide a request."""
    refs = [r for rnd in rounds for r in rnd.refs]
    i = 0
    for rnd in rounds:
        rnd.scales = []
        for _ in rnd.refs:
            window = refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]
            rnd.scales.append(NOMINAL_REF_S / statistics.median(window))
            i += 1


def measure_setup(name: str) -> tuple[float, float]:
    """Launch a fresh interpreter and time it to the end of its first request.

    Returns the raw time and the time at the nominal machine speed, scaled by
    the median of ``SETUP_REFS`` reference timings taken in that interpreter
    right after its request.  The serving process's own work after the
    request (a collection and one reference timing) is not counted.
    """
    start = time.perf_counter()
    worker = Worker()
    try:
        head, _, err = worker.run(SETUP_REQUEST[name])
        elapsed = time.perf_counter() - start - head["post_t"]
        ref = statistics.median(worker.call({"op": "ref", "n": SETUP_REFS})["ref_t"])
    finally:
        worker.close()
    if head["rc"] != 0:
        raise BenchError(f"set-up request failed: {err.strip()}")
    return elapsed, elapsed * NOMINAL_REF_S / ref


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = BUILDERS[name](seed)
    setup = [measure_setup(name)]
    probes = 1 if trace else SETUP_RUNS
    refs = References()
    refs.prepare(requests)
    checker = Checker(refs, seed)
    # Outputs are deterministic, so later rounds mostly repeat earlier
    # outputs byte for byte: such an output gets the verdict its first copy
    # got, which leaves more of the run for timed rounds.
    verdicts: dict[bytes, Verdict] = {}
    failures: dict[tuple, set] = {}
    problems: list[str] = []
    attempted = failed = 0
    rounds: list[Round] = []
    worker = Worker()
    try:
        def verdict_of(req, head, out, err) -> Verdict:
            key = hashlib.sha256(f"{req.argv}\0{head['rc']}\0{out}\0{err}".encode()).digest()
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = checker.check(req, head["rc"], out, err)
            return verdict

        # One untimed round first: lazy set-up, first calls and the growth of
        # the heap to its working size happen before timing.  The set-up
        # probes are spread through it, between requests (the serving process
        # is idle then), so that their median sees several seconds of the
        # machine's drift and no timed request follows a probe's cache misses.
        # Its outputs are checked too, so that the first timed round does not
        # carry most of the checking between its requests (it ran about 10 %
        # slower than the later ones).
        step = max(1, len(requests) // probes)
        for i, req in enumerate(requests):
            if i % step == 0 and len(setup) < probes:
                setup.append(measure_setup(name))
            verdict_of(req, *worker.run(req.argv))
        setup += [measure_setup(name) for _ in range(probes - len(setup))]

        def serve(req) -> dict:
            nonlocal attempted, failed
            head, out, err = worker.run(req.argv)
            verdict = verdict_of(req, head, out, err)
            attempted += 1
            if verdict.failed:
                failed += 1
                failures.setdefault(req.argv, set()).update(verdict.faults)
                problems.extend(f"{' '.join(req.argv)}: {p}" for p in verdict.problems)
            return head

        # Every round serves the whole list in a new order.  With one fixed
        # order, a few requests of a run on a disturbed machine were slow in
        # most rounds (medians 40-60 % above those of other runs), as if the
        # disturbance kept pace with the rounds; in a new order each round it
        # lands on different requests, and their medians drop it.
        shuffle = random.Random(f"{name}:order").shuffle
        start = time.perf_counter()
        while True:
            rnd = Round()
            order = list(range(len(requests)))
            shuffle(order)
            for i, slot in enumerate(order):
                req = requests[slot]
                rnd.slots.append(slot)
                if trace:
                    # Each request runs traced and untraced back to back, in
                    # alternating order, so that both see the same machine
                    # speed and their difference is the tracing's cost.
                    for on in (True, False) if (i + len(rounds)) % 2 == 0 else (False, True):
                        worker.call({"op": "trace", "on": on})
                        if on:
                            head = serve(req)
                        else:
                            rnd.untraced.append(serve(req)["t"])
                else:
                    head = serve(req)
                rnd.latencies.append(head["t"])
                rnd.refs.append(head["ref_t"])
                rnd.output_bytes += head["out_len"]
            if trace:
                worker.call({"op": "trace", "on": False})
                rnd.trace = worker.call({"op": "trace_read"})
            rounds.append(rnd)
            if time.perf_counter() - start >= seconds and (
                len(rounds) >= (2 if trace else MIN_ROUNDS)
            ):
                break
        set_scales(rounds)
        peak_alloc = None
        if trace:
            peak_alloc = memory_round(worker, requests)
        rss_kb = worker.call({"op": "rss"})["max_rss_kb"]
    finally:
        worker.close()

    result = {
        "workload": name, "seed": seed, "trace": int(trace), "rounds": len(rounds),
        "requests_per_round": len(requests), "attempted": attempted, "failed": failed,
        "failing_requests": sorted(
            [{"argv": " ".join(a), "faults": sorted(f)} for a, f in failures.items()],
            key=lambda item: item["argv"]),
        "faults": {f: sum(f in fs for fs in failures.values()) for f in ("F1", "F2")},
        "problems": problems[:20],
    }
    if trace:
        metrics, trace_problems = per_layer_metrics(rounds, peak_alloc)
        problems += trace_problems
        result["trace_problems"] = trace_problems
    else:
        # Each request of the round list gets its median latency over the
        # run's rounds; the round time and the quantiles are taken over these.
        # The machine stalls now and then for tens of milliseconds, which
        # doubles a request's latency or, through its reference timings,
        # halves it: a median per request drops those samples, where pooled
        # samples would carry them into the upper quantiles.
        samples: list[list[float]] = [[] for _ in requests]
        for r in rounds:
            for slot, t in zip(r.slots, r.nominal):
                samples[slot].append(t)
        typical = [statistics.median(ts) for ts in samples]
        p90 = statistics.quantiles(typical, n=10)[8]
        result["samples_per_request"] = len(rounds)
        result["beyond_p90"] = sum(t > p90 for t in typical)
        metrics = {
            "wall_s": (sum(typical), "s"),
            "latency_p50_s": (statistics.median(typical), "s"),
            "latency_p90_s": (p90, "s"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        # The raw figures, for a look at the machine's speed during the run.
        result["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
        result["raw_round_walls_s"] = [sum(r.latencies) for r in rounds]
        result["round_walls_s"] = [sum(r.nominal) for r in rounds]
        result["request_medians_s"] = [[" ".join(req.argv), t] for req, t in zip(requests, typical)]
        result["ref_s_median"] = statistics.median(t for r in rounds for t in r.refs)
    result["correct"] = not problems
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def memory_round(worker: Worker, requests) -> float:
    """Peak traced allocation inside ``cdf_table`` for the round's largest table.

    tracemalloc slows allocation severalfold, so this call is kept apart from
    the timed rounds; its output was already checked there.
    """
    tables = [r for r in requests if r.command in ("cdf", "lipschitz")]
    if not tables:
        return 0.0
    largest = max(tables, key=lambda r: len(r.weights) ** r.size)
    worker.call({"op": "trace", "on": True, "memory": True})
    worker.run(largest.argv)
    peak = worker.call({"op": "trace_read"})["measure.peak_alloc_bytes"]
    worker.call({"op": "trace", "on": False})
    return peak / 2**20


def per_layer_metrics(rounds: list[Round], peak_alloc_mb: float) -> tuple[dict, list[str]]:
    problems = []

    def median_of(get) -> float:
        return statistics.median(get(r) for r in rounds)

    # Times are per round, at the nominal machine speed (each round scaled
    # by the median scale of its requests).
    metrics = {}
    for span in PER_LAYER_TIMES:
        key = "cli.self_s" if span == "cli" else f"{span}_s"
        metrics[key] = (median_of(lambda r: r.trace["self_s"].get(span, 0.0) * r.scale), "s")
    for count in EXACT_COUNTS:
        values = {r.trace["counts"].get(count, 0) for r in rounds}
        if len(values) != 1:
            problems.append(f"{count} differs between traced rounds: {sorted(values)}")
        metrics[count] = (max(values), "count")
    for r in rounds:
        calls = r.trace["counts"].get("fast.series_mul_trunc_calls", 0)
        schedule = r.trace["counts"].get("fast.log2_depth", 0)
        if calls != schedule:
            problems.append(f"{calls} truncated multiplications, doubling schedule says {schedule}")
    metrics["measure.peak_alloc_mb"] = (peak_alloc_mb, "MB")
    metrics["gc.pause_s"] = (median_of(lambda r: r.trace["gc.pause_s"] * r.scale), "s")
    metrics["gc.collections"] = (median_of(lambda r: r.trace["gc.collections"]), "count")
    metrics["cli.output_bytes"] = (median_of(lambda r: r.output_bytes), "bytes")
    metrics["trace.overhead_s"] = (
        median_of(lambda r: sum((t - u) * k for t, u, k in zip(r.latencies, r.untraced, r.scales))), "s")
    return metrics, problems


def summarize(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['rounds']} rounds x {result['requests_per_round']} requests, "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"(F1 requests {result['faults']['F1']}, F2 requests {result['faults']['F2']}) "
          f"correct={result['correct']}", file=sys.stderr)
    if "samples_per_request" in result:
        print(f"   samples per request={result['samples_per_request']}, "
              f"requests beyond p90={result['beyond_p90']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for p in result["problems"]:
        print(f"   PROBLEM {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    def give_up(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S * len(names)} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(DEADLINE_S * len(names))
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            summarize(result)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for r in results:
        path = out_dir / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
        path.write_text(json.dumps(r, indent=1) + "\n")
    if len(results) == 1:
        final = results[0]
        line = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
