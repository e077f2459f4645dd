"""Serving process: runs CLI requests in-process, one at a time.

Started by ``run.py`` with the package's ``src`` directory of the same
checkout on ``sys.path``.  It reads one JSON command per line on stdin and
answers each with one JSON line on stdout, followed for ``run`` by the
request's captured stdout and stderr bytes.  The outputs are checked by the
parent process, so the checks neither allocate here nor raise this process's
peak RSS.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from itertools import repeat
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Sizes of the three parts of the reference work, about 2 ms each.
REF_BYTECODE_ITERS = 35_000
REF_FLOAT_ITERS = 20_000
REF_BIG_MULS = 20
#: Operands of the big-integer part (about 6300 and 11200 bits), made once.
REF_BIG = (3**4000, 7**4000)


def ref_loop() -> int:
    """The fixed reference work, timed after every request.

    Three parts of about equal time, one for each kind of work the package
    does: bytecode dispatch on cached small ints, a float accumulation and
    big-integer products.  Ints and floats are not tracked by the garbage
    collector, so the program's objects cannot change the loop's speed, only
    the machine can.  In a four-minute probe with fixed requests of the three
    workloads, timed in 2 s windows, the requests' times over the three parts
    together varied by 4.9-6.5 % (standard deviation of the log ratio), over
    the bytecode part alone by 6.9-8.2 %, and raw by 11-15 %.
    """
    x = 1
    for _ in repeat(None, REF_BYTECODE_ITERS):
        x = ((x ^ 90) + 3) & 127
    f = 0.0
    for i in range(REF_FLOAT_ITERS):
        f += i * 0.5
    a, b = REF_BIG
    for _ in repeat(None, REF_BIG_MULS):
        a * b
    return x + int(f)


def time_ref() -> float:
    start = time.perf_counter()
    ref_loop()
    return time.perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        from cantor_measures import cli
    except ImportError as exc:
        print(f"worker: cannot import cantor_measures from {SRC}: {exc}", file=sys.stderr)
        return 3
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"worker: cantor_measures was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    chan_out = sys.stdout.buffer
    tracer = None

    def reply(header: dict, *payload: bytes) -> None:
        chan_out.write(json.dumps(header).encode() + b"\n")
        for part in payload:
            chan_out.write(part)
        chan_out.flush()

    for line in sys.stdin.buffer:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(msg["argv"])
            elapsed = time.perf_counter() - start
            out_b, err_b = out.getvalue().encode(), err.getvalue().encode()
            del out, err
            # Start the next request from an empty young generation, as a
            # fresh invocation would, so that a collection owed to one
            # request's garbage is not paid inside the next one's timing.
            if tracer is None:
                gc.collect()
            else:
                tracer.collect()
            ref_s = time_ref()
            reply({"rc": rc, "t": elapsed, "ref_t": ref_s,
                   "post_t": time.perf_counter() - start - elapsed,
                   "out_len": len(out_b), "err_len": len(err_b)}, out_b, err_b)
            del out_b, err_b
        elif op == "trace":
            if tracer is None:
                from trace_layers import Tracer

                tracer = Tracer()
            tracer.memory = bool(msg.get("memory"))
            if msg["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            # Installing allocates; the next request starts from an empty
            # young generation all the same.
            tracer.collect()
            reply({"ok": True})
        elif op == "trace_read":
            reply(tracer.read())
        elif op == "ref":
            reply({"ref_t": [time_ref() for _ in range(msg["n"])]})
        elif op == "rss":
            reply({"max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        elif op == "exit":
            reply({"ok": True})
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
