"""Benchmark child process: one closed-loop client driving ``cli.main``.

Prints ``ready`` as soon as ``inertonsim.cli`` is imported, so the parent
can time set-up from child start, then the time of one `calibrate` call.
With ``--probe`` it stops there. Otherwise it runs one untimed warm-up op,
then ops back to back for the given number of seconds, checking each op's
files and calibrating again between ops, outside the timed region. With
``--trace`` every second op runs with spans on, so the run also yields the
tracing overhead against the ops in between. The last stdout line is a
JSON record of every op.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

# An untraced run keeps going past its time until the tail percentile has
# ten samples beyond it and a few below, so that it is not the single
# fastest op.
MIN_UNTRACED_OPS = 15


def calibrate():
    """Best-of-three seconds for a fixed slice of interpreter work.

    Small-object allocation, float arithmetic and 17-digit formatting, like
    the program's own per-sample loops, in little memory so that it leaves
    the peak RSS alone. The machine's speed varies with its neighbours'
    load; the parent scales each op and set-up time by the calibration
    taken next to it.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        acc = 0.0
        for i in range(40000):
            pair = (i * 1.0000001, i * 0.9999999)
            acc += pair[0] * pair[1]
            if i % 8 == 0:
                format(acc, ".17g")
        best = min(best, time.perf_counter() - started)
    return best


def run_op(cli, argv, out_dir):
    """One op, timed; its output directory is emptied first, untimed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # an op that raises counts as failed; the run goes on
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - started


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from inertonsim import cli

    print("ready", flush=True)
    print(calibrate(), flush=True)
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir")
    ns = ap.parse_args()
    if ns.probe:
        return

    import numpy
    import scipy

    import workloads
    from spans import Tracer

    argv, expect = workloads.make_op(ns.workload, ns.seed, ns.work_dir)
    run_op(cli, argv, expect["out"])

    ops = []
    tracer = Tracer() if ns.trace else None
    min_ops = 2 if ns.trace else MIN_UNTRACED_OPS
    cal_s = calibrate()
    stop = time.perf_counter() + ns.seconds
    while len(ops) < min_ops or time.perf_counter() < stop:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            tracer.install()
        try:
            code, elapsed = run_op(cli, argv, expect["out"])
        finally:
            if traced:
                tracer.uninstall()
        attempted, problems = workloads.check_op(ns.workload, code, expect)
        cal_after = calibrate()
        op = {"traced": traced, "exit": code, "s": elapsed, "cal_s": (cal_s + cal_after) / 2,
              "attempted": attempted, "problems": problems}
        cal_s = cal_after
        report = os.path.join(expect["out"], "report.jsonl")
        if traced and os.path.exists(report):
            with open(report) as fh:
                op["checks"] = {r["name"]: r for r in map(json.loads, fh)}
        ops.append(op)

    record = {
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record["layers"] = tracer.op_layers()
        tracer.write(os.path.join(ns.work_dir, "spans.jsonl"))
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
