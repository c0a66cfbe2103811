"""Benchmark of the inertonsim CLI: end-to-end metrics and traced layers.

    python3 bench/run.py --workload simulate-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1        # every workload, untraced and traced

Run from the repository root. Each run spawns worker children from the
package sources under ``src/``: four set-up probes that only import
``inertonsim.cli``, then one worker that imports it and drives
``cli.main`` in a closed loop, one op at a time. Set-up is timed from
spawning a child to its ``ready`` line; ``setup_s`` is the median of the
five children. The worker checks every op's files and counts each failed
op (or sweep case) against the attempts.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics of the traced ops (every second op), with
the tracing overhead against the untraced ops in between, and the
end-to-end metric and workloads each layer metric should move. Times are
in reference seconds (see CAL_REF_S); the raw seconds are printed too. The last stdout line is the JSON
result; the run record (versions, machine, seed, commit), the tail
percentile and its sample count, and the spans go to
``.bench_work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYER_METRICS, ORACLE_BYTES_PER_PAIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4        # set-up children besides the worker
# Times are reported in reference seconds: seconds on a machine where the
# worker's calibration loop takes CAL_REF_S (about this Xeon's unloaded
# speed). Each op or set-up time is scaled by the calibration taken next to
# it, which removes most of the drift a shared host adds over a run.
CAL_REF_S = 0.010
RUN_TIMEOUT_S = 170     # a run is killed rather than outlive the driver's limit
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Start a worker child.

    Returns its set-up time, the calibration it took right after, and the
    rest of its stdout.
    """
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - started, 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} failed with exit code {proc.returncode} "
                         f"(killed if the run passed {RUN_TIMEOUT_S} s)")
    cal_s, _, rest = rest.partition("\n")
    return ready_s, float(cal_s), rest


def ref_s(seconds, cal_s):
    """Seconds scaled to the reference speed by the calibration taken next to them."""
    return seconds * CAL_REF_S / cal_s


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(ops, setup, maxrss_kb, attempted, failed):
    plain = [op for op in ops if not op["traced"]]
    times = [ref_s(op["s"], op["cal_s"]) for op in plain]
    value, pct, n = tail(times)
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (value, "s"),
        "setup_s": (statistics.median(ref_s(*sample) for sample in setup), "s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }
    raw = {"tail_percentile": pct, "tail_samples": n,
           "raw_op_s_p50": statistics.median(op["s"] for op in plain),
           "raw_setup_s": statistics.median(s for s, _ in setup),
           "calibration_s": statistics.median(op["cal_s"] for op in plain)}
    return metrics, raw


def per_layer(ops, layers):
    traced = [(op, layers.get(str(i), {})) for i, op in enumerate(ops) if op["traced"]]
    per_op = []
    for op, layer in traced:
        vals = {name: layer.get(name, 0.0) for name in LAYER_METRICS}
        for name, rep in op.get("checks", {}).items():
            vals[f"verification.check.{name}.s"] = rep["runtime_s"]
        vals["verification.checks_failed"] = sum(r["status"] != "pass" for r in op.get("checks", {}).values())
        vals["dynamics.oracle_errors.computed_bytes"] = ORACLE_BYTES_PER_PAIR * vals["dynamics.oracle_errors.pairs"]
        for name, (unit, *_rest) in LAYER_METRICS.items():
            if unit == "s":
                vals[name] = ref_s(vals[name], op["cal_s"])
        steps = vals["dynamics.integrate.steps"]
        if steps:
            vals["dynamics.integrate.us_per_step"] = 1e6 * vals["dynamics.integrate.s"] / steps
            vals["dynamics.events_per_kstep"] = 1e3 * vals["dynamics.events"] / steps
        per_op.append(vals)
    metrics = {name: (statistics.median(v[name] for v in per_op), unit)
               for name, (unit, *_rest) in LAYER_METRICS.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(ref_s(op["s"], op["cal_s"]) for op, _ in traced)
        - statistics.median(ref_s(op["s"], op["cal_s"]) for op in ops if not op["traced"]), "s")
    return metrics


def _read(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    """HEAD of the checkout, read without git; None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read("/proc/cpuinfo", "model name"),
        "mem_total": _read("/proc/meminfo", "MemTotal"),
        "git_commit": git_commit(),
    }


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "inertonsim", "cli.py")):
        raise BenchError(f"no package sources at {os.path.join(ROOT, 'src', 'inertonsim')}")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    setup = [spawn(["--probe"], deadline)[:2] for _ in range(SETUP_PROBES)]
    *worker_setup, out = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(trace), "--work-dir", work_dir], deadline)
    setup.append(tuple(worker_setup))
    shutil.rmtree(os.path.join(work_dir, "out"), ignore_errors=True)
    rec = json.loads(out.strip().splitlines()[-1])
    ops = rec["ops"]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(len(op["problems"]) for op in ops)
    problems = sorted({p for op in ops for p in op["problems"]})
    e2e, raw = end_to_end(ops, setup, rec["maxrss_kb"], attempted, failed)
    metrics = per_layer(ops, rec["layers"]) if trace else e2e
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "ops": len(ops), "setup_samples": setup, **raw, "versions": rec["versions"],
              **machine(), "problems": problems, "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "op_samples": [{k: op[k] for k in ("traced", "s", "cal_s")} for op in ops]}
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    return result, record


def report(result, record):
    r = record
    print(f"{r['workload']}  seed {r['seed']}  trace {r['trace']}  {r['ops']} ops  "
          f"python {r['versions']['python']}  numpy {r['versions']['numpy']}  scipy {r['versions']['scipy']}  "
          f"nproc {r['nproc']}  {r['cpu_model']}  MemTotal {r['mem_total']}  commit {r['git_commit']}")
    for name, m in result["metrics"].items():
        note = f"  (p{r['tail_percentile']:.0f} of {r['tail_samples']} ops)" if name == "op_s.tail" else ""
        if name in LAYER_METRICS:
            note = f"  -> {LAYER_METRICS[name][2]} on {LAYER_METRICS[name][3]}"
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  raw seconds: op p50 {r['raw_op_s_p50']:.6g}, set-up {r['raw_setup_s']:.6g}; "
          f"calibration {r['calibration_s'] * 1e3:.4g} ms against {CAL_REF_S * 1e3:g} ms reference")
    verdict = "pass" if result["correct"] else "FAIL"
    print(f"  output check: {verdict}, {result['failed']} of {result['attempted']} attempts failed")
    for problem in r["problems"]:
        print(f"    {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS), help="default: every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        if ns.workload:
            result, record = run(ns.workload, ns.seed, ns.seconds, ns.trace)
            report(result, record)
            print(json.dumps(result))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                report(*run(workload, ns.seed, ns.seconds, trace))
        return 0
    except (BenchError, OSError, ValueError, LookupError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
