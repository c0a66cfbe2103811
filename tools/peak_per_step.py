"""Traced peak memory of one `simulate-long` op, in bytes and per step.

    python tools/peak_per_step.py [--against REV]

Runs the config of the benchmark's `simulate-long` workload at seed 1 (see
``bench/workloads.py``: `simulate --format svg` over 100 T at dt = T/1000,
with the trajectory CSV) in a child process, once untraced to warm the
caches, once untraced to count its minor page faults (``ru_minflt``: a
buffer that the allocator hands back to the kernel and faults in again on
each use shows here) and once under `tracemalloc`, and prints the traced
peak of the last op, that peak per integration step and the faults. With
``--against REV`` it
first does the same on the files committed at git revision REV (``git
archive`` unpacked into a temporary directory) and prints the difference.
tracemalloc counts every numpy buffer, so this shows memory changes far
below the resolution of a process's peak RSS. Standard library only in this
process; the child imports the tree's ``src`` and ``bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD, SEED = "simulate-long", 1

CHILD = f"""
import contextlib, io, json, resource, sys, tempfile, tracemalloc
import workloads
from inertonsim import cli

def op(traced):
    with tempfile.TemporaryDirectory() as work_dir, contextlib.redirect_stdout(io.StringIO()):
        argv, expect = workloads.make_op({WORKLOAD!r}, {SEED}, work_dir)
        if traced:
            tracemalloc.start()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code = cli.main(argv)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if code != 0:
        sys.exit(f"simulate exited {{code}}")
    return peak, sum(case["n_steps"] for case in expect["cases"]), faults

op(False)
faults = op(False)[2]
peak, steps, _ = op(True)
print(json.dumps([peak, steps, faults]))
"""


def measure(tree: pathlib.Path) -> tuple[int, int, int]:
    """Traced peak in bytes, step count and minor faults untraced of one op
    on the tree at ``tree``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "bench")]), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"op on {tree} failed: {proc.stderr.strip()}")
    peak, steps, faults = json.loads(proc.stdout.splitlines()[-1])
    return peak, steps, faults


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Traced peak memory of one simulate-long op.")
    ap.add_argument("--against", metavar="REV", help="also measure the files committed at git revision REV")
    ns = ap.parse_args(argv)
    rows = []
    try:
        if ns.against:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", ns.against],
                                     check=True, capture_output=True).stdout
            with tempfile.TemporaryDirectory() as tree:
                subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True, capture_output=True)
                rows.append((ns.against[:6], *measure(pathlib.Path(tree))))
        rows.append(("now", *measure(ROOT)))
    except subprocess.CalledProcessError as exc:
        print(f"peak_per_step: {' '.join(exc.cmd)} failed: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"peak_per_step: {exc}", file=sys.stderr)
        return 2
    print(f"{'tree':<8} {'traced peak (B)':>16} {'steps':>9} {'B per step':>11} {'minor faults':>13}")
    for name, peak, steps, faults in rows:
        print(f"{name:<8} {peak:>16,} {steps:>9} {peak / steps:>11.1f} {faults:>13,}")
    if ns.against:
        (_, before, steps, faults_before), (_, now, _, faults_now) = rows
        print(f"{'delta':<8} {now - before:>+16,} {'':>9} {(now - before) / steps:>+11.1f} "
              f"{faults_now - faults_before:>+13,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
