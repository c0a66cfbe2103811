"""Which output bits moved between two trees, and by how much.

    python tools/out_diff.py --against REV

Runs one fixed case matrix on the files committed at git revision REV
(``git archive``) and on the worktree's ``src`` and ``bench``, each tree in
turn unpacked or copied into the same scratch directory:

- ``simulate`` (csv, svg, and csv with ``outputs.el_residuals``),
  ``derive``, ``check``, a ``dt`` sweep at T/1000, T/500 and T/250 and a
  ``v0`` sweep at 0.5, 1 and 2 times the preset's ``v0``, on each of the
  three presets;
- ``simulate --format svg`` on the natural preset over 50 T at
  dt = T/999.5, a period of no whole number of steps, and over 20 T at
  dt = T/4000, a grid finer than ``BLOCK_STEPS``, whose blocks need not
  hold a reflection;
- the config of each benchmark workload (``bench/workloads.py``) at seeds
  1, 2 and 3.

Each tree runs every case in one child process with ``PYTHONHASHSEED=0``,
importing that tree's own ``src`` and ``bench``, under the same paths for
both trees. Then each output file is
reported as identical or not. For a file that is not, each CSV column, JSON
path or SVG element prints how many of its values moved, the largest
relative movement and the largest movement in units in the last place
(ulp). A value that is not a number counts as changed. The ``points`` of
an SVG polyline are one field: it prints the point count on each side
and, when the counts match, the largest movement of a coordinate. The fields listed in
`EXCLUDED` differ from run to run by design and are left out. The exit
code of every case is compared too, with its last stderr line when the
codes differ.

Then, for each benchmark workload, each tree starts a fresh child
(`PEAK`) that runs the workload's op at seed 1 once untraced, so with warm
caches, and once more under `tracemalloc`: ``simulate-long`` (``simulate
--format svg`` over 100 T at dt = T/1000, with the trajectory CSV),
``sweep-coarse`` (four runs of 200 T, T/125 to T/250) and ``check-all``.
A child of its own keeps the reading apart from what the case matrix, or
another workload, left allocated: read after the matrix, a ``sweep-coarse``
op of the same program moved by about 2 KB. The traced peak of each op is
printed per tree, in bytes and, for the ops whose steps the workload
states, per integration step, with the difference between the trees.
tracemalloc counts every numpy buffer, so this shows memory changes far
below the resolution of a process's peak RSS, such as a block-sized
temporary in a sweep's oracle. It also counts the interpreter's own small
objects, among them the paths a run opens, so the scratch directory has a
fixed name, `SCRATCH`, and both trees run under the same paths. One run at
a time: a run empties `SCRATCH` first. Interpreter objects of a few dozen
bytes are alive at the peak in some runs and not in others (5 of 40
``simulate-long`` runs of one tree read 67 B less; over 17 runs of two
copies of one tree, the three ops' deltas ranged from -177 to +295 B), so
two trees with the same program can read peaks that far apart (0.0 B per
step).

The same child then runs two more untraced ops, and the minor page faults
of the last (``ru_minflt`` of `resource.getrusage`) are printed per
workload and tree, in a table after the traced peaks. An op that gives
memory back to the system and faults it in again on the next op shows
there: glibc unmaps a large freed block, or trims the heap above its trim
threshold, and each page of it is faulted anew when an op needs it. The
count depends on that threshold, so it is a report, not a bound.

Exit status: 0 when every file and exit code is the same, 1 when anything
differs, 2 when a tree could not be run. The traced peak and the fault
counts are reports and do not change the exit status. Compare two trees on
one machine only: numpy's ``sin``, ``cos``, ``log`` and complex multiply
may round differently on another CPU or numpy version. Standard library
only in this process.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import pathlib
import re
import struct
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The one scratch directory of a run, the same in every run (see above).
SCRATCH = pathlib.Path(tempfile.gettempdir()) / "inertonsim-out-diff"

# Fields that differ from run to run by design, by file name: a CSV column,
# or the last key of a JSON path.
EXCLUDED = {"report.jsonl": {"runtime_s"}, "report.csv": {"runtime_s"}}

CHILD = """
import contextlib, io, json, os, sys
import workloads
from inertonsim import cli

root = sys.argv[1]
el_config = root + ".el.json"  # beside root, so that only outputs are compared
with open(el_config, "w") as fh:
    json.dump({"outputs": {"el_residuals": True}}, fh)
# 50 T at T/999.5: a period of no whole number of steps, so each reflection
# falls at another phase of its step; 20 T at T/4000: three blocks of four
# hold no reflection
T = cli.builtin_presets()["natural"]["parameters"]["T"]
cases = []
for name, divisor, periods in (("off-grid", 999.5, 50), ("fine", 4000, 20)):
    grid_config = root + f".{name}.json"
    with open(grid_config, "w") as fh:
        json.dump({"simulation": {"dt": T / divisor, "t_end": periods * T}}, fh)
    case = f"natural.simulate-svg-{name}"
    cases.append((case, ["simulate", "--format", "svg", "--config", grid_config, "--preset", "natural",
                         "--out", os.path.join(root, case)]))
for preset in ("natural", "electron-1e6", "electron-atomic"):
    config = cli.builtin_presets()[preset]
    dt = config["simulation"]["dt"]  # T/1000
    steps = ",".join(repr(k * dt) for k in (1, 2, 4))
    speeds = ",".join(repr(k * config["parameters"]["v0"]) for k in (0.5, 1, 2))
    for name, argv in (("simulate-csv", ["simulate", "--format", "csv"]),
                       ("simulate-svg", ["simulate", "--format", "svg"]),
                       ("simulate-el", ["simulate", "--config", el_config]),
                       ("derive", ["derive"]), ("check", ["check"]),
                       ("sweep-dt", ["sweep", "--axis", "dt", "--values", steps]),
                       ("sweep-v0", ["sweep", "--axis", "v0", "--values", speeds])):
        out = os.path.join(root, f"{preset}.{name}")
        cases.append((f"{preset}.{name}", [*argv, "--preset", preset, "--out", out]))
for workload in workloads.WORKLOADS:
    for seed in (1, 2, 3):
        work_dir = os.path.join(root, f"{workload}.{seed}")
        cases.append((f"{workload}.{seed}", workloads.make_op(workload, seed, work_dir)[0]))
codes = {}
for name, argv in cases:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code, err = "traceback", io.StringIO(repr(exc))
    codes[name] = [code, (err.getvalue().strip().splitlines() or [""])[-1]]
print(json.dumps([codes, list(workloads.WORKLOADS)]))
"""

# One workload's op at seed 1, in a fresh process: once untraced, then once
# under tracemalloc, then twice more untraced; prints the traced peak, the
# steps the workload states and the minor faults of the last op.
PEAK = """
import contextlib, io, json, resource, shutil, sys, tracemalloc
import workloads
from inertonsim import cli

argv, expect = workloads.make_op(sys.argv[1], 1, sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
    shutil.rmtree(expect["out"])
    tracemalloc.start()
    cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for _ in range(2):
        shutil.rmtree(expect["out"])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cli.main(argv)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps([peak, sum(case["n_steps"] for case in expect.get("cases", [])), faults]))
"""


def run_cases(tree: pathlib.Path, out: pathlib.Path) -> tuple[dict[str, list], dict[str, list]]:
    """Run the case matrix on the tree at ``tree``, writing under ``out``;
    returns each case's exit code and last stderr line, then per benchmark
    workload, for its op at seed 1, the traced peak in bytes, the step count
    (0 if the workload states none) and the minor faults of a steady-state
    op, each read by a `PEAK` child in ``peak`` beside ``out``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "bench")]),
           "PYTHONHASHSEED": "0"}

    def child(what, *args):
        proc = subprocess.run([sys.executable, "-c", *args], cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{what} on {tree} failed: {proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])

    codes, workloads = child("cases", CHILD, str(out))
    peaks = {}
    for workload in workloads:
        peaks[workload] = child(f"the {workload} op", PEAK, workload, str(out.parent / "peak"))
        shutil.rmtree(out.parent / "peak")
    return codes, peaks


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _json_leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _json_leaves(val, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for val in obj:
            yield from _json_leaves(val, f"{path}[]")
    else:
        yield path, json.dumps(obj)


def fields(path: pathlib.Path):
    """The values of a file in order, as ``(key, text)`` pairs: a CSV cell
    keyed by its column; a JSON leaf by its path, with ``[]`` for any list
    index (a JSON-lines file's by ``[line]`` and its path); and each number
    of an SVG element keyed by the element's tag and index, and its text
    around those numbers by the same key and `` text``, but a polyline's
    ``points`` whole, by its key and `` points``."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, [])
            for row in rows:
                yield from zip(header, row)
    elif path.suffix == ".jsonl":
        with open(path) as fh:
            for i, line in enumerate(fh):
                yield from _json_leaves(json.loads(line), f"[{i}]")
    elif path.suffix == ".json":
        yield from _json_leaves(json.loads(path.read_text()))
    elif path.suffix == ".svg":
        counts = {}
        for element in re.findall(r"<[^>]*>|[^<]+", path.read_text()):
            tag = re.match(r"</?\s*([\w:-]*)", element)
            tag = tag.group(1) if tag else "#text"
            key = f"{tag}[{counts.setdefault(tag, 0)}]"
            counts[tag] += 1
            points = re.search(r'\spoints="([^"]*)"', element) if tag == "polyline" else None
            if points:
                yield f"{key} points", points.group(1)
                element = element[:points.start(1)] + element[points.end(1):]
            for number in _NUMBER.findall(element):
                yield key, number
            yield f"{key} text", _NUMBER.sub("#", element)
    else:
        yield "text", path.read_text()


def _ordered(x: float) -> int:
    """The bits of ``x`` as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(1 << 63) - bits


def movement(a: str, b: str) -> tuple[float, float] | None:
    """Relative and ulp distance between two numeric texts; None when
    either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return (0.0, 0.0) if x == y or (x != x and y != y) else (math.inf, math.inf)
    scale = max(abs(x), abs(y))
    return (abs(x - y) / scale if scale else 0.0), float(abs(_ordered(x) - _ordered(y)))


def points_moved(a: str, b: str) -> str:
    """How two polylines' ``points`` differ: the point count on each side
    and, when the counts match, the largest movement of a coordinate."""
    xs, ys = ([float(v) for v in re.split(r"[\s,]+", text.strip()) if v] for text in (a, b))
    if len(xs) != len(ys):
        return f"{len(xs) // 2} -> {len(ys) // 2} points"
    largest = max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)
    return f"{len(xs) // 2} points on both sides, largest coordinate movement {largest:.3g}"


def compare(before: pathlib.Path, now: pathlib.Path) -> tuple[str, list[str]]:
    """``(verdict, detail lines)`` for one file present on both sides."""
    if before.read_bytes() == now.read_bytes():
        return "identical", []
    excluded = EXCLUDED.get(now.name, set())
    stats = {}  # key -> [values, moved, changed, max rel, max ulp]
    lines = []
    for pair in itertools.zip_longest(fields(before), fields(now)):
        if None in pair or pair[0][0] != pair[1][0]:
            return "differs", ["    the files differ in shape: fields do not pair up"]
        (key, a), (_, b) = pair
        if key.rsplit(".", 1)[-1] in excluded:
            continue
        if key.endswith(" points"):
            if a != b:
                lines.append(f"    {key}: {points_moved(a, b)}")
            continue
        entry = stats.setdefault(key, [0, 0, 0, 0.0, 0.0])
        entry[0] += 1
        if a == b:
            continue
        moved = movement(a, b)
        if moved is None:
            entry[2] += 1
        else:
            entry[1] += 1
            entry[3], entry[4] = max(entry[3], moved[0]), max(entry[4], moved[1])
    for key, (values, moved, changed, rel, ulps) in stats.items():
        if moved:
            lines.append(f"    {key}: {moved} of {values} values moved, max rel {rel:.3g}, max {ulps:.0f} ulp")
        if changed:
            lines.append(f"    {key}: {changed} of {values} values changed (not numbers)")
    if not lines and excluded:
        return f"identical outside {', '.join(sorted(excluded))}", []
    return "differs", lines or ["    every value is equal, but the bytes differ (layout or number format)"]


def files_under(root: pathlib.Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Which output bits moved between git revision REV and the worktree.")
    ap.add_argument("--against", metavar="REV", required=True, help="git revision to compare the worktree with")
    ns = ap.parse_args(argv)
    label = ns.against[:6]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir()
    tree, out = SCRATCH / "tree", SCRATCH / "out"
    outs = {label: SCRATCH / "out-before", "now": SCRATCH / "out-now"}
    try:
        try:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", ns.against],
                                     check=True, capture_output=True).stdout
            runs = {}
            for side in outs:
                tree.mkdir()
                if side == label:
                    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True, capture_output=True)
                else:
                    for part in ("src", "bench"):
                        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
                runs[side] = run_cases(tree, out)
                out.rename(outs[side])
                shutil.rmtree(tree)
        except subprocess.CalledProcessError as exc:
            print(f"out_diff: {' '.join(exc.cmd)} failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        except RuntimeError as exc:
            print(f"out_diff: {exc}", file=sys.stderr)
            return 2
        codes = {side: run[0] for side, run in runs.items()}
        differs = 0
        print(f"{'exit codes':<36} {label:>9} {'now':>9}")
        for case in sorted(set(codes[label]) | set(codes["now"])):
            (a, why_a), (b, why_b) = (codes[side].get(case, ["-", ""]) for side in (label, "now"))
            print(f"{case:<36} {a!s:>9} {b!s:>9}{'' if a == b else '  differ'}")
            if a != b:
                differs += 1
                print(f"    {label}: {why_a}\n    now: {why_b}")
        names = sorted(files_under(outs[label]) | files_under(outs["now"]))
        print(f"\n{'file':<60} result")
        for name in names:
            before, now = outs[label] / name, outs["now"] / name
            if not before.exists() or not now.exists():
                verdict, lines = f"only in {'now' if now.exists() else label}", []
            else:
                verdict, lines = compare(before, now)
            differs += not verdict.startswith("identical")
            print(f"{name:<60} {verdict}", *lines, sep="\n")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"\n{'traced peak of one op':<36} {'bytes':>12} {'steps':>9} {'B per step':>11}")
    for workload, (peak, steps, _) in runs["now"][1].items():
        if workload not in runs[label][1]:
            continue
        before = runs[label][1][workload][0]
        for side, value, sign in ((label, before, ""), ("now", peak, ""), ("delta", peak - before, "+")):
            per_step = f"{value / steps:{sign}.1f}" if steps else "-"
            shown = "" if side == "delta" else steps or "-"
            print(f"{workload + ' ' + side:<36} {value:>{sign}12,} {shown:>9} {per_step:>11}")
    print(f"\n{'minor faults of a steady-state op':<36} {label:>9} {'now':>9}")
    for workload, (_, _, faults) in runs["now"][1].items():
        print(f"{workload:<36} {runs[label][1].get(workload, [0, 0, '-'])[2]!s:>9} {faults:>9}")
    print(f"\n{len(names)} files, {len(codes['now'])} cases; {differs} files or exit codes differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
