"""Which output bits moved between two trees, and by how much.

    python tools/out_diff.py --against REV

Runs one fixed case matrix on the files committed at git revision REV
(``git archive`` unpacked into a temporary directory) and on the worktree:

- ``simulate`` (csv, svg, and csv with ``outputs.el_residuals``),
  ``derive``, ``check``, a ``dt`` sweep at T/1000, T/500 and T/250 and a
  ``v0`` sweep at 0.5, 1 and 2 times the preset's ``v0``, on each of the
  three presets;
- the config of each benchmark workload (``bench/workloads.py``) at seeds
  1, 2 and 3.

Each tree runs every case in one child process with ``PYTHONHASHSEED=0``,
importing that tree's own ``src`` and ``bench``. Then each output file is
reported as identical or not. For a file that is not, each CSV column, JSON
path or SVG element prints how many of its values moved, the largest
relative movement and the largest movement in units in the last place
(ulp). A value that is not a number counts as changed. The fields listed in
`EXCLUDED` differ from run to run by design and are left out. The exit
code of every case is compared too, with its last stderr line when the
codes differ.

After its cases, each tree's child runs the ``simulate-long`` workload's op
at seed 1 (``simulate --format svg`` over 100 T at dt = T/1000, with the
trajectory CSV) once more under `tracemalloc`, so with warm caches, and the
traced peak of that op is printed per tree, in bytes and per integration
step, with the difference between the trees. tracemalloc counts every
numpy buffer, so this shows memory changes far below the resolution of a
process's peak RSS. It also counts the interpreter's own small objects,
and with the random name of the temporary directory, a tree's peak moves
by about 100 B from one run to the next (0.0 B per step).

Exit status: 0 when every file and exit code is the same, 1 when anything
differs, 2 when a tree could not be run. The traced peak is a report and
does not change the exit status. Compare two trees on one machine
only: numpy's ``sin``, ``cos`` and ``log`` may round differently on another
CPU or numpy version. Standard library only in this process.
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
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Fields that differ from run to run by design, by file name: a CSV column,
# or the last key of a JSON path.
EXCLUDED = {"report.jsonl": {"runtime_s"}, "report.csv": {"runtime_s"}}

CHILD = """
import contextlib, io, json, os, shutil, sys, tracemalloc
import workloads
from inertonsim import cli

root = sys.argv[1]
el_config = root + ".el.json"  # beside root, so that only outputs are compared
with open(el_config, "w") as fh:
    json.dump({"outputs": {"el_residuals": True}}, fh)
cases = []
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
argv, expect = workloads.make_op("simulate-long", 1, sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    tracemalloc.start()
    cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
shutil.rmtree(sys.argv[2])
print(json.dumps([codes, peak, sum(case["n_steps"] for case in expect["cases"])]))
"""


def run_cases(tree: pathlib.Path, out: pathlib.Path) -> tuple[dict[str, list], int, int]:
    """Run the case matrix on the tree at ``tree``, writing under ``out``;
    returns each case's exit code and last stderr line, then the traced
    peak in bytes and the step count of the ``simulate-long`` op, which runs
    in ``peak`` beside ``out``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "bench")]),
           "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(out), str(out.parent / "peak")], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cases on {tree} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


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
    around those numbers by the same key and `` text``."""
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


def compare(before: pathlib.Path, now: pathlib.Path) -> tuple[str, list[str]]:
    """``(verdict, detail lines)`` for one file present on both sides."""
    if before.read_bytes() == now.read_bytes():
        return "identical", []
    excluded = EXCLUDED.get(now.name, set())
    stats = {}  # key -> [values, moved, changed, max rel, max ulp]
    for pair in itertools.zip_longest(fields(before), fields(now)):
        if None in pair or pair[0][0] != pair[1][0]:
            return "differs", ["    the files differ in shape: fields do not pair up"]
        (key, a), (_, b) = pair
        if key.rsplit(".", 1)[-1] in excluded:
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
    lines = []
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
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        tree, outs = tmp / "tree", {label: tmp / "out-before", "now": tmp / "out-now"}
        try:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", ns.against],
                                     check=True, capture_output=True).stdout
            tree.mkdir()
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True, capture_output=True)
            runs = {label: run_cases(tree, outs[label]), "now": run_cases(ROOT, outs["now"])}
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
    print(f"\n{'traced peak of one simulate-long op':<36} {'bytes':>12} {'steps':>9} {'B per step':>11}")
    for side, (_, peak, steps) in runs.items():
        print(f"{side:<36} {peak:>12,} {steps:>9} {peak / steps:>11.1f}")
    delta = runs["now"][1] - runs[label][1]
    print(f"{'delta':<36} {delta:>+12,} {'':>9} {delta / steps:>+11.1f}")
    print(f"\n{len(names)} files, {len(codes['now'])} cases; {differs} files or exit codes differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
