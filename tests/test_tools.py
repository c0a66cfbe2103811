import importlib.util
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "tools", "src_lines.py")


def _git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def _rows(root, *args):
    proc = subprocess.run([sys.executable, SCRIPT, str(root), *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.split()[0]: [int(v) for v in line.split()[1:]] for line in proc.stdout.splitlines()[2:]}


def test_src_lines_against_a_revision(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text('"""Doc."""\n\nx = 1  # trailing\n')
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    clean = _rows(src, "--against", "HEAD")
    # lines, code, docstring, comment, blank, options
    assert clean["a.py"] == [3, 3, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]
    assert clean["total"] == clean["a.py"]
    (src / "a.py").write_text('"""Doc."""\n\nx = 1  # trailing\n# note\ny = 2\n')
    (src / "b.py").write_text("z = 3\n")
    rows = _rows(src, "--against", "HEAD")
    assert rows["a.py"] == [3, 5, 2, 1, 2, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]
    assert rows["b.py"] == [0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert rows["total"] == [3, 6, 3, 1, 3, 2, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]


def test_src_lines_counts_options(tmp_path):
    # an option is a parameter with a default: positional, keyword-only or
    # of a lambda; a keyword-only parameter without one is not. A field with
    # a default of a dataclass is one too, whatever form the decorator takes;
    # an unannotated class attribute, or one of a plain class, is not
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("def f(a, b=1, *, c=2, d):\n    return lambda x=0: x\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    proc = subprocess.run([sys.executable, SCRIPT, str(src)], capture_output=True, text=True, check=True)
    header, row, total = proc.stdout.splitlines()
    assert header.split()[-1] == "options"
    assert row.split() == ["a.py", "2", "2", "0", "0", "0", "3"] and total.split()[1:] == row.split()[1:]
    # --options names each of them, in its function's scope
    proc = subprocess.run([sys.executable, SCRIPT, str(src), "--options"], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["a.py:1 f(b)", "a.py:1 f(c)", "a.py:2 f.<lambda>(x)"]
    (src / "a.py").write_text("def f(a, b, *, c=2, d):\n    return a\n")
    (src / "b.py").write_text("def g(y=None):\n    return y\n")
    (src / "c.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 1\n    c = 2\n\n\n"
        "@dataclasses.dataclass\nclass Q:\n    d: float = 0.0\n\n\n"
        "@dataclass\nclass S:\n    f: tuple = ()\n\n\n"
        "class R:\n    e: int = 3\n"
    )
    rows = _rows(src, "--against", "HEAD")
    assert rows["a.py"][-3:] == [3, 1, -2]
    assert rows["b.py"][-3:] == [0, 1, 1]
    assert rows["c.py"][-3:] == [0, 3, 3]
    assert rows["total"][-3:] == [3, 5, 2]
    proc = subprocess.run([sys.executable, SCRIPT, str(src), "--options"], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["a.py:1 f(c)", "b.py:1 g(y)", "c.py:8 P.b", "c.py:14 Q.d", "c.py:19 S.f"]


def _committed_copy(root):
    """A git repository at ``root`` holding a committed copy of `src/`,
    ``bench/workloads.py`` and ``tools/out_diff.py``."""
    shutil.copytree(os.path.join(REPO, "src", "inertonsim"), root / "src" / "inertonsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for part in ("bench/workloads.py", "tools/out_diff.py"):
        (root / part).parent.mkdir(exist_ok=True)
        shutil.copy(os.path.join(REPO, part), root / part)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "one")


def _out_diff(root):
    proc = subprocess.run([sys.executable, str(root / "tools" / "out_diff.py"), "--against", "HEAD"],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    codes, files = proc.stdout.split("\n\nfile")
    files, peaks = files.split("\n\n")[:2]
    return proc.returncode, codes.splitlines()[1:], files.splitlines()[1:], peaks.splitlines()[1:]


def test_out_diff_identical_trees(tmp_path):
    _committed_copy(tmp_path)
    returncode, codes, files, peaks = _out_diff(tmp_path)
    assert returncode == 0
    # 3 presets x 7 commands, the off-grid and fine-grid panels and 3 workloads x 3 seeds, each exiting 0 on
    # both sides
    assert len(codes) == 32 and all(line.split()[1:] == ["0", "0"] for line in codes)
    verdicts = {line.split()[0]: line.split(None, 1)[1] for line in files}
    assert len(verdicts) > 100
    for name, verdict in verdicts.items():
        # check timings differ from run to run, though at %.3f they may not
        timed = name.endswith(("report.csv", "report.jsonl"))
        assert verdict in (("identical", "identical outside runtime_s") if timed else ("identical",)), name
    # both sides run the same op of each workload: the 100,000-step simulate-long op, whose state w
    # alone is 16 B per step, the four sweep-coarse runs of 200 T at T/125 to T/250, and check-all,
    # whose steps the workload does not state; and the natural preset's 10,000-step simulate-el case;
    # the bytes of a delta may read a few hundred off 0 (interpreter objects alive at the peak in some
    # runs), far below any block-sized buffer
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in peaks}
    steps = {"simulate-long": 100_000, "sweep-coarse": 200 * (125 + 160 + 200 + 250), "check-all": None,
             "natural.simulate-el": 10_000}
    assert list(rows) == [(workload, side) for workload in steps for side in ("HEAD", "now", "delta")]
    for workload, n_steps in steps.items():
        for side in ("HEAD", "now"):
            peak, shown, per_step = rows[workload, side]
            peak = int(peak.replace(",", ""))
            if n_steps is None:
                assert (shown, per_step) == ("-", "-")
            else:
                assert int(shown) == n_steps and round(peak / n_steps, 1) == float(per_step)
            if workload == "simulate-long":
                assert 16.0 < float(per_step) <= 34.0
        delta = rows[workload, "delta"]
        assert abs(int(delta[0].replace(",", ""))) < 1024, workload
        assert (delta[1] == "-") if n_steps is None else (float(delta[1]) == 0.0)


def test_out_diff_reports_a_value_moved_by_one_ulp(tmp_path):
    _committed_copy(tmp_path)
    core = tmp_path / "src" / "inertonsim" / "core.py"
    text = core.read_text()
    drift = "v0 * (1.0 - 2.0 / math.pi)"
    assert text.count(drift) == 1
    core.write_text(text.replace(drift, f"np.nextafter({drift}, math.inf)"))
    returncode, codes, files, _ = _out_diff(tmp_path)
    assert returncode == 1
    assert all(line.split()[1:] == ["0", "0"] for line in codes)
    moved = {}
    for line in files:
        if line.startswith("    "):
            moved[name].append(line.strip())
        else:
            name, verdict = line.split(None, 1)
            if not verdict.startswith("identical"):
                assert verdict == "differs", line
                moved[name] = []
    # only mean_drift moved, in the derive command's two files
    for preset in ("natural", "electron-1e6", "electron-atomic"):
        assert re.fullmatch(r"value: 1 of \d+ values moved, max rel [0-9.e-]+, max 1 ulp",
                            *moved.pop(f"{preset}.derive/derived.csv"))
        assert re.fullmatch(r"kinematics\.mean_drift: 1 of 1 values moved, max rel [0-9.e-]+, max 1 ulp",
                            *moved.pop(f"{preset}.derive/derived.json"))
    assert moved == {}


def _out_diff_module():
    spec = importlib.util.spec_from_file_location("out_diff", os.path.join(REPO, "tools", "out_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_diff_reports_polyline_points_as_one_field(tmp_path):
    compare = _out_diff_module().compare
    svg = '<svg width="760"><polyline points="{}" stroke="#1a6fb5"/><text x="12.50">t</text></svg>\n'
    before, longer, moved, framed = (tmp_path / f"{name}.svg" for name in ("before", "longer", "moved", "framed"))
    before.write_text(svg.format("0.00,1.00 2.50,3.00 4.00,5.00"))
    longer.write_text(svg.format("0.00,1.00 2.50,3.00 4.00,5.00 6.00,7.00"))
    moved.write_text(svg.format("0.00,1.00 2.50,3.25 4.00,5.00"))
    framed.write_text(svg.format("0.00,1.00 2.50,3.00 4.00,5.00").replace('width="760"', 'width="761"'))
    # a polyline whose length changed pairs up with the old one, and the rest of the file is compared
    assert compare(before, longer) == ("differs", ["    polyline[0] points: 3 -> 4 points"])
    assert compare(before, moved) == (
        "differs", ["    polyline[0] points: 3 points on both sides, largest coordinate movement 0.25"])
    verdict, lines = compare(before, framed)
    assert verdict == "differs" and len(lines) == 1
    assert re.fullmatch(r"    svg\[0\]: 1 of 1 values moved, max rel [0-9.e-]+, max \d+ ulp", lines[0])
