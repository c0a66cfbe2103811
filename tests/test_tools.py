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
    assert clean["a.py"] == [3, 3, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0]  # lines, code, docstring, comment, blank
    assert clean["total"] == clean["a.py"]
    (src / "a.py").write_text('"""Doc."""\n\nx = 1  # trailing\n# note\ny = 2\n')
    (src / "b.py").write_text("z = 3\n")
    rows = _rows(src, "--against", "HEAD")
    assert rows["a.py"] == [3, 5, 2, 1, 2, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0]
    assert rows["b.py"] == [0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert rows["total"] == [3, 6, 3, 1, 3, 2, 1, 1, 0, 0, 1, 1, 1, 1, 0]


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
    # 3 presets x 7 commands and 3 workloads x 3 seeds, each exiting 0 on both sides
    assert len(codes) == 30 and all(line.split()[1:] == ["0", "0"] for line in codes)
    verdicts = {line.split()[0]: line.split(None, 1)[1] for line in files}
    assert len(verdicts) > 100
    for name, verdict in verdicts.items():
        # check timings differ from run to run, though at %.3f they may not
        timed = name.endswith(("report.csv", "report.jsonl"))
        assert verdict in (("identical", "identical outside runtime_s") if timed else ("identical",)), name
    # both sides run the same 100,000-step simulate-long op, whose state w alone is 16 B per step;
    # the bytes of the delta may read about 100 B off 0, in the interpreter's small objects
    rows = {line.split()[0]: line.split()[1:] for line in peaks}
    assert list(rows) == ["HEAD", "now", "delta"]
    for name in ("HEAD", "now"):
        peak, steps, per_step = rows[name]
        assert int(steps) == 100_000
        assert round(int(peak.replace(",", "")) / 100_000, 1) == float(per_step)
        assert 16.0 < float(per_step) <= 34.0
    assert float(rows["delta"][1]) == 0.0


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
