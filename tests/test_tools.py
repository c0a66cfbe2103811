import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "src_lines.py")


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
