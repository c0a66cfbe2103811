"""Rules on the program's source, read with `ast`.

- No ``x ** 2``: a float power calls libm's ``pow``, whose bits may differ
  from the product ``x * x`` that the program uses for every square.
- No ``.w`` outside ``dynamics.py``: ``w`` is how a run is stored, and
  every other module reads a run through ``len(traj)``, `Trajectory.rows`
  and `Trajectory.columns`, so a change of that layout stays in one module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "inertonsim"


def violations(source: str, name: str) -> list[str]:
    """The lines of ``source``, the text of module ``name``, that break a rule."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            power = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(power, ast.Constant) and power.value == 2:
                found.append((node.lineno, "a square as ** 2"))
        if isinstance(node, ast.Attribute) and node.attr == "w" and name != "dynamics.py":
            found.append((node.lineno, "reads .w outside dynamics"))
    return [f"{name}:{line}: {rule}" for line, rule in sorted(found)]


def test_the_rules_catch_each_violation():
    source = "a = x ** 2\nb = y ** 2.0\nc = x ** 3\nd = traj.w\nz **= 2\n"
    assert violations(source, "plotting.py") == [
        "plotting.py:1: a square as ** 2",
        "plotting.py:2: a square as ** 2",
        "plotting.py:4: reads .w outside dynamics",
        "plotting.py:5: a square as ** 2",
    ]
    assert violations("d = traj.w\n", "dynamics.py") == []


def test_program_source_keeps_the_rules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [line for path in paths for line in violations(path.read_text(), path.name)] == []
