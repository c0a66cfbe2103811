"""Rules on the program's source, read with `ast`.

- No ``x ** 2``: a float power calls libm's ``pow``, whose bits may differ
  from the product ``x * x`` that the program uses for every square.
- No ``.w`` outside ``dynamics.py``: ``w`` is how a run is stored, and
  every other module reads a run through ``len(traj)``, `Trajectory.rows`
  and `Trajectory.columns`, so a change of that layout stays in one module.
- ``_text.py`` imports only ``__future__``, ``functools`` and ``numpy``:
  the text kernels are numpy and the standard library alone, with no
  thread, no compiled extension and no other module of the package.
- ``_text.py`` calls neither ``np.moveaxis`` nor ``np.flatnonzero``:
  each is a Python-level wrapper that costs a chunk of the CSV writer
  several times what its view (``.T``, a row-major table) or its ndarray
  method (``.ravel().nonzero()[0]``) does.
- Every name of ``inertonsim.__all__`` is loaded somewhere in ``src/``
  (outside its own definition and ``__all__``), ``demos/`` or ``bench/``:
  a public name that only the tests reach is code that no command, check,
  demo or benchmark runs. `TEST_ONLY_EXPORTS` names the exceptions.
"""

import ast
from pathlib import Path

import inertonsim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "inertonsim"
# The only modules `_text.py` may import.
TEXT_IMPORTS = {"__future__", "functools", "numpy"}
# numpy's Python-level wrappers that `_text.py` may not call.
TEXT_WRAPPERS = {"moveaxis", "flatnonzero"}
# Exported names that only a test reaches, each with the test module and the
# test that loads it: `shortened_action` is the reference of the cyclic action.
TEST_ONLY_EXPORTS = {
    "shortened_action": ("test_action.py", "test_shortened_action_quarter_cycle_matches_cyclic_action"),
}


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
        if name == "_text.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = ["." * node.level + (node.module or "")]
            found += [(node.lineno, f"_text imports {m}") for m in modules if m.split(".")[0] not in TEXT_IMPORTS]
        if name == "_text.py" and isinstance(node, ast.Attribute) and node.attr in TEXT_WRAPPERS:
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append((node.lineno, f"_text calls np.{node.attr}"))
    return [f"{name}:{line}: {rule}" for line, rule in sorted(found)]


def reached(source: str, package: bool) -> set[str]:
    """The names that ``source`` loads, outside a definition of the same
    name: every attribute, and every bare name if ``package`` (the source is
    a module of the package), else only the names it imports from the
    package, by the name they are exported under."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "inertonsim"
        for alias in node.names
    }
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id if package else imported.get(node.id)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def unreached(exported, sources: dict[str, str]) -> list[str]:
    """The names of ``exported`` that none of ``sources`` reaches; the keys
    are paths relative to the repository, those under ``src/`` the package's."""
    found = set().union(*(reached(source, path.startswith("src/")) for path, source in sources.items()))
    return sorted(set(exported) - found)


def test_the_rules_catch_each_violation():
    source = "a = x ** 2\nb = y ** 2.0\nc = x ** 3\nd = traj.w\nz **= 2\n"
    assert violations(source, "plotting.py") == [
        "plotting.py:1: a square as ** 2",
        "plotting.py:2: a square as ** 2",
        "plotting.py:4: reads .w outside dynamics",
        "plotting.py:5: a square as ** 2",
    ]
    assert violations("d = traj.w\n", "dynamics.py") == []
    source = (
        "from __future__ import annotations\nimport math\nfrom . import core\nimport numpy, threading\n"
        "import functools\nh, l = np.moveaxis(t, -1, 0)\ni = numpy.flatnonzero(~ok)\nj = x.flatnonzero\n"
        "k = (~ok).ravel().nonzero()[0]\n"
    )
    assert violations(source, "_text.py") == [
        "_text.py:2: _text imports math",
        "_text.py:3: _text imports .",
        "_text.py:4: _text imports threading",
        "_text.py:6: _text calls np.moveaxis",
        "_text.py:7: _text calls np.flatnonzero",
    ]
    assert violations(source, "plotting.py") == []
    sources = {
        # defined, exported and loaded only inside its own definition
        "src/inertonsim/a.py": '__all__ = ["f", "g", "h"]\ndef f(n):\n    return f(n - 1)\ndef g():\n    return 1\n',
        # g reached in the package; h only as an attribute of the package
        "src/inertonsim/b.py": "from .a import g, h\nx = g()\n",
        "demos/d.py": "import inertonsim\ninertonsim.h()\n",
        # a bench's own f is not the package's, and a name imported and never loaded is not reached
        "bench/w.py": "from inertonsim import k as kk\ndef f():\n    return 0\nf()\n",
    }
    assert unreached(["f", "g", "h", "k"], sources) == ["f", "k"]
    sources["bench/w.py"] += "kk()\n"
    assert unreached(["f", "g", "h", "k"], sources) == ["f"]


def test_program_source_keeps_the_rules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [line for path in paths for line in violations(path.read_text(), path.name)] == []


def test_every_export_is_reached_outside_the_tests():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for folder in ("src", "demos", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    assert len(sources) > 10
    names = unreached(inertonsim.__all__, sources)
    assert names == sorted(TEST_ONLY_EXPORTS), f"exported, but loaded only by tests: {names}"
    for name, (module, test) in TEST_ONLY_EXPORTS.items():
        tree = ast.parse((ROOT / "tests" / module).read_text())
        (definition,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == test]
        assert name in reached(ast.unparse(definition), package=True), (name, test)
