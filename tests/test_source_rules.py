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
- Every option of ``src/`` that ``tools/src_lines.py --options`` lists (a
  parameter with a default, or a ``@dataclass`` field with a default) is
  both omitted by one program call and passed, by position or keyword, by
  another; the program is ``src/``, ``demos/`` and ``bench/``, without
  their ``test_*.py`` files. An option with one live value is a constant,
  and one that only the tests vary is code that no command, check, demo or
  benchmark runs. A call is matched by name alone: ``obj.f(...)`` to a
  method ``f``, ``f(...)`` and ``module.f(...)`` to a function ``f`` (so
  ``_text.rows`` and ``Trajectory.rows`` stay apart), and ``C(...)`` to the
  constructor of a dataclass ``C``. A call with ``*args`` or ``**kwargs``
  counts for neither side, and a function that the program only passes as
  a value has no call to count.
"""

import ast
import importlib.util
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
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
SRC_LINES = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(SRC_LINES)


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


def options(source: str) -> list[tuple[int, str, tuple[str, str], int | None, str]]:
    """Each option of ``source``, in the order and with the label of
    `SRC_LINES.options`, as ``(line, label, callee, position, parameter)``:
    ``callee`` is ``("method", name)`` for a function in a class body, else
    ``("function", name)``, a dataclass's as its constructor; ``position`` is
    the parameter's index among those a call passes by position (a method's
    first one is bound), None for a keyword-only one."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                visit(child, scope, in_class)
                continue
            name = getattr(child, "name", "<lambda>")
            if isinstance(child, ast.ClassDef):
                if SRC_LINES.is_dataclass(child):
                    fields = [stmt for stmt in child.body if isinstance(stmt, ast.AnnAssign)]
                    found.extend((field.lineno, f"{scope}{name}.{field.target.id}", ("function", name), i,
                                  field.target.id) for i, field in enumerate(fields) if field.value is not None)
            else:
                a = child.args
                positional, bound = a.posonlyargs + a.args, 1 if in_class else 0
                callee = ("method" if in_class else "function", name)
                found.extend((arg.lineno, f"{scope}{name}({arg.arg})", callee, i - bound, arg.arg)
                             for i, arg in enumerate(positional) if i >= len(positional) - len(a.defaults))
                found.extend((arg.lineno, f"{scope}{name}({arg.arg})", callee, None, arg.arg)
                             for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)
            visit(child, f"{scope}{name}.", isinstance(child, ast.ClassDef))

    visit(ast.parse(source), "", False)
    return sorted(found, key=lambda option: option[0])


def calls(source: str, modules: set[str]) -> list[tuple[tuple[str, str], int, set[str]]]:
    """Each call of ``source`` that names its callee, as ``(callee, number
    of positional arguments, keyword names)``: ``obj.f(...)`` calls
    ``("method", "f")``, while ``f(...)`` and ``m.f(...)``, for ``m`` a
    module (bound by ``import``, or one of ``modules`` imported by ``from``),
    call ``("function", "f")``. A call with ``*args`` or ``**kwargs`` is
    left out."""
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            aliases.update(alias.asname or alias.name for alias in node.names if alias.name in modules)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(keyword.arg is None for keyword in node.keywords):
            continue
        if isinstance(node.func, ast.Name):
            callee = ("function", node.func.id)
        elif isinstance(node.func, ast.Attribute):
            module = isinstance(node.func.value, ast.Name) and node.func.value.id in aliases
            callee = ("function" if module else "method", node.func.attr)
        else:
            continue
        found.append((callee, len(node.args), {keyword.arg for keyword in node.keywords}))
    return found


def idle_options(sources: dict[str, str]) -> list[str]:
    """The options of ``sources`` under ``src/`` (the keys are paths
    relative to the repository) that the calls of the program's sources do
    not both omit and pass, each as ``path:line label: never called``,
    ``never passed`` or ``never omitted``."""
    modules = {Path(path).stem for path in sources}
    made = [call for path, source in sources.items() if not Path(path).name.startswith("test_")
            for call in calls(source, modules)]
    found = []
    for path, source in sources.items():
        if not path.startswith("src/"):
            continue
        for line, label, callee, position, parameter in options(source):
            passed = [position is not None and position < n or parameter in keywords
                      for to, n, keywords in made if to == callee]
            if not passed:
                found.append(f"{path}:{line} {label}: never called")
            elif all(passed):
                found.append(f"{path}:{line} {label}: never omitted")
            elif not any(passed):
                found.append(f"{path}:{line} {label}: never passed")
    return found


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
    sources = {
        "src/pkg/a.py": (
            "from dataclasses import dataclass\n"
            "def rows(x, passed=1, omitted=2, both=3, *, key=4):\n    return x\n"
            "class T:\n    def rows(self, x, names=()):\n        return x\n"
            "    def value(self, y=0):\n        return y\n"
            "@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
            "spread = lambda z=1: z\n"
        ),
        # a method's call with names=, and a module function's call by module and by name; a **kwargs
        # call counts for neither side
        "src/pkg/b.py": (
            "from . import a\nfrom .a import T, rows\n"
            "a.rows(0, 5, both=6, key=7)\nrows(0, 5)\nT().rows(0, names=(1,))\nrows(0, **opts)\n"
            "a.D(1, 2)\nD(1)\nmap(T().value, [1])\n"
        ),
        # the tests' calls do not count
        "bench/test_w.py": "from pkg import a\na.rows(0, omitted=1)\nt.rows(0)\nt.value()\n",
    }
    assert idle_options(sources) == [
        "src/pkg/a.py:2 rows(passed): never omitted",
        "src/pkg/a.py:2 rows(omitted): never passed",
        "src/pkg/a.py:5 T.rows(names): never omitted",
        "src/pkg/a.py:7 T.value(y): never called",
        "src/pkg/a.py:13 <lambda>(z): never called",
    ]
    sources["src/pkg/b.py"] += "rows(0, 5, 6, key=8)\nT().rows(1)\n"
    assert idle_options(sources) == [
        "src/pkg/a.py:2 rows(passed): never omitted",
        "src/pkg/a.py:7 T.value(y): never called",
        "src/pkg/a.py:13 <lambda>(z): never called",
    ]


def test_program_source_keeps_the_rules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [line for path in paths for line in violations(path.read_text(), path.name)] == []


def program_sources() -> dict[str, str]:
    """The text of each ``.py`` file under ``src/``, ``demos/`` and
    ``bench/``, keyed by its path relative to the repository."""
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for folder in ("src", "demos", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def test_every_export_is_reached_outside_the_tests():
    sources = program_sources()
    assert len(sources) > 10
    names = unreached(inertonsim.__all__, sources)
    assert names == sorted(TEST_ONLY_EXPORTS), f"exported, but loaded only by tests: {names}"
    for name, (module, test) in TEST_ONLY_EXPORTS.items():
        tree = ast.parse((ROOT / "tests" / module).read_text())
        (definition,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == test]
        assert name in reached(ast.unparse(definition), package=True), (name, test)


def test_every_option_is_both_passed_and_omitted_by_the_program():
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        assert [option[:2] for option in options(source)] == SRC_LINES.options(ast.parse(source)), path.name
    assert idle_options(program_sources()) == []
