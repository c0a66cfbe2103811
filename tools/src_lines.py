"""Count the lines of ``src/`` by kind (code, docstring, comment and blank),
and its options.

    python tools/src_lines.py [ROOT] [--against REV | --options]

Standard library only. A docstring line is any line of a module, class or
function docstring (found with `ast`); a comment line holds nothing but a
comment (found with `tokenize`); a blank line is empty or whitespace, also
inside a docstring; every other line is code, including a line of code with
a trailing comment. An option is a parameter with a default, of a function
or a lambda, or a field with a default of a ``@dataclass`` (found with
`ast`). Prints one row per ``.py`` file under ROOT (default: ``src`` next to
this script's directory) and the total. With ``--against REV`` each count
is printed as the count of the files committed at git revision REV (read
with ``git show``), the current count and the difference; a file missing on
one side counts as zero lines and options there. With ``--options`` it
prints, in place of the table, one line per option of the current files, in
file and line order: ``file:line function(parameter)``, the function named
by its qualified name (``Class.method``, ``outer.<lambda>``), and a
dataclass field as ``file:line Class.field``.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
COLUMNS = ("lines", *KINDS, "options")


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated with ``dataclass``, called or not, bare
    or as ``dataclasses.dataclass``."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "attr", getattr(t, "id", None)) == "dataclass" for t in targets)


def options(node: ast.AST, scope: str = "") -> list[tuple[int, str]]:
    """``(line, name)`` of each option under ``node``, whose enclosing
    qualified name is ``scope``: a parameter with a default of a function or
    a lambda, as ``function(parameter)``, and a field with a default of a
    dataclass, as ``Class.field``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            name = scope + getattr(child, "name", "<lambda>")
            if isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    found += [(stmt.lineno, f"{name}.{stmt.target.id}") for stmt in child.body
                              if isinstance(stmt, ast.AnnAssign) and stmt.value is not None]
            else:
                a = child.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [(arg.lineno, f"{name}({arg.arg})") for arg in defaulted]
            found += options(child, name + ".")
        else:
            found += options(child, scope)
    return sorted(found, key=lambda option: option[0])  # stable: a line keeps its parameters' order


def count(source: str) -> dict[str, int]:
    """The `COLUMNS` of ``source``: its lines, by kind, and its options."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    comments, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["lines"] += 1
    counts["options"] = len(options(tree))
    return counts


def counts_at(root: pathlib.Path, rev: str) -> dict[str, dict[str, int]]:
    """The `COLUMNS` of each ``.py`` file under ``root`` as committed at ``rev``."""

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True, text=True).stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", ".").splitlines()  # relative to root
    return {name: count(git("show", f"{rev}:./{name}")) for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Count the lines of src/ by kind, and its options.")
    ap.add_argument("root", nargs="?", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent / "src")
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--against", metavar="REV", help="also print the counts at git revision REV and the difference")
    which.add_argument("--options", action="store_true", help="list each option as file:line function(parameter)")
    ns = ap.parse_args(argv)
    if ns.options:
        for path in sorted(ns.root.rglob("*.py")):
            for line, name in options(ast.parse(path.read_text())):
                print(f"{path.relative_to(ns.root).as_posix()}:{line} {name}")
        return 0
    now = {path.relative_to(ns.root).as_posix(): count(path.read_text()) for path in ns.root.rglob("*.py")}
    try:
        sides = [counts_at(ns.root, ns.against), now] if ns.against else [now]
    except subprocess.CalledProcessError as exc:
        print(f"src_lines: {' '.join(exc.cmd)} failed: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    names = sorted(set().union(*sides))
    empty = dict.fromkeys(COLUMNS, 0)
    # per file and side: the `COLUMNS`
    table = {name: [list(side.get(name, empty).values()) for side in sides] for name in names}
    table["total"] = [[sum(column) for column in zip(*(table[name][i] for name in names))] for i in range(len(sides))]
    if ns.against:
        print(f"{'':<40} " + " ".join(f"{k:^20}" for k in COLUMNS))
        print(f"{'file':<40} " + " ".join(f"{ns.against[:6]:>6} {'now':>6} {'delta':>6}" for _ in COLUMNS))
    else:
        print(f"{'file':<40} " + " ".join(f"{k:>9}" for k in COLUMNS))
    for name in (*names, "total"):
        if ns.against:
            cells = (f"{a:>6} {b:>6} {b - a:>+6}" for a, b in zip(*table[name]))
        else:
            cells = (f"{v:>9}" for v in table[name][0])
        print(f"{name:<40} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
