"""Count the lines of ``src/`` by kind: code, docstring, comment and blank.

    python tools/src_lines.py [ROOT]

Standard library only. A docstring line is any line of a module, class or
function docstring (found with `ast`); a comment line holds nothing but a
comment (found with `tokenize`); a blank line is empty or whitespace, also
inside a docstring; every other line is code, including a line of code with
a trailing comment. Prints one row per ``.py`` file under ROOT
(default: ``src`` next to this script's directory) and the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


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


def count(source: str) -> dict[str, int]:
    """Lines of ``source`` by kind."""
    docs = docstring_lines(ast.parse(source))
    comments, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
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
    return counts


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parent.parent / "src"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        name = path.relative_to(root).as_posix()
        print(f"{name:<40} {sum(counts.values()):>6} " + " ".join(f"{counts[k]:>9}" for k in KINDS))
    print(f"{'total':<40} {sum(total.values()):>6} " + " ".join(f"{total[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
