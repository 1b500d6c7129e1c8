"""Size of each module of src/exactmath: code lines, physical lines and
branches.

A code line holds at least one token that is not a comment, and is not part
of a docstring; blank lines do not count.  Branches are `if` statements
(an `elif` is one) plus conditional expressions.  Standard library only:

    python tools/loc.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exactmath"
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(source: str) -> tuple[int, int, int]:
    """(code lines, physical lines, branches) of one module's source."""
    tree = ast.parse(source)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(tree)
    branches = sum(isinstance(node, (ast.If, ast.IfExp)) for node in ast.walk(tree))
    return len(code), len(source.splitlines()), branches


def main(argv) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.stem, *measure(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    print(f"{'module':<12} {'code':>6} {'lines':>6} {'ifs':>5}")
    for name, code, physical, branches in rows:
        print(f"{name:<12} {code:>6} {physical:>6} {branches:>5}")


if __name__ == "__main__":
    main(sys.argv[1:])
