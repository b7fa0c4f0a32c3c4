"""Count the code lines of each module under src/semicycles/ and their total.

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that is the first statement of a module, class or
function). Blank lines, comment lines and docstring lines do not count; a
statement that spans several lines counts each line it spans that holds a
token, a multi-line string that is not a docstring every line it covers.

Run from the repository root:

    python3 scripts/code_lines.py
    python3 scripts/code_lines.py path/to/module.py ...
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "semicycles"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of every docstring's first token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    starts = _docstring_starts(ast.parse(source))
    lines = set()
    in_docstring = False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start in starts:
            in_docstring = True
        if in_docstring:
            # a docstring is one expression statement: strings, implicitly
            # joined, up to its NEWLINE
            in_docstring = tok.type != tokenize.NEWLINE
            continue
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="modules to count (default: src/semicycles/*.py)")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(_SRC.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
