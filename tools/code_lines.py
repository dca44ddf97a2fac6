"""Count the code lines of Python files: lines that hold a token other than a comment or a docstring.

Usage, from the repository root::

    python tools/code_lines.py                       # src/fdilsim/*.py
    python tools/code_lines.py FILE [FILE ...]

A line counts if some token on it, or spanning it, is neither a comment nor
part of a module, class or function docstring.  Blank lines, comment lines
and docstring lines do not count; every line of any other string does, as
do decorators.  One line is printed per file, ``<count>  <path>``, then
``<total>  total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The ``(line, column)`` at which each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = docstring_starts(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "fdilsim").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count}  {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
