"""Count the code lines of Python sources.

A code line is a line that holds at least one token other than a comment,
a line break or indentation, where the strings of a docstring (the first
statement of a module, class or function, if it is a string) do not count.
So blank lines, comment lines and docstring lines are left out; a line with
code and a trailing comment counts, as does each line of a multi-line
string that is not a docstring.

Usage: python3 scripts/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory searched for ``.py`` files.  One
line per file is printed, ``<count>  <path>``, then ``<total>  total`` when
more than one file was counted.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_rows(tree: ast.AST) -> list[tuple[int, int]]:
    """The first and last line of each docstring in ``tree``."""
    rows = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                rows.append((first.lineno, first.end_lineno))
    return rows


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_rows(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        first, last = token.start[0], token.end[0]
        # a docstring statement fills its lines, so any other token on them
        # (a one-line ``def f(): "doc"``) still counts its line
        if token.type == tokenize.STRING and any(
            top <= first and last <= bottom for top, bottom in docstrings
        ):
            continue
        lines.update(range(first, last + 1))
    return len(lines)


def _files(path: Path) -> list[Path]:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 scripts/code_lines.py PATH...", file=sys.stderr)
        return 2
    total, counted = 0, 0
    for path in map(Path, argv):
        for file in _files(path):
            count = code_lines(file.read_text(encoding="utf-8"))
            print(f"{count}  {file}")
            total += count
            counted += 1
    if counted > 1:
        print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
