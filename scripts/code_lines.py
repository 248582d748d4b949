#!/usr/bin/env python3
"""Count the code lines of the package source: not blank, comment or docstring.

    python3 scripts/code_lines.py [PATH ...]

With no path it counts ``src/manetopt`` of this checkout; a directory counts
every ``*.py`` file under it.  A line counts when it holds a token other than
a comment or a line break and is not part of a docstring, taken to be any
statement that is a lone string.  Prints one line per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def count_code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    paths = [Path(a) for a in (sys.argv[1:] if argv is None else argv)]
    files = []
    for path in paths or [ROOT / "src" / "manetopt"]:
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = count_code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main()
