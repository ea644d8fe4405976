#!/usr/bin/env python
"""Count the code lines of a Python source tree.

A line counts when it holds a token other than a comment and is not part
of a bare string-literal statement (a docstring, or any other string
expression standing alone as a statement).  Blank lines, comment-only
lines and docstrings therefore do not count; every line of a multi-line
expression does, including the continuation lines of a string literal
used inside an expression.

Run from the repository root::

    python tools/count_code_lines.py          # counts src/
    python tools/count_code_lines.py src tools

It prints one total over every ``*.py`` file under the given paths.  The
CI docs job prints it, and each change reports the ``src/`` count it
leaves behind.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tokens that never make a line count on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

#: Tokens a string literal is made of (3.12+ splits f-strings into parts).
_STRING_PARTS = {tokenize.STRING} | {
    getattr(tokenize, name)
    for name in ("FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END")
    if hasattr(tokenize, name)
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    counted: Set[int] = set()
    statement: List[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # One logical line ends; a bare string-literal statement is
            # documentation, everything else is code.
            if not all(t.type in _STRING_PARTS for t in statement):
                for t in statement:
                    counted.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(counted)


def python_files(paths: Iterable[Path]) -> List[Path]:
    """Every ``*.py`` file under ``paths`` (files are taken as given)."""
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def count_tree(paths: Iterable[Path]) -> int:
    """Total code lines over every Python file under ``paths``."""
    return sum(
        code_lines(path.read_text(encoding="utf-8")) for path in python_files(paths)
    )


def main(argv: List[str]) -> int:
    paths = [Path(arg) for arg in argv] or [REPO_ROOT / "src"]
    print(count_tree(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
