"""The code-line counter (``tools/count_code_lines.py``) counts what it says.

Every change reports the ``src/`` code-line count it leaves behind, so the
counting rule is pinned here on a small snippet: docstrings, comments and
blank lines do not count; every line of a multi-line expression does.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
COUNTER_PATH = REPO_ROOT / "tools" / "count_code_lines.py"


def _load_counter():
    spec = importlib.util.spec_from_file_location("count_code_lines", COUNTER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("count_code_lines", module)
    spec.loader.exec_module(module)
    return module


SNIPPET = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import os  # a trailing comment keeps the line


    # A comment-only line.
    def join(parts):
        """Function docstring."""
        return os.path.join(
            *parts,
            "leaf",
        )
    '''
)


def test_snippet_counts_only_code_lines():
    counter = _load_counter()
    # import, def, and the four lines of the multi-line return expression.
    assert counter.code_lines(SNIPPET) == 6


def test_string_inside_an_expression_counts_every_line():
    counter = _load_counter()
    source = 'TEXT = """first\nsecond\n"""\n"""A bare string statement."""\n'
    assert counter.code_lines(source) == 3


def test_tree_total_sums_every_file(tmp_path):
    counter = _load_counter()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SNIPPET, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n", encoding="utf-8")
    (package / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert counter.count_tree([package]) == 7
