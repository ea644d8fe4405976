#!/usr/bin/env python
"""Fail on broken intra-repo links and stale module paths in the documentation set.

Scans ``README.md`` and every ``docs/**/*.md`` for Markdown links and image
references, resolves relative targets against the containing file, and exits
non-zero listing every target that does not exist.  External links
(``http(s)://``, ``mailto:``) and pure in-page anchors (``#section``) are
skipped; a ``path#fragment`` link is checked for the path only.

It also fails on a Python path in backticks, such as ``session.py``,
``optim/pareto.py`` or ``perfbench/tracer.py:56-58``, that names no file
under :data:`CODE_TREES`.  A path names a file when it equals the file's
trailing path components; ``*`` globs match as in :mod:`fnmatch`.  Text
inside code fences is skipped by both checks.

Run from anywhere::

    python tools/check_docs_links.py

Used by the CI docs job and by ``tests/test_docs_links.py``, so a broken
link fails both the docs workflow and the tier-1 suite.
"""

from __future__ import annotations

import re
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline Markdown links/images: [text](target) / ![alt](target).
_LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Link targets that are not filesystem paths.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")

#: Backticked Python paths, optionally with a ``:line`` or ``:start-end`` suffix.
_MODULE_PATH_PATTERN = re.compile(r"`([\w./*-]+\.py)(?::[\d-]+)?`")

#: Directories whose Python files the documentation may name.
CODE_TREES = ("src", "tests", "tools", "benchmarks", "examples", "perfbench")


def documentation_files(root: Path = REPO_ROOT) -> List[Path]:
    """Every Markdown file the checker covers."""
    files = sorted((root / "docs").rglob("*.md")) if (root / "docs").is_dir() else []
    readme = root / "README.md"
    if readme.exists():
        files.insert(0, readme)
    return files


def _prose_lines(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, line)`` for every line outside code fences."""
    in_code_fence = False
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if not in_code_fence:
            yield line_number, line


def iter_links(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, target)`` for every link in one file."""
    for line_number, line in _prose_lines(path):
        for match in _LINK_PATTERN.finditer(line):
            yield line_number, match.group(1)


def broken_links(root: Path = REPO_ROOT) -> List[str]:
    """``file:line: target`` for every intra-repo link that does not resolve."""
    problems: List[str] = []
    for path in documentation_files(root):
        for line_number, target in iter_links(path):
            if target.startswith(_EXTERNAL_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}:{line_number}: broken link "
                    f"-> {target}"
                )
    return problems


def stale_module_paths(root: Path = REPO_ROOT) -> List[str]:
    """``file:line: path`` for every backticked Python path naming no file."""
    files = [
        path.relative_to(root).parts
        for tree in CODE_TREES
        for path in (root / tree).rglob("*.py")
    ]
    problems: List[str] = []
    for doc in documentation_files(root):
        for line_number, line in _prose_lines(doc):
            for match in _MODULE_PATH_PATTERN.finditer(line):
                module = match.group(1)
                depth = module.count("/") + 1
                if not any(
                    fnmatchcase("/".join(parts[-depth:]), module) for parts in files
                ):
                    problems.append(
                        f"{doc.relative_to(root)}:{line_number}: stale module "
                        f"path -> {module}"
                    )
    return problems


def main() -> int:
    files = documentation_files()
    problems = broken_links() + stale_module_paths()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"{len(problems)} broken link(s) or stale module path(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"checked {len(files)} documentation files: all intra-repo links "
          "and module paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
