"""The documentation set must not contain broken intra-repo links.

Runs the same checker the CI docs job uses (``tools/check_docs_links.py``),
so a dangling ``docs/*.md`` or ``README.md`` link, or a module path naming
no file, fails the tier-1 suite locally before it fails the workflow.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER_PATH = REPO_ROOT / "tools" / "check_docs_links.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs_links", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs_links", module)
    spec.loader.exec_module(module)
    return module


def test_documentation_set_exists():
    checker = _load_checker()
    files = {p.name for p in checker.documentation_files(REPO_ROOT)}
    assert {"README.md", "index.md", "architecture.md", "scenarios.md",
            "cli.md", "api.md"} <= files


def test_no_broken_intra_repo_links():
    checker = _load_checker()
    assert checker.broken_links(REPO_ROOT) == []


def test_checker_flags_a_dangling_link(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "page.md").write_text(
        "ok [real](../README.md), bad [gone](missing.md), "
        "skip [ext](https://example.com) and [anchor](#here)\n"
        "```\n[not a link in code](also-missing.md)\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("root\n", encoding="utf-8")
    checker = _load_checker()
    problems = checker.broken_links(tmp_path)
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_no_stale_module_paths():
    checker = _load_checker()
    assert checker.stale_module_paths(REPO_ROOT) == []


def test_checker_flags_a_stale_module_path(tmp_path):
    for module in ("src/pkg/api/session.py", "src/pkg/optim/pareto.py",
                   "tests/test_cli.py", "notes/draft.py"):
        (tmp_path / module).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / module).write_text("", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "see `session.py`, `optim/pareto.py:10-12`, `pkg/api/session.py` "
        "and `tests/test_*.py`; gone: `seq_space.py`, `api/pareto.py`\n",
        encoding="utf-8",
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "page.md").write_text(
        "outside the code trees: `draft.py`, "
        "and `python tests/test_cli.py` is a command\n"
        "```\n`fenced.py`\n```\n",
        encoding="utf-8",
    )
    checker = _load_checker()
    assert checker.broken_links(tmp_path) == []
    assert checker.stale_module_paths(tmp_path) == [
        "README.md:1: stale module path -> seq_space.py",
        "README.md:1: stale module path -> api/pareto.py",
        "docs/page.md:1: stale module path -> draft.py",
    ]
