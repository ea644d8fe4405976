"""Public names under ``src/repro`` must have a caller outside ``tests/``.

Runs ``tools/find_uncalled.py`` on the repository, so a function, class or
method that only its own tests call fails the tier-1 suite unless the
tool's allowlist keeps it with a reason.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FINDER_PATH = REPO_ROOT / "tools" / "find_uncalled.py"


def _load_finder():
    spec = importlib.util.spec_from_file_location("find_uncalled", FINDER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("find_uncalled", module)
    spec.loader.exec_module(module)
    return module


def _write_tree(root, files):
    for relative, text in files.items():
        (root / relative).parent.mkdir(parents=True, exist_ok=True)
        (root / relative).write_text(text, encoding="utf-8")


def test_every_caller_less_name_is_allowed_with_a_reason():
    finder = _load_finder()
    found = {name for name, _ in finder.uncalled(REPO_ROOT)}
    assert found == set(finder.ALLOWED)
    assert all(reason.strip() for reason in finder.ALLOWED.values())


def test_finder_flags_a_caller_less_function(tmp_path):
    files = {
        "src/repro/__init__.py": "from repro.mod import unused, used\n",
        "src/repro/mod.py": (
            "def used():\n    return helper()\n\n\n"
            "def unused():\n    '''Named in strings: used, unused.'''\n\n\n"
            "def _private():\n    pass\n\n\n"
            "def helper():\n    pass\n\n\n"
            "class Box:\n"
            "    def open(self):\n        return self.size\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "tools/run.py": (
            "from repro.mod import Box, used  # unused\n\n"
            "used()\nprint(f'{Box().open()}', 'unused')\n"
        ),
        "tests/test_mod.py": "from repro.mod import unused\n\nunused()\n",
    }
    _write_tree(tmp_path, files)
    finder = _load_finder()
    assert finder.uncalled(tmp_path) == [("repro.mod.unused", "src/repro/mod.py:5")]


def test_finder_flags_a_method_only_tests_call(tmp_path):
    """Methods count on their own, and code in an ``__init__.py`` is a caller."""
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": (
                "from repro.wheel import Wheel, build\n\nDEFAULT = build()\n"
            ),
            "src/repro/wheel.py": (
                "class Wheel:\n"
                "    def roll(self):\n        return 1\n\n"
                "    def spin(self):\n        return 2\n\n\n"
                "def build():\n    return Wheel().roll()\n"
            ),
            "tests/test_wheel.py": "from repro import DEFAULT\n\nDEFAULT.spin()\n",
        },
    )
    finder = _load_finder()
    assert finder.uncalled(tmp_path) == [
        ("repro.wheel.Wheel.spin", "src/repro/wheel.py:5")
    ]


def test_the_tool_exits_zero_on_the_repository(tmp_path):
    """``python tools/find_uncalled.py`` passes, run from any directory."""
    completed = subprocess.run(
        [sys.executable, str(FINDER_PATH)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert f"apart from {len(_load_finder().ALLOWED)} allowed ones" in completed.stdout


def test_an_unallowed_name_exits_one_naming_it(monkeypatch, capsys):
    finder = _load_finder()
    found = [(name, "src/repro/x.py:1") for name in finder.ALLOWED]
    found.append(("repro.x.forgotten", "src/repro/x.py:9"))
    monkeypatch.setattr(finder, "uncalled", lambda: found)
    assert finder.main() == 1
    err = capsys.readouterr().err
    assert "src/repro/x.py:9: repro.x.forgotten has no caller outside tests/" in err
    assert "1 problem(s)" in err


def test_a_stale_allowed_name_exits_one_naming_it(monkeypatch, capsys):
    """An allowlist entry whose name is used again or gone fails the check."""
    finder = _load_finder()
    found = [(name, "src/repro/x.py:1") for name in finder.ALLOWED]
    monkeypatch.setattr(finder, "uncalled", lambda: found)
    monkeypatch.setitem(finder.ALLOWED, "repro.x.gone", "kept for a removed test")
    assert finder.main() == 1
    assert "ALLOWED lists repro.x.gone, which is now used or gone" in (
        capsys.readouterr().err
    )

