"""The search profiler (``tools/profile_search.py``) refuses stale buckets.

It attributes time by source-path fragments; a fragment naming a file that
no longer exists would attribute nothing and raise nothing, so the tool
checks every fragment against ``src/repro`` before it profiles.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PROFILER_PATH = Path(__file__).resolve().parent.parent / "tools" / "profile_search.py"


@pytest.fixture(scope="module")
def profiler():
    spec = importlib.util.spec_from_file_location("profile_search", PROFILER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("profile_search", module)
    spec.loader.exec_module(module)
    return module


def test_every_bucket_fragment_names_a_source_file(profiler):
    assert profiler.stale_fragments() == []


def test_a_stale_fragment_exits_non_zero_naming_it(profiler, monkeypatch, capsys):
    monkeypatch.setitem(profiler.BUCKETS, "removed module", ("optim/kernels.py",))
    assert profiler.main([]) == 2
    assert "'optim/kernels.py'" in capsys.readouterr().err
