"""The chaos drills remove their temporary workspace only when they pass.

``tools/search_chaos.py``, ``tools/campaign_chaos.py`` and
``tools/distributed_smoke.py`` each work in a ``tempfile.mkdtemp``
directory.  A passing run deletes it; a failing run keeps it and prints
its path, so the evidence survives.  The drills themselves run in CI; these
tests replace them with stubs and check only the workspace handling.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: Tool module -> the drill functions its ``main`` runs.
DRILLS = {
    "search_chaos": ("_drill",),
    "distributed_smoke": ("_drill",),
    "campaign_chaos": (
        "drill_deadline_and_dead_letter",
        "drill_store_integrity",
        "drill_circuit_breaker",
        "drill_healthy_parity",
    ),
}


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


def _run_with_stub_drills(name, code, monkeypatch, tmp_path):
    """Run the tool's ``main`` with drills that leave a file and return ``code``."""
    tool = _load_tool(name)
    workspaces = []

    def drill(base=None):
        base = Path(base)
        (base / "evidence.txt").write_text("drill output", encoding="utf-8")
        workspaces.append(base)
        return code

    for attribute in DRILLS[name]:
        monkeypatch.setattr(tool, attribute, drill)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    returned = tool.main()
    assert workspaces and {w.parent for w in workspaces} == {tmp_path}
    return returned, workspaces[0]


@pytest.mark.parametrize("name", sorted(DRILLS))
def test_a_passing_drill_removes_its_workspace(name, monkeypatch, tmp_path, capsys):
    returned, workspace = _run_with_stub_drills(name, 0, monkeypatch, tmp_path)
    assert returned == 0
    assert not workspace.exists()
    assert list(tmp_path.iterdir()) == []
    assert "workspace kept" not in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(DRILLS))
def test_a_failing_drill_keeps_its_workspace_and_names_it(
    name, monkeypatch, tmp_path, capsys
):
    returned, workspace = _run_with_stub_drills(name, 3, monkeypatch, tmp_path)
    assert returned == 3
    assert (workspace / "evidence.txt").read_text(encoding="utf-8") == "drill output"
    assert f"workspace kept for inspection: {workspace}" in capsys.readouterr().err
