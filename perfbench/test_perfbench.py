"""Tests of the benchmark itself, at tiny budgets: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((HERE / "rationale.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_rationale_covers_every_workload_and_per_layer_metric():
    assert sorted(RATIONALE["workloads"]) == sorted(WORKLOADS)
    assert sorted(RATIONALE["per_layer"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_outcome_with_an_altered_objective_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    spec = workloads.WORKLOADS["search-vgg-ts"](3, workloads.SMOKE, tmp_path)
    spec.setup()
    outcome = spec.run_unit(None)
    assert spec.inspect(outcome)["failures"] == []
    first = outcome.candidates[0]
    altered = dataclasses.replace(first, energy_j=first.energy_j * (1 + 1e-6))
    tampered = dataclasses.replace(outcome, candidates=(altered, *outcome.candidates[1:]))
    report = spec.inspect(tampered)
    assert report["failures"] and report["digest"] != spec.inspect(outcome)["digest"]


def test_hypervolume_of_known_fronts():
    import workloads

    box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert workloads.hypervolume(np.array([[0.5, 0.5, 0.5]]), *box) == pytest.approx(0.125)
    two = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.9, 0.9, 0.9]])
    assert workloads.hypervolume(two, *box) == pytest.approx(0.375)
    assert workloads.hypervolume(np.array([[1.5, 0.1, 0.1]]), *box) == 0.0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    out = _run("--workload", "serve-fleet", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_a_missing_entry_point_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tracer

    gone = ("nn.gone", "repro.core.evaluation", "PartitionAwareEvaluator.no_such_method", None)
    monkeypatch.setattr(tracer, "ENTRY_POINTS", (gone,))
    monkeypatch.setattr(tracer, "DECODE_METHODS", ())
    traced = tracer.Tracer(tmp_path, "test").install()
    assert traced.missing == [
        "nn.gone: repro.core.evaluation.PartitionAwareEvaluator.no_such_method"
    ]
