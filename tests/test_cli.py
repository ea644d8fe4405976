"""The ``repro`` command line: list / run / campaign / report."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.reporting import summarize_campaign
from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchOutcome, SearchRequest, load_outcome
from repro.api.scenario import SCENARIOS, Scenario
from repro.api.session import run_search
from repro.campaign import CampaignPolicy, CampaignSpec, RunStore
from repro.cli import main

#: Tiny-budget flags shared by every command that runs a search.
FAST_FLAGS = [
    "--num-initial", "4",
    "--num-iterations", "2",
    "--pool-size", "16",
    "--predictor-samples", "40",
]

GRID_FLAGS = [
    "--scenario", "wifi-3mbps/jetson-tx2-gpu",
    "--scenario", "lte-3mbps/jetson-tx2-gpu",
    "--scenario", "3g-3mbps/jetson-tx2-cpu",
    "--strategy", "lens",
    "--strategy", "random",
]


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "usage: repro" in out
    assert "campaign" in out


def test_list_shows_registries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "wifi-3mbps/jetson-tx2-gpu" in out
    assert "strategies: lens, random, traditional" in out
    assert "search spaces: lens-vgg, resnet-v1, seq-conv1d" in out
    assert "devices:" in out and "acquisitions:" in out


def test_run_prints_summary_and_persists(tmp_path, capsys):
    out_file = tmp_path / "outcome.json"
    store_dir = tmp_path / "store"
    code = main(["run", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                 "--strategy", "random", "--seed", "0",
                 "--out", str(out_file), "--store", str(store_dir), *FAST_FLAGS])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario:    wifi-3mbps/jetson-tx2-gpu" in out
    assert "fingerprint:" in out
    assert "lowest energy" in out

    outcome = load_outcome(out_file)
    assert len(outcome) == 6
    store = RunStore(store_dir)
    assert len(store) == 1

    # the same run again is detected as already stored
    assert main(["run", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                 "--strategy", "random", "--seed", "0",
                 "--store", str(store_dir), *FAST_FLAGS]) == 0
    assert "already present" in capsys.readouterr().out
    assert len(RunStore(store_dir)) == 1


def test_run_from_request_file(tmp_path, capsys):
    request_file = tmp_path / "request.json"
    request_file.write_text(json.dumps({
        "scenario": "lte-3mbps/jetson-tx2-gpu", "strategy": "random",
        "num_initial": 4, "num_iterations": 2, "candidate_pool_size": 16,
        "predictor_samples_per_type": 40, "seed": 1,
    }), encoding="utf-8")
    assert main(["run", "--request", str(request_file)]) == 0
    assert "lte-3mbps/jetson-tx2-gpu" in capsys.readouterr().out


def test_run_flags_override_request_file(tmp_path, capsys):
    request_file = tmp_path / "request.json"
    request_file.write_text(json.dumps({
        "scenario": "lte-3mbps/jetson-tx2-gpu", "strategy": "random",
        "num_initial": 4, "num_iterations": 2, "candidate_pool_size": 16,
        "predictor_samples_per_type": 40, "seed": 1,
    }), encoding="utf-8")
    out_file = tmp_path / "outcome.json"
    assert main(["run", "--request", str(request_file),
                 "--seed", "5", "--num-iterations", "3",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    outcome = load_outcome(out_file)
    assert outcome.request.seed == 5
    assert outcome.request.num_iterations == 3
    assert outcome.request.num_initial == 4          # untouched file field
    assert len(outcome) == 7                         # 4 + 3 evaluations ran


def test_run_unknown_scenario_suggests(capsys):
    assert main(["run", "--scenario", "wifi-3mbps/jetson-tx2-gp"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "wifi-3mbps/jetson-tx2-gpu" in err  # the spelling suggestion


def test_run_with_named_search_space(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert main(["run", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                 "--strategy", "random", "--search-space", "seq-conv1d",
                 "--store", str(store_dir), *FAST_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "space:       seq-conv1d" in out
    assert "seq-conv1d-" in out  # candidate names carry the space

    assert main(["list", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "seq-conv1d" in out


def test_run_unknown_search_space_suggests(capsys):
    assert main(["run", "--search-space", "resnet-v2", *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "unknown search space" in err
    assert "Did you mean 'resnet-v1'?" in err


def test_campaign_across_spaces_and_list(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert main(["campaign", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                 "--strategy", "random",
                 "--search-space", "lens-vgg",
                 "--search-space", "resnet-v1",
                 "--search-space", "seq-conv1d",
                 "--store", str(store_dir), *FAST_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "campaign done: 3 executed, 0 skipped, 3 cells" in out

    assert main(["list", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    for name in ("lens-vgg", "resnet-v1", "seq-conv1d"):
        assert name in out

    assert main(["report", "--store", str(store_dir)]) == 0
    assert "3 runs, metrics:" in capsys.readouterr().out


def test_campaign_unknown_search_space_fails_up_front(tmp_path, capsys):
    assert main(["campaign", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                 "--search-space", "resnet-v2",
                 "--store", str(tmp_path / "store"), *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "unknown search space" in err
    assert "resnet-v1" in err


def test_campaign_and_report_round_trip(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert main(["campaign", *GRID_FLAGS, *FAST_FLAGS,
                 "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "campaign done: 6 executed, 0 skipped, 6 cells" in out

    # re-running resumes: nothing executes
    assert main(["campaign", *GRID_FLAGS, *FAST_FLAGS,
                 "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "campaign done: 0 executed, 6 skipped, 6 cells" in out
    assert "(already stored)" in out

    assert main(["report", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "6 runs, metrics: error_percent / energy_j" in out
    assert "winners (largest combined-frontier share):" in out

    assert main(["report", "--store", str(store_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_runs"] == 6
    assert len(payload["winners"]) == 3


def test_campaign_from_spec_file_with_report_out(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "scenarios": ["wifi-3mbps/jetson-tx2-gpu"],
        "strategies": ["random"],
        "seeds": [0, 1],
        "num_initial": 4, "num_iterations": 2, "candidate_pool_size": 16,
        "predictor_samples_per_type": 40,
    }), encoding="utf-8")
    store_dir = tmp_path / "store"
    assert main(["campaign", "--spec", str(spec_file), "--store", str(store_dir),
                 "--quiet"]) == 0
    assert len(RunStore(store_dir)) == 2

    report_file = tmp_path / "report.md"
    assert main(["report", "--store", str(store_dir), "--format", "markdown",
                 "--out", str(report_file)]) == 0
    capsys.readouterr()
    assert "# Campaign report" in report_file.read_text(encoding="utf-8")


def test_campaign_without_grid_is_a_usage_error(tmp_path, capsys):
    assert main(["campaign", "--store", str(tmp_path / "store")]) == 2
    assert "--spec FILE or at least one --scenario" in capsys.readouterr().err


def test_report_on_empty_store_fails(tmp_path, capsys):
    assert main(["report", "--store", str(tmp_path / "empty")]) == 1
    assert "holds no runs" in capsys.readouterr().err


def test_report_identical_after_resume(tmp_path, capsys):
    """Acceptance: a resumed store reports exactly like a fresh full run."""
    full_dir = tmp_path / "full"
    assert main(["campaign", *GRID_FLAGS, *FAST_FLAGS, "--store", str(full_dir),
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", "--store", str(full_dir)]) == 0
    full_report = capsys.readouterr().out

    # pre-seed a second store with half the runs, then resume the campaign
    full = RunStore(full_dir)
    partial_dir = tmp_path / "partial"
    partial = RunStore(partial_dir)
    for fingerprint in sorted(full.fingerprints())[:3]:
        partial.append(full.get(fingerprint), fingerprint=fingerprint)
    assert main(["campaign", *GRID_FLAGS, *FAST_FLAGS, "--store", str(partial_dir),
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", "--store", str(partial_dir)]) == 0
    assert capsys.readouterr().out == full_report


SMALL_GRID = [
    "--scenario", "wifi-3mbps/jetson-tx2-gpu",
    "--strategy", "random",
    "--seed", "0",
    "--seed", "1",
]


def test_list_shows_executors(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "campaign executors: process-pool, pull-worker, serial" in out
    # there is no asyncio executor and no run-cell command
    for argv in (
        ["campaign", *SMALL_GRID, "--store", str(tmp_path / "store"),
         "--executor", "asyncio"],
        ["run-cell"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    assert not (tmp_path / "store").exists()


def test_campaign_sharded_store_and_list(tmp_path, capsys):
    store_dir = tmp_path / "sharded"
    assert main(["campaign", *SMALL_GRID, *FAST_FLAGS,
                 "--store", str(store_dir), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "campaign done: 2 executed" in out
    assert (store_dir / "shards").is_dir()
    assert main(["list", "--store", str(store_dir)]) == 0
    assert "2 runs in 1 shards" in capsys.readouterr().out


def test_campaign_pull_worker_executor(tmp_path, capsys):
    store_dir = tmp_path / "pull"
    assert main(["campaign", *SMALL_GRID, *FAST_FLAGS,
                 "--store", str(store_dir),
                 "--executor", "pull-worker", "--workers", "2",
                 "--ttl", "10", "--poll", "0.2", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "campaign done: 2 executed" in out
    assert (store_dir / "shards").is_dir()
    assert (store_dir / "manifest.json").exists()
    assert main(["report", "--store", str(store_dir)]) == 0


def test_run_and_pull_worker_campaign_share_one_store(tmp_path, capsys):
    """``repro run`` and a pull-worker campaign write one store, in either
    order, and every reader sees both outcomes."""
    run_args = ["run", "--scenario", "lte-3mbps/jetson-tx2-gpu",
                "--strategy", "random", "--seed", "5", *FAST_FLAGS]
    campaign_args = ["campaign", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                     "--strategy", "random", "--seed", "0", *FAST_FLAGS,
                     "--executor", "pull-worker", "--workers", "1",
                     "--ttl", "10", "--poll", "0.2", "--quiet"]
    fast = dict(num_initial=4, num_iterations=2, candidate_pool_size=16,
                predictor_samples_per_type=40, strategy="random")
    expected = {
        SearchRequest(scenario="lte-3mbps/jetson-tx2-gpu", seed=5,
                      **fast).fingerprint(): ("lte-3mbps/jetson-tx2-gpu", [5]),
        SearchRequest(scenario="wifi-3mbps/jetson-tx2-gpu", seed=0,
                      **fast).fingerprint(): ("wifi-3mbps/jetson-tx2-gpu", [0]),
    }
    for name, order in (("campaign-first", (campaign_args, run_args)),
                        ("run-first", (run_args, campaign_args))):
        store_dir = str(tmp_path / name)
        for args in order:
            assert main([*args, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["list", "--store", store_dir]) == 0
        listed = capsys.readouterr().out
        for fingerprint in expected:
            assert fingerprint in listed
        assert main(["report", "--store", store_dir, "--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert sorted((c["scenario"], c["seeds"]) for c in cells) == sorted(
            expected.values()
        )


def test_skipped_records_are_reported_on_stderr(tmp_path, capsys):
    """A record the scan skips is never served and never silent: one stderr
    line points at fsck, and stdout is what the repaired store prints."""
    store_dir = tmp_path / "store"
    assert main(["campaign", *SMALL_GRID, *FAST_FLAGS,
                 "--store", str(store_dir), "--quiet"]) == 0
    shard = next((store_dir / "shards").glob("*.jsonl"))
    data = shard.read_bytes()
    digit = re.search(rb'"crc32": ?(\d+)', data).end(1) - 1
    flipped = b"1" if data[digit:digit + 1] != b"1" else b"2"
    shard.write_bytes(data[:digit] + flipped + data[digit + 1:])
    capsys.readouterr()

    damaged = {}
    for command in ("report", "list"):
        assert main([command, "--store", str(store_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "0 corrupt line(s)" in captured.err
        assert "1 checksum mismatch(es)" in captured.err
        assert f"repro store fsck --store {store_dir} --repair" in captured.err
        damaged[command] = captured.out

    assert main(["store", "fsck", "--store", str(store_dir), "--repair"]) == 0
    capsys.readouterr()
    for command in ("report", "list"):
        assert main([command, "--store", str(store_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == damaged[command]


def test_worker_command_drains_a_manifest(tmp_path, capsys):
    from repro.campaign import CampaignSpec
    from repro.campaign.manifest import CampaignManifest
    from repro.campaign.supervisor import CampaignPolicy

    store_dir = tmp_path / "shared"
    RunStore(store_dir)
    spec = CampaignSpec(
        scenarios=("wifi-3mbps/jetson-tx2-gpu",),
        strategies=("random",),
        seeds=(0,),
        num_initial=4, num_iterations=2, candidate_pool_size=16,
        predictor_samples_per_type=40,
    )
    CampaignManifest.from_requests(
        spec.requests(), policy=CampaignPolicy(ttl_s=10.0, poll_s=0.1)
    ).write(store_dir)
    assert main(["worker", "--store", str(store_dir), "--worker-id", "w0"]) == 0
    captured = capsys.readouterr()
    assert "worker w0 done: 1 executed" in captured.out
    assert len(RunStore(store_dir)) == 1


def test_worker_without_manifest_fails(tmp_path, capsys):
    assert main(["worker", "--store", str(tmp_path / "nowhere")]) == 2
    assert "manifest" in capsys.readouterr().err


def test_store_compact_export_merge(tmp_path, capsys):
    store_dir = tmp_path / "sharded"
    assert main(["campaign", *SMALL_GRID, *FAST_FLAGS,
                 "--store", str(store_dir), "--quiet"]) == 0
    capsys.readouterr()

    assert main(["store", "compact", "--store", str(store_dir)]) == 0
    assert "2 records kept" in capsys.readouterr().out

    export_file = tmp_path / "metrics.json"
    assert main(["store", "export", "--store", str(store_dir),
                 "--out", str(export_file)]) == 0
    payload = json.loads(export_file.read_text(encoding="utf-8"))
    assert payload["num_groups"] == 2
    assert all(group["latency_s"] for group in payload["groups"])

    merged_dir = tmp_path / "merged"
    assert main(["store", "merge", str(store_dir),
                 "--into", str(merged_dir)]) == 0
    assert "merged 2 record(s)" in capsys.readouterr().out
    # idempotent: a second merge copies nothing
    assert main(["store", "merge", str(store_dir),
                 "--into", str(merged_dir)]) == 0
    assert "merged 0 record(s)" in capsys.readouterr().out


def test_store_compact_rewrites_a_legacy_store(tmp_path, capsys):
    store_dir = tmp_path / "legacy"
    store_dir.mkdir()
    runs = store_dir / "runs.jsonl"
    record = (Path(__file__).parent / "data" / "legacy_store"
              / "runs.jsonl").read_bytes().splitlines(keepends=True)[0]
    runs.write_bytes(record + record + b'{"fingerprint": "torn')
    assert main(["store", "compact", "--store", str(store_dir)]) == 0
    assert "1 records kept, 1 superseded" in capsys.readouterr().out
    assert runs.read_bytes() == record


def test_store_without_operation_is_a_usage_error(capsys):
    assert main(["store"]) == 2
    assert "compact, export, merge or fsck" in capsys.readouterr().err


def _progress_lines(out: str, total: int):
    """``{k: what}`` of the ``[k/total] <fingerprint>  <what>`` lines."""
    lines = re.findall(rf"^\[(\d+)/{total}\] \S+  (.*)$", out, flags=re.MULTILINE)
    assert len(lines) == len({int(k) for k, _ in lines}), "a [k/N] line repeats"
    return {int(k): what for k, what in lines}


def test_campaign_on_error_continue_reports_failures(tmp_path, capsys):
    # a registered scenario on a device no registry knows passes validate()
    # and fails inside its cell (E_REGISTRY, not retryable)
    ghost = SCENARIOS.add(Scenario(name="ghost/nowhere", device="ghost-device"))
    store_dir = tmp_path / "store"
    args = ["campaign", *SMALL_GRID, "--scenario", ghost.name, *FAST_FLAGS,
            "--store", str(store_dir), "--on-error", "continue"]
    try:
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "campaign done: 2 executed" in out
        assert "failed cells: 2" in out
        assert f"'repro campaign --store {store_dir} --retry-dead'" in out
        # every cell gets its [k/N] line, a failed one with its error code
        lines = _progress_lines(out, 4)
        assert sorted(lines) == [1, 2, 3, 4]
        failed = [what for what in lines.values() if what.startswith("failed: ")]
        assert len(failed) == 2
        assert all(what.startswith("failed: E_REGISTRY ") for what in failed)
        # the failed cells have failed for good: a plain re-run reports them
        # failed again without running them
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "failed cells: 2" in out
        lines = _progress_lines(out, 4)
        assert sorted(lines) == [1, 2, 3, 4]
        assert sum(what.endswith("(already stored)") for what in lines.values()) == 2
        assert sum(
            what.startswith("failed: E_REGISTRY ") for what in lines.values()
        ) == 2
        assert len(RunStore(store_dir).audit_records()) == 2
    finally:
        SCENARIOS.unregister(ghost.name)


def test_report_lists_retired_health_codes(tmp_path, capsys):
    """An outcome stored with the retired checkpoint/resume health codes
    loads, is counted in the summary and is listed by ``repro report``."""
    store_dir = tmp_path / "store"
    assert main(["run", "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                 "--strategy", "random", "--seed", "0",
                 "--out", str(tmp_path / "outcome.json"), *FAST_FLAGS]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "outcome.json").read_text())
    payload["health"] = {"H_RESUMED": 1, "H_CHECKPOINT_SAVED": 3}
    outcome = SearchOutcome.from_dict(payload)
    assert outcome.health == {"H_CHECKPOINT_SAVED": 3, "H_RESUMED": 1}
    RunStore(store_dir).append(outcome)

    stored = list(RunStore(store_dir).outcomes())
    assert stored[0].health == {"H_CHECKPOINT_SAVED": 3, "H_RESUMED": 1}
    assert summarize_campaign(stored).health == {
        "H_CHECKPOINT_SAVED": 3, "H_RESUMED": 1,
    }
    assert main(["report", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    for code, count in (("H_CHECKPOINT_SAVED", 3), ("H_RESUMED", 1)):
        row = rf"^{code}\s+\|\s+{count}\s+\|\s+\(unknown code\)$"
        assert re.search(row, out, re.MULTILINE), out


@pytest.mark.parametrize(
    "command, retired",
    [
        ("run", ["--checkpoint-dir", "ck"]),
        ("run", ["--checkpoint-every", "5"]),
        ("run", ["--fresh"]),
        ("campaign", ["--checkpoint-every", "5"]),
    ],
    ids=["run-checkpoint-dir", "run-checkpoint-every", "run-fresh",
         "campaign-checkpoint-every"],
)
def test_retired_checkpoint_flags_are_usage_errors(tmp_path, capsys, command, retired):
    """A killed search is re-run from its request, so no command takes a
    checkpoint flag any more (nor an abbreviation of a surviving one)."""
    grid = SMALL_GRID
    if command == "run":
        grid = ["--scenario", "wifi-3mbps/jetson-tx2-gpu"]
    store_dir = tmp_path / "store"
    with pytest.raises(SystemExit) as excinfo:
        main([command, *grid, *retired, "--store", str(store_dir), *FAST_FLAGS])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(retired)}" in capsys.readouterr().err
    assert not store_dir.exists()


#: Every flag that sets a dataclass field, by command: flag -> (dataclass,
#: field).  ``repro campaign --scenario`` sets a field without a default.
BUDGET_FLAG_FIELDS = {
    "--num-initial": "num_initial",
    "--num-iterations": "num_iterations",
    "--pool-size": "candidate_pool_size",
    "--acquisition": "acquisition",
    "--batch-size": "batch_size",
    "--predictor-samples": "predictor_samples_per_type",
}
FIELD_FLAGS = {
    "run": {
        "--scenario": (SearchRequest, "scenario"),
        "--strategy": (SearchRequest, "strategy"),
        "--search-space": (SearchRequest, "search_space"),
        "--seed": (SearchRequest, "seed"),
        **{flag: (SearchRequest, name) for flag, name in BUDGET_FLAG_FIELDS.items()},
    },
    "campaign": {
        "--search-space": (CampaignSpec, "search_spaces"),
        "--strategy": (CampaignSpec, "strategies"),
        "--seed": (CampaignSpec, "seeds"),
        **{flag: (CampaignSpec, name) for flag, name in BUDGET_FLAG_FIELDS.items()},
        "--on-error": (CampaignPolicy, "on_error"),
        "--ttl": (CampaignPolicy, "ttl_s"),
        "--poll": (CampaignPolicy, "poll_s"),
        "--max-attempts": (CampaignPolicy, "max_attempts"),
        "--backoff": (CampaignPolicy, "backoff_base_s"),
        "--max-backoff": (CampaignPolicy, "max_backoff_s"),
        "--cell-timeout": (CampaignPolicy, "cell_timeout_s"),
        "--circuit-threshold": (CampaignPolicy, "circuit_threshold"),
        "--circuit-window": (CampaignPolicy, "circuit_window"),
        "--circuit-cooldown": (CampaignPolicy, "circuit_cooldown_s"),
        "--circuit-probes": (CampaignPolicy, "circuit_probes"),
    },
}


def _printed_defaults(command, capsys, monkeypatch):
    """``flag -> text`` of each ``(default: text)`` that ``--help`` prints."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    printed = {}
    for entry in re.split(r"\n(?=  -)", capsys.readouterr().out):
        match = re.match(r"(--[\w-]+).*?\(default: ([^)]*)\)", " ".join(entry.split()))
        if match:
            printed[match.group(1)] = match.group(2)
    return printed


def _read_back(text, default):
    """A printed default as a value of the dataclass default's type."""
    if isinstance(default, tuple):
        return tuple(_read_back(item, default[0]) for item in text.split(", "))
    return type(default)(text)


@pytest.mark.parametrize("command", sorted(FIELD_FLAGS))
def test_help_prints_the_default_of_the_field_each_flag_sets(
    command, capsys, monkeypatch
):
    printed = _printed_defaults(command, capsys, monkeypatch)
    for flag, (dataclass, name) in FIELD_FLAGS[command].items():
        default = {f.name: f.default for f in dataclasses.fields(dataclass)}[name]
        assert _read_back(printed[flag], default) == default, flag


def test_absent_flags_build_the_dataclass_defaults(tmp_path, monkeypatch):
    """``repro run`` and ``repro campaign`` pass only the flags given."""
    captured = {}

    def fake_run_search(request):
        captured["request"] = request
        raise RuntimeError("stop")

    def fake_run_campaign(spec, store, **kwargs):
        captured.update(spec=spec, policy=kwargs["policy"])
        raise RuntimeError("stop")

    monkeypatch.setattr("repro.cli.run_search", fake_run_search)
    monkeypatch.setattr("repro.cli.run_campaign", fake_run_campaign)
    assert main(["run"]) == 3
    assert captured["request"] == SearchRequest()
    scenario = "wifi-3mbps/jetson-tx2-gpu"
    assert main(["campaign", "--scenario", scenario,
                 "--store", str(tmp_path / "store")]) == 3
    assert captured["spec"] == CampaignSpec(scenarios=(scenario,))
    assert captured["policy"] == CampaignPolicy()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--num-initial", "0"], "num_initial must be positive"),
        (["--pool-size", "0"], "candidate_pool_size must be positive"),
        (["--predictor-samples", "5"], "predictor_samples_per_type must be >= 10"),
        (["--cell-timeout", "inf"], "cell_timeout_s must be a finite number"),
        (["--on-error", "explode"], "on_error must be 'fail' or 'continue'"),
    ],
    ids=["num-initial", "pool-size", "predictor-samples", "cell-timeout", "on-error"],
)
def test_campaign_rejects_bad_settings_before_writing_a_manifest(
    tmp_path, capsys, flags, message
):
    """``--cell-timeout inf`` used to write a manifest holding ``Infinity``
    and fail every cell with an ``OverflowError`` (exit 3)."""
    store_dir = tmp_path / "store"
    assert main(["campaign", *SMALL_GRID, "--store", str(store_dir), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not store_dir.exists()


def test_run_request_file_with_an_unknown_key_is_a_usage_error(tmp_path, capsys):
    """A typo'd key used to be dropped, running the default search instead."""
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"num_initals": 30, "sead": 7}), encoding="utf-8")
    assert main(["run", "--request", str(path)]) == 2
    assert ("unknown search request fields ['num_initals', 'sead']"
            in capsys.readouterr().err)


def _repro(args, **env):
    """``python -m repro <args>`` in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_sigkilled_run_is_recovered_by_running_it_again(tmp_path):
    """``repro run`` killed mid-search leaves nothing behind; the same
    command again stores the outcome an uninterrupted run produces."""
    out_file = tmp_path / "outcome.json"
    store_dir = tmp_path / "store"
    args = ["run", "--scenario", "wifi-3mbps/jetson-tx2-gpu", "--strategy", "lens",
            "--seed", "3", "--num-initial", "3", "--num-iterations", "4",
            "--pool-size", "16", "--predictor-samples", "40",
            "--out", str(out_file), "--store", str(store_dir)]
    killed = _repro(args, REPRO_FAULT_KILL_AT_EVAL="5")
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert not out_file.exists()
    assert len(RunStore(store_dir)) == 0

    rerun = _repro(args)
    assert rerun.returncode == 0, rerun.stderr
    golden = run_search(
        strategy="lens", scenario="wifi-3mbps/jetson-tx2-gpu", seed=3,
        num_initial=3, num_iterations=4, candidate_pool_size=16,
        predictor_samples_per_type=40, engine=EvaluationEngine(),
    )

    def comparable(outcome):
        data = outcome.to_dict()
        for key in ("wall_time_s", "engine_stats", "health"):
            data.pop(key)
        return data

    assert comparable(load_outcome(out_file)) == comparable(golden)
    stored = list(RunStore(store_dir).outcomes())
    assert [comparable(outcome) for outcome in stored] == [comparable(golden)]
