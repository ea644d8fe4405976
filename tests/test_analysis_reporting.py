"""Tests for the Markdown experiment-report builder and campaign aggregation."""

import numpy as np
import pytest

from repro.analysis.reporting import (
    ExperimentReport,
    _markdown_table,
    combined_front_shares,
    merged_results,
    summarize_campaign,
)
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.scenario import scenario_by_name
from repro.core.results import CandidateEvaluation, SearchResult
from repro.optim.pareto import FrontHistory, FrontHistoryEntry, compute_front_history
from repro.partition.deployment import DeploymentOption


def candidate(name, error, energy_mj, latency_ms=40.0):
    return CandidateEvaluation(
        genotype=(0,),
        architecture_name=name,
        error_percent=error,
        latency_s=latency_ms / 1e3,
        energy_j=energy_mj / 1e3,
        best_latency_option=DeploymentOption.all_edge(),
        best_energy_option=DeploymentOption.split_after(3, "pool3"),
        all_edge_latency_s=latency_ms / 1e3,
        all_edge_energy_j=energy_mj / 1e3,
    )


def test_markdown_table_shape_and_validation():
    table = _markdown_table(["a", "b"], [[1, 2.5], ["x", "y"]])
    lines = table.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert "2.500" in lines[2]
    with pytest.raises(ValueError):
        _markdown_table(["a", "b"], [[1]])


def outcome(scenario_name, strategy, candidates, seed=0, search_space="lens-vgg"):
    return SearchOutcome(
        request=SearchRequest(
            scenario=scenario_name, strategy=strategy, seed=seed,
            search_space=search_space,
        ),
        scenario=scenario_by_name(scenario_name),
        label=strategy,
        candidates=tuple(candidates),
        wall_time_s=1.0,
    )


@pytest.fixture
def campaign_outcomes():
    wifi, lte = "wifi-3mbps/jetson-tx2-gpu", "lte-3mbps/jetson-tx2-gpu"
    return [
        # wifi: lens dominates everywhere
        outcome(wifi, "lens", [candidate("a", 20.0, 200.0), candidate("b", 25.0, 150.0)]),
        outcome(wifi, "random", [candidate("r", 30.0, 400.0)]),
        # lte: both strategies own part of the combined frontier, random more
        outcome(lte, "lens", [candidate("c", 24.0, 300.0)]),
        outcome(lte, "random",
                [candidate("s", 20.0, 500.0), candidate("t", 28.0, 100.0)]),
        # second lens seed on lte pools into the same cell
        outcome(lte, "lens", [candidate("d", 26.0, 350.0)], seed=1),
    ]


def test_merged_results_pools_seeds_per_cell(campaign_outcomes):
    merged = merged_results(campaign_outcomes)
    assert sorted(merged) == [
        ("lte-3mbps/jetson-tx2-gpu", "lens-vgg"),
        ("wifi-3mbps/jetson-tx2-gpu", "lens-vgg"),
    ]
    lte = merged[("lte-3mbps/jetson-tx2-gpu", "lens-vgg")]
    assert len(lte["lens"]) == 2  # both seeds pooled
    assert lte["lens"].label == "lens"


def test_merged_results_keeps_search_spaces_apart():
    wifi = "wifi-3mbps/jetson-tx2-gpu"
    merged = merged_results([
        outcome(wifi, "lens", [candidate("a", 20.0, 200.0)]),
        outcome(wifi, "lens", [candidate("b", 25.0, 100.0)],
                search_space="seq-conv1d"),
    ])
    assert sorted(merged) == [(wifi, "lens-vgg"), (wifi, "seq-conv1d")]
    assert len(merged[(wifi, "lens-vgg")]["lens"]) == 1
    assert len(merged[(wifi, "seq-conv1d")]["lens"]) == 1


def test_combined_front_shares_partition_the_front():
    results = {
        "lens": SearchResult([candidate("a", 20.0, 200.0)], label="lens"),
        "random": SearchResult([candidate("r", 25.0, 100.0)], label="random"),
    }
    shares, front_size = combined_front_shares(results)
    assert front_size == 2  # neither dominates the other
    assert shares == {"lens": 0.5, "random": 0.5}


def test_summarize_campaign_cells_and_winners(campaign_outcomes):
    summary = summarize_campaign(campaign_outcomes)
    assert summary.num_runs == 5
    by_cell = {(c.scenario, c.strategy): c for c in summary.cells}
    lens_lte = by_cell[("lte-3mbps/jetson-tx2-gpu", "lens")]
    assert lens_lte.search_space == "lens-vgg"
    assert lens_lte.num_runs == 2
    assert lens_lte.seeds == (0, 1)
    assert lens_lte.num_candidates == 2
    assert lens_lte.best["error_percent"] == 24.0

    assert summary.winner_for("wifi-3mbps/jetson-tx2-gpu") == "lens"
    # lte combined front: random's extremes plus lens's c — random owns 2/3
    assert summary.winner_for("lte-3mbps/jetson-tx2-gpu") == "random"
    with pytest.raises(KeyError):
        summary.winner_for("3g-3mbps/jetson-tx2-gpu")


def test_summarize_campaign_never_pools_across_spaces():
    """Multi-space campaigns keep one Pareto front per (scenario, space);
    a workload whose candidates would dominate another's must not erase
    the other space's winner row."""
    wifi = "wifi-3mbps/jetson-tx2-gpu"
    summary = summarize_campaign([
        # lens-vgg cell: modest candidates
        outcome(wifi, "lens", [candidate("a", 25.0, 300.0)]),
        outcome(wifi, "random", [candidate("r", 30.0, 400.0)]),
        # seq-conv1d cell: numerically dominating candidates (cheap 1-D models)
        outcome(wifi, "random", [candidate("s", 10.0, 10.0)],
                search_space="seq-conv1d"),
    ])
    assert [(c.scenario, c.search_space, c.strategy) for c in summary.cells] == [
        (wifi, "lens-vgg", "lens"),
        (wifi, "lens-vgg", "random"),
        (wifi, "seq-conv1d", "random"),
    ]
    assert summary.winner_for(wifi, search_space="lens-vgg") == "lens"
    assert summary.winner_for(wifi, search_space="seq-conv1d") == "random"
    with pytest.raises(KeyError, match="several search spaces"):
        summary.winner_for(wifi)


def test_summarize_campaign_is_order_independent(campaign_outcomes):
    forward = summarize_campaign(campaign_outcomes).to_dict()
    backward = summarize_campaign(reversed(campaign_outcomes)).to_dict()
    assert forward == backward


def test_summarize_campaign_requires_metric_pair(campaign_outcomes):
    with pytest.raises(ValueError, match="exactly two metrics"):
        summarize_campaign(campaign_outcomes, metrics=("error_percent",))


def test_campaign_summary_section(campaign_outcomes):
    summary = summarize_campaign(campaign_outcomes)
    text = ExperimentReport().add_campaign_summary(summary).render_markdown()
    assert "Campaign summary" in text
    assert "**5** stored runs over **2** scenario/space contexts" in text
    assert "Winners (largest combined-frontier share)" in text
    assert "| wifi-3mbps/jetson-tx2-gpu | lens-vgg | lens |" in text


def test_campaign_summary_includes_hypervolume_table_when_recorded():
    wifi = "wifi-3mbps/jetson-tx2-gpu"
    with_history = outcome(wifi, "lens", [
        candidate("a", 20.0, 200.0), candidate("b", 25.0, 150.0)
    ])
    with_history.front_history = compute_front_history(
        np.array([[20.0, 0.2], [25.0, 0.15]]), ("error_percent", "energy_j")
    )
    summary = summarize_campaign([with_history])
    cell = summary.cells[0]
    assert cell.final_hypervolume == pytest.approx(
        with_history.front_history.final_hypervolume
    )
    assert cell.to_dict()["final_hypervolume"] == cell.final_hypervolume
    headers, rows = summary.hypervolume_table()
    assert headers[-1] == "mean final hypervolume"
    assert len(rows) == 1
    text = ExperimentReport().add_campaign_summary(summary).render_markdown()
    assert "Final hypervolume (per-run reference boxes)" in text


def test_tiny_final_hypervolumes_print_significant_digits(tmp_path, capsys):
    """Small-budget cells have volumes like 1.66e-9 in raw objective units;
    neither the CLI table nor the markdown table may print them as zero."""
    from repro.campaign import RunStore
    from repro.cli import main

    tiny = outcome("wifi-3mbps/jetson-tx2-gpu", "random", [candidate("a", 20.0, 200.0)])
    tiny.front_history = FrontHistory(
        metrics=("error_percent", "latency_s", "energy_j"),
        reference=(21.0, 0.05, 0.21),
        entries=(FrontHistoryEntry(0, 0, 1, 1.66e-9, True, "a"),),
    )
    summary = summarize_campaign([tiny])
    assert summary.hypervolume_table()[1][0][-1] == "1.66e-09"
    assert "| 1.66e-09 |" in ExperimentReport().add_campaign_summary(summary).render_markdown()

    RunStore(tmp_path).append(tiny)
    for report_format, row in (("table", "| 1.66e-09"), ("markdown", "| 1.66e-09 |")):
        assert main(["report", "--store", str(tmp_path), "--format", report_format]) == 0
        assert row in capsys.readouterr().out


def test_campaign_summary_omits_hypervolume_table_without_telemetry(
    campaign_outcomes,
):
    summary = summarize_campaign(campaign_outcomes)
    assert all(cell.final_hypervolume is None for cell in summary.cells)
    assert summary.hypervolume_table()[1] == []
    assert "final_hypervolume" not in summary.cells[0].to_dict()
    text = ExperimentReport().add_campaign_summary(summary).render_markdown()
    assert "Final hypervolume" not in text
