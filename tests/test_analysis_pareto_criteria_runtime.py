"""Tests for Pareto comparisons (Fig. 6), criteria counting (Fig. 7) and runtime studies (Fig. 8)."""

import json

import numpy as np
import pytest

from repro.analysis.criteria import (
    Criterion,
    compare_criteria,
    paper_criteria,
)
from repro.analysis.pareto_metrics import compare_fronts, frontier_extremes
from repro.analysis.runtime_eval import run_runtime_study, select_runtime_options
from repro.core.results import CandidateEvaluation, SearchResult
from repro.core.runtime import DynamicDeploymentController, ThresholdAnalysis
from repro.partition.deployment import DeploymentOption
from repro.partition.partitioner import PartitionAnalyzer
from repro.utils.serialization import to_jsonable
from repro.wireless.traces import generate_lte_trace


def candidate(name, error, energy_mj, latency_ms=50.0):
    return CandidateEvaluation(
        genotype=(0,),
        architecture_name=name,
        error_percent=error,
        latency_s=latency_ms / 1e3,
        energy_j=energy_mj / 1e3,
        best_latency_option=DeploymentOption.all_edge(),
        best_energy_option=DeploymentOption.all_edge(),
        all_edge_latency_s=latency_ms / 1e3,
        all_edge_energy_j=energy_mj / 1e3,
    )


@pytest.fixture
def lens_like_result():
    return SearchResult(
        [
            candidate("l1", 30.0, 120.0),
            candidate("l2", 24.0, 180.0),
            candidate("l3", 20.0, 260.0),
            candidate("l4", 35.0, 400.0),
        ],
        label="lens",
    )


@pytest.fixture
def traditional_like_result():
    return SearchResult(
        [
            candidate("t1", 28.0, 220.0),
            candidate("t2", 22.0, 300.0),
            candidate("t3", 19.0, 500.0),
            candidate("t4", 40.0, 600.0),
        ],
        label="traditional",
    )


class TestFrontComparison:
    def test_dominance_and_composition_fractions(self, lens_like_result, traditional_like_result):
        comparison = compare_fronts(lens_like_result, traditional_like_result)
        # LENS candidates dominate t1 (28,220) and t2 (22,300) but not t3 (19,500).
        assert comparison.a_dominates_b_fraction == pytest.approx(2 / 3)
        assert comparison.b_dominates_a_fraction == 0.0
        assert comparison.combined_fraction_a == pytest.approx(3 / 4)
        assert comparison.combined_fraction_b == pytest.approx(1 / 4)
        assert comparison.a_front_size == 3
        assert comparison.b_front_size == 3
        assert comparison.hypervolume_a > comparison.hypervolume_b

    def test_comparison_on_latency_metric_pair(self, lens_like_result, traditional_like_result):
        comparison = compare_fronts(
            lens_like_result, traditional_like_result, ("error_percent", "latency_s")
        )
        assert comparison.metrics == ("error_percent", "latency_s")
        assert 0.0 <= comparison.a_dominates_b_fraction <= 1.0

    def test_frontier_extremes(self, lens_like_result):
        extremes = frontier_extremes(lens_like_result)
        assert extremes["error_percent"] == 20.0
        assert extremes["energy_j"] == pytest.approx(0.120)

    def test_empty_result_extremes_are_nan(self):
        empty = SearchResult([], label="empty")
        extremes = frontier_extremes(empty)
        assert np.isnan(extremes["error_percent"])

    def test_to_dict(self, lens_like_result, traditional_like_result):
        data = compare_fronts(lens_like_result, traditional_like_result).to_dict()
        assert data["a_label"] == "lens"
        assert data["b_label"] == "traditional"


class TestCriteria:
    def test_paper_criteria_catalogue(self):
        criteria = paper_criteria()
        assert len(criteria) == 5
        assert criteria[0].label == "Err < 25"
        assert criteria[-1].max_error_percent == 25.0
        assert criteria[-1].max_energy_mj == 250.0

    def test_counting(self, lens_like_result):
        assert Criterion("Err < 25", max_error_percent=25.0).count(lens_like_result) == 2
        assert Criterion("Ergy < 200", max_energy_mj=200.0).count(lens_like_result) == 2
        joint = Criterion("joint", max_error_percent=25.0, max_energy_mj=200.0)
        assert joint.count(lens_like_result) == 1

    def test_compare_criteria_percent_change(self, lens_like_result, traditional_like_result):
        comparisons = compare_criteria(lens_like_result, traditional_like_result)
        by_label = {c.criterion.label: c for c in comparisons}
        energy_comparison = by_label["Ergy < 250"]
        assert energy_comparison.count_a == 2
        assert energy_comparison.count_b == 1
        assert energy_comparison.percent_change == pytest.approx(100.0)
        zero_case = by_label["Err < 20"]
        assert zero_case.count_a == 0
        assert zero_case.count_b == 1
        assert zero_case.percent_change == pytest.approx(-100.0)

    def test_percent_change_handles_zero_baseline(self, lens_like_result):
        empty = SearchResult([], label="none")
        comparisons = compare_criteria(lens_like_result, empty)
        assert comparisons[0].percent_change == float("inf")
        both_zero = compare_criteria(empty, empty)
        assert both_zero[0].percent_change == 0.0

    def test_criterion_serialisation(self):
        data = Criterion("x", max_energy_mj=100.0).to_dict()
        assert data["max_energy_mj"] == 100.0


class TestRuntimeStudy:
    def test_select_runtime_options_contains_best_and_companion(
        self, alexnet, gpu_oracle, wifi_channel
    ):
        options = select_runtime_options(
            alexnet, gpu_oracle, wifi_channel, metric="energy", include_all_edge=True
        )
        assert len(options) >= 2
        labels = [m.option.label for m in options]
        assert len(set(labels)) == len(labels)

    def test_run_runtime_study_dynamic_is_best(self, alexnet, gpu_oracle, wifi_channel):
        trace = generate_lte_trace(num_samples=25, mean_mbps=8.0, seed=3)
        study = run_runtime_study(
            "model A", alexnet, gpu_oracle, wifi_channel, trace, metric="energy"
        )
        dynamic = study.comparison.cumulative["dynamic"]
        for value in study.comparison.cumulative.values():
            assert dynamic <= value + 1e-12
        assert study.metric == "energy"
        assert study.model_label == "model A"
        assert len(study.options) >= 2

    def test_run_runtime_study_latency_with_all_cloud(self, alexnet, gpu_oracle, wifi_channel):
        trace = generate_lte_trace(num_samples=25, mean_mbps=20.0, seed=4)
        study = run_runtime_study(
            "model B",
            alexnet,
            gpu_oracle,
            wifi_channel,
            trace,
            metric="latency",
            include_all_cloud=True,
            include_all_edge=False,
        )
        assert study.comparison.metric == "latency"
        assert study.to_dict()["model_label"] == "model B"


class TestRuntimeOptionsOfASearchedModel:
    """The §IV-E hand-off for a model drawn from the search space: its runtime
    options, their pre-deployment threshold analysis and the controller."""

    @pytest.fixture
    def architecture(self, search_space):
        return search_space.decode_for_performance(search_space.sample(3))

    @pytest.fixture
    def analysis(self, architecture, gpu_oracle, wifi_channel):
        options = select_runtime_options(
            architecture, gpu_oracle, wifi_channel, "energy", include_all_cloud=True
        )
        return ThresholdAnalysis(
            options=options,
            power_model=wifi_channel.power_model,
            round_trip_s=wifi_channel.round_trip_s,
            metric="energy",
        )

    def test_first_option_is_the_best_partition_for_the_metric(
        self, architecture, analysis, gpu_oracle, wifi_channel
    ):
        best = PartitionAnalyzer(gpu_oracle, wifi_channel).evaluate(architecture)
        assert analysis.options[0].option == best.best_energy.option
        assert architecture.input_shape == (3, 224, 224)
        labels = [m.option.label for m in analysis.options]
        assert len(labels) >= 2 and len(set(labels)) == len(labels)

    def test_best_option_at_the_design_throughput_minimises_the_metric(
        self, analysis, wifi_channel
    ):
        uplink = wifi_channel.uplink_mbps
        recommended = analysis.best_option(uplink)
        assert analysis.value(recommended, uplink) == min(
            analysis.value(m, uplink) for m in analysis.options
        )
        assert analysis.value(recommended, uplink) == pytest.approx(
            analysis.options[0].energy_j
        )

    def test_dominance_intervals_name_only_selected_options(self, analysis):
        options = [m.option for m in analysis.options]
        intervals = analysis.dominance_intervals()
        assert intervals and all(i.option in options for i in intervals)
        assert intervals[0].low_mbps == pytest.approx(0.1)
        assert intervals[-1].high_mbps == pytest.approx(100.0)
        for uplink in (0.1, 5.0, 80.0):
            assert analysis.best_option(uplink).option in options

    def test_controller_picks_the_best_selected_option(self, analysis):
        controller = DynamicDeploymentController(analysis)
        for uplink in (5.0, 0.2, 80.0):
            chosen = controller.observe_and_select(uplink)
            assert chosen is analysis.best_option(uplink)

    def test_options_and_thresholds_serialise(self, analysis):
        data = to_jsonable(
            {
                "options": [m.to_dict() for m in analysis.options],
                "intervals": [i.to_dict() for i in analysis.dominance_intervals()],
                "thresholds": [
                    [a, b, t] for (a, b), t in analysis.thresholds().items()
                ],
            }
        )
        assert json.loads(json.dumps(data)) == data
        assert len(data["options"]) == len(analysis.options)

    def test_a_lone_companion_is_always_added(
        self, architecture, gpu_oracle, wifi_channel
    ):
        """Without companions a model still gets a second option to switch to."""
        options = select_runtime_options(
            architecture,
            gpu_oracle,
            wifi_channel,
            "latency",
            include_all_edge=False,
        )
        assert len(options) == 2
        assert options[1].option in (
            DeploymentOption.all_edge(),
            DeploymentOption.all_cloud(),
        )
