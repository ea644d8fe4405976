"""Tests for the runtime threshold analysis and dynamic deployment switching."""

import numpy as np
import pytest

from repro.core.runtime import (
    DynamicDeploymentController,
    ThresholdAnalysis,
    deployment_energy,
    deployment_latency,
    deployment_metric_value,
    pairwise_threshold,
    simulate_runtime,
)
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.wireless.power_models import RadioPowerModel
from repro.wireless.tracker import ThroughputTracker
from repro.wireless.traces import ThroughputTrace


def edge_option(latency_s=0.04, energy_j=0.28):
    return DeploymentMetrics(
        option=DeploymentOption.all_edge(),
        latency_s=latency_s,
        energy_j=energy_j,
        edge_latency_s=latency_s,
        edge_energy_j=energy_j,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=0.0,
    )


def split_option(edge_latency_s=0.015, edge_energy_j=0.16, transferred_bytes=36864.0):
    return DeploymentMetrics(
        option=DeploymentOption.split_after(7, "pool5"),
        latency_s=0.0,  # placeholder; runtime code recomputes from components
        energy_j=0.0,
        edge_latency_s=edge_latency_s,
        edge_energy_j=edge_energy_j,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=transferred_bytes,
    )


def cloud_option(transferred_bytes=150528.0):
    return DeploymentMetrics(
        option=DeploymentOption.all_cloud(),
        latency_s=0.0,
        energy_j=0.0,
        edge_latency_s=0.0,
        edge_energy_j=0.0,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=transferred_bytes,
    )


WIFI = RadioPowerModel.for_technology("wifi")
RTT = 0.01


class TestDeploymentReEvaluation:
    def test_all_edge_is_throughput_independent(self):
        option = edge_option()
        assert deployment_latency(option, 1.0, RTT) == deployment_latency(option, 50.0, RTT)
        assert deployment_energy(option, 1.0, WIFI) == deployment_energy(option, 50.0, WIFI)

    def test_latency_formula(self):
        option = split_option()
        tu = 10.0
        expected = option.edge_latency_s + option.transferred_bytes * 8 / (tu * 1e6) + RTT
        assert deployment_latency(option, tu, RTT) == pytest.approx(expected)

    def test_energy_formula(self):
        option = split_option()
        tu = 10.0
        transmission = option.transferred_bytes * 8 / (tu * 1e6)
        expected = option.edge_energy_j + WIFI.power_w(tu) * transmission
        assert deployment_energy(option, tu, WIFI) == pytest.approx(expected)

    def test_dispatch_and_validation(self):
        option = split_option()
        assert deployment_metric_value(option, 5.0, "latency", WIFI, RTT) == pytest.approx(
            deployment_latency(option, 5.0, RTT)
        )
        with pytest.raises(ValueError):
            deployment_metric_value(option, 5.0, "throughput", WIFI, RTT)
        with pytest.raises(ValueError):
            deployment_latency(option, 0.0, RTT)


class TestPairwiseThresholds:
    def test_latency_threshold_matches_manual_solution(self):
        edge, split = edge_option(), split_option()
        threshold = pairwise_threshold(edge, split, "latency", WIFI, RTT)
        assert threshold is not None
        # At the threshold both options cost the same.
        assert deployment_latency(edge, threshold, RTT) == pytest.approx(
            deployment_latency(split, threshold, RTT), rel=1e-6
        )

    def test_energy_threshold_matches_manual_solution(self):
        edge, split = edge_option(), split_option()
        threshold = pairwise_threshold(edge, split, "energy", WIFI, RTT)
        assert threshold is not None
        assert deployment_energy(edge, threshold, WIFI) == pytest.approx(
            deployment_energy(split, threshold, WIFI), rel=1e-6
        )

    def test_no_crossover_returns_none(self):
        # Two all-edge-like options with different constants never cross.
        a = edge_option(latency_s=0.04)
        b = edge_option(latency_s=0.05)
        assert pairwise_threshold(a, b, "latency", WIFI, RTT) is None

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            pairwise_threshold(edge_option(), split_option(), "power", WIFI, RTT)


class TestThresholdAnalysis:
    def make_analysis(self, metric="energy"):
        return ThresholdAnalysis(
            options=[split_option(), edge_option()],
            power_model=WIFI,
            round_trip_s=RTT,
            metric=metric,
        )

    def test_best_option_switches_with_throughput(self):
        analysis = self.make_analysis("energy")
        threshold = analysis.switching_threshold()
        assert threshold is not None
        low = analysis.best_option(threshold * 0.5)
        high = analysis.best_option(threshold * 2.0)
        assert low.option != high.option
        # Below the threshold the edge-heavy option wins (cheap radio at low tu
        # means long transmissions): the split only pays off at higher rates.
        assert high.option.is_split

    def test_dominance_intervals_cover_range_without_overlap(self):
        analysis = self.make_analysis("latency")
        intervals = analysis.dominance_intervals(min_mbps=0.2, max_mbps=80.0)
        assert intervals[0].low_mbps == pytest.approx(0.2)
        assert intervals[-1].high_mbps == pytest.approx(80.0)
        for first, second in zip(intervals, intervals[1:]):
            assert first.high_mbps <= second.low_mbps
        assert any(i.low_mbps <= 1.0 <= i.high_mbps for i in intervals)

    def test_requires_two_options_and_valid_metric(self):
        with pytest.raises(ValueError):
            ThresholdAnalysis([edge_option()], WIFI, RTT)
        with pytest.raises(ValueError):
            ThresholdAnalysis([edge_option(), split_option()], WIFI, RTT, metric="power")
        with pytest.raises(ValueError, match="distinct labels"):
            ThresholdAnalysis([edge_option(), split_option(), split_option()], WIFI, RTT)

    def test_three_option_analysis(self):
        analysis = ThresholdAnalysis(
            options=[split_option(), edge_option(), cloud_option()],
            power_model=WIFI,
            round_trip_s=RTT,
            metric="latency",
        )
        best_slow = analysis.best_option(0.3)
        best_fast = analysis.best_option(80.0)
        assert best_slow.option.kind == "all_edge"
        assert best_fast.option.kind in ("all_cloud", "split")


class TestDynamicController:
    def test_switches_are_counted(self):
        analysis = ThresholdAnalysis(
            [split_option(), edge_option()], WIFI, RTT, metric="energy"
        )
        threshold = analysis.switching_threshold()
        controller = DynamicDeploymentController(analysis)
        controller.observe_and_select(threshold * 0.5)
        controller.observe_and_select(threshold * 2.0)
        controller.observe_and_select(threshold * 2.0)
        controller.observe_and_select(threshold * 0.5)
        assert controller.num_switches == 2

    def test_smoothing_tracker_damps_switching(self):
        analysis = ThresholdAnalysis(
            [split_option(), edge_option()], WIFI, RTT, metric="energy"
        )
        threshold = analysis.switching_threshold()
        jittery = [threshold * f for f in (0.5, 2.0, 0.5, 2.0, 0.5, 2.0)]
        eager = DynamicDeploymentController(analysis, ThroughputTracker(smoothing=1.0))
        calm = DynamicDeploymentController(analysis, ThroughputTracker(smoothing=0.2))
        for tu in jittery:
            eager.observe_and_select(tu)
            calm.observe_and_select(tu)
        assert calm.num_switches <= eager.num_switches


class TestTraceSimulation:
    def test_dynamic_never_worse_than_any_fixed_option(self):
        analysis = ThresholdAnalysis(
            [split_option(), edge_option()], WIFI, RTT, metric="energy"
        )
        threshold = analysis.switching_threshold()
        values = [threshold * f for f in (0.3, 0.6, 1.5, 3.0, 0.4, 2.5, 1.2, 0.8)]
        trace = ThroughputTrace.from_values(values)
        comparison = simulate_runtime(analysis, trace)
        dynamic = comparison.cumulative["dynamic"]
        for label, value in comparison.cumulative.items():
            assert dynamic <= value + 1e-12
        assert comparison.num_switches >= 1
        assert comparison.improvement_percent("All-Edge") >= 0.0
        with pytest.raises(KeyError):
            comparison.improvement_percent("nonexistent")

    def test_per_sample_series_have_trace_length(self):
        analysis = ThresholdAnalysis(
            [split_option(), edge_option()], WIFI, RTT, metric="latency"
        )
        trace = ThroughputTrace.from_values([1.0, 5.0, 20.0])
        comparison = simulate_runtime(analysis, trace)
        for series in comparison.per_sample.values():
            assert len(series) == 3
        assert comparison.to_dict()["metric"] == "latency"
