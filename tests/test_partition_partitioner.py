"""Tests for the Algorithm 1 partitioning engine."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st
from oracles import partition as oracle
from oracles.partition import identify_partition_points

from repro.hardware.predictors import OracleLayerPredictor
from repro.nn.search_space import LensSearchSpace
from repro.partition.deployment import DeploymentOption
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel


class TestPartitionPoints:
    """Cut enumeration, in the oracle and in the analyzer's evaluations."""

    def test_alexnet_viable_points_match_paper(self, gpu_wifi_analyzer, alexnet):
        """The paper: Pool5 (and the FC layers) are the viable partition points."""
        indices = identify_partition_points(alexnet.summarize(), alexnet.input_bytes)
        names = [alexnet.layers[i].name for i in indices]
        assert names == ["pool5", "fc6", "fc7"]
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        assert evaluation.partition_point_indices == tuple(indices)

    def test_final_layer_never_a_split_point(self, gpu_wifi_analyzer, alexnet):
        summaries = alexnet.summarize()
        last = len(alexnet) - 1
        # The classifier output shrinks below the input, so only the
        # final-boundary rule keeps it out: cutting there is All-Edge.
        assert summaries[last].output_bytes < alexnet.input_bytes
        assert last not in identify_partition_points(summaries, alexnet.input_bytes)
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        assert last not in evaluation.partition_point_indices


class TestPartitionAnalyzer:
    def test_option_inventory(self, gpu_wifi_analyzer, alexnet):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        labels = [m.option.label for m in evaluation.options]
        assert labels[0] == "All-Cloud"
        assert labels[1] == "All-Edge"
        assert "Split@pool5" in labels
        assert [m.option.is_split for m in evaluation.options] == [False, False] + [True] * 3

    def test_all_edge_costs_equal_layer_sums(self, gpu_wifi_analyzer, gpu_oracle, alexnet):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        latency, energy = gpu_oracle.totals(alexnet)
        assert evaluation.all_edge.latency_s == pytest.approx(latency)
        assert evaluation.all_edge.energy_j == pytest.approx(energy)
        assert evaluation.all_edge.comm_latency_s == 0.0
        assert evaluation.all_edge.transferred_bytes == 0.0

    def test_all_cloud_costs_are_pure_communication(
        self, gpu_wifi_analyzer, wifi_channel, alexnet
    ):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        all_cloud = evaluation.all_cloud
        assert all_cloud.edge_latency_s == 0.0
        assert all_cloud.transferred_bytes == alexnet.input_bytes
        assert all_cloud.latency_s == pytest.approx(
            oracle.communication_latency_s(wifi_channel, alexnet.input_bytes)
        )
        assert all_cloud.energy_j == pytest.approx(
            oracle.communication_energy_j(wifi_channel, alexnet.input_bytes)
        )

    def test_split_cost_is_prefix_plus_communication(
        self, gpu_wifi_analyzer, gpu_oracle, wifi_channel, alexnet
    ):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        pool5_index = [layer.name for layer in alexnet.layers].index("pool5")
        (split,) = [
            m for m in evaluation.options
            if m.option == DeploymentOption.split_after(pool5_index, "pool5")
        ]
        prefix = gpu_oracle.predict_architecture(alexnet)[: pool5_index + 1]
        prefix_latency = sum(prefix[:, 0])
        prefix_energy = sum(prefix[:, 0] * prefix[:, 1])
        transfer_bytes = alexnet.summarize()[pool5_index].output_bytes
        assert split.edge_latency_s == pytest.approx(prefix_latency)
        assert split.latency_s == pytest.approx(
            prefix_latency + oracle.communication_latency_s(wifi_channel, transfer_bytes)
        )
        assert split.energy_j == pytest.approx(
            prefix_energy + oracle.communication_energy_j(wifi_channel, transfer_bytes)
        )

    def test_best_options_minimise_their_metric(self, gpu_wifi_analyzer, alexnet):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        latencies = [m.latency_s for m in evaluation.options]
        energies = [m.energy_j for m in evaluation.options]
        assert evaluation.best_latency.latency_s == pytest.approx(min(latencies))
        assert evaluation.best_energy.energy_j == pytest.approx(min(energies))
        assert evaluation.best_for("latency") == evaluation.best_latency
        with pytest.raises(ValueError):
            evaluation.best_for("throughput")

    def test_precomputed_predictions_are_honoured(self, gpu_oracle, wifi_channel, alexnet):
        analyzer = PartitionAnalyzer(gpu_oracle, wifi_channel)
        predictions = gpu_oracle.predict_architecture(alexnet)
        (evaluation,) = analyzer.evaluate_batch([alexnet], predictions=[predictions])[0]
        assert evaluation.all_edge.latency_s == pytest.approx(
            sum(predictions[:, 0].tolist())
        )
        with pytest.raises(ValueError):
            analyzer.evaluate_batch([alexnet], predictions=[predictions[:-1]])

    def test_with_channel_rebinds_wireless_conditions(self, gpu_oracle, wifi_channel, alexnet):
        analyzer = PartitionAnalyzer(gpu_oracle, wifi_channel)
        faster = analyzer.with_channel(dataclasses.replace(wifi_channel, uplink_mbps=30.0))
        slow_eval = analyzer.evaluate(alexnet)
        fast_eval = faster.evaluate(alexnet)
        assert fast_eval.all_cloud.latency_s < slow_eval.all_cloud.latency_s


class TestBestDeploymentInvariants:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_best_options_never_worse_than_extremes(self, seed):
        """For any candidate, the best deployment is at least as good as both
        All-Edge and All-Cloud (Algorithm 1 minimises over a superset)."""
        space = LensSearchSpace()
        from repro.hardware.device import jetson_tx2_gpu

        predictor = OracleLayerPredictor(jetson_tx2_gpu())
        channel = WirelessChannel.create("wifi", 3.0, 0.01)
        analyzer = PartitionAnalyzer(predictor, channel)
        architecture = space.decode_for_performance(space.sample(seed))
        evaluation = analyzer.evaluate(architecture)
        assert evaluation.best_latency.latency_s <= evaluation.all_edge.latency_s + 1e-12
        assert evaluation.best_latency.latency_s <= evaluation.all_cloud.latency_s + 1e-12
        assert evaluation.best_energy.energy_j <= evaluation.all_edge.energy_j + 1e-12
        assert evaluation.best_energy.energy_j <= evaluation.all_cloud.energy_j + 1e-12
