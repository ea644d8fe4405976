"""Tests for the Algorithm 1 partitioning engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.partition import identify_partition_points

from repro.hardware.predictors import OracleLayerPredictor
from repro.hardware.device import cloud_server
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

    def test_without_shrinkage_requirement_all_activation_layers_qualify(
        self, gpu_oracle, wifi_channel, alexnet
    ):
        indices = identify_partition_points(
            alexnet.summarize(), alexnet.input_bytes, require_shrinkage=False
        )
        # Every layer except flatten (structural) and the final classifier.
        assert len(indices) == len(alexnet) - 2
        analyzer = PartitionAnalyzer(gpu_oracle, wifi_channel, require_shrinkage=False)
        assert analyzer.evaluate(alexnet).partition_point_indices == tuple(indices)

    def test_final_layer_never_a_split_point(self, gpu_oracle, wifi_channel, alexnet):
        indices = identify_partition_points(
            alexnet.summarize(), alexnet.input_bytes, require_shrinkage=False
        )
        assert (len(alexnet) - 1) not in indices
        analyzer = PartitionAnalyzer(gpu_oracle, wifi_channel, require_shrinkage=False)
        assert (len(alexnet) - 1) not in analyzer.evaluate(alexnet).partition_point_indices


class TestPartitionAnalyzer:
    def test_option_inventory(self, gpu_wifi_analyzer, alexnet):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        labels = [m.option.label for m in evaluation.options]
        assert labels[0] == "All-Cloud"
        assert labels[1] == "All-Edge"
        assert "Split@pool5" in labels
        assert len(evaluation.split_options) == 3

    def test_all_edge_costs_equal_layer_sums(self, gpu_wifi_analyzer, gpu_oracle, alexnet):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        assert evaluation.all_edge.latency_s == pytest.approx(
            gpu_oracle.total_latency(alexnet)
        )
        assert evaluation.all_edge.energy_j == pytest.approx(
            gpu_oracle.total_energy(alexnet)
        )
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
            wifi_channel.communication_latency_s(alexnet.input_bytes)
        )
        assert all_cloud.energy_j == pytest.approx(
            wifi_channel.communication_energy_j(alexnet.input_bytes)
        )

    def test_split_cost_is_prefix_plus_communication(
        self, gpu_wifi_analyzer, wifi_channel, alexnet
    ):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        pool5_index = alexnet.layer_index("pool5")
        split = evaluation.metrics_for(DeploymentOption.split_after(pool5_index, "pool5"))
        prefix_latency = sum(evaluation.layer_latencies_s[: pool5_index + 1])
        prefix_energy = sum(evaluation.layer_energies_j[: pool5_index + 1])
        transfer_bytes = alexnet.summarize()[pool5_index].output_bytes
        assert split.edge_latency_s == pytest.approx(prefix_latency)
        assert split.latency_s == pytest.approx(
            prefix_latency + wifi_channel.communication_latency_s(transfer_bytes)
        )
        assert split.energy_j == pytest.approx(
            prefix_energy + wifi_channel.communication_energy_j(transfer_bytes)
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
        evaluation = analyzer.evaluate(alexnet, predictions=predictions)
        assert evaluation.all_edge.latency_s == pytest.approx(
            sum(p.latency_s for p in predictions)
        )
        with pytest.raises(ValueError):
            analyzer.evaluate(alexnet, predictions=predictions[:-1])

    def test_cloud_compute_can_be_included(self, gpu_oracle, wifi_channel, alexnet):
        cloud_predictor = OracleLayerPredictor(cloud_server())
        with_cloud = PartitionAnalyzer(
            gpu_oracle, wifi_channel, cloud_predictor=cloud_predictor
        ).evaluate(alexnet)
        without_cloud = PartitionAnalyzer(gpu_oracle, wifi_channel).evaluate(alexnet)
        assert with_cloud.all_cloud.latency_s > without_cloud.all_cloud.latency_s
        # Energy charged to the edge is unchanged.
        assert with_cloud.all_cloud.energy_j == pytest.approx(
            without_cloud.all_cloud.energy_j
        )

    def test_with_channel_rebinds_wireless_conditions(self, gpu_oracle, wifi_channel, alexnet):
        analyzer = PartitionAnalyzer(gpu_oracle, wifi_channel)
        faster = analyzer.with_channel(wifi_channel.with_uplink(30.0))
        slow_eval = analyzer.evaluate(alexnet)
        fast_eval = faster.evaluate(alexnet)
        assert fast_eval.all_cloud.latency_s < slow_eval.all_cloud.latency_s

    def test_metrics_for_unknown_option_raises(self, gpu_wifi_analyzer, alexnet):
        evaluation = gpu_wifi_analyzer.evaluate(alexnet)
        with pytest.raises(KeyError):
            evaluation.metrics_for(DeploymentOption.split_after(0, "conv1"))

    def test_to_dict_summarises_evaluation(self, gpu_wifi_analyzer, alexnet):
        data = gpu_wifi_analyzer.evaluate(alexnet).to_dict()
        assert data["architecture_name"] == "alexnet"
        assert len(data["options"]) >= 3
        assert "best_latency" in data and "best_energy" in data


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
