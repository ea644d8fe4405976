"""Graph-aware partitioning: skip edges, cut legality and linear parity."""

from __future__ import annotations

import pytest
from oracles.partition import identify_partition_points

from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import OracleLayerPredictor
from repro.nn.architecture import Architecture
from repro.nn.graph import PartitionGraph, normalize_skip_edges
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.search_space import LensSearchSpace
from repro.partition.partitioner import PartitionAnalyzer
from repro.utils.rng import ensure_rng
from repro.wireless.channel import WirelessChannel


def residual_architecture() -> Architecture:
    """A tiny residual model: pool, then one two-conv block with a skip.

    The pooled feature map (8 channels x 14 x 14 floats = 6.3 kB) is far
    below the 147 kB raw input, so *every* post-pool boundary would qualify
    under the naive linear shrinkage rule — only the skip edge removes the
    block-interior boundary.
    """
    layers = [
        Conv2D(name="stem", out_channels=8, kernel_size=3),     # 0
        MaxPool2D(name="pool1", pool_size=16),                  # 1 -> (8, 14, 14)
        Conv2D(name="block_a", out_channels=8, kernel_size=3),  # 2
        Conv2D(name="block_b", out_channels=8, kernel_size=3),  # 3 (+ skip from 1)
        Flatten(name="flatten"),                                # 4
        Dense(name="classifier", units=10, activation="softmax"),
    ]
    return Architecture(
        "residual-tiny", (3, 224, 224), layers, skip_edges=((1, 3),)
    )


class TestPartitionGraph:
    def test_linear_graph_allows_everything(self):
        graph = PartitionGraph(num_layers=5)
        assert graph.is_linear
        assert graph.legal_cut_indices() == [0, 1, 2, 3]
        assert graph.blocked_cut_indices() == []

    def test_skip_edge_blocks_strict_interior_only(self):
        graph = PartitionGraph(num_layers=6, skip_edges=((1, 3),))
        assert graph.allows_cut_after(0)
        assert graph.allows_cut_after(1)  # the cut tensor IS the skip tensor
        assert not graph.allows_cut_after(2)
        assert graph.allows_cut_after(3)
        assert graph.blocked_cut_indices() == [2]

    def test_input_skip_blocks_leading_boundaries(self):
        graph = PartitionGraph(num_layers=4, skip_edges=((-1, 2),))
        assert not graph.allows_cut_after(0)
        assert not graph.allows_cut_after(1)
        assert graph.allows_cut_after(2)

    def test_edges_are_normalised_and_validated(self):
        graph = PartitionGraph(num_layers=6, skip_edges=[(3, 5), (1, 3), (3, 5)])
        assert graph.skip_edges == ((1, 3), (3, 5))
        with pytest.raises(ValueError, match="forward"):
            PartitionGraph(num_layers=6, skip_edges=((3, 1),))
        with pytest.raises(ValueError, match="exceeds"):
            PartitionGraph(num_layers=3, skip_edges=((0, 7),))
        with pytest.raises(ValueError, match="pair"):
            normalize_skip_edges([(1, 2, 3)])

    def test_consumers_and_describe(self):
        graph = PartitionGraph(num_layers=6, skip_edges=((1, 3),))
        assert graph.consumers_of(1) == [3]
        assert "blocked" in graph.describe()
        assert "linear" in PartitionGraph(num_layers=2).describe()


class TestArchitectureSkipEdges:
    def test_round_trip_and_identity(self):
        architecture = residual_architecture()
        clone = Architecture.from_dict(architecture.to_dict())
        assert clone == architecture
        assert hash(clone) == hash(architecture)
        assert clone.skip_edges == ((1, 3),)

    def test_skip_edges_distinguish_architectures(self):
        with_skip = residual_architecture()
        without = Architecture(
            with_skip.name, with_skip.input_shape, with_skip.layers
        )
        assert with_skip != without
        assert "skip_edges" not in without.to_dict()

    def test_mismatched_skip_shapes_raise(self):
        # channel-only mismatch at equal spatial size: no downsampling
        # projection explains it, so it stays a wiring error
        layers = [
            Conv2D(name="a", out_channels=8, kernel_size=3),
            Conv2D(name="b", out_channels=16, kernel_size=3),
            Conv2D(name="c", out_channels=16, kernel_size=3),
        ]
        architecture = Architecture("bad", (3, 32, 32), layers, skip_edges=((0, 2),))
        with pytest.raises(ValueError, match="incompatible shapes"):
            architecture.summarize()

    def test_downsampling_projection_skip_is_accepted(self):
        # a skip edge across a stride-2 layer (every spatial dim halved,
        # channels free) models a ResNet projection shortcut and must pass
        layers = [
            Conv2D(name="a", out_channels=8, kernel_size=3, padding="same"),
            Conv2D(
                name="down",
                out_channels=16,
                kernel_size=3,
                stride=2,
                padding="same",
            ),
            Conv2D(name="b", out_channels=16, kernel_size=3, padding="same"),
        ]
        architecture = Architecture(
            "proj", (3, 32, 32), layers, skip_edges=((0, 2),)
        )
        summaries = architecture.summarize()
        assert summaries[0].output_shape == (8, 32, 32)
        assert summaries[2].output_shape == (16, 16, 16)

    def test_rank_mismatched_skip_still_raises(self):
        # a conv feature map merged onto a flattened vector has no
        # projection interpretation at all
        layers = [
            Conv2D(name="a", out_channels=8, kernel_size=3, padding="same"),
            Flatten(name="flat"),
            Dense(name="fc", units=16),
        ]
        architecture = Architecture(
            "rank", (3, 32, 32), layers, skip_edges=((0, 2),)
        )
        with pytest.raises(ValueError, match="incompatible shapes"):
            architecture.summarize()


class TestGraphAwarePartitioner:
    @pytest.fixture
    def analyzer(self):
        predictor = OracleLayerPredictor(jetson_tx2_gpu())
        channel = WirelessChannel.create("wifi", uplink_mbps=3.0, round_trip_s=0.01)
        return PartitionAnalyzer(predictor, channel)

    def test_naive_linear_cut_would_split_the_skip(self, analyzer):
        """The block-interior boundary passes the shrinkage rule but must be
        excluded by the graph — the exact case the linear partitioner got
        wrong."""
        architecture = residual_architecture()
        summaries = architecture.summarize()
        naive = identify_partition_points(summaries, architecture.input_bytes)
        graph_aware = identify_partition_points(
            summaries, architecture.input_bytes, graph=architecture.partition_graph()
        )
        assert 2 in naive  # shrinkage alone admits the interior boundary
        assert 2 not in graph_aware
        assert set(graph_aware) == set(naive) - {2}
        # The analyzer enumerates the same cuts: naive under a linear-chain
        # override, graph-aware under the architecture's own graph.
        linear = PartitionGraph(num_layers=len(architecture.layers))
        assert analyzer.evaluate(
            architecture, graph=linear
        ).partition_point_indices == tuple(naive)
        assert analyzer.evaluate(architecture).partition_point_indices == tuple(
            graph_aware
        )

    def test_evaluate_never_splits_a_skip_edge(self, analyzer):
        evaluation = analyzer.evaluate(residual_architecture())
        assert 2 not in evaluation.partition_point_indices
        assert all(
            option.option.split_index != 2 for option in evaluation.split_options
        )
        # All-Edge and All-Cloud are always present regardless of the graph
        assert evaluation.all_edge.latency_s > 0
        assert evaluation.all_cloud.transferred_bytes > 0

    def test_resnet_candidates_respect_every_block(self, analyzer):
        space = ResNetSearchSpace()
        architecture = space.decode_for_performance(space.sample(ensure_rng(0)))
        evaluation = analyzer.evaluate(architecture)
        graph = architecture.partition_graph()
        for index in evaluation.partition_point_indices:
            assert graph.allows_cut_after(index)
        for src, dst in architecture.skip_edges:
            for interior in range(src + 1, dst):
                assert interior not in evaluation.partition_point_indices

    def test_lens_vgg_parity_with_linear_enumeration(self, analyzer):
        """On the linear lens-vgg space the graph-aware path must reproduce
        the original linear-chain candidates and metrics exactly."""
        space = LensSearchSpace()
        rng = ensure_rng(123)
        for _ in range(3):
            architecture = space.decode_for_performance(space.sample(rng))
            summaries = architecture.summarize()
            linear = identify_partition_points(summaries, architecture.input_bytes)
            graph_aware = identify_partition_points(
                summaries,
                architecture.input_bytes,
                graph=architecture.partition_graph(),
            )
            assert linear == graph_aware
            evaluation = analyzer.evaluate(architecture)
            assert tuple(linear) == evaluation.partition_point_indices
