"""Tests for the shared, caching EvaluationEngine."""

import dataclasses
import gc

import numpy as np
import pytest

from repro.api.engine import EvaluationEngine, default_engine
from repro.hardware.predictors import OracleLayerPredictor
from repro.nn.vgg import build_vgg16
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel


@pytest.fixture()
def engine():
    return EvaluationEngine()


class TestPredictorCache:
    def test_same_settings_share_one_predictor(self, engine, gpu_device):
        first = engine.predictor_for(gpu_device, samples_per_type=60, seed=3)
        second = engine.predictor_for(gpu_device, samples_per_type=60, seed=3)
        assert first is second
        assert engine.stats.predictor_hits == 1
        assert engine.stats.predictor_misses == 1

    def test_different_settings_do_not_collide(self, engine, gpu_device, cpu_device):
        a = engine.predictor_for(gpu_device, samples_per_type=60, seed=3)
        b = engine.predictor_for(gpu_device, samples_per_type=60, seed=4)
        c = engine.predictor_for(cpu_device, samples_per_type=60, seed=3)
        assert a is not b and a is not c

    def test_generator_seeds_bypass_the_cache(self, engine, gpu_device):
        rng = np.random.default_rng(0)
        first = engine.predictor_for(gpu_device, samples_per_type=60, seed=rng)
        second = engine.predictor_for(gpu_device, samples_per_type=60, seed=rng)
        assert first is not second


class TestLayerAndPartitionCaches:
    def test_layer_predictions_cached_and_identical(self, engine, gpu_oracle, alexnet):
        """A second channel re-uses the cached layer predictions, and a
        one-candidate pool costs bit for bit like the direct analyzer."""
        wifi = WirelessChannel.create("wifi", uplink_mbps=3.0)
        engine.evaluate_batch([alexnet], PartitionAnalyzer(gpu_oracle, wifi))
        analyzer = PartitionAnalyzer(gpu_oracle, dataclasses.replace(wifi, uplink_mbps=30.0))
        (via_engine,) = engine.evaluate_batch([alexnet], analyzer)[0]
        assert engine.stats.layer_misses == 1 and engine.stats.layer_hits == 1
        assert engine.cache_sizes()["layer_predictions"] == 1
        direct = analyzer.evaluate(alexnet)
        assert [m.latency_s for m in via_engine.options] == [
            m.latency_s for m in direct.options
        ]
        assert [m.energy_j for m in via_engine.options] == [
            m.energy_j for m in direct.options
        ]

    def test_pool_duplicates_share_one_layer_entry(self, engine, gpu_oracle, alexnet):
        vgg = build_vgg16()
        analyzer = PartitionAnalyzer(
            gpu_oracle, WirelessChannel.create("wifi", uplink_mbps=3.0)
        )
        results = engine.evaluate_batch([alexnet, vgg, alexnet], analyzer)
        assert results[0][0] is results[2][0]
        assert engine.stats.layer_misses == 2 and engine.stats.layer_hits == 0
        assert engine.stats.partition_misses == 2
        assert engine.stats.partition_hits == 1
        assert engine.stats_dict()["layer_predictions"] == 2
        assert engine.stats_dict()["partition_evaluations"] == 2

    def test_discarding_a_predictor_releases_its_cache_entries(
        self, engine, gpu_device, alexnet
    ):
        predictor = OracleLayerPredictor(gpu_device)
        analyzer = PartitionAnalyzer(
            predictor, WirelessChannel.create("wifi", uplink_mbps=3.0)
        )
        engine.evaluate_batch([alexnet], analyzer)
        assert engine.cache_sizes()["layer_predictions"] == 1
        del predictor, analyzer
        gc.collect()
        assert engine.cache_sizes() == {
            "predictors": 0,
            "layer_predictions": 0,
            "partition_evaluations": 0,
        }

    def test_partition_cache_hits_per_channel(self, engine, gpu_oracle, alexnet):
        channel = WirelessChannel.create("wifi", uplink_mbps=3.0)
        analyzer = PartitionAnalyzer(gpu_oracle, channel)
        (first,) = engine.evaluate_batch([alexnet], analyzer)[0]
        # A fresh analyzer with an equal channel must still hit the cache.
        (second,) = engine.evaluate_batch(
            [alexnet], PartitionAnalyzer(gpu_oracle, dataclasses.replace(channel))
        )[0]
        assert first is second
        # A different uplink is a different cache entry with different costs.
        (third,) = engine.evaluate_batch(
            [alexnet],
            PartitionAnalyzer(gpu_oracle, dataclasses.replace(channel, uplink_mbps=30.0)),
        )[0]
        assert third is not first
        assert engine.stats.partition_hits == 1
        assert engine.stats.partition_misses == 2

    def test_sweep_channels_computes_layers_once(self, engine, gpu_oracle, alexnet):
        channels = [
            WirelessChannel.create("wifi", uplink_mbps=u) for u in (0.5, 3.0, 16.1)
        ]
        evaluations = engine.sweep_channels(alexnet, gpu_oracle, channels)
        assert len(evaluations) == 3
        # The batched sweep fetches the per-layer predictions exactly once
        # for the whole channel set and costs each channel once.
        assert engine.stats.layer_misses == 1
        assert engine.stats.layer_hits == 0
        assert engine.stats.partition_misses == 3
        # Costs must differ across channels (communication term changes).
        cloud_latencies = {e.all_cloud.latency_s for e in evaluations}
        assert len(cloud_latencies) == 3
        # A second sweep over the same channels is pure cache hits.
        again = engine.sweep_channels(alexnet, gpu_oracle, channels)
        assert [e.all_cloud.latency_s for e in again] == [
            e.all_cloud.latency_s for e in evaluations
        ]
        assert engine.stats.partition_misses == 3
        assert engine.stats.partition_hits == 3
        assert engine.stats.layer_misses == 1


def test_default_engine_is_a_process_singleton():
    assert default_engine() is default_engine()
    assert isinstance(default_engine(), EvaluationEngine)
