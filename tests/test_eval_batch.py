"""Batched-vs-scalar parity of the candidate-evaluation hot path.

The batched engine (`predict_pool` / `PartitionAnalyzer.evaluate_batch` /
`EvaluationEngine.evaluate_batch` / `PartitionAwareEvaluator.evaluate_pool`)
must reproduce the scalar Algorithm 1 oracle (`tests/oracles/partition.py`)
to <= 1e-9 for any architecture of any registered search space under any
channel mix, bit for bit for a one-candidate pool, and the engine's
hit/miss counters must account for every pool position.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import partition as oracle
from oracles import predictor as predictor_oracle

from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.core.evaluation import PartitionAwareEvaluator
from repro.accuracy.surrogate import AccuracySurrogate
from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import (
    LayerPerformancePredictor,
    OracleLayerPredictor,
)
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel

PARITY = 1e-9

METRIC_FIELDS = (
    "latency_s",
    "energy_j",
    "edge_latency_s",
    "edge_energy_j",
    "comm_latency_s",
    "comm_energy_j",
    "transferred_bytes",
)

SPACE_NAMES = ("lens-vgg", "resnet-v1", "seq-conv1d")


@functools.lru_cache(maxsize=None)
def _space(name):
    return SEARCH_SPACES.create(name)


@functools.lru_cache(maxsize=1)
def _oracle():
    return OracleLayerPredictor(jetson_tx2_gpu())


@functools.lru_cache(maxsize=1)
def _trained():
    return LayerPerformancePredictor.train_for_device(
        jetson_tx2_gpu(), samples_per_type=40, seed=7
    )


def _assert_evaluations_match(scalar_eval, batched_eval, tolerance=PARITY):
    assert (
        scalar_eval.partition_point_indices == batched_eval.partition_point_indices
    )
    assert [m.option for m in scalar_eval.options] == [
        m.option for m in batched_eval.options
    ]
    for scalar_metrics, batched_metrics in zip(
        scalar_eval.options, batched_eval.options
    ):
        for field in METRIC_FIELDS:
            assert abs(
                getattr(scalar_metrics, field) - getattr(batched_metrics, field)
            ) <= tolerance


# ---------------------------------------------------------------------- property tests

def _one_candidate_pools(test):
    """Pin every space x predictor case as a pool of one."""
    for space_name, trained in itertools.product(SPACE_NAMES, (False, True)):
        test = example(
            space_name=space_name,
            trained=trained,
            seed=2021,
            pool_size=1,
            uplinks=[3.0, 0.5],
            round_trip=0.01,
        )(test)
    return test


@settings(max_examples=20, deadline=None)
@given(
    space_name=st.sampled_from(SPACE_NAMES),
    trained=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    pool_size=st.integers(1, 5),
    uplinks=st.lists(
        st.floats(0.2, 60.0, allow_nan=False), min_size=1, max_size=3
    ),
    round_trip=st.floats(0.0, 0.2, allow_nan=False),
)
@_one_candidate_pools
def test_analyzer_batch_matches_scalar_across_spaces(
    space_name, trained, seed, pool_size, uplinks, round_trip
):
    """analyzer.evaluate_batch == the scalar oracle; bitwise for one candidate."""
    space = _space(space_name)
    predictor = _trained() if trained else _oracle()
    rng = np.random.default_rng(seed)
    genotypes = [space.sample(rng) for _ in range(pool_size)]
    architectures = [space.decode_for_performance(g) for g in genotypes]
    channels = [
        WirelessChannel.create("wifi", uplink_mbps=u, round_trip_s=round_trip)
        for u in uplinks
    ]
    analyzer = PartitionAnalyzer(predictor, channels[0])
    batched = analyzer.evaluate_batch(architectures, channels=channels)
    tolerance = 0.0 if pool_size == 1 else PARITY
    for i, architecture in enumerate(architectures):
        for ci, channel in enumerate(channels):
            scalar = oracle.evaluate(analyzer.with_channel(channel), architecture)
            _assert_evaluations_match(scalar, batched[i][ci], tolerance)


@settings(max_examples=15, deadline=None)
@given(
    space_name=st.sampled_from(SPACE_NAMES),
    seed=st.integers(0, 2**31 - 1),
    pool_size=st.integers(1, 4),
)
def test_predict_batch_matches_predict_layer(space_name, seed, pool_size):
    """predict_pool equals the per-layer scalar oracle, for both predictors."""
    space = _space(space_name)
    rng = np.random.default_rng(seed)
    architectures = [
        space.decode_for_performance(space.sample(rng)) for _ in range(pool_size)
    ]
    for predictor in (_trained(), _oracle()):
        batched = predictor.predict_pool(architectures)
        assert len(batched) == len(architectures)
        for architecture, predictions in zip(architectures, batched):
            reference = predictor_oracle.predict_architecture(predictor, architecture)
            assert predictions.shape == reference.shape == (len(architecture), 2)
            np.testing.assert_allclose(predictions, reference, rtol=0, atol=PARITY)
            np.testing.assert_allclose(
                predictions[:, 0] * predictions[:, 1],
                reference[:, 0] * reference[:, 1],
                rtol=0,
                atol=PARITY,
            )


_PREDICTORS = pytest.mark.parametrize(
    "predictor_factory", [_trained, _oracle], ids=["trained", "oracle"]
)


@_PREDICTORS
def test_predict_pool_arrays_are_read_only(predictor_factory):
    """Cached predictions are shared, so nobody may write into them."""
    space = _space("lens-vgg")
    rng = np.random.default_rng(9)
    architectures = [space.decode_for_performance(space.sample(rng)) for _ in range(3)]
    predictor = predictor_factory()
    for array in predictor.predict_pool(architectures):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


@_PREDICTORS
def test_predict_pool_of_an_empty_pool_is_empty(predictor_factory):
    assert predictor_factory().predict_pool([]) == []


@settings(max_examples=10, deadline=None)
@given(space_name=st.sampled_from(SPACE_NAMES), seed=st.integers(0, 2**31 - 1))
def test_evaluate_pool_matches_evaluate_genotype(space_name, seed):
    """evaluate_pool produces the records evaluate_genotype would, in order."""
    space = _space(space_name)
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0)
    analyzer = PartitionAnalyzer(_oracle(), channel)
    rng = np.random.default_rng(seed)
    genotypes = [space.sample(rng) for _ in range(4)]

    pool_evaluator = PartitionAwareEvaluator(
        space, AccuracySurrogate(), analyzer, engine=EvaluationEngine()
    )
    scalar_evaluator = PartitionAwareEvaluator(
        space, AccuracySurrogate(), analyzer, engine=None
    )
    pooled = pool_evaluator.evaluate_pool(genotypes)
    for genotype, (objectives, metadata) in zip(genotypes, pooled):
        ref_objectives, ref_metadata = scalar_evaluator.evaluate_genotype(genotype)
        np.testing.assert_allclose(objectives, ref_objectives, rtol=0, atol=PARITY)
        got = metadata["evaluation"]
        want = ref_metadata["evaluation"]
        assert got.genotype == want.genotype
        assert got.architecture_name == want.architecture_name
        assert got.best_latency_option == want.best_latency_option
        assert got.best_energy_option == want.best_energy_option
        assert abs(got.latency_s - want.latency_s) <= PARITY
        assert abs(got.energy_j - want.energy_j) <= PARITY
        assert abs(got.all_edge_latency_s - want.all_edge_latency_s) <= PARITY
        assert got.extras["num_partition_points"] == want.extras["num_partition_points"]


# ---------------------------------------------------------------------- engine stats

class TestEngineBatchStats:
    @pytest.fixture()
    def engine(self):
        return EvaluationEngine()

    @pytest.fixture()
    def pool(self):
        space = _space("lens-vgg")
        rng = np.random.default_rng(11)
        a1 = space.decode_for_performance(space.sample(rng))
        a2 = space.decode_for_performance(space.sample(rng))
        return [a1, a2, a1]  # duplicate on purpose

    @pytest.fixture()
    def channels(self):
        return [
            WirelessChannel.create("wifi", uplink_mbps=3.0),
            WirelessChannel.create("lte", uplink_mbps=1.0, round_trip_s=0.05),
        ]

    def test_cold_pool_counts_unique_misses_and_duplicate_hits(
        self, engine, pool, channels
    ):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        results = engine.evaluate_batch(pool, analyzer, channels=channels)
        assert len(results) == 3 and all(len(row) == 2 for row in results)
        # Two unique architectures were predicted once each...
        assert engine.stats.layer_misses == 2
        assert engine.stats.layer_hits == 0
        # ...and costed once per channel; the duplicate is pure cache re-use.
        assert engine.stats.partition_misses == 4
        assert engine.stats.partition_hits == 2
        # The duplicate positions share the cached records.
        assert results[0][0] is results[2][0]
        assert results[0][1] is results[2][1]

    def test_warm_pool_is_all_hits_and_skips_the_layer_cache(
        self, engine, pool, channels
    ):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        engine.evaluate_batch(pool, analyzer, channels=channels)
        before = engine.stats.snapshot()
        again = engine.evaluate_batch(pool, analyzer, channels=channels)
        delta = engine.stats.since(before)
        assert delta == {
            "predictor_hits": 0,
            "predictor_misses": 0,
            "layer_hits": 0,  # fully cached pools never touch the layer cache
            "layer_misses": 0,
            "partition_hits": 6,
            "partition_misses": 0,
        }
        assert again[1][1] is engine.evaluate_batch(pool, analyzer, channels=channels)[1][1]

    def test_batch_results_match_scalar_engine_path(self, engine, pool, channels):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        batched = engine.evaluate_batch(pool, analyzer, channels=channels)
        scalar_engine = EvaluationEngine()
        for i, architecture in enumerate(pool):
            for ci, channel in enumerate(channels):
                scalar = scalar_engine.evaluate_batch(
                    [architecture], analyzer.with_channel(channel)
                )[0][0]
                _assert_evaluations_match(scalar, batched[i][ci])

    def test_batch_backfills_caches_for_scalar_callers(self, engine, pool, channels):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        batched = engine.evaluate_batch(pool, analyzer, channels=channels)
        before = engine.stats.snapshot()
        (scalar,) = engine.evaluate_batch([pool[0]], analyzer)[0]
        assert scalar is batched[0][0]
        assert engine.stats.since(before)["partition_hits"] == 1
        assert engine.stats.since(before)["partition_misses"] == 0

    def test_partial_cache_overlap_computes_only_missing_cells(
        self, engine, channels
    ):
        """Ragged warm cells are served from cache, not recomputed."""
        space = _space("lens-vgg")
        rng = np.random.default_rng(21)
        a, b = (
            space.decode_for_performance(space.sample(rng)) for _ in range(2)
        )
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        (warm_a0,) = engine.evaluate_batch([a], analyzer)[0]
        (warm_b1,) = engine.evaluate_batch([b], analyzer.with_channel(channels[1]))[0]
        before = engine.stats.snapshot()
        rows = engine.evaluate_batch([a, b], analyzer, channels=channels)
        delta = engine.stats.since(before)
        # The two warm cells come back as the cached records themselves...
        assert rows[0][0] is warm_a0
        assert rows[1][1] is warm_b1
        # ...and only the two genuinely missing cells were computed.
        assert delta["partition_hits"] == 2
        assert delta["partition_misses"] == 2
        for architecture, row in ((a, rows[0]), (b, rows[1])):
            for channel, evaluation in zip(channels, row):
                scalar = oracle.evaluate(analyzer.with_channel(channel), architecture)
                _assert_evaluations_match(scalar, evaluation)

    def test_duplicate_channels_are_computed_once(self, engine, pool, channels):
        """A repeated channel column is cache re-use, not recomputation."""
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        rows = engine.evaluate_batch(
            pool, analyzer, channels=[channels[0], channels[1], channels[0]]
        )
        assert all(len(row) == 3 for row in rows)
        for row in rows:
            assert row[0] is row[2]
        # 2 unique archs x 2 unique channels computed; the rest are hits.
        assert engine.stats.partition_misses == 4
        assert engine.stats.partition_hits == 9 - 4


def test_totals_single_pass():
    """Both totals derive from one prediction pass, summed left to right."""
    space = _space("lens-vgg")
    rng = np.random.default_rng(1)
    architecture = space.decode_for_performance(space.sample(rng))
    predictor = _oracle()
    predictions = predictor.predict_architecture(architecture)
    latency, energy = predictor.totals(architecture, predictions)
    pairs = [
        predictor_oracle.predict_layer(predictor, s) for s in architecture.summarize()
    ]
    assert latency == sum(l for l, _ in pairs)
    assert energy == sum(l * p for l, p in pairs)
    assert predictor.totals(architecture) == (latency, energy)


def test_prediction_error_report_rejects_an_empty_pool():
    """An empty pool has no error to average: ValueError, not a NaN."""
    from repro.hardware.predictors import prediction_error_report

    with pytest.raises(ValueError):
        prediction_error_report(_trained(), [])
