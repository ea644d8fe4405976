"""Tests for feature extraction and the profiling-dataset generator."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.predictor import layer_features
from oracles.profiler import ChoiceLayerProfiler

from repro.api.registry import SEARCH_SPACES
from repro.hardware.device import jetson_tx2_cpu, jetson_tx2_gpu
from repro.hardware.features import family_feature_matrix, prediction_family
from repro.hardware.predictors import RidgeRegression
from repro.hardware.profiler import LayerProfiler, ProfilingDataset, _draw
from repro.hardware.simulator import LayerCostSimulator
from repro.nn.architecture import summarize_layer

SPACE_NAMES = ("lens-vgg", "resnet-v1", "seq-conv1d")


@functools.lru_cache(maxsize=None)
def _space(name):
    return SEARCH_SPACES.create(name)


def _by_family(summaries):
    groups = {}
    for summary in summaries:
        groups.setdefault(prediction_family(summary.layer_type), []).append(summary)
    return groups


class TestFeatures:
    def test_feature_dimensions_match_extractors(self, alexnet):
        for family, members in _by_family(alexnet.summarize()).items():
            matrix = family_feature_matrix(family, members)
            assert matrix.shape == (len(members), len(layer_features(members[0])))
            assert np.all(np.isfinite(matrix))
            assert np.all(matrix >= 0)

    def test_conv_features_scale_with_layer_size(self, alexnet):
        by_name = {s.name: s for s in alexnet.summarize()}
        small, large = family_feature_matrix("conv", [by_name["conv1"], by_name["conv2"]])
        # conv2 has more MACs than conv1 (feature index 2).
        assert large[2] > small[2]

    @settings(max_examples=25, deadline=None)
    @given(
        space_name=st.sampled_from(SPACE_NAMES),
        seed=st.integers(0, 2**31 - 1),
        pool_size=st.integers(1, 4),
    )
    def test_matrix_rows_equal_the_per_layer_oracle(
        self, alexnet, space_name, seed, pool_size
    ):
        """Every matrix row is the per-layer feature vector, bit for bit."""
        space = _space(space_name)
        rng = np.random.default_rng(seed)
        summaries = list(alexnet.summarize())
        for _ in range(pool_size):
            summaries.extend(space.decode_for_performance(space.sample(rng)).summarize())
        for family, members in _by_family(summaries).items():
            matrix = family_feature_matrix(family, members)
            for row, summary in zip(matrix, members):
                assert np.array_equal(row, layer_features(summary))


class TestProfilingDataset:
    def test_validates_row_counts(self):
        with pytest.raises(ValueError):
            ProfilingDataset("conv", np.zeros((3, 2)), np.zeros(2), np.zeros(3))

    def test_len(self):
        dataset = ProfilingDataset("fc", np.zeros((4, 2)), np.zeros(4), np.ones(4))
        assert len(dataset) == 4


class TestLayerProfiler:
    @pytest.fixture(scope="class")
    def profiler(self, gpu_device):
        simulator = LayerCostSimulator(gpu_device, noise_std=0.02, rng=0)
        return LayerProfiler(simulator, samples_per_type=40, rng=0)

    def test_profile_all_families(self, profiler):
        datasets = profiler.profile_all()
        assert set(datasets) == {"conv", "fc", "pool"}
        for family, dataset in datasets.items():
            assert dataset.layer_type == family
            assert len(dataset) == 40
            assert np.all(dataset.latencies_s > 0)
            assert np.all(dataset.powers_w > 0)

    def test_datasets_stack_the_oracle_rows_and_fit_identically(self, gpu_device):
        """Training rows equal the per-layer oracle's, and so do the fits."""

        def profiler():
            simulator = LayerCostSimulator(gpu_device, noise_std=0.02, rng=5)
            return LayerProfiler(simulator, samples_per_type=30, rng=5)

        datasets = profiler().profile_all()
        # Same seed, and the generators draw lazily in profile_all's family
        # order: the replay yields the same configurations.
        replay = profiler()
        configs = {
            "conv": replay._sample_conv_configs(),
            "fc": replay._sample_fc_configs(),
            "pool": replay._sample_pool_configs(),
        }
        for family, family_configs in configs.items():
            rows = np.vstack(
                [layer_features(summarize_layer(0, *config)) for config in family_configs]
            )
            dataset = datasets[family]
            assert np.array_equal(dataset.features, rows)
            for targets in (dataset.latencies_s, dataset.powers_w):
                fitted = RidgeRegression().fit(dataset.features, targets)
                reference = RidgeRegression().fit(rows, targets)
                for attribute in ("_weights", "_mean", "_std"):
                    assert np.array_equal(
                        getattr(fitted, attribute), getattr(reference, attribute)
                    )

    def test_profiles_cover_a_wide_latency_range(self, profiler):
        conv = profiler.profile_conv()
        assert conv.latencies_s.max() / conv.latencies_s.min() > 10

    def test_rejects_tiny_sample_budget(self, gpu_device):
        simulator = LayerCostSimulator(gpu_device)
        with pytest.raises(ValueError):
            LayerProfiler(simulator, samples_per_type=5)


#: A grid where only the 3x3 kernel fits the smallest (3x3) input, so some
#: kernel draws pick from a one-element list.
ONE_KERNEL_GRID = dict(
    conv_spatial_sizes=(3, 14, 56),
    conv_kernels=(3, 5, 7),
    conv_channels=(3, 64),
    conv_strides=(1, 2),
    pool_spatial_sizes=(3, 28),
)


def _profiled(profiler_class, device, seed, grid):
    """``profile_all``'s datasets and the generator's state afterwards.

    The simulator and the profiler share one generator, as
    ``LayerPerformancePredictor.train_for_device`` builds them.
    """
    rng = np.random.default_rng(seed)
    simulator = LayerCostSimulator(device, noise_std=0.03, rng=rng)
    profiler = profiler_class(simulator, samples_per_type=60, rng=rng, **grid)
    return profiler.profile_all(), rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 3, 5, 2021])
@pytest.mark.parametrize(
    "device, grid",
    [(jetson_tx2_gpu, {}), (jetson_tx2_cpu, {}), (jetson_tx2_gpu, ONE_KERNEL_GRID)],
    ids=["tx2-gpu", "tx2-cpu", "one-kernel-grid"],
)
def test_profile_all_equals_the_choice_oracle_byte_for_byte(device, grid, seed):
    """Index draws give the ``rng.choice`` datasets and generator state."""
    ours, our_state = _profiled(LayerProfiler, device(), seed, grid)
    theirs, their_state = _profiled(ChoiceLayerProfiler, device(), seed, grid)
    assert set(ours) == set(theirs) == {"conv", "fc", "pool"}
    for family, dataset in ours.items():
        expected = theirs[family]
        for attribute in ("features", "latencies_s", "powers_w"):
            mine, reference = getattr(dataset, attribute), getattr(expected, attribute)
            assert mine.shape == reference.shape
            assert mine.tobytes() == reference.tobytes()
    assert our_state == their_state


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    lengths=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
)
def test_property_index_draw_equals_choice(seed, lengths):
    """``values[integers(0, len(values))]`` draws what ``rng.choice`` draws.

    Every trained predictor, and so every seeded golden and digest, depends
    on this equivalence.  Tuples and lists of every length, interleaved with
    the simulator's ``normal`` draws, leave both generators in one state.
    """
    indexed = np.random.default_rng(seed)
    chosen = np.random.default_rng(seed)
    for length in lengths:
        for values in (tuple(range(10, 10 + length)), list(range(7, 7 + length))):
            assert _draw(indexed, values) == chosen.choice(values)
            assert indexed.normal() == chosen.normal()
    assert indexed.bit_generator.state == chosen.bit_generator.state
