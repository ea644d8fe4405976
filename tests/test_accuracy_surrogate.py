"""Tests for the analytic accuracy surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accuracy.surrogate import AccuracySurrogate
from repro.nn.search_space import LensSearchSpace
from repro.nn.vgg import build_vgg_like


def vgg_arch(block_filters, block_depths, fc_units, name):
    return build_vgg_like(
        name=name,
        block_filters=block_filters,
        block_depths=block_depths,
        fc_units=fc_units,
        num_classes=10,
        input_shape=(3, 32, 32),
    )


class TestSurrogateTrends:
    def test_output_within_configured_bounds(self, surrogate, search_space, rng):
        for _ in range(20):
            arch = search_space.decode_for_accuracy(search_space.sample(rng))
            error = surrogate.error_percent(arch)
            assert surrogate.floor <= error <= surrogate.ceiling

    def test_deterministic_per_architecture(self, surrogate, search_space):
        arch = search_space.decode_for_accuracy(search_space.sample(7))
        assert surrogate.error_percent(arch) == surrogate.error_percent(arch)

    def test_deeper_networks_have_lower_error(self):
        surrogate = AccuracySurrogate(noise_std=0.0)
        shallow = vgg_arch((64,) * 5, (1,) * 5, (1024,), "shallow")
        deep = vgg_arch((64,) * 5, (3,) * 5, (1024,), "deep")
        assert surrogate.error_percent(deep) < surrogate.error_percent(shallow)

    def test_wider_networks_have_lower_error(self):
        surrogate = AccuracySurrogate(noise_std=0.0)
        thin = vgg_arch((24,) * 5, (2,) * 5, (1024,), "thin")
        wide = vgg_arch((128,) * 5, (2,) * 5, (1024,), "wide")
        assert surrogate.error_percent(wide) < surrogate.error_percent(thin)

    def test_larger_fc_layers_help(self):
        surrogate = AccuracySurrogate(noise_std=0.0)
        small_fc = vgg_arch((64,) * 5, (2,) * 5, (256,), "small-fc")
        large_fc = vgg_arch((64,) * 5, (2,) * 5, (4096,), "large-fc")
        assert surrogate.error_percent(large_fc) <= surrogate.error_percent(small_fc)

    def test_different_salt_changes_noise_only_slightly(self):
        arch = vgg_arch((64,) * 5, (2,) * 5, (1024,), "salted")
        a = AccuracySurrogate(seed_salt="run-a").error_percent(arch)
        b = AccuracySurrogate(seed_salt="run-b").error_percent(arch)
        assert a != b
        assert abs(a - b) < 10.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AccuracySurrogate(floor=50.0, ceiling=40.0)
        with pytest.raises(ValueError):
            AccuracySurrogate(noise_std=-1.0)
        with pytest.raises(ValueError, match="noise_std"):
            AccuracySurrogate(noise_std=float("nan"))

    def test_search_space_errors_span_a_useful_range(self, search_space):
        """Errors over the space must straddle the Fig. 7 criteria (20/25 %)."""
        surrogate = AccuracySurrogate()
        errors = [
            surrogate.error_percent(search_space.decode_for_accuracy(search_space.sample(seed)))
            for seed in range(40)
        ]
        assert min(errors) < 25.0
        assert max(errors) > 25.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_error_is_finite_and_bounded_for_any_candidate(seed):
    space = LensSearchSpace()
    surrogate = AccuracySurrogate()
    arch = space.decode_for_accuracy(space.sample(seed))
    error = surrogate.error_percent(arch)
    assert np.isfinite(error)
    assert 0.0 < error < 100.0
