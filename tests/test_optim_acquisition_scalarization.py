"""Tests for acquisition strategies and scalarisation utilities."""

import numpy as np
import pytest

from repro.optim.acquisition import ACQUISITION_STRATEGIES, acquisition_scores
from repro.optim.gp_bank import GPBank
from repro.optim.scalarization import (
    chebyshev_scalarize,
    normalize_objectives,
    random_weights,
    weighted_sum_scalarize,
)


@pytest.fixture
def fitted_bank(rng):
    X = rng.uniform(size=(25, 2))
    y1 = X[:, 0] ** 2 + 0.1 * X[:, 1]
    y2 = (1 - X[:, 0]) ** 2 + 0.1 * X[:, 1]
    return GPBank(2, noise_variance=1e-6).fit(X, np.column_stack([y1, y2]))


class TestScalarization:
    def test_random_weights_on_simplex(self, rng):
        for _ in range(10):
            weights = random_weights(3, rng)
            assert weights.shape == (3,)
            assert np.all(weights >= 0)
            assert weights.sum() == pytest.approx(1.0)

    def test_random_weights_requires_positive_count(self):
        with pytest.raises(ValueError):
            random_weights(0)

    def test_normalize_objectives_maps_to_unit_range(self, rng):
        Y = rng.uniform(10, 500, size=(20, 3))
        normalised, lower, upper = normalize_objectives(Y)
        assert normalised.min() == pytest.approx(0.0)
        assert normalised.max() == pytest.approx(1.0)
        assert np.all(lower <= upper)

    def test_normalize_constant_column_maps_to_half(self):
        Y = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        normalised, _, _ = normalize_objectives(Y)
        assert np.allclose(normalised[:, 0], 0.5)

    def test_normalize_with_explicit_bounds(self):
        Y = np.array([[5.0, 5.0]])
        normalised, _, _ = normalize_objectives(
            Y, lower=np.array([0.0, 0.0]), upper=np.array([10.0, 10.0])
        )
        assert np.allclose(normalised, 0.5)

    def test_chebyshev_prefers_balanced_solutions(self):
        weights = np.array([0.5, 0.5])
        balanced = chebyshev_scalarize(np.array([0.4, 0.4]), weights)
        lopsided = chebyshev_scalarize(np.array([0.0, 0.9]), weights)
        assert balanced < lopsided

    def test_chebyshev_matrix_input(self):
        values = np.array([[0.2, 0.4], [0.9, 0.1]])
        scores = chebyshev_scalarize(values, np.array([0.5, 0.5]))
        assert scores.shape == (2,)

    def test_chebyshev_validation(self):
        with pytest.raises(ValueError):
            chebyshev_scalarize(np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            chebyshev_scalarize(np.array([0.1, 0.2]), np.array([-0.5, 1.5]))

    def test_weighted_sum(self):
        assert weighted_sum_scalarize(
            np.array([1.0, 2.0]), np.array([0.25, 0.75])
        ) == pytest.approx(1.75)
        with pytest.raises(ValueError):
            weighted_sum_scalarize(np.array([1.0]), np.array([0.5, 0.5]))


class TestAcquisitions:
    def test_thompson_scores_shape_and_variability(self, fitted_bank, rng):
        pool = rng.uniform(size=(15, 2))
        scores_a = acquisition_scores("ts", fitted_bank, pool, rng=rng)
        scores_b = acquisition_scores("ts", fitted_bank, pool, rng=rng)
        assert scores_a.shape == (15, 2)
        assert not np.allclose(scores_a, scores_b)

    def test_lcb_is_optimistic(self, fitted_bank, rng):
        pool = rng.uniform(size=(10, 2))
        lcb = acquisition_scores("ucb", fitted_bank, pool)
        means = acquisition_scores("mean", fitted_bank, pool)
        assert np.all(lcb <= means + 1e-12)

    def test_mean_scores_track_true_function_ordering(self, fitted_bank):
        pool = np.array([[0.05, 0.5], [0.95, 0.5]])
        means = acquisition_scores("mean", fitted_bank, pool)
        # Objective 1 = x0^2 grows with x0; objective 2 shrinks.
        assert means[0, 0] < means[1, 0]
        assert means[0, 1] > means[1, 1]

    def test_dispatch_random_strategy(self, fitted_bank, rng):
        pool = rng.uniform(size=(8, 2))
        scores = acquisition_scores("random", fitted_bank, pool, rng=0)
        again = acquisition_scores("random", fitted_bank, pool, rng=0)
        assert scores.shape == (8, 2)
        assert np.allclose(scores, again)

    def test_dispatch_validates_strategy(self, fitted_bank, rng):
        with pytest.raises(ValueError):
            acquisition_scores("bogus", fitted_bank, rng.uniform(size=(3, 2)))

    def test_all_strategies_produce_finite_scores(self, fitted_bank, rng):
        pool = rng.uniform(size=(6, 2))
        front = np.array([[0.2, 0.8], [0.6, 0.3]])  # required by "epdc" only
        for strategy in ACQUISITION_STRATEGIES:
            scores = acquisition_scores(
                strategy, fitted_bank, pool, rng=rng, front=front
            )
            assert scores.shape == (6, 2)
            assert np.all(np.isfinite(scores))

    def test_epdc_requires_a_front(self, fitted_bank, rng):
        with pytest.raises(ValueError, match="front"):
            acquisition_scores("epdc", fitted_bank, rng.uniform(size=(3, 2)))
