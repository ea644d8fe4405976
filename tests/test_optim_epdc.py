"""Tests for the EPDC acquisition subsystem and q-batch selection."""

import numpy as np
import pytest

from repro.optim.acquisition import acquisition_scores
from repro.optim.epdc import (
    DEFAULT_EPDC_SAMPLES,
    epdc_score_matrix,
    epdc_scores,
    pareto_distance_contributions,
    select_batch,
)
from repro.optim.gp_bank import GPBank
from repro.optim.mobo import MultiObjectiveBayesianOptimizer
from repro.optim.pareto import pareto_front_mask


def _training_data():
    rng = np.random.default_rng(99)
    X = rng.uniform(size=(25, 2))
    y1 = X[:, 0] ** 2 + 0.1 * X[:, 1]
    y2 = (1 - X[:, 0]) ** 2 + 0.1 * X[:, 1]
    return X, y1, y2


@pytest.fixture
def fitted_bank():
    X, y1, y2 = _training_data()
    return GPBank(num_objectives=2, noise_variance=1e-6).fit(
        X, np.column_stack([y1, y2])
    )


FRONT = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])


class TestDistanceContributions:
    def test_dominated_samples_contribute_zero(self):
        samples = np.array([[0.6, 0.6], [0.95, 0.95], [0.5, 0.5]])  # last = front point
        contributions = pareto_distance_contributions(samples, FRONT)
        assert np.all(contributions == 0.0)

    def test_improving_sample_contributes_distance_to_nearest_front_point(self):
        samples = np.array([[0.4, 0.4]])
        contributions = pareto_distance_contributions(samples, FRONT)
        expected = np.linalg.norm([0.4 - 0.5, 0.4 - 0.5])
        assert contributions[0] == pytest.approx(expected)

    def test_trade_off_sample_contributes_its_gap(self):
        # Not dominated by any front point (better on objective 1 than all).
        samples = np.array([[0.05, 1.5]])
        contributions = pareto_distance_contributions(samples, FRONT)
        assert contributions[0] > 0.0

    def test_empty_front_falls_back_to_norms(self):
        samples = np.array([[3.0, 4.0], [0.0, 0.0]])
        contributions = pareto_distance_contributions(samples, np.empty((0, 2)))
        assert contributions == pytest.approx([5.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pareto_distance_contributions(np.ones((2, 3)), FRONT)


class TestEpdcScores:
    def test_shape_and_finiteness(self, fitted_bank, rng):
        pool = rng.uniform(size=(12, 2))
        scores = epdc_scores(fitted_bank, pool, FRONT, rng=rng)
        assert scores.shape == (12,)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0)

    def test_deterministic_under_seeded_rng(self, fitted_bank, rng):
        pool = rng.uniform(size=(10, 2))
        first = epdc_scores(fitted_bank, pool, FRONT, rng=7)
        second = epdc_scores(fitted_bank, pool, FRONT, rng=7)
        assert np.array_equal(first, second)

    def test_bank_and_list_agree(self, fitted_bank, rng):
        """The bank's draws equal the list of its members' own posterior draws."""
        pool = rng.uniform(size=(10, 2))
        stream = np.random.default_rng(3)
        from_list = np.mean(
            [
                pareto_distance_contributions(
                    np.column_stack(
                        [m.sample_posterior(pool, rng=stream) for m in fitted_bank.models]
                    ),
                    FRONT,
                )
                for _ in range(DEFAULT_EPDC_SAMPLES)
            ],
            axis=0,
        )
        from_bank = epdc_scores(fitted_bank, pool, FRONT, rng=3)
        assert from_list == pytest.approx(from_bank, abs=1e-9)

    def test_score_matrix_is_negated_and_tiled(self, fitted_bank, rng):
        pool = rng.uniform(size=(8, 2))
        values = epdc_scores(fitted_bank, pool, FRONT, rng=5)
        matrix = epdc_score_matrix(fitted_bank, pool, FRONT, rng=5)
        assert matrix.shape == (8, 2)
        assert matrix[:, 0] == pytest.approx(-values)
        assert np.array_equal(matrix[:, 0], matrix[:, 1])

    def test_dispatch_through_acquisition_scores(self, fitted_bank, rng):
        pool = rng.uniform(size=(6, 2))
        direct = epdc_score_matrix(fitted_bank, pool, FRONT, rng=11)
        dispatched = acquisition_scores(
            "epdc", fitted_bank, pool, rng=11, front=FRONT
        )
        assert np.array_equal(direct, dispatched)

    def test_default_sample_count_is_modest(self):
        # the MC loop runs once per draw; keep the default cheap
        assert 1 <= DEFAULT_EPDC_SAMPLES <= 64


class TestSelectBatch:
    def test_returns_requested_number_of_distinct_indices(self, rng):
        scores = rng.uniform(size=20)
        features = rng.uniform(size=(20, 5))
        batch = select_batch(scores, features, 6)
        assert len(batch) == 6
        assert len(set(batch)) == 6
        assert all(0 <= index < 20 for index in batch)

    def test_first_pick_is_the_best_score(self, rng):
        scores = rng.uniform(size=15)
        features = rng.uniform(size=(15, 4))
        batch = select_batch(scores, features, 4)
        assert batch[0] == int(np.argmin(scores))

    def test_batch_larger_than_pool_is_clamped(self, rng):
        scores = rng.uniform(size=3)
        features = rng.uniform(size=(3, 2))
        assert sorted(select_batch(scores, features, 10)) == [0, 1, 2]

    def test_single_point_batch_matches_argmin(self, rng):
        scores = rng.uniform(size=9)
        features = rng.uniform(size=(9, 3))
        assert select_batch(scores, features, 1) == [int(np.argmin(scores))]

    def test_duplicate_designs_are_avoided(self):
        # Three near-identical good designs, one distinct mediocre one and a
        # bad one: the penalty should pull the distinct design into a batch
        # of two ahead of the near-duplicates' better scores.
        features = np.array(
            [[0.0, 0.0], [0.0, 0.0], [0.00001, 0.0], [1.0, 1.0], [0.0, 1.0]]
        )
        scores = np.array([0.0, 0.01, 0.02, 0.3, 1.0])
        batch = select_batch(scores, features, 2)
        assert batch[0] == 0
        assert batch[1] == 3

    def test_degenerate_scores_select_for_diversity(self):
        features = np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 1.0]])
        scores = np.zeros(3)
        batch = select_batch(scores, features, 2)
        # constant scores: after the first (index 0) pick the farthest design
        assert batch == [0, 2]

    def test_deterministic(self, rng):
        scores = rng.uniform(size=30)
        features = rng.uniform(size=(30, 6))
        assert select_batch(scores, features, 8) == select_batch(
            scores, features, 8
        )

    def test_empty_pool(self):
        assert select_batch(np.array([]), np.empty((0, 3)), 4) == []

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            select_batch(rng.uniform(size=5), rng.uniform(size=(5, 2)), 0)
        with pytest.raises(ValueError):
            select_batch(rng.uniform(size=5), rng.uniform(size=(4, 2)), 2)


def _toy_optimizer(**overrides):
    """A tiny synthetic two-objective MOBO problem (no evaluator needed)."""
    def sample_fn(rng):
        return rng.uniform(size=3)

    def objective(x):
        x = np.asarray(x, dtype=float)
        return np.array([float(np.sum(x**2)), float(np.sum((1.0 - x) ** 2))])

    settings = dict(
        sample_fn=sample_fn,
        feature_fn=lambda x: np.asarray(x, dtype=float),
        batch_objective_fn=lambda xs: [objective(x) for x in xs],
        num_objectives=2,
        num_initial=4,
        num_iterations=6,
        candidate_pool_size=16,
        seed=0,
    )
    settings.update(overrides)
    return MultiObjectiveBayesianOptimizer(**settings)


class TestBatchedMobo:
    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            _toy_optimizer(batch_size=0)

    @pytest.mark.parametrize("acquisition", ["ts", "epdc"])
    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    def test_budget_is_respected_for_any_batch_size(self, acquisition, batch_size):
        result = _toy_optimizer(
            acquisition=acquisition, batch_size=batch_size
        ).run()
        assert len(result.points) == 4 + 6  # num_initial + num_iterations
        bo_points = [p for p in result.points if p.phase == "bo"]
        assert len(bo_points) == 6
        assert sorted(p.iteration for p in result.points) == list(range(10))

    def test_epdc_runs_and_archives_non_dominated_points(self):
        result = _toy_optimizer(acquisition="epdc", batch_size=2).run()
        front = result.pareto_objectives()
        assert front.shape[0] >= 1
        assert pareto_front_mask(front).all()

    def test_batch_size_one_matches_legacy_sequence(self):
        """q=1 must reproduce the old one-candidate-per-iteration loop exactly."""
        baseline = _toy_optimizer(acquisition="ts", batch_size=1).run()
        again = _toy_optimizer(acquisition="ts").run()
        for a, b in zip(baseline.points, again.points):
            assert np.array_equal(a.objectives, b.objectives)
            assert a.iteration == b.iteration
