"""Tests for the per-layer latency/power regression predictors (paper IV-C)."""

import numpy as np
import pytest

from repro.hardware.predictors import (
    LayerPerformancePredictor,
    OracleLayerPredictor,
    RidgeRegression,
    prediction_error_report,
)


class TestRidgeRegression:
    def test_recovers_linear_relationship(self, rng):
        X = rng.uniform(0, 10, size=(200, 3))
        y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5 * X[:, 2] + 3.0
        model = RidgeRegression(alpha=1e-6).fit(X, y)
        predictions = model.predict(X)
        assert np.allclose(predictions, y, atol=1e-6)
        assert model.score(X, y) == pytest.approx(1.0, abs=1e-9)

    def test_handles_constant_features(self, rng):
        X = np.column_stack([np.ones(50), rng.uniform(size=50)])
        y = 4.0 * X[:, 1]
        model = RidgeRegression().fit(X, y)
        assert model.score(X, y) > 0.99

    def test_requires_fit_before_predict(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((1, 2)))

    def test_rejects_mismatched_shapes_and_tiny_datasets(self):
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((1, 2)), np.zeros(1))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1.0)


class TestLayerPerformancePredictor:
    def test_training_scores_are_high(self, gpu_predictor):
        scores = gpu_predictor.training_scores
        assert set(scores) == {"conv", "fc", "pool"}
        for family_scores in scores.values():
            # Latency varies over orders of magnitude and must be captured well;
            # power is nearly constant within a family (utilisation-dominated),
            # so its R^2 is not meaningful — accuracy is checked separately below.
            assert family_scores["latency_r2"] > 0.8
            assert family_scores["samples"] > 0

    def test_power_predictions_close_to_oracle(self, gpu_predictor, gpu_oracle, alexnet):
        predicted = gpu_predictor.predict_architecture(alexnet)[:, 1]
        oracle = gpu_oracle.predict_architecture(alexnet)[:, 1]
        for summary, power, true_power in zip(alexnet.summarize(), predicted, oracle):
            if summary.layer_type in gpu_predictor.supported_families:
                assert power == pytest.approx(true_power, rel=0.25)

    def test_predictions_are_positive(self, gpu_predictor, alexnet):
        predictions = gpu_predictor.predict_architecture(alexnet)
        assert predictions.shape == (len(alexnet), 2)
        for summary, (latency, power) in zip(alexnet.summarize(), predictions):
            if summary.layer_type in gpu_predictor.supported_families:
                assert latency > 0
            else:
                # Structural layers (flatten/dropout) are predicted as free.
                assert latency == 0.0
            assert power > 0

    def test_total_latency_close_to_oracle(self, gpu_predictor, gpu_oracle, alexnet):
        predicted = gpu_predictor.totals(alexnet)[0]
        oracle = gpu_oracle.totals(alexnet)[0]
        assert predicted == pytest.approx(oracle, rel=0.35)

    def test_structural_layers_are_free(self, gpu_predictor, alexnet):
        flatten_index = next(
            s.index for s in alexnet.summarize() if s.layer_type == "flatten"
        )
        latency, power = gpu_predictor.predict_architecture(alexnet)[flatten_index]
        assert latency == 0.0
        assert power == gpu_predictor.device.idle_power_w

    def test_unfitted_predictor_raises(self, gpu_device, alexnet):
        predictor = LayerPerformancePredictor(gpu_device)
        with pytest.raises(RuntimeError):
            predictor.predict_pool([alexnet])
        with pytest.raises(ValueError):
            predictor.fit({})

    def test_error_report_against_oracle(self, gpu_predictor, search_space):
        architectures = [
            search_space.decode_for_performance(search_space.sample(seed))
            for seed in range(4)
        ]
        report = prediction_error_report(gpu_predictor, architectures)
        assert report["architectures"] == 4
        assert report["latency_mape"] < 0.5
        assert report["energy_mape"] < 0.5


class TestOraclePredictor:
    def test_oracle_matches_simulator_ordering(self, gpu_oracle, cpu_oracle, alexnet):
        assert cpu_oracle.totals(alexnet)[0] > gpu_oracle.totals(alexnet)[0]

    def test_oracle_is_deterministic(self, gpu_oracle, alexnet):
        assert gpu_oracle.totals(alexnet)[1] == gpu_oracle.totals(alexnet)[1]
