"""Tests for the Matérn-5/2 kernel and exact Gaussian-process regression."""

import numpy as np
import pytest

from repro.optim.gp import (
    LENGTHSCALE_GRID,
    GaussianProcess,
    matern52,
    pairwise_distances,
)


class TestKernels:
    def test_pairwise_distances_match_numpy(self, rng):
        X1 = rng.uniform(size=(5, 3))
        X2 = rng.uniform(size=(7, 3))
        distances = pairwise_distances(X1, X2)
        expected = np.linalg.norm(X1[:, None, :] - X2[None, :, :], axis=-1)
        assert np.allclose(distances, expected)
        assert np.allclose(pairwise_distances(X1, X2, 0.5), 2.0 * expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            GaussianProcess(lengthscale=0.0)

    def test_kernel_properties(self, rng):
        X = rng.uniform(size=(6, 3))
        K = GaussianProcess(lengthscale=0.4).kernel(X, X)
        # Symmetric, unit diagonal, PSD (after jitter).
        assert np.allclose(K, K.T)
        assert np.allclose(np.diag(K), 1.0)
        eigenvalues = np.linalg.eigvalsh(K + 1e-10 * np.eye(6))
        assert np.all(eigenvalues > -1e-8)

    def test_kernel_decays_with_distance(self):
        kernel = GaussianProcess(lengthscale=0.3).kernel
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert near > far

    def test_from_scaled_distances_matches_direct_evaluation(self, rng):
        """One unscaled distance pass + an elementwise rescale ≡ the full kernel."""
        X1 = rng.uniform(size=(6, 4))
        X2 = rng.uniform(size=(9, 4))
        r0 = pairwise_distances(X1, X2)
        direct = GaussianProcess(lengthscale=0.45).kernel(X1, X2)
        assert np.allclose(matern52(r0 / 0.45), direct, atol=1e-12)

    def test_pairwise_distances_is_unscaled(self, rng):
        """The default lengthscale is 1, and rescaling matches pre-division."""
        X = rng.uniform(size=(5, 3))
        r0 = pairwise_distances(X, X)
        assert np.array_equal(r0, pairwise_distances(X, X, 1.0))
        assert np.allclose(r0 / 0.3, pairwise_distances(X, X, 0.3), atol=1e-6)


class TestGaussianProcess:
    def _train_data(self, rng, n=30):
        X = rng.uniform(size=(n, 2))
        y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2
        return X, y

    def test_interpolates_training_points_with_low_noise(self, rng):
        X, y = self._train_data(rng)
        gp = GaussianProcess(noise_variance=1e-8).fit(X, y)
        mean, std = gp.predict(X)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        X, y = self._train_data(rng)
        gp = GaussianProcess(noise_variance=1e-6).fit(X, y)
        _, std_near = gp.predict(X[:1])
        _, std_far = gp.predict(np.array([[5.0, 5.0]]))
        assert std_far[0] > std_near[0] * 5

    def test_posterior_samples_have_correct_shape_and_spread(self, rng):
        X, y = self._train_data(rng)
        gp = GaussianProcess(noise_variance=1e-6).fit(X, y)
        Xs = rng.uniform(size=(10, 2))
        samples = np.vstack([gp.sample_posterior(Xs, rng=rng) for _ in range(5)])
        assert samples.shape == (5, 10)
        mean, std = gp.predict(Xs)
        # Samples concentrate around the posterior mean.
        assert np.all(np.abs(samples.mean(axis=0) - mean) < 5 * (std + 0.1))

    def test_prediction_requires_fit(self):
        gp = GaussianProcess()
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            gp.log_marginal_likelihood()

    def test_fit_validates_shapes(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_normalization_handles_large_scale_targets(self, rng):
        X = rng.uniform(size=(20, 1))
        y = 1e6 * X[:, 0] + 5e5
        gp = GaussianProcess(noise_variance=1e-6).fit(X, y)
        mean, _ = gp.predict(X)
        assert np.allclose(mean, y, rtol=1e-3)

    def test_lengthscale_optimisation_improves_likelihood(self, rng):
        X, y = self._train_data(rng, n=40)
        gp = GaussianProcess(lengthscale=LENGTHSCALE_GRID[0], noise_variance=1e-4)
        gp.fit(X, y)
        before = gp.log_marginal_likelihood()
        best = gp.optimize_lengthscale()
        after = gp.log_marginal_likelihood()
        assert after >= before
        assert best in LENGTHSCALE_GRID
        assert gp.lengthscale == best

    def test_lengthscale_optimisation_factorizes_once_per_candidate(self, rng, monkeypatch):
        """The winning grid iteration's fit is kept — no redundant final refit."""
        X, y = self._train_data(rng, n=25)
        gp = GaussianProcess().fit(X, y)
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or original(a))
        gp.optimize_lengthscale()
        assert len(calls) == len(LENGTHSCALE_GRID)

    def test_lengthscale_optimisation_leaves_best_fit_installed(self, rng):
        """The kept factor equals what a fresh fit at the winner produces."""
        X, y = self._train_data(rng, n=30)
        gp = GaussianProcess().fit(X, y)
        best = gp.optimize_lengthscale()
        exact = GaussianProcess(lengthscale=best).fit(X, y)
        mean_a, std_a = gp.predict(X[:5])
        mean_b, std_b = exact.predict(X[:5])
        assert np.allclose(mean_a, mean_b, atol=1e-10)
        assert np.allclose(std_a, std_b, atol=1e-10)

    def test_num_observations(self, rng):
        X, y = self._train_data(rng, n=12)
        gp = GaussianProcess()
        assert gp.num_observations == 0
        gp.fit(X, y)
        assert gp.num_observations == 12
        assert gp.is_fitted
