"""Tests for GP kernels and exact Gaussian-process regression."""

import numpy as np
import pytest

from repro.optim.gp import GaussianProcess
from repro.optim.kernels import (
    Kernel,
    Matern52Kernel,
    RBFKernel,
    is_scalar_lengthscale,
    pairwise_distances,
    pairwise_scaled_distances,
    supports_distance_reuse,
)


class TestKernels:
    def test_pairwise_distances_match_numpy(self, rng):
        X1 = rng.uniform(size=(5, 3))
        X2 = rng.uniform(size=(7, 3))
        distances = pairwise_scaled_distances(X1, X2, 1.0)
        expected = np.linalg.norm(X1[:, None, :] - X2[None, :, :], axis=-1)
        assert np.allclose(distances, expected)

    def test_lengthscale_vector_support(self, rng):
        X = rng.uniform(size=(4, 2))
        iso = pairwise_scaled_distances(X, X, 0.5)
        aniso = pairwise_scaled_distances(X, X, np.array([0.5, 0.5]))
        assert np.allclose(iso, aniso)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_scaled_distances(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)
        with pytest.raises(ValueError):
            pairwise_scaled_distances(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(5))
        with pytest.raises(ValueError):
            pairwise_scaled_distances(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_kernel_properties(self, kernel_cls, rng):
        kernel = kernel_cls(lengthscale=0.4, variance=2.0)
        X = rng.uniform(size=(6, 3))
        K = kernel(X, X)
        # Symmetric, diagonal equals the variance, PSD (after jitter).
        assert np.allclose(K, K.T)
        assert np.allclose(np.diag(K), 2.0)
        eigenvalues = np.linalg.eigvalsh(K + 1e-10 * np.eye(6))
        assert np.all(eigenvalues > -1e-8)
        assert np.allclose(kernel.diag(X), 2.0)

    def test_kernel_decays_with_distance(self):
        kernel = RBFKernel(lengthscale=0.3)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert near > far

    def test_with_params_creates_modified_copy(self):
        kernel = Matern52Kernel(lengthscale=0.3)
        other = kernel.with_params(lengthscale=0.9)
        assert other.lengthscale == 0.9
        assert kernel.lengthscale == 0.3

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            RBFKernel(variance=0.0)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_from_scaled_distances_matches_direct_evaluation(self, kernel_cls, rng):
        """One unscaled distance pass + an elementwise rescale ≡ the full kernel."""
        kernel = kernel_cls(lengthscale=0.45, variance=1.5)
        X1 = rng.uniform(size=(6, 4))
        X2 = rng.uniform(size=(9, 4))
        r0 = pairwise_distances(X1, X2)
        assert np.allclose(
            kernel.from_scaled_distances(r0 / 0.45), kernel(X1, X2), atol=1e-12
        )

    def test_pairwise_distances_is_unscaled(self, rng):
        X = rng.uniform(size=(5, 3))
        assert np.allclose(pairwise_distances(X, X), pairwise_scaled_distances(X, X, 1.0))

    def test_is_scalar_lengthscale(self):
        assert is_scalar_lengthscale(0.3)
        assert not is_scalar_lengthscale(np.array([0.3, 0.5]))

    def test_supports_distance_reuse(self):
        assert supports_distance_reuse(Matern52Kernel(lengthscale=0.3))
        assert not supports_distance_reuse(Matern52Kernel(lengthscale=np.array([0.3, 0.5])))

        class Minimal(Kernel):
            lengthscale = 0.5

        assert not supports_distance_reuse(Minimal())


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
        samples = gp.sample_posterior(Xs, rng=rng, num_samples=5)
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
        gp = GaussianProcess(kernel=Matern52Kernel(lengthscale=0.01), noise_variance=1e-4)
        gp.fit(X, y)
        before = gp.log_marginal_likelihood()
        best = gp.optimize_lengthscale(candidates=(0.01, 0.1, 0.3, 0.8))
        after = gp.log_marginal_likelihood()
        assert after >= before
        assert best in (0.01, 0.1, 0.3, 0.8)

    def test_lengthscale_optimisation_factorizes_once_per_candidate(self, rng, monkeypatch):
        """The winning grid iteration's fit is kept — no redundant final refit."""
        X, y = self._train_data(rng, n=25)
        gp = GaussianProcess().fit(X, y)
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or original(a))
        candidates = (0.1, 0.3, 0.8, 2.0)
        gp.optimize_lengthscale(candidates=candidates)
        assert len(calls) == len(candidates)

    def test_lengthscale_optimisation_leaves_best_fit_installed(self, rng):
        """The kept factor equals what a fresh fit at the winner produces."""
        X, y = self._train_data(rng, n=30)
        gp = GaussianProcess().fit(X, y)
        best = gp.optimize_lengthscale(candidates=(0.1, 0.3, 0.8))
        exact = GaussianProcess(kernel=Matern52Kernel(lengthscale=best)).fit(X, y)
        mean_a, std_a = gp.predict(X[:5])
        mean_b, std_b = exact.predict(X[:5])
        assert np.allclose(mean_a, mean_b, atol=1e-10)
        assert np.allclose(std_a, std_b, atol=1e-10)

    def test_lengthscale_optimisation_vector_lengthscale_fallback(self, rng):
        """Anisotropic kernels can't share distances but the grid still works."""
        X, y = self._train_data(rng, n=20)
        gp = GaussianProcess(kernel=Matern52Kernel(lengthscale=np.array([0.3, 0.3])))
        gp.fit(X, y)
        best = gp.optimize_lengthscale(candidates=(0.2, 0.6))
        assert best in (0.2, 0.6)

    def test_lengthscale_optimisation_custom_kernel_without_distance_hook(self, rng):
        """Kernels implementing only the pre-existing __call__ contract still work."""

        class ExpKernel(Kernel):
            def __init__(self, lengthscale=0.3, variance=1.0):
                self.lengthscale = lengthscale
                self.variance = float(variance)

            def __call__(self, X1, X2):
                r = pairwise_scaled_distances(X1, X2, self.lengthscale)
                return self.variance * np.exp(-r)

            def get_params(self):
                return {"lengthscale": self.lengthscale, "variance": self.variance}

        X, y = self._train_data(rng, n=20)
        gp = GaussianProcess(kernel=ExpKernel(lengthscale=0.3)).fit(X, y)
        best = gp.optimize_lengthscale(candidates=(0.2, 0.6))
        assert best in (0.2, 0.6)
        assert gp.predict(X[:3])[0].shape == (3,)

    def test_sample_posterior_validates_num_samples(self, rng):
        X, y = self._train_data(rng)
        gp = GaussianProcess().fit(X, y)
        with pytest.raises(ValueError):
            gp.sample_posterior(X, num_samples=0)

    def test_num_observations(self, rng):
        X, y = self._train_data(rng, n=12)
        gp = GaussianProcess()
        assert gp.num_observations == 0
        gp.fit(X, y)
        assert gp.num_observations == 12
        assert gp.is_fitted
