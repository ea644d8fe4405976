"""Tests for the incremental GP path and the shared-Cholesky model bank."""

import numpy as np
import pytest

from repro.optim.acquisition import UCB_BETA, acquisition_scores
from repro.optim.gp import LENGTHSCALE_GRID, GaussianProcess, triangular_solve
from repro.optim.gp_bank import GPBank


def _stream(rng, n, d=3):
    X = rng.uniform(size=(n, d))
    y = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2 - X[:, 2]
    return X, y


class TestTriangularSolve:
    def test_matches_generic_solver(self, rng):
        A = rng.uniform(size=(6, 6))
        L = np.linalg.cholesky(A @ A.T + 6 * np.eye(6))
        b = rng.uniform(size=6)
        B = rng.uniform(size=(6, 4))
        assert np.allclose(triangular_solve(L, b), np.linalg.solve(L, b))
        assert np.allclose(triangular_solve(L, B), np.linalg.solve(L, B))
        assert np.allclose(triangular_solve(L, b, trans=True), np.linalg.solve(L.T, b))


class TestGaussianProcessExtend:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extend_equals_full_refit_over_random_streams(self, seed):
        """Property: growing one-by-one ≡ one cold fit, to 1e-8, at every step."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        X, y = _stream(rng, 40, d=d)
        probe = rng.uniform(size=(25, d))

        incremental = GaussianProcess(lengthscale=0.4)
        incremental.fit(X[:5], y[:5])
        for i in range(5, 40):
            incremental.extend(X[i : i + 1], y[i : i + 1])
            exact = GaussianProcess(lengthscale=0.4)
            exact.fit(X[: i + 1], y[: i + 1])
            mean_inc, std_inc = incremental.predict(probe)
            mean_ref, std_ref = exact.predict(probe)
            assert np.allclose(mean_inc, mean_ref, atol=1e-8)
            assert np.allclose(std_inc, std_ref, atol=1e-8)
            assert np.isclose(
                incremental.log_marginal_likelihood(),
                exact.log_marginal_likelihood(),
                atol=1e-7,
            )

    def test_block_extend_matches_row_by_row(self, rng):
        X, y = _stream(rng, 30)
        probe = rng.uniform(size=(10, 3))
        block = GaussianProcess().fit(X[:10], y[:10]).extend(X[10:], y[10:])
        single = GaussianProcess().fit(X[:10], y[:10])
        for i in range(10, 30):
            single.extend(X[i : i + 1], y[i : i + 1])
        for a, b in zip(block.predict(probe), single.predict(probe)):
            assert np.allclose(a, b, atol=1e-10)

    def test_extend_on_unfitted_model_fits(self, rng):
        X, y = _stream(rng, 8)
        gp = GaussianProcess().extend(X, y)
        assert gp.is_fitted and gp.num_observations == 8

    def test_extend_validates_shapes(self, rng):
        X, y = _stream(rng, 10)
        gp = GaussianProcess().fit(X, y)
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(ValueError):
            gp.extend(np.zeros((2, 3)), np.zeros(3))
        assert gp.extend(np.zeros((0, 3)), np.zeros(0)) is gp

    def test_set_targets_recomputes_posterior(self, rng):
        X, y = _stream(rng, 15)
        gp = GaussianProcess().fit(X, y)
        other = 2.0 * y + 1.0
        gp.set_targets(other)
        exact = GaussianProcess().fit(X, other)
        probe = rng.uniform(size=(6, 3))
        for a, b in zip(gp.predict(probe), exact.predict(probe)):
            assert np.allclose(a, b, atol=1e-10)
        with pytest.raises(ValueError):
            gp.set_targets(np.zeros(3))

    def test_lengthscale_refresh_after_extend(self, rng):
        """The grid search still works on a model grown incrementally."""
        X, y = _stream(rng, 30)
        gp = GaussianProcess(lengthscale=LENGTHSCALE_GRID[0])
        gp.fit(X[:20], y[:20]).extend(X[20:], y[20:])
        before = gp.log_marginal_likelihood()
        gp.optimize_lengthscale()
        assert gp.log_marginal_likelihood() >= before


class TestGPBank:
    def _bank_and_models(self, rng, n=25, k=3):
        d = 4
        X = rng.uniform(size=(n, d))
        Y = np.column_stack(
            [np.sin((j + 1) * X[:, 0]) + X[:, min(j, d - 1)] for j in range(k)]
        )
        bank = GPBank(k, lengthscale=0.5)
        bank.fit(X, Y)
        reference = [GaussianProcess(lengthscale=0.5).fit(X, Y[:, j]) for j in range(k)]
        return bank, reference, X, Y

    def test_predict_matches_individual_models(self, rng):
        bank, reference, X, _ = self._bank_and_models(rng)
        probe = rng.uniform(size=(12, X.shape[1]))
        mean, std = bank.predict(probe)
        assert mean.shape == std.shape == (12, 3)
        for j, model in enumerate(reference):
            mean_ref, std_ref = model.predict(probe)
            assert np.allclose(mean[:, j], mean_ref, atol=1e-10)
            assert np.allclose(std[:, j], std_ref, atol=1e-10)

    def test_thompson_matches_individual_models_for_same_stream(self, rng):
        """The shared draw equals each member's own sample_posterior, in order."""
        bank, reference, X, _ = self._bank_and_models(rng)
        probe = rng.uniform(size=(20, X.shape[1]))
        fast = acquisition_scores("ts", bank, probe, rng=np.random.default_rng(5))
        stream = np.random.default_rng(5)
        slow = np.column_stack([m.sample_posterior(probe, rng=stream) for m in reference])
        assert fast.shape == slow.shape == (20, 3)
        assert np.allclose(fast, slow, atol=1e-7)

    def test_lcb_and_mean_scores_bank_path(self, rng):
        bank, reference, X, _ = self._bank_and_models(rng)
        probe = rng.uniform(size=(9, X.shape[1]))
        predictions = [m.predict(probe) for m in reference]
        means = np.column_stack([mean for mean, _ in predictions])
        stds = np.column_stack([std for _, std in predictions])
        assert np.allclose(
            acquisition_scores("ucb", bank, probe), means - UCB_BETA * stds, atol=1e-10
        )
        assert np.allclose(acquisition_scores("mean", bank, probe), means, atol=1e-10)

    def test_incremental_update_matches_cold_bank(self, rng):
        d, k = 4, 2
        X = rng.uniform(size=(30, d))
        Y = rng.uniform(size=(30, k))
        probe = rng.uniform(size=(10, d))
        inc = GPBank(k, lengthscale=0.5)
        for n in range(5, 31):
            # Rescale targets every step, like the MOBO loop's re-normalisation.
            target = Y[:n] / Y[:n].max(axis=0)
            inc.update(X[:n], target)
            cold = GPBank(k, lengthscale=0.5).fit(X[:n], target)
            for a, b in zip(inc.predict(probe), cold.predict(probe)):
                assert np.allclose(a, b, atol=1e-8)

    def test_refresh_lengthscales_diverges_and_rehomogenises(self, rng):
        bank, _, X, Y = self._bank_and_models(rng)
        assert bank.homogeneous
        best = bank.refresh_lengthscales()
        assert len(best) == 3 and not bank.homogeneous
        assert set(best) <= set(LENGTHSCALE_GRID)
        probe = rng.uniform(size=(8, X.shape[1]))
        mean, std = bank.predict(probe)  # heterogeneous fallback path
        assert mean.shape == (8, 3) and np.all(std > 0)
        scores = bank.thompson_matrix(probe, rng=rng)
        assert scores.shape == (8, 3)
        # The next full update resets to the shared base lengthscale.
        bank.update(X, Y)
        assert bank.homogeneous
        for model in bank.models:
            assert model.lengthscale == bank.lengthscale

    def test_update_with_different_prefix_refits_instead_of_reusing_factor(self, rng):
        """A same-length X with different rows must not reuse the stale factor."""
        d, k = 3, 2
        X1 = rng.uniform(size=(12, d))
        X2 = rng.uniform(size=(12, d))
        Y = rng.uniform(size=(12, k))
        bank = GPBank(k, lengthscale=0.5)
        bank.update(X1, Y)
        bank.update(X2, Y)  # violates the extends-contract; must cold-refit
        probe = rng.uniform(size=(6, d))
        fresh = GPBank(k, lengthscale=0.5).fit(X2, Y)
        for a, b in zip(bank.predict(probe), fresh.predict(probe)):
            assert np.allclose(a, b, atol=1e-10)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            GPBank(0)
        bank = GPBank(2)
        with pytest.raises(RuntimeError):
            bank.predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            bank.set_targets(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            bank.refresh_lengthscales()
        with pytest.raises(ValueError):
            bank.fit(np.zeros((4, 2)), np.zeros((4, 3)))
