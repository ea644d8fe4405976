"""Shared-Cholesky bank of per-objective Gaussian processes.

The MOBO loop (paper Algorithm 2) maintains one GP surrogate per objective.
All of them condition on the *same* feature matrix with the *same* kernel
lengthscale — only the targets differ — so the kernel matrix, its
Cholesky factor and the cross-covariance against a candidate pool are
identical across objectives.  :class:`GPBank` computes those shared pieces
once and reuses them for fitting, prediction and acquisition scoring:

* **fit** — one kernel matrix + one O(n^3) factorisation for all ``k``
  objectives (the factor is *adopted* by every member model); per-objective
  work is only the O(n^2) ``alpha`` solves;
* **update** — one rank-1/block Cholesky append per new observation
  (O(n^2)), again shared across objectives;
* **predict / Thompson sampling** — the candidate cross-covariance ``Ks``,
  the triangular solve ``v = L^-1 Ks`` and (for sampling) the posterior
  covariance factor are computed once; per-objective means/samples are cheap
  mat-vecs against each model's ``alpha`` plus a rescale by its target std.

When per-objective lengthscale refreshes diverge the lengthscales
(:meth:`refresh_lengthscales`), the bank transparently falls back to
per-model computation for that generation and re-homogenises on the next
:meth:`update`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.optim.gp import (
    DEFAULT_JITTER,
    GaussianProcess,
    escalating_cholesky,
    pairwise_distances,
    triangular_solve,
)
from repro.resilience.health import HealthLog
from repro.utils.rng import SeedLike, ensure_rng

#: Ceiling of the per-objective noise escalation in the heterogeneous
#: fallback (targets are standardised, so noise 1.0 means "all noise").
MAX_FALLBACK_NOISE = 1.0


class GPBank:
    """A bank of ``k`` exact Matérn-5/2 GPs sharing features and lengthscale.

    Parameters
    ----------
    num_objectives:
        Number of member models (one per objective).
    lengthscale:
        Shared base lengthscale.  Every member holds it until
        :meth:`refresh_lengthscales` diverges them.
    noise_variance:
        Forwarded to every member :class:`GaussianProcess`.
    health:
        Optional :class:`~repro.resilience.health.HealthLog` (shared with
        every member model) recording degradation-ladder events:
        ``H_JITTER_ESCALATED`` from the members' factorisations,
        ``H_EXACT_REFIT`` when an incremental append fails and the bank
        refits from scratch, ``H_HETEROGENEOUS_FALLBACK`` when even the
        shared fit fails and the members are fit independently with
        escalated noise.
    """

    def __init__(
        self,
        num_objectives: int,
        lengthscale: float = 0.3,
        noise_variance: float = 1e-4,
        health: Optional[HealthLog] = None,
    ):
        if num_objectives < 1:
            raise ValueError(f"num_objectives must be >= 1, got {num_objectives}")
        self.num_objectives = int(num_objectives)
        self.lengthscale = float(lengthscale)
        self.health = health
        self.models: List[GaussianProcess] = [
            GaussianProcess(self.lengthscale, noise_variance, health)
            for _ in range(self.num_objectives)
        ]
        #: False after a lengthscale refresh diverged the member lengthscales.
        self._homogeneous = True

    # ------------------------------------------------------------------ protocol
    @property
    def is_fitted(self) -> bool:
        return self.models[0].is_fitted

    @property
    def num_observations(self) -> int:
        return self.models[0].num_observations

    @property
    def homogeneous(self) -> bool:
        """Whether all member models currently share one lengthscale."""
        return self._homogeneous

    def _validate_targets(self, Y: np.ndarray, rows: int) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape != (rows, self.num_objectives):
            raise ValueError(
                f"expected a ({rows}, {self.num_objectives}) target matrix, "
                f"got shape {Y.shape}"
            )
        return Y

    # ------------------------------------------------------------------ conditioning
    def fit(self, X: np.ndarray, Y: np.ndarray) -> "GPBank":
        """Cold-fit every member on ``(X, Y[:, k])`` with one shared factorisation."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = self._validate_targets(Y, X.shape[0])
        if X.shape[0] < 1:
            raise ValueError("at least one observation is required")
        for model in self.models:
            model.lengthscale = self.lengthscale
        leader = self.models[0]
        # retarget=False: the batched set_targets below computes every
        # member's normalisation and alpha (the leader's included) together.
        K = leader.kernel(X, X)
        leader._fit_with_kernel_matrix(X, Y[:, 0].copy(), K, retarget=False)
        for k, model in enumerate(self.models[1:], start=1):
            self._adopt_factor(model, leader, Y[:, k], retarget=False)
        self._homogeneous = True
        return self.set_targets(Y)

    @staticmethod
    def _adopt_factor(
        model: GaussianProcess,
        leader: GaussianProcess,
        y: np.ndarray,
        retarget: bool = True,
    ) -> None:
        """Install the leader's data/factor into ``model`` and retarget it.

        Sharing the factor *by reference* is safe: the incremental path never
        mutates the leading block of the Cholesky factor in place, and
        followers are re-pointed after every leader append.  ``retarget=False``
        skips the normalisation/``alpha`` solves when a :meth:`set_targets`
        immediately follows.
        """
        model._X = leader._X
        model._chol = leader._chol
        model._y_raw = np.asarray(y, dtype=float).ravel()
        model._n = leader.num_observations
        model._X_buf = None
        model._L_buf = None
        model._y_buf = None
        if retarget:
            model._refresh_target_normalization()
            model._recompute_alpha()

    def set_targets(self, Y: np.ndarray) -> "GPBank":
        """Retarget every member (e.g. after objective re-normalisation).

        On the homogeneous path the ``k`` ``alpha`` vectors are recomputed
        with two *batched* multi-RHS triangular solves against the shared
        factor — one BLAS-3 call instead of ``2k`` separate back-solves.
        """
        if not self.is_fitted:
            raise RuntimeError("GPBank must be fitted before retargeting")
        Y = self._validate_targets(Y, self.num_observations)
        if not self._homogeneous:
            for k, model in enumerate(self.models):
                model.set_targets(Y[:, k])
            return self
        Y_std = np.empty_like(Y)
        for k, model in enumerate(self.models):
            model._install_raw_targets(Y[:, k])
            Y_std[:, k] = model._y
        L = self.models[0]._chol
        alphas = triangular_solve(L, triangular_solve(L, Y_std), trans=True)
        for k, model in enumerate(self.models):
            model._alpha = alphas[:, k]
        return self

    def update(self, X: np.ndarray, Y: np.ndarray) -> "GPBank":
        """Condition the bank on the full history ``(X, Y)``, incrementally.

        ``X``/``Y`` must extend the previously-seen rows (the MOBO loop only
        ever appends evaluations).  New rows are absorbed with the shared
        block append; already-seen rows get their (re-normalised) targets
        refreshed via :meth:`set_targets`.  After a lengthscale refresh the
        bank re-homogenises with a cold fit.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = self._validate_targets(Y, X.shape[0])
        if not self.is_fitted:
            return self._fit_resilient(X, Y)
        n_seen = self.num_observations
        X_seen = self.models[0]._X
        if (
            not self._homogeneous
            or X.shape[0] < n_seen
            or X.shape[1] != X_seen.shape[1]
            # Spot-check the "X extends the seen rows" contract (O(d)): a
            # different prefix must not silently reuse the stale factor.
            or not np.array_equal(X[0], X_seen[0])
            or not np.array_equal(X[n_seen - 1], X_seen[n_seen - 1])
        ):
            return self._fit_resilient(X, Y)
        try:
            if X.shape[0] > n_seen:
                leader = self.models[0]
                # retarget=False: set_targets below recomputes every alpha anyway.
                leader.extend(X[n_seen:], Y[n_seen:, 0], retarget=False)
                for model in self.models[1:]:
                    # Followers only adopt the grown factor here; set_targets
                    # below gives them their real targets and alpha.
                    self._adopt_factor(model, leader, leader._y_raw, retarget=False)
            return self.set_targets(Y)
        except np.linalg.LinAlgError:
            # Second rung of the degradation ladder: the incremental append
            # (or its follow-up solves) failed even with escalated jitter, so
            # refactorise the full history from scratch.
            self._record_exact_refit("update")
            return self._fit_resilient(X, Y)

    # ------------------------------------------------------------------ degradation ladder
    def _record_exact_refit(self, site: str) -> None:
        if self.health is not None:
            self.health.record(
                "H_EXACT_REFIT",
                f"{site}: incremental append failed; refitting from scratch",
                site=site,
            )

    def _fit_resilient(self, X: np.ndarray, Y: np.ndarray) -> "GPBank":
        """Cold fit, degrading to heterogeneous per-objective GPs on failure.

        Third rung of the ladder: when even the from-scratch shared
        factorisation fails (after :func:`~repro.optim.gp.escalating_cholesky`
        exhausted its jitter cap), each member model is fit independently
        with its own escalating noise floor — losing the shared-factor
        speedup but keeping the search alive.  Raises only when a member
        cannot be fit even at :data:`MAX_FALLBACK_NOISE`; the MOBO loop
        then degrades that iteration's acquisition to random sampling.
        """
        try:
            return self.fit(X, Y)
        except np.linalg.LinAlgError as error:
            if self.health is not None:
                self.health.record(
                    "H_HETEROGENEOUS_FALLBACK",
                    f"shared fit failed ({error}); fitting members independently",
                )
            return self._fit_heterogeneous(X, Y)

    def _fit_heterogeneous(self, X: np.ndarray, Y: np.ndarray) -> "GPBank":
        """Fit every member on its own, escalating per-model noise x10.

        The escalated ``noise_variance`` sticks to the member model — a
        degraded run stays degraded rather than thrashing between fallback
        and re-failure on every iteration.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = self._validate_targets(Y, X.shape[0])
        for k, model in enumerate(self.models):
            model.lengthscale = self.lengthscale
            while True:
                try:
                    model.fit(X, Y[:, k].copy())
                    break
                except np.linalg.LinAlgError:
                    if model.noise_variance >= MAX_FALLBACK_NOISE:
                        raise
                    model.noise_variance = min(
                        model.noise_variance * 10.0, MAX_FALLBACK_NOISE
                    )
        self._homogeneous = False
        return self

    # ------------------------------------------------------------------ model selection
    def refresh_lengthscales(self) -> List[float]:
        """Per-objective marginal-likelihood lengthscale grid search.

        Each member picks its own :data:`~repro.optim.gp.LENGTHSCALE_GRID`
        lengthscale.  The unscaled distance matrix is computed once and
        shared across all ``k`` grid searches (each of which also shares it
        across its grid points), so the whole refresh performs a single
        O(n^2 d) distance pass.  Diverges the member lengthscales: until the
        next :meth:`update`, shared-path prediction falls back to per-model
        computation.
        """
        if not self.is_fitted:
            raise RuntimeError("GPBank must be fitted before a lengthscale refresh")
        X = self.models[0]._X
        distances = pairwise_distances(X, X)
        best = [model.optimize_lengthscale(_distances=distances) for model in self.models]
        self._homogeneous = False
        return best

    # ------------------------------------------------------------------ prediction
    def _shared_solve(self, Xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cross-covariance ``Ks`` and whitened solve ``v`` shared by all members."""
        leader = self.models[0]
        Ks = leader.kernel(leader._X, Xs)
        v = triangular_solve(leader._chol, Ks)
        return Ks, v

    def predict(
        self, Xs: np.ndarray, return_std: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Posterior means (and stds) of every member at ``Xs``.

        Returns ``(n, k)`` matrices.  On the homogeneous fast path the
        latent (standardised) posterior variance is identical for every
        member, so it is computed once and only rescaled by each member's
        target std.
        """
        if not self.is_fitted:
            raise RuntimeError("GPBank must be fitted before prediction")
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        if not self._homogeneous:
            columns = [m.predict(Xs, return_std=return_std) for m in self.models]
            means = np.column_stack([c[0] for c in columns])
            if not return_std:
                return means, None
            return means, np.column_stack([c[1] for c in columns])
        Ks, v = self._shared_solve(Xs)
        means = np.column_stack(
            [Ks.T @ m._alpha * m._y_std + m._y_mean for m in self.models]
        )
        if not return_std:
            return means, None
        var = 1.0 - np.sum(v**2, axis=0)
        std_latent = np.sqrt(np.maximum(var, 1e-12))
        stds = np.column_stack([std_latent * m._y_std for m in self.models])
        return means, stds

    def thompson_matrix(self, Xs: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """One joint posterior draw per objective — an ``(n, k)`` score matrix.

        On the homogeneous path the posterior covariance factor is computed
        once in standardised units and rescaled per objective (the latent
        covariances are proportional: ``cov_k = y_std_k^2 * cov_latent``).
        Random draws happen per objective, in objective order, with the same
        shapes as each member's own :meth:`GaussianProcess.sample_posterior`,
        so a given RNG stream produces the same candidate decisions either way.
        """
        rng = ensure_rng(rng)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        if not self.is_fitted:
            raise RuntimeError("GPBank must be fitted before sampling")
        if not self._homogeneous:
            return np.column_stack(
                [m.sample_posterior(Xs, rng=rng) for m in self.models]
            )
        leader = self.models[0]
        Ks, v = self._shared_solve(Xs)
        cov = leader.kernel(Xs, Xs) - v.T @ v
        cov[np.diag_indices_from(cov)] = np.maximum(np.diag(cov), 1e-12)
        cov[np.diag_indices_from(cov)] += DEFAULT_JITTER
        chol = escalating_cholesky(cov, health=self.health, site="thompson")
        columns = []
        for model in self.models:
            mean = Ks.T @ model._alpha * model._y_std + model._y_mean
            normals = rng.standard_normal((1, Xs.shape[0]))
            columns.append(mean + (normals @ chol.T)[0] * model._y_std)
        return np.column_stack(columns)
