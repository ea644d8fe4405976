"""Exact Gaussian-process regression (the MOBO surrogate models).

Section III-B of the paper: each objective function ``f_k`` is approximated
by a surrogate Gaussian Process whose posterior is updated after every
evaluation, and an acquisition function built from the posteriors selects the
next query point.  This module provides the exact-GP machinery: Cholesky
based fitting, posterior mean/variance prediction, posterior function
sampling (for Thompson-sampling acquisitions) and a light-weight grid search
over the kernel lengthscale driven by the log marginal likelihood.

The covariance is the unit-variance Matérn-5/2 kernel (Dragonfly's default
family) over the unit-cube projection of the genotype (see
:mod:`repro.nn.encoding`), with one scalar lengthscale.

Two conditioning paths are provided:

* :meth:`GaussianProcess.fit` — the cold path: build the full kernel matrix
  and factor it from scratch (O(n^3));
* :meth:`GaussianProcess.extend` — the incremental path: append new
  observations to an already-conditioned model with a rank-1/block Cholesky
  update (O(n^2 m) for ``m`` new rows) and recompute only the target
  normalisation and ``alpha``.

The incremental path is what makes long searches affordable: refitting after
every evaluation costs O(N^4) over an N-evaluation run on the cold path but
O(N^3) on the incremental one (see ``benchmarks/bench_gp_hotpath.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

# The raw LAPACK binding skips scipy.linalg.solve_triangular's python
# validation layer, whose fixed ~0.1 ms/call overhead would otherwise
# dominate the O(n^2) incremental updates this module is built around.
from scipy.linalg.lapack import dtrtrs as _dtrtrs

from repro.resilience import faults
from repro.resilience.health import HealthLog
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive

#: Jitter added to covariance diagonals for numerical stability.
DEFAULT_JITTER = 1e-8

#: Factor the jitter escalates by after a failed factorisation.
JITTER_ESCALATION = 10.0

#: Ceiling of the jitter escalation ladder.  Features live in the unit cube
#: and targets are standardised, so kernel diagonals are O(1): 1e-2 is the
#: largest diagonal inflation that still leaves a meaningful posterior.
MAX_JITTER = 1e-2

#: Lengthscales tried by the marginal-likelihood refresh
#: (:meth:`GaussianProcess.optimize_lengthscale`).  The genotype features
#: live in the unit cube, so plausible lengthscales span about one order of
#: magnitude.
LENGTHSCALE_GRID = (0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0, 3.0)


def pairwise_distances(
    X1: np.ndarray, X2: np.ndarray, lengthscale: float = 1.0
) -> np.ndarray:
    """Euclidean distances between the rows of ``X1`` and ``X2`` in lengthscale units.

    Points are divided by ``lengthscale`` before the distances are taken.
    The lengthscale grid search instead rescales one unscaled matrix
    (``pairwise_distances(X, X) / l``), so a single O(n^2 d) distance pass
    serves every grid point and every member of a
    :class:`~repro.optim.gp_bank.GPBank`.
    """
    A = np.atleast_2d(np.asarray(X1, dtype=float))
    B = np.atleast_2d(np.asarray(X2, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: X1 has {A.shape[1]} columns, X2 has {B.shape[1]}"
        )
    As = A / lengthscale
    Bs = B / lengthscale
    sq = (
        np.sum(As**2, axis=1)[:, None]
        + np.sum(Bs**2, axis=1)[None, :]
        - 2.0 * As @ Bs.T
    )
    return np.sqrt(np.maximum(sq, 0.0))


def matern52(r: np.ndarray) -> np.ndarray:
    """Unit-variance Matérn-5/2 covariance of lengthscale-scaled distances ``r``."""
    sqrt5_r = np.sqrt(5.0) * r
    return (1.0 + sqrt5_r + (5.0 / 3.0) * r**2) * np.exp(-sqrt5_r)


def _checked_cholesky(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky`` with a fault-injection consult (tests/drills)."""
    injector = faults.active()
    if injector is not None and injector.take_linalg_fault():
        raise np.linalg.LinAlgError("injected factorization failure")
    return np.linalg.cholesky(matrix)


def escalating_cholesky(
    matrix: np.ndarray, health: HealthLog, site: str = "fit"
) -> np.ndarray:
    """Factor ``matrix``, escalating diagonal jitter x10 up to a cap on failure.

    ``matrix`` must already carry its base noise/jitter diagonal; it is
    modified in place when escalation occurs (additional jitter stacks on
    the diagonal).  This is the first rung of the numerical degradation
    ladder: a near-singular covariance (duplicate rows, collapsed
    lengthscales) gets progressively regularised instead of raising, and
    each successful recovery is recorded in ``health`` as an
    ``H_JITTER_ESCALATED`` event.  Raises :class:`numpy.linalg.LinAlgError`
    only once the :data:`MAX_JITTER` cap is exhausted — callers further up
    the ladder (the model bank, the MOBO loop) take over from there.
    """
    try:
        return _checked_cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    added = 0.0
    jitter = DEFAULT_JITTER * JITTER_ESCALATION
    diag = np.diag_indices_from(matrix)
    while jitter <= MAX_JITTER:
        matrix[diag] += jitter - added
        added = jitter
        try:
            factor = _checked_cholesky(matrix)
        except np.linalg.LinAlgError:
            jitter *= JITTER_ESCALATION
            continue
        health.record(
            "H_JITTER_ESCALATED",
            f"{site}: factorisation recovered with jitter {added:g}",
            site=site,
            jitter=added,
        )
        return factor
    raise np.linalg.LinAlgError(
        f"{site}: Cholesky factorisation failed even with jitter {added:g}"
    )


def triangular_solve(L: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``L x = b`` (or ``L.T x = b``) for lower-triangular ``L`` in O(n^2)."""
    x, info = _dtrtrs(L, b, lower=1, trans=1 if trans else 0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"triangular solve failed (LAPACK dtrtrs info={info})"
        )
    return x


#: Initial capacity of the growing observation buffers.
_MIN_CAPACITY = 16


class GaussianProcess:
    """Exact GP regression with a Matérn-5/2 kernel and Gaussian observation noise.

    Targets are standardised before fitting (the objective scales in this
    library span micro-seconds to joules).

    Parameters
    ----------
    lengthscale:
        Scalar kernel lengthscale.
    noise_variance:
        Variance of the i.i.d. Gaussian observation noise.
    health:
        The :class:`~repro.resilience.health.HealthLog` receiving an
        ``H_JITTER_ESCALATED`` event whenever a factorisation only succeeds
        with escalated jitter; a fresh log when none is given.
    """

    def __init__(
        self,
        lengthscale: float = 0.3,
        noise_variance: float = 1e-4,
        health: Optional[HealthLog] = None,
    ):
        require_positive(lengthscale, "lengthscale")
        require_positive(noise_variance, "noise_variance")
        self.lengthscale = float(lengthscale)
        self.noise_variance = float(noise_variance)
        self.health = health or HealthLog()
        self._X: Optional[np.ndarray] = None
        self._y_raw: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._y_mean: float = 0.0
        self._y_std: float = 1.0
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        # Capacity-doubling buffers backing the incremental path.  ``_X`` and
        # ``_chol`` are views into these when the model was grown via extend().
        self._n: int = 0
        self._X_buf: Optional[np.ndarray] = None
        self._L_buf: Optional[np.ndarray] = None
        self._y_buf: Optional[np.ndarray] = None

    def kernel(self, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        """Covariance matrix between the rows of ``X1`` and ``X2``."""
        return matern52(pairwise_distances(X1, X2, self.lengthscale))

    # ------------------------------------------------------------------ fitting
    @property
    def is_fitted(self) -> bool:
        """Whether the GP has been conditioned on data."""
        return self._chol is not None

    @property
    def num_observations(self) -> int:
        """Number of training observations."""
        return 0 if self._X is None else self._X.shape[0]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations ``(X, y)`` (full O(n^3) factorisation)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] < 1:
            raise ValueError("at least one observation is required")
        K = self.kernel(X, X)
        return self._fit_with_kernel_matrix(X, y, K)

    def _fit_with_kernel_matrix(
        self, X: np.ndarray, y: np.ndarray, K: np.ndarray, retarget: bool = True
    ) -> "GaussianProcess":
        """Shared tail of :meth:`fit` given a precomputed noiseless ``K``.

        ``K`` is modified in place (the noise/jitter diagonal is added).
        ``retarget=False`` leaves normalisation/``alpha`` stale for callers
        (the model bank) that immediately batch-retarget.
        """
        self._X = X
        self._y_raw = y
        K[np.diag_indices_from(K)] += self.noise_variance + DEFAULT_JITTER
        self._chol = escalating_cholesky(K, self.health, "fit")
        if retarget:
            self._refresh_target_normalization()
            self._recompute_alpha()
        # A cold fit owns exact-size arrays; the growing buffers are rebuilt
        # lazily on the next extend().
        self._n = X.shape[0]
        self._X_buf = None
        self._L_buf = None
        self._y_buf = None
        return self

    def _refresh_target_normalization(self) -> None:
        """Recompute ``y_mean``/``y_std`` and the standardised targets."""
        y = self._y_raw
        self._y_mean = float(y.mean())
        std = float(y.std())
        self._y_std = std if std > 1e-12 else 1.0
        self._y = (y - self._y_mean) / self._y_std

    def _recompute_alpha(self) -> None:
        """Recompute ``alpha = K^-1 y`` from the current Cholesky factor (O(n^2))."""
        self._alpha = triangular_solve(
            self._chol, triangular_solve(self._chol, self._y), trans=True
        )

    # ------------------------------------------------------------------ incremental path
    def extend(
        self, x_new: np.ndarray, y_new: np.ndarray, retarget: bool = True
    ) -> "GaussianProcess":
        """Append observations to an already-fitted GP.

        The existing Cholesky factor is grown with a block append —
        ``L21 = solve(L11, K12).T`` and
        ``L22 = chol(K22 + noise I - L21 L21.T)`` — which costs O(n^2 m) for
        ``m`` new rows instead of the O(n^3) full refactorisation, and the
        target normalisation is refreshed by recomputing only ``alpha`` (two
        O(n^2) triangular solves).  Posterior mean/std agree with a full
        refit to floating-point roundoff (see the parity tests).

        Calling ``extend`` on an unfitted model is equivalent to ``fit``.
        ``retarget=False`` grows the factor but leaves ``alpha`` and the
        normalisation stale — for callers (the model bank) that immediately
        follow up with :meth:`set_targets`.
        """
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if x_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"x_new has {x_new.shape[0]} rows but y_new has {y_new.shape[0]} entries"
            )
        if x_new.shape[0] == 0:
            return self
        if not self.is_fitted:
            return self.fit(x_new, y_new)
        if x_new.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"x_new has {x_new.shape[1]} features, expected {self._X.shape[1]}"
            )
        n, m = self._X.shape[0], x_new.shape[0]
        self._ensure_capacity(n + m)
        X_old = self._X_buf[:n]

        # Block Cholesky append: the leading n x n block of the factor is
        # untouched; only the m new rows are computed.
        K12 = self.kernel(X_old, x_new)  # (n, m)
        K22 = self.kernel(x_new, x_new)  # (m, m)
        K22[np.diag_indices_from(K22)] += self.noise_variance + DEFAULT_JITTER
        L11 = self._L_buf[:n, :n]
        L21 = triangular_solve(L11, K12).T  # (m, n)
        S = K22 - L21 @ L21.T
        L22 = escalating_cholesky(S, self.health, "extend")

        self._X_buf[n : n + m] = x_new
        self._y_buf[n : n + m] = y_new
        self._L_buf[n : n + m, :n] = L21
        self._L_buf[n : n + m, n : n + m] = L22
        self._L_buf[:n, n : n + m] = 0.0
        self._n = n + m

        self._X = self._X_buf[: self._n]
        self._y_raw = self._y_buf[: self._n]
        self._chol = self._L_buf[: self._n, : self._n]
        if retarget:
            self.set_targets(self._y_raw)
        return self

    def set_targets(self, y: np.ndarray) -> "GaussianProcess":
        """Replace the training targets without touching the kernel factor.

        The covariance (and its Cholesky factor) depends only on ``X`` and the
        lengthscale, so retargeting — e.g. when the MOBO loop
        re-normalises all objectives after each evaluation — only needs the
        normalisation statistics and ``alpha`` recomputed: O(n^2) instead of
        O(n^3).
        """
        self._install_raw_targets(y)
        self._recompute_alpha()
        return self

    def _install_raw_targets(self, y: np.ndarray) -> None:
        """Store new raw targets and refresh normalisation, without ``alpha``.

        Split out so a :class:`~repro.optim.gp_bank.GPBank` can retarget all
        member models and then recompute every ``alpha`` in one batched
        multi-RHS triangular solve.
        """
        self._require_fitted()
        y = np.asarray(y, dtype=float).ravel()
        if y.shape[0] != self._X.shape[0]:
            raise ValueError(
                f"expected {self._X.shape[0]} targets, got {y.shape[0]}"
            )
        if self._y_buf is not None and y.base is not self._y_buf:
            self._y_buf[: self._n] = y
            self._y_raw = self._y_buf[: self._n]
        else:
            self._y_raw = y
        self._refresh_target_normalization()

    def _ensure_capacity(self, needed: int) -> None:
        """Grow the observation buffers to hold ``needed`` rows (amortised O(1))."""
        if self._X_buf is not None and self._X_buf.shape[0] >= needed:
            return
        capacity = max(_MIN_CAPACITY, needed)
        if self._X_buf is not None:
            capacity = max(capacity, 2 * self._X_buf.shape[0])
        elif self._X is not None:
            capacity = max(capacity, 2 * self._X.shape[0])
        d = self._X.shape[1]
        n = self._X.shape[0]
        X_buf = np.zeros((capacity, d))
        L_buf = np.zeros((capacity, capacity))
        y_buf = np.zeros(capacity)
        X_buf[:n] = self._X
        L_buf[:n, :n] = self._chol
        y_buf[:n] = self._y_raw
        self._X_buf, self._L_buf, self._y_buf = X_buf, L_buf, y_buf
        self._n = n
        self._X = self._X_buf[:n]
        self._y_raw = self._y_buf[:n]
        self._chol = self._L_buf[:n, :n]

    # ------------------------------------------------------------------ prediction
    def predict(
        self, Xs: np.ndarray, return_std: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Posterior mean (and optionally standard deviation) at ``Xs``."""
        self._require_fitted()
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = self.kernel(self._X, Xs)
        mean = Ks.T @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean, None
        v = triangular_solve(self._chol, Ks)
        var = 1.0 - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def posterior_covariance(self, Xs: np.ndarray) -> np.ndarray:
        """Full posterior covariance matrix at ``Xs`` (in original y units)."""
        self._require_fitted()
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = self.kernel(self._X, Xs)
        v = triangular_solve(self._chol, Ks)
        cov = self.kernel(Xs, Xs) - v.T @ v
        cov[np.diag_indices_from(cov)] = np.maximum(np.diag(cov), 1e-12)
        return cov * self._y_std**2

    def sample_posterior(self, Xs: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Draw one joint posterior function sample at ``Xs``.

        Returns a ``(len(Xs),)`` vector in original target units: the
        per-member Thompson draw of a heterogeneous
        :class:`~repro.optim.gp_bank.GPBank`.
        """
        rng = ensure_rng(rng)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        mean, _ = self.predict(Xs, return_std=False)
        cov = self.posterior_covariance(Xs)
        cov[np.diag_indices_from(cov)] += DEFAULT_JITTER * self._y_std**2
        chol = escalating_cholesky(cov, self.health, "sample_posterior")
        normals = rng.standard_normal((1, Xs.shape[0]))
        return mean + (normals @ chol.T)[0]

    # ------------------------------------------------------------------ model selection
    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the (normalised) training targets."""
        self._require_fitted()
        n = self._X.shape[0]
        data_fit = -0.5 * float(self._y @ self._alpha)
        complexity = -float(np.sum(np.log(np.diag(self._chol))))
        constant = -0.5 * n * np.log(2.0 * np.pi)
        return data_fit + complexity + constant

    def optimize_lengthscale(self, _distances: Optional[np.ndarray] = None) -> float:
        """Pick the :data:`LENGTHSCALE_GRID` lengthscale of highest marginal likelihood.

        Leaves the GP fitted with the best lengthscale and returns it.  The
        unscaled pairwise distance matrix is computed once (or taken from
        ``_distances``, letting a model bank share it across objectives) and
        every grid point evaluates the kernel as an elementwise rescale — one
        O(n^2 d) distance pass for the whole grid instead of one per refit.
        The winning grid iteration's factor is kept directly, so no redundant
        final refit is performed.
        """
        self._require_fitted()
        X, y = self._X, self._y_raw
        r0 = pairwise_distances(X, X) if _distances is None else _distances
        best_score = -np.inf
        best_state = None
        for lengthscale in LENGTHSCALE_GRID:
            self.lengthscale = lengthscale
            self._fit_with_kernel_matrix(X, y, matern52(r0 / lengthscale))
            score = self.log_marginal_likelihood()
            if score > best_score:
                best_score = score
                best_state = (
                    lengthscale,
                    self._chol,
                    self._alpha,
                    self._y,
                    self._y_mean,
                    self._y_std,
                )
        # Restore the winning iteration's factor instead of refitting it: the
        # grid already paid for that factorisation.
        lengthscale, chol, alpha, y_norm, y_mean, y_std = best_state
        self.lengthscale = lengthscale
        self._chol = chol
        self._alpha = alpha
        self._y = y_norm
        self._y_mean, self._y_std = y_mean, y_std
        return lengthscale

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("GaussianProcess must be fitted before use")
