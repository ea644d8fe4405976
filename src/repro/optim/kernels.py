"""Covariance kernels for Gaussian-process regression.

The Bayesian-optimization surrogates operate on the unit-cube projection of
the architecture genotype (see :mod:`repro.nn.encoding`), so stationary
kernels over ``[0, 1]^d`` with a moderate lengthscale are appropriate.  Both
the squared-exponential (RBF) kernel and the Matérn-5/2 kernel (Dragonfly's
default family) are provided.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.utils.validation import require_positive

ArrayLike = Union[np.ndarray, list, tuple]


def _as_matrix(X: ArrayLike) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array of points, got shape {arr.shape}")
    return arr


def pairwise_scaled_distances(
    X1: ArrayLike, X2: ArrayLike, lengthscale: Union[float, np.ndarray]
) -> np.ndarray:
    """Euclidean distances between rows of X1 and X2 after lengthscale scaling."""
    A = _as_matrix(X1)
    B = _as_matrix(X2)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: X1 has {A.shape[1]} columns, X2 has {B.shape[1]}"
        )
    scale = np.asarray(lengthscale, dtype=float)
    if scale.ndim == 0:
        scale = np.full(A.shape[1], float(scale))
    if scale.shape != (A.shape[1],):
        raise ValueError(
            f"lengthscale must be a scalar or a vector of length {A.shape[1]}, "
            f"got shape {scale.shape}"
        )
    if np.any(scale <= 0):
        raise ValueError("lengthscales must be positive")
    As = A / scale
    Bs = B / scale
    sq = (
        np.sum(As**2, axis=1)[:, None]
        + np.sum(Bs**2, axis=1)[None, :]
        - 2.0 * As @ Bs.T
    )
    return np.sqrt(np.maximum(sq, 0.0))


def pairwise_distances(X1: ArrayLike, X2: ArrayLike) -> np.ndarray:
    """Unscaled Euclidean distances between rows of ``X1`` and ``X2``.

    For a *scalar* lengthscale ``l`` the scaled distances are simply
    ``pairwise_distances(X1, X2) / l``, so one O(n^2 d) distance pass can be
    shared across a whole lengthscale grid (see
    :meth:`GaussianProcess.optimize_lengthscale`) and across the per-objective
    models of a :class:`~repro.optim.gp_bank.GPBank`.
    """
    return pairwise_scaled_distances(X1, X2, 1.0)


def is_scalar_lengthscale(lengthscale: Union[float, np.ndarray]) -> bool:
    """Whether a lengthscale admits the shared-distance fast path."""
    return np.asarray(lengthscale, dtype=float).ndim == 0


def supports_distance_reuse(kernel: "Kernel") -> bool:
    """Whether a kernel can be evaluated from a precomputed distance matrix.

    True only for scalar-lengthscale kernels that actually override
    :meth:`Kernel.from_scaled_distances` — custom subclasses implementing
    just the pre-existing ``__call__`` contract fall back to full kernel
    evaluations instead of crashing on the base-class hook.
    """
    return (
        is_scalar_lengthscale(getattr(kernel, "lengthscale", np.ones(1)))
        and type(kernel).from_scaled_distances is not Kernel.from_scaled_distances
    )


class Kernel:
    """Base class for covariance kernels."""

    def __call__(self, X1: ArrayLike, X2: ArrayLike) -> np.ndarray:
        """Covariance matrix between the rows of ``X1`` and ``X2``."""
        raise NotImplementedError

    def diag(self, X: ArrayLike) -> np.ndarray:
        """Diagonal of the covariance matrix of ``X`` with itself."""
        X = _as_matrix(X)
        return np.full(X.shape[0], self.variance)

    def from_scaled_distances(self, r: np.ndarray) -> np.ndarray:
        """Covariance from a matrix of already lengthscale-scaled distances.

        Lets callers that precompute one unscaled distance matrix (grid
        searches over scalar lengthscales, shared model banks) evaluate the
        kernel as a cheap elementwise transform instead of re-running the
        O(n^2 d) distance computation.
        """
        raise NotImplementedError

    def with_params(self, **kwargs) -> "Kernel":
        """Copy of the kernel with updated hyperparameters."""
        params = self.get_params()
        params.update(kwargs)
        return type(self)(**params)

    def get_params(self) -> Dict:
        """Kernel hyperparameters as a dictionary."""
        raise NotImplementedError


class RBFKernel(Kernel):
    """Squared-exponential kernel ``v * exp(-r^2 / 2)`` with scaled distance r."""

    def __init__(self, lengthscale: Union[float, np.ndarray] = 0.3, variance: float = 1.0):
        require_positive(variance, "variance")
        self.lengthscale = lengthscale
        self.variance = float(variance)

    def __call__(self, X1: ArrayLike, X2: ArrayLike) -> np.ndarray:
        return self.from_scaled_distances(
            pairwise_scaled_distances(X1, X2, self.lengthscale)
        )

    def from_scaled_distances(self, r: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-0.5 * r**2)

    def get_params(self) -> Dict:
        return {"lengthscale": self.lengthscale, "variance": self.variance}

    def __repr__(self) -> str:
        return f"RBFKernel(lengthscale={self.lengthscale}, variance={self.variance})"


class Matern52Kernel(Kernel):
    """Matérn kernel with smoothness 5/2 (twice-differentiable sample paths)."""

    def __init__(self, lengthscale: Union[float, np.ndarray] = 0.3, variance: float = 1.0):
        require_positive(variance, "variance")
        self.lengthscale = lengthscale
        self.variance = float(variance)

    def __call__(self, X1: ArrayLike, X2: ArrayLike) -> np.ndarray:
        return self.from_scaled_distances(
            pairwise_scaled_distances(X1, X2, self.lengthscale)
        )

    def from_scaled_distances(self, r: np.ndarray) -> np.ndarray:
        sqrt5_r = np.sqrt(5.0) * r
        return self.variance * (1.0 + sqrt5_r + (5.0 / 3.0) * r**2) * np.exp(-sqrt5_r)

    def get_params(self) -> Dict:
        return {"lengthscale": self.lengthscale, "variance": self.variance}

    def __repr__(self) -> str:
        return f"Matern52Kernel(lengthscale={self.lengthscale}, variance={self.variance})"
