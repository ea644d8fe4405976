"""Objective normalisation and scalarisation for multi-objective acquisition.

The MOBO loop turns the vector of per-objective surrogate values into a single
acquisition score using randomly-weighted augmented Chebyshev scalarisation
(the ParEGO strategy).  Random weights are re-drawn every iteration so the
search sweeps across the whole Pareto frontier instead of collapsing onto a
single trade-off point.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng

#: Augmentation coefficient for the augmented Chebyshev scalarisation.
DEFAULT_RHO = 0.05


def random_weights(num_objectives: int, rng: SeedLike = None) -> np.ndarray:
    """Draw a weight vector uniformly from the probability simplex."""
    if num_objectives < 1:
        raise ValueError(f"num_objectives must be >= 1, got {num_objectives}")
    rng = ensure_rng(rng)
    # Exponential spacings give a uniform Dirichlet(1, ..., 1) sample.
    raw = rng.exponential(scale=1.0, size=num_objectives)
    total = float(raw.sum())
    if total <= 0.0:
        return np.full(num_objectives, 1.0 / num_objectives)
    return raw / total


def normalize_objectives(
    values: np.ndarray,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale an ``(n, k)`` objective matrix to roughly ``[0, 1]`` per column.

    Returns the normalised matrix together with the lower/upper bounds used,
    so the same transformation can be applied to new points.  Degenerate
    columns (constant objectives) map to 0.5.
    """
    Y = np.atleast_2d(np.asarray(values, dtype=float))
    lower = Y.min(axis=0) if lower is None else np.asarray(lower, dtype=float)
    upper = Y.max(axis=0) if upper is None else np.asarray(upper, dtype=float)
    span = upper - lower
    safe_span = np.where(span > 1e-12, span, 1.0)
    normalised = (Y - lower) / safe_span
    normalised = np.where(span > 1e-12, normalised, 0.5)
    return normalised, lower, upper


def chebyshev_scalarize(
    values: np.ndarray,
    weights: np.ndarray,
    rho: float = DEFAULT_RHO,
) -> np.ndarray:
    """Augmented Chebyshev scalarisation of normalised objective vectors.

    ``scalar = max_k(w_k * y_k) + rho * sum_k(w_k * y_k)`` — smaller is better
    (objectives are minimised).  ``values`` may be a single vector or an
    ``(n, k)`` matrix; the return has shape ``()`` or ``(n,)`` accordingly.
    """
    Y = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float).ravel()
    single = Y.ndim == 1
    Y = np.atleast_2d(Y)
    if Y.shape[1] != w.shape[0]:
        raise ValueError(
            f"values have {Y.shape[1]} objectives but weights have {w.shape[0]}"
        )
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    weighted = Y * w[None, :]
    scalar = weighted.max(axis=1) + rho * weighted.sum(axis=1)
    return scalar[0] if single else scalar
