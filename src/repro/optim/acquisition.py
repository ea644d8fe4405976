"""Acquisition strategies over a discrete candidate pool.

The architecture search space is finite and discrete, so the maximisation of
the acquisition function (Eq. 7 of the paper) is performed over a sampled
pool of candidate genotypes rather than by continuous optimisation.  Each
strategy scores every pool member per objective; the MOBO loop then
scalarises the per-objective scores and picks the pool member with the best
(lowest) scalarised value.

All objectives are minimised, so *lower scores are better* for every strategy.

Every strategy scores the pool through the search's
:class:`~repro.optim.gp_bank.GPBank`.  With a homogeneous bank the expensive
shared pieces — the pool cross-covariance, the triangular solve and (for
Thompson sampling) the posterior covariance factor — are computed once for
all objectives instead of once per objective, which is the acquisition-side
half of the incremental surrogate fast path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optim.epdc import epdc_score_matrix
from repro.optim.gp_bank import GPBank
from repro.utils.rng import SeedLike, ensure_rng

#: Acquisition strategy names accepted by the optimizers.
ACQUISITION_STRATEGIES = ("ts", "ucb", "mean", "random", "epdc")

#: Exploration weight of the ``"ucb"`` acquisition.
UCB_BETA = 2.0


def acquisition_scores(
    strategy: str,
    bank: GPBank,
    pool_features: np.ndarray,
    rng: SeedLike = None,
    front: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Score a candidate pool with the requested acquisition strategy.

    Returns an ``(n_pool, n_objectives)`` matrix, lower is better:

    * ``"ts"`` — Thompson sampling, one joint posterior draw per objective
      (the strategy Dragonfly uses by default);
    * ``"ucb"`` — lower confidence bounds ``mean - UCB_BETA * std``,
      optimistic under minimisation;
    * ``"mean"`` — the posterior means (pure exploitation);
    * ``"random"`` — i.i.d. uniform scores, yielding random search with the
      same bookkeeping as the model-based strategies (a baseline);
    * ``"epdc"`` (see :mod:`repro.optim.epdc`) — additionally requires
      ``front``, the current non-dominated objective vectors in the
      *normalised* units the surrogates were fit on.
    """
    strategy = strategy.strip().lower()
    if strategy not in ACQUISITION_STRATEGIES:
        raise ValueError(
            f"unknown acquisition strategy {strategy!r}; "
            f"available: {ACQUISITION_STRATEGIES}"
        )
    pool_features = np.atleast_2d(np.asarray(pool_features, dtype=float))
    if strategy == "random":
        rng = ensure_rng(rng)
        return rng.uniform(size=(pool_features.shape[0], bank.num_objectives))
    if strategy == "ts":
        return bank.thompson_matrix(pool_features, rng=rng)
    if strategy == "ucb":
        mean, std = bank.predict(pool_features, return_std=True)
        return mean - UCB_BETA * std
    if strategy == "epdc":
        if front is None:
            raise ValueError(
                "the 'epdc' strategy needs the current Pareto front "
                "(pass front=...)"
            )
        return epdc_score_matrix(bank, pool_features, front, rng=rng)
    mean, _ = bank.predict(pool_features, return_std=False)
    return mean
