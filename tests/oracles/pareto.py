"""Pairwise-loop reference of the Pareto front mask.

:func:`repro.optim.pareto.pareto_front_mask` sorts the rows and removes
each front member's dominated block in one vectorised comparison, setting
rows that hold NaN aside first.  This module keeps the O(n^2 k) loop it
replaced, which compares every surviving row with all others and needs no
special case for NaN, as the oracle the property tests and the
``benchmarks/bench_gp_hotpath.py`` parity gate compare it with.
"""

from __future__ import annotations

import numpy as np


def pareto_front_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows, one row at a time."""
    Y = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = Y.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated_by_i = np.all(Y >= Y[i], axis=1) & np.any(Y > Y[i], axis=1)
        mask &= ~dominated_by_i
        mask[i] = True
        # If someone else dominates i, drop it.
        dominates_i = np.all(Y <= Y[i], axis=1) & np.any(Y < Y[i], axis=1)
        if np.any(dominates_i & mask):
            mask[i] = False
    return mask
