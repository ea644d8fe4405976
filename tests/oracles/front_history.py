"""Per-prefix reference of the per-evaluation front history.

:func:`repro.optim.pareto.compute_front_history` grows the front one
evaluation at a time and recomputes the hypervolume only when a newcomer
joins.  This module keeps the loop it replaced — recompute the
non-dominated mask of every prefix and the hypervolume of its front — as the
oracle the property test compares it with, entry for entry.  The
hypervolume is the slab-based oracle's (:mod:`oracles.hypervolume`), so a
change to the library's hypervolume shows here too.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from oracles.hypervolume import hypervolume
from repro.optim.pareto import (
    FrontHistory,
    FrontHistoryEntry,
    default_reference_point,
    pareto_front_mask,
)


def compute_front_history(
    objectives: np.ndarray,
    metrics: Sequence[str] = (),
    reference: Optional[Sequence[float]] = None,
    labels: Optional[Sequence[Optional[str]]] = None,
    iterations: Optional[Sequence[int]] = None,
) -> FrontHistory:
    Y = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = Y.shape[0]
    if n == 0 or Y.size == 0:
        return FrontHistory(metrics=tuple(metrics), reference=(), entries=())
    ref = (
        default_reference_point(Y)
        if reference is None
        else np.asarray(reference, dtype=float).ravel()
    )
    entries = []
    for t in range(n):
        prefix = Y[: t + 1]
        mask = pareto_front_mask(prefix)
        entries.append(
            FrontHistoryEntry(
                evaluation=t,
                iteration=int(iterations[t]) if iterations is not None else t,
                front_size=int(mask.sum()),
                hypervolume=hypervolume(prefix[mask], ref),
                joined_front=bool(mask[t]),
                candidate=None if labels is None else labels[t],
            )
        )
    return FrontHistory(
        metrics=tuple(metrics),
        reference=tuple(float(v) for v in ref),
        entries=tuple(entries),
    )
