"""Slab-by-slab reference of the exact 2-D and 3-D hypervolume.

:func:`repro.optim.pareto.hypervolume_3d` sweeps the front once, keeping its
``(x, y)`` projections in a sorted list and summing each slab's staircase
over it; :func:`repro.optim.pareto.hypervolume_2d` is that staircase over
the in-box points.  This module keeps the code they replaced — one 2-D call
per z-slab, each extracting the projected front with
:func:`~repro.optim.pareto.pareto_front_mask` and sorting it by ``x`` — as the
oracle the property tests compare them with, as ``float.hex``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.optim import pareto
from repro.optim.pareto import pareto_front_mask


def hypervolume_2d(points: np.ndarray, reference: Sequence[float]) -> float:
    P = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float).ravel()
    if P.shape[1] != 2 or ref.shape != (2,):
        raise ValueError("hypervolume_2d requires 2-D points and a 2-D reference")
    inside = P[np.all(P <= ref, axis=1)]
    if inside.size == 0:
        return 0.0
    front = inside[pareto_front_mask(inside)]
    order = np.argsort(front[:, 0])
    front = front[order]
    volume = 0.0
    previous_y = ref[1]
    for x, y in front:
        width = ref[0] - x
        height = previous_y - y
        if width > 0 and height > 0:
            volume += width * height
        previous_y = min(previous_y, y)
    return float(volume)


def hypervolume_3d(points: np.ndarray, reference: Sequence[float]) -> float:
    P = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float).ravel()
    if P.shape[1] != 3 or ref.shape != (3,):
        raise ValueError("hypervolume_3d requires 3-D points and a 3-D reference")
    inside = P[np.all(P <= ref, axis=1)]
    if inside.size == 0:
        return 0.0
    front = inside[pareto_front_mask(inside)]
    order = np.argsort(front[:, 2], kind="stable")
    front = front[order]
    volume = 0.0
    heights = np.append(front[1:, 2], ref[2]) - front[:, 2]
    for index, height in enumerate(heights):
        if height <= 0.0:
            continue
        area = hypervolume_2d(front[: index + 1, :2], ref[:2])
        volume += area * float(height)
    return float(volume)


def hypervolume(points: np.ndarray, reference: Sequence[float]) -> float:
    """:func:`repro.optim.pareto.hypervolume` with the slab-based exact cases.

    Four or more objectives fall through to the library's Monte Carlo
    estimate, which the sweep did not change.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float).ravel()
    if P.shape[1] != ref.shape[0]:
        raise ValueError(
            f"points have {P.shape[1]} objectives but reference has {ref.shape[0]}"
        )
    if P.shape[1] == 2:
        return hypervolume_2d(P, ref)
    if P.shape[1] == 3:
        return hypervolume_3d(P, ref)
    return pareto.hypervolume(P, ref)
