"""Pareto-dominance utilities, archives and quality indicators.

All objectives in this library are *minimised*.  A point ``a`` dominates
``b`` when it is no worse in every objective and strictly better in at least
one — the definition in §III-B of the paper.  The module provides:

* :func:`dominates` and :func:`pareto_front_mask` — dominance primitives;
* :class:`ParetoArchive` — an incrementally-updated archive of non-dominated
  (payload, objectives) pairs, used by the search loops;
* quality indicators — the coverage (C-)metric used for the paper's
  "LENS dominates X % of the Traditional frontier" statements, and the
  hypervolume indicator for ablation studies.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_front_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of an ``(n, k)`` objective matrix.

    Duplicate rows are all retained (none of them dominates the others).
    A row holding NaN is on the front: every comparison with NaN is false,
    so it neither dominates nor is dominated.

    Sort/block-dominance implementation: rows are lexicographically sorted,
    so every dominator of a row precedes it, and the scan repeatedly takes
    the first still-alive row (guaranteed non-dominated), removes the whole
    block of rows it dominates in one vectorised comparison, and jumps to
    the next survivor.  The number of passes equals the size of the front
    (plus duplicates), so typical inputs cost O(|front| * n * k) with NumPy
    kernels instead of the O(n^2 k) Python loop kept as the test oracle
    ``tests/oracles/pareto.py`` — ~100x faster on a 50 000-point cloud (see
    ``benchmarks/bench_gp_hotpath.py``).
    """
    Y = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = Y.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.ones(1, dtype=bool)
    nan_rows = np.isnan(Y).any(axis=1)
    if nan_rows.any():
        # NaN rows are on the front; they would corrupt the sort and the
        # pivot comparisons of the scan, so it runs over the other rows.
        mask = nan_rows.copy()
        rest = np.flatnonzero(~nan_rows)
        mask[rest] = pareto_front_mask(Y[rest])
        return mask
    # Lexicographic sort: primary key column 0, then column 1, ...
    order = np.lexsort(Y.T[::-1])
    rows = Y[order]
    surviving = np.arange(n)  # positions into the sorted rows
    pointer = 0
    while pointer < rows.shape[0]:
        pivot = rows[pointer]
        # Keep rows with some coordinate strictly better than the pivot
        # (they are not dominated by it) and exact duplicates of the pivot
        # (mutually non-dominated by definition).
        alive = np.any(rows < pivot, axis=1) | np.all(rows == pivot, axis=1)
        alive[pointer] = True
        if alive.all():
            pointer += 1
            continue
        surviving = surviving[alive]
        rows = rows[alive]
        pointer = int(np.count_nonzero(alive[:pointer])) + 1
    mask = np.zeros(n, dtype=bool)
    mask[order[surviving]] = True
    return mask


@dataclass
class ArchiveEntry:
    """One non-dominated entry of a :class:`ParetoArchive`."""

    payload: Any
    objectives: np.ndarray


class ParetoArchive:
    """Incrementally-maintained set of mutually non-dominated entries.

    The archive accepts (payload, objectives) pairs; on each insertion it
    removes entries dominated by the newcomer and rejects the newcomer if an
    existing entry dominates it.  Exact duplicates of an existing objective
    vector are accepted (they are mutually non-dominated), which matches how
    the paper counts frontier members.
    """

    def __init__(self, num_objectives: int):
        if num_objectives < 1:
            raise ValueError(f"num_objectives must be >= 1, got {num_objectives}")
        self.num_objectives = int(num_objectives)
        self._entries: List[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> Tuple[ArchiveEntry, ...]:
        """Current non-dominated entries."""
        return tuple(self._entries)

    def objective_matrix(self) -> np.ndarray:
        """``(len(archive), num_objectives)`` matrix of objective vectors."""
        if not self._entries:
            return np.empty((0, self.num_objectives))
        return np.vstack([entry.objectives for entry in self._entries])

    def add(self, payload: Any, objectives: Sequence[float]) -> bool:
        """Offer a new entry; returns ``True`` if it joins the archive."""
        objectives = np.asarray(objectives, dtype=float).ravel()
        if objectives.shape != (self.num_objectives,):
            raise ValueError(
                f"expected {self.num_objectives} objectives, got shape {objectives.shape}"
            )
        for entry in self._entries:
            if dominates(entry.objectives, objectives):
                return False
        self._entries = [
            entry
            for entry in self._entries
            if not dominates(objectives, entry.objectives)
        ]
        self._entries.append(ArchiveEntry(payload=payload, objectives=objectives))
        return True


# ---------------------------------------------------------------------------
# Quality indicators
# ---------------------------------------------------------------------------
def coverage(front_a: np.ndarray, front_b: np.ndarray) -> float:
    """C-metric: fraction of points in ``front_b`` dominated by some point of ``front_a``.

    This is the statistic behind the paper's Fig. 6 claims ("LENS's frontier
    dominates 60% of the new Traditional's frontier").  Returns 0.0 when
    ``front_b`` is empty.
    """
    A = np.atleast_2d(np.asarray(front_a, dtype=float))
    B = np.atleast_2d(np.asarray(front_b, dtype=float))
    if B.size == 0:
        return 0.0
    if A.size == 0:
        return 0.0
    dominated = 0
    for b in B:
        if any(dominates(a, b) for a in A):
            dominated += 1
    return dominated / B.shape[0]


def combined_front_composition(
    front_a: np.ndarray, front_b: np.ndarray
) -> Dict[str, float]:
    """Compose a joint Pareto frontier and report each source's share.

    Mirrors the paper's "a combined frontier made from both sets would
    constitute 76.47% candidates from LENS's optimal set".  Points from A and
    B are pooled, the joint non-dominated set is extracted, and the fraction
    of joint-front members originating from each source is returned.  Ties
    (identical objective vectors from both sources) count for both.
    """
    A = np.atleast_2d(np.asarray(front_a, dtype=float))
    B = np.atleast_2d(np.asarray(front_b, dtype=float))
    if A.size == 0 and B.size == 0:
        return {"fraction_a": 0.0, "fraction_b": 0.0, "combined_size": 0.0}
    if A.size == 0:
        return {"fraction_a": 0.0, "fraction_b": 1.0, "combined_size": float(B.shape[0])}
    if B.size == 0:
        return {"fraction_a": 1.0, "fraction_b": 0.0, "combined_size": float(A.shape[0])}
    pooled = np.vstack([A, B])
    origins = np.array(["a"] * A.shape[0] + ["b"] * B.shape[0])
    mask = pareto_front_mask(pooled)
    selected = origins[mask]
    total = int(mask.sum())
    count_a = int(np.sum(selected == "a"))
    count_b = int(np.sum(selected == "b"))
    return {
        "fraction_a": count_a / total,
        "fraction_b": count_b / total,
        "combined_size": float(total),
    }


def _staircase_area(points: Sequence[Sequence[float]], rx: float, ry: float) -> float:
    """Area dominated within ``(rx, ry)`` by 2-D points sorted by ``(x, y)``.

    Each point adds the rectangle from its ``x`` to ``rx`` between its ``y``
    and the lowest ``y`` before it; empty and inverted rectangles add
    nothing.  A dominated point sorts after a point that dominates it, so
    its ``y`` is not below the lowest before it: only the front's staircase
    adds area, in ascending ``x``.
    """
    area = 0.0
    previous_y = ry
    for x, y in points:
        width = rx - x
        height = previous_y - y
        if width > 0 and height > 0:
            area += width * height
        if y < previous_y:
            previous_y = y
    return area


def hypervolume_2d(points: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume (area) dominated by a 2-D point set w.r.t. a reference.

    Points outside the reference box contribute nothing.  Minimisation is
    assumed: the dominated region lies between each point and the reference.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float).ravel()
    if P.shape[1] != 2 or ref.shape != (2,):
        raise ValueError("hypervolume_2d requires 2-D points and a 2-D reference")
    inside = P[np.all(P <= ref, axis=1)]
    rx, ry = ref.tolist()
    return _staircase_area(sorted(inside.tolist()), rx, ry)


def hypervolume_3d(points: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume dominated by a 3-D point set w.r.t. a reference.

    Dimension sweep: the front's points inside the reference box are taken
    in ascending third objective, each joining a list of ``(x, y)``
    projections kept sorted.  Every slab between one point's ``z`` and the
    next (or the reference) adds its height times the area that list
    dominates, a staircase sweep: O(m^2) for a front of m points.  The
    products and sums are those of one :func:`hypervolume_2d` call per
    slab, in the same order (``tests/oracles/hypervolume.py``).
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float).ravel()
    if P.shape[1] != 3 or ref.shape != (3,):
        raise ValueError("hypervolume_3d requires 3-D points and a 3-D reference")
    inside = P[np.all(P <= ref, axis=1)]
    if inside.size == 0:
        return 0.0
    front = inside[pareto_front_mask(inside)]
    rows = front[np.argsort(front[:, 2], kind="stable")].tolist()
    rx, ry, rz = ref.tolist()
    tops = [z for _, _, z in rows[1:]] + [rz]
    projections: List[Tuple[float, float]] = []
    volume = 0.0
    for (x, y, z), top in zip(rows, tops):
        insort(projections, (x, y))
        height = top - z
        if height <= 0.0:
            continue
        volume += _staircase_area(projections, rx, ry) * height
    return volume


def hypervolume(
    points: np.ndarray,
    reference: Sequence[float],
    num_samples: int = 20000,
    seed: SeedLike = 0,
) -> float:
    """Hypervolume indicator: exact for 2-D/3-D, Monte Carlo beyond.

    Two and three objectives are computed exactly (:func:`hypervolume_2d`,
    :func:`hypervolume_3d`); with four or more the dominated fraction of the
    reference box is estimated with ``num_samples`` quasi-uniform samples,
    deterministic for a fixed ``seed``.
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
    inside = P[np.all(P <= ref, axis=1)]
    if inside.size == 0:
        return 0.0
    lower = inside.min(axis=0)
    box_volume = float(np.prod(ref - lower))
    if box_volume <= 0.0:
        return 0.0
    rng = ensure_rng(seed)
    samples = rng.uniform(lower, ref, size=(num_samples, ref.shape[0]))
    dominated = np.zeros(num_samples, dtype=bool)
    for point in inside:
        dominated |= np.all(samples >= point, axis=1)
    return box_volume * float(dominated.mean())


# ---------------------------------------------------------------------------
# Front telemetry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FrontHistoryEntry:
    """Front state after one evaluation of a search run."""

    evaluation: int
    iteration: int
    front_size: int
    hypervolume: float
    joined_front: bool
    candidate: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "evaluation": self.evaluation,
            "iteration": self.iteration,
            "front_size": self.front_size,
            "hypervolume": self.hypervolume,
            "joined_front": self.joined_front,
            "candidate": self.candidate,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FrontHistoryEntry":
        return cls(
            evaluation=int(data["evaluation"]),
            iteration=int(data.get("iteration", data["evaluation"])),
            front_size=int(data["front_size"]),
            hypervolume=float(data["hypervolume"]),
            joined_front=bool(data.get("joined_front", False)),
            candidate=data.get("candidate"),
        )


@dataclass(frozen=True)
class FrontHistory:
    """Per-evaluation Pareto-front trajectory of one search run.

    ``entries[t]`` describes the non-dominated front over the first ``t + 1``
    evaluations: its size, its exact hypervolume w.r.t. ``reference``
    (minimisation; exact for up to three objectives, see
    :func:`hypervolume`), and whether evaluation ``t`` joined the
    then-current front.  The history is a pure function of the candidate
    sequence and the reference point, so re-deriving it from a stored
    outcome reproduces it bit-for-bit.
    """

    metrics: Tuple[str, ...]
    reference: Tuple[float, ...]
    entries: Tuple[FrontHistoryEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(str(m) for m in self.metrics))
        object.__setattr__(
            self, "reference", tuple(float(v) for v in self.reference)
        )
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def hypervolumes(self) -> np.ndarray:
        """Hypervolume after each evaluation, in evaluation order."""
        return np.array([entry.hypervolume for entry in self.entries])

    @property
    def final_hypervolume(self) -> float:
        """Hypervolume of the completed run's front (0.0 when empty)."""
        if not self.entries:
            return 0.0
        return self.entries[-1].hypervolume

    @property
    def final_front_size(self) -> int:
        """Size of the completed run's front (0 when empty)."""
        if not self.entries:
            return 0
        return self.entries[-1].front_size

    def front_advances(self) -> List[FrontHistoryEntry]:
        """The evaluations that joined the then-current front."""
        return [entry for entry in self.entries if entry.joined_front]

    def to_dict(self) -> Dict:
        return {
            "metrics": list(self.metrics),
            "reference": list(self.reference),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FrontHistory":
        return cls(
            metrics=tuple(data.get("metrics", ())),
            reference=tuple(data.get("reference", ())),
            entries=tuple(
                FrontHistoryEntry.from_dict(entry)
                for entry in data.get("entries", ())
            ),
        )


def default_reference_point(objectives: np.ndarray) -> np.ndarray:
    """Deterministic hypervolume reference for a run's observed objectives.

    The nadir over every observation plus a 10 % margin of the observed
    range, plus a tiny absolute epsilon so degenerate columns still enclose
    their points: ``nadir + 0.1 * (nadir - ideal) + 1e-9``.  This is not
    :func:`repro.analysis.pareto_metrics.compare_fronts`' reference, which
    scales the pooled maximum (``max * 1.1 + 1e-9``).
    """
    Y = np.atleast_2d(np.asarray(objectives, dtype=float))
    if Y.size == 0:
        raise ValueError("cannot derive a reference point from no objectives")
    nadir = Y.max(axis=0)
    ideal = Y.min(axis=0)
    return nadir + 0.1 * (nadir - ideal) + 1e-9


def compute_front_history(
    objectives: np.ndarray,
    metrics: Sequence[str] = (),
    reference: Optional[Sequence[float]] = None,
    labels: Optional[Sequence[Optional[str]]] = None,
    iterations: Optional[Sequence[int]] = None,
) -> FrontHistory:
    """Derive the :class:`FrontHistory` of an evaluation sequence.

    Parameters
    ----------
    objectives:
        ``(n, k)`` matrix of observed objective vectors in evaluation order
        (all minimised).
    metrics:
        Optional objective names recorded in the history.
    reference:
        Hypervolume reference point; defaults to
        :func:`default_reference_point` over all observations, so the whole
        run is scored against one fixed box.
    labels / iterations:
        Optional per-evaluation candidate labels and iteration numbers, one
        per row of ``objectives`` (``ValueError`` otherwise).

    The front is grown one evaluation at a time.  A dominated newcomer
    leaves it, and so its size and hypervolume, unchanged; one that joins
    drops the rows it dominates and is appended, and the hypervolume is
    recomputed from the front's rows in evaluation order — the rows and
    order :func:`pareto_front_mask` selects from the prefix — so every entry
    equals the per-prefix recomputation bit for bit
    (``tests/oracles/front_history.py``).  A row containing NaN neither
    dominates nor is dominated, as in :func:`pareto_front_mask`.
    """
    Y = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = Y.shape[0]
    if n == 0 or Y.size == 0:
        return FrontHistory(metrics=tuple(metrics), reference=(), entries=())
    for name, values in (("labels", labels), ("iterations", iterations)):
        if values is not None and len(values) != n:
            raise ValueError(f"{name} has {len(values)} entries for {n} evaluations")
    ref = (
        default_reference_point(Y)
        if reference is None
        else np.asarray(reference, dtype=float).ravel()
    )
    if ref.shape[0] != Y.shape[1]:
        raise ValueError(
            f"reference has {ref.shape[0]} objectives but points have {Y.shape[1]}"
        )
    entries: List[FrontHistoryEntry] = []
    front = np.empty(0, dtype=np.intp)  # rows of the current front, ascending
    volume = 0.0
    for t in range(n):
        point = Y[t]
        rows = Y[front]
        joined = not np.any((rows <= point).all(axis=1) & (rows < point).any(axis=1))
        if joined:
            beaten = (point <= rows).all(axis=1) & (point < rows).any(axis=1)
            front = np.append(front[~beaten], t)
            volume = hypervolume(Y[front], ref)
        entries.append(
            FrontHistoryEntry(
                evaluation=t,
                iteration=int(iterations[t]) if iterations is not None else t,
                front_size=int(front.size),
                hypervolume=volume,
                joined_front=joined,
                candidate=None if labels is None else labels[t],
            )
        )
    return FrontHistory(
        metrics=tuple(metrics),
        reference=tuple(float(v) for v in ref),
        entries=tuple(entries),
    )
