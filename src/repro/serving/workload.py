"""Fleet workloads: per-client throughput traces at array scale.

A serving session replays one throughput measurement per client per tick.
:class:`FleetWorkload` stores the whole replay as a ``(ticks, num_clients)``
array — NaN entries mean "this client produced no sample on this tick"
(idle, stalled, or its trace already ended) — plus a per-client region
label so service metrics can be broken down the way fleet dashboards are.

Workloads come from two places:

* :meth:`FleetWorkload.from_traces` — existing
  :class:`~repro.wireless.traces.ThroughputTrace` objects (e.g. the Fig. 8
  replay traces), one per client, NaN-padded when lengths differ;
* :meth:`FleetWorkload.synthesize` — the process of
  :func:`~repro.wireless.traces.generate_lte_trace`
  (:func:`~repro.wireless.traces.ar1_uplinks`: AR(1) log-normal throughput
  with deep fades), one column per client, with each client's stationary
  mean taken from its region's Table-I average uplink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.wireless.regions import Region, paper_regions, region_by_name
from repro.wireless.traces import ThroughputTrace, ar1_uplinks

__all__ = ["FleetWorkload"]


def _resolve_regions(
    regions: Optional[Sequence[Union[str, Region]]]
) -> List[Region]:
    if regions is None:
        return paper_regions()
    resolved = []
    for region in regions:
        if isinstance(region, Region):
            resolved.append(region)
            continue
        try:
            resolved.append(region_by_name(str(region)))
        except KeyError as error:
            raise ValueError(error.args[0] if error.args else str(error)) from error
    if not resolved:
        raise ValueError("at least one region is required")
    return resolved


@dataclass(frozen=True)
class FleetWorkload:
    """A fleet's full throughput replay.

    Attributes
    ----------
    uplinks_mbps:
        ``(ticks, num_clients)`` float array; NaN marks ticks on which a
        client produced no measurement.
    regions:
        Per-client region label (used for metric breakdowns only).
    name:
        Display name of the workload.
    """

    uplinks_mbps: np.ndarray
    regions: Tuple[str, ...]
    name: str = "fleet"

    def __post_init__(self) -> None:
        array = np.asarray(self.uplinks_mbps, dtype=np.float64)
        if array.ndim != 2 or array.shape[0] < 1 or array.shape[1] < 1:
            raise ValueError(
                f"uplinks_mbps must be a (ticks, clients) matrix, got {array.shape}"
            )
        object.__setattr__(self, "uplinks_mbps", array)
        if len(self.regions) != array.shape[1]:
            raise ValueError(
                f"{len(self.regions)} region labels for {array.shape[1]} clients"
            )
        object.__setattr__(self, "regions", tuple(str(r) for r in self.regions))

    # ------------------------------------------------------------------ shape
    @property
    def ticks(self) -> int:
        """Number of replay ticks."""
        return int(self.uplinks_mbps.shape[0])

    @property
    def num_clients(self) -> int:
        """Fleet size."""
        return int(self.uplinks_mbps.shape[1])

    def region_masks(self) -> Dict[str, np.ndarray]:
        """Region label -> boolean client mask, in first-seen order."""
        masks: Dict[str, np.ndarray] = {}
        labels = np.asarray(self.regions)
        for label in self.regions:
            if label not in masks:
                masks[label] = labels == label
        return masks

    # ------------------------------------------------------------------ sources
    @classmethod
    def from_traces(
        cls,
        traces: Sequence[ThroughputTrace],
        regions: Optional[Sequence[str]] = None,
        name: str = "trace-fleet",
    ) -> "FleetWorkload":
        """One client per trace; shorter traces are NaN-padded at the tail.

        A client whose trace is shorter than the longest one is *exhausted*
        mid-replay: it stops producing samples and the serving layer holds
        its last decision — exactly the degradation the fault-injection
        tests pin down.
        """
        if not traces:
            raise ValueError("at least one trace is required")
        ticks = max(len(trace) for trace in traces)
        uplinks = np.full((ticks, len(traces)), np.nan, dtype=np.float64)
        for column, trace in enumerate(traces):
            uplinks[: len(trace), column] = trace.uplinks_mbps
        labels = (
            tuple(str(r) for r in regions)
            if regions is not None
            else tuple(trace.name for trace in traces)
        )
        return cls(uplinks_mbps=uplinks, regions=labels, name=name)

    @classmethod
    def synthesize(
        cls,
        num_clients: int,
        ticks: int,
        regions: Optional[Sequence[Union[str, Region]]] = None,
        *,
        stall_probability: float = 0.0,
        seed: SeedLike = None,
        name: str = "synthetic-fleet",
        **process: float,
    ) -> "FleetWorkload":
        """Synthesize a heterogeneous fleet's throughput replay.

        Clients are assigned to ``regions`` round-robin (default: the
        paper's Table-I regions) and each follows the AR(1) log-normal
        process of :func:`~repro.wireless.traces.ar1_uplinks` with
        stationary median at its region's average uplink; ``process`` takes
        its ``volatility``, ``correlation``, ``fade_probability`` and
        ``fade_factor``.  ``stall_probability`` independently blanks
        measurements to NaN, modelling clients that intermittently stop
        reporting.
        """
        if num_clients < 1 or ticks < 1:
            raise ValueError("num_clients and ticks must both be >= 1")
        if not (0.0 <= stall_probability < 1.0):
            raise ValueError(
                f"stall_probability must be in [0, 1), got {stall_probability}"
            )
        catalogue = _resolve_regions(regions)
        rng = ensure_rng(seed)
        assignment = np.arange(num_clients) % len(catalogue)
        means = np.array([r.avg_uplink_mbps for r in catalogue], dtype=np.float64)
        uplinks = ar1_uplinks(means[assignment], ticks, rng, **process)
        if stall_probability > 0.0:
            stalled = rng.random(uplinks.shape) < stall_probability
            uplinks[stalled] = np.nan
        labels = tuple(catalogue[int(i)].name for i in assignment)
        return cls(uplinks_mbps=uplinks, regions=labels, name=name)
