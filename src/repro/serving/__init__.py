"""LENS-as-a-service: vectorized multi-client runtime serving.

The paper's runtime story (§IV-E, §V-C) is one edge device switching
deployment options in O(1) as its uplink drifts.  This package serves that
decision — :func:`~repro.core.runtime.first_minimum` of
:meth:`~repro.core.runtime.ThresholdAnalysis.costs`, the first option whose
cost is strictly lowest — to a *fleet*: N clients' EWMA throughput
estimates advance in one array op per tick (:class:`FleetTracker`), the
whole fleet's estimates map onto options in one decision pass per tick
(:class:`FleetController`), and
:class:`ServingSession` replays per-region client traces
(:class:`FleetWorkload`) while recording service metrics — decisions/sec,
switch counts, decision-latency percentiles and SLA-violation rates
(:class:`ServingReport`).

The scalar :class:`~repro.wireless.tracker.ThroughputTracker` and
:class:`~repro.core.runtime.DynamicDeploymentController` remain the
single-device references; ``benchmarks/bench_serving.py`` and
``tests/test_serving_parity.py`` hold the vectorized layer element-wise
identical to them.  See ``docs/serving.md``.
"""

from repro.serving.fleet import FleetController, FleetTracker
from repro.serving.session import ServingReport, ServingSession
from repro.serving.workload import FleetWorkload

__all__ = [
    "FleetController",
    "FleetTracker",
    "FleetWorkload",
    "ServingReport",
    "ServingSession",
]
