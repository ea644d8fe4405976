"""Trace-replay serving sessions with service-grade metrics.

:class:`ServingSession` is the fleet-scale sequel of
:func:`repro.core.runtime.simulate_runtime`: it replays a
:class:`~repro.serving.workload.FleetWorkload` against one model's
:class:`~repro.core.runtime.ThresholdAnalysis`, advancing every client's
EWMA estimate and deployment decision with one vector op per tick, and
measures the replay the way a service is measured:

* **decisions/sec** — fleet decisions produced per second of decision time;
* **decision latency** — p50/p99 of the per-tick fleet decision pass (the
  time to turn one tick of measurements into one decision per client);
* **switch counts** — total and per-client deployment switches;
* **SLA violations** — fraction of served inferences whose end-to-end
  latency, under the *actual* throughput of the tick, exceeded a target.

Degradation is graceful by construction: idle / stalled / exhausted clients
hold their last decision (counted in ``held_ticks``), and non-positive or
infinite measurements are tallied as anomalies instead of raising — one bad
client never takes down a tick.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.runtime import ThresholdAnalysis
from repro.serving.fleet import FleetController, FleetTracker
from repro.serving.workload import FleetWorkload

__all__ = ["ServingSession", "ServingReport"]


@dataclass(frozen=True)
class ServingReport:
    """Service metrics of one fleet replay.

    ``per_region`` maps each region label to its share of the fleet and its
    decisions/switches/SLA accounting; ``decision_log`` (optional, see
    ``ServingSession(record_decisions=True)``) holds the full
    ``(ticks, clients)`` matrix of option indices (-1 = no decision yet).
    """

    name: str
    metric: str
    num_clients: int
    ticks: int
    option_labels: Tuple[str, ...]
    decisions: int
    switches: int
    max_switches_per_client: int
    decision_time_s: float
    decisions_per_s: float
    tick_p50_ms: float
    tick_p99_ms: float
    served: int
    sla_latency_s: Optional[float]
    sla_violations: int
    anomalies: int
    idle_client_ticks: int
    held_ticks: int
    silent_clients: int
    exhausted_clients: int
    per_region: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    decision_log: Optional[np.ndarray] = None

    @property
    def sla_violation_rate(self) -> float:
        """Fraction of served inferences that missed the latency target."""
        if not self.served or self.sla_latency_s is None:
            return 0.0
        return self.sla_violations / self.served

    @property
    def us_per_decision(self) -> float:
        """Mean decision cost in microseconds per client decision."""
        if not self.decisions:
            return 0.0
        return self.decision_time_s / self.decisions * 1e6

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "metric": self.metric,
            "num_clients": self.num_clients,
            "ticks": self.ticks,
            "option_labels": list(self.option_labels),
            "decisions": self.decisions,
            "switches": self.switches,
            "max_switches_per_client": self.max_switches_per_client,
            "decision_time_s": self.decision_time_s,
            "decisions_per_s": self.decisions_per_s,
            "tick_p50_ms": self.tick_p50_ms,
            "tick_p99_ms": self.tick_p99_ms,
            "us_per_decision": self.us_per_decision,
            "served": self.served,
            "sla_latency_s": self.sla_latency_s,
            "sla_violations": self.sla_violations,
            "sla_violation_rate": self.sla_violation_rate,
            "anomalies": self.anomalies,
            "idle_client_ticks": self.idle_client_ticks,
            "held_ticks": self.held_ticks,
            "silent_clients": self.silent_clients,
            "exhausted_clients": self.exhausted_clients,
            "per_region": {k: dict(v) for k, v in self.per_region.items()},
        }
        return payload

    # ------------------------------------------------------------------ tables
    def summary_rows(self) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` one-row fleet summary for any renderer."""
        headers = [
            "clients", "ticks", "decisions", "switches", "decisions/s",
            "tick p50 ms", "tick p99 ms", "SLA target ms", "violation %",
            "anomalies", "held ticks",
        ]
        rows = [[
            self.num_clients,
            self.ticks,
            self.decisions,
            self.switches,
            round(self.decisions_per_s),
            round(self.tick_p50_ms, 3),
            round(self.tick_p99_ms, 3),
            "-" if self.sla_latency_s is None else round(self.sla_latency_s * 1e3, 1),
            round(100.0 * self.sla_violation_rate, 2),
            self.anomalies,
            self.held_ticks,
        ]]
        return headers, rows

    def region_rows(self) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` per-region breakdown for any renderer."""
        headers = [
            "region", "clients", "decisions", "switches", "served",
            "violations", "violation %",
        ]
        rows = []
        for label, stats in self.per_region.items():
            served = stats["served"]
            rate = stats["violations"] / served * 100.0 if served else 0.0
            rows.append([
                label, stats["clients"], stats["decisions"], stats["switches"],
                served, stats["violations"], round(rate, 2),
            ])
        return headers, rows


class ServingSession:
    """Replay a fleet workload against one model's threshold analysis.

    Parameters
    ----------
    analysis:
        The served model's pre-deployment threshold analysis (typically from
        a campaign-produced Pareto candidate via
        :func:`repro.analysis.runtime_eval.select_runtime_options`).
    workload:
        The fleet's throughput replay.
    smoothing / initial_mbps:
        Tracker coefficients, scalar or per-client (see
        :class:`~repro.serving.fleet.FleetTracker`).
    latency_sla_s:
        Optional end-to-end latency target; when set, every served
        inference is checked against it under the tick's actual throughput.
    record_decisions:
        Keep the full ``(ticks, clients)`` decision matrix on the report
        (memory scales with the replay; meant for tests and goldens).
    """

    def __init__(
        self,
        analysis: ThresholdAnalysis,
        workload: FleetWorkload,
        smoothing: Union[float, Sequence[float], np.ndarray] = 1.0,
        initial_mbps: Union[float, Sequence[float], np.ndarray, None] = None,
        latency_sla_s: Optional[float] = None,
        record_decisions: bool = False,
        name: Optional[str] = None,
    ):
        if latency_sla_s is not None and latency_sla_s <= 0:
            raise ValueError(f"latency_sla_s must be positive, got {latency_sla_s}")
        self.analysis = analysis
        self.workload = workload
        self.smoothing = smoothing
        self.initial_mbps = initial_mbps
        self.latency_sla_s = latency_sla_s
        self.record_decisions = bool(record_decisions)
        self.name = name or workload.name

    def run(self) -> ServingReport:
        """Replay every tick and return the service metrics."""
        workload = self.workload
        num_clients = workload.num_clients
        tracker = FleetTracker(
            num_clients, smoothing=self.smoothing, initial_mbps=self.initial_mbps
        )
        controller = FleetController(self.analysis, num_clients)
        uplinks = workload.uplinks_mbps
        tick_times = np.empty(workload.ticks, dtype=np.float64)
        violations_by_client = np.zeros(num_clients, dtype=np.int64)
        log = (
            np.full((workload.ticks, num_clients), -1, dtype=np.intp)
            if self.record_decisions
            else None
        )

        for tick in range(workload.ticks):
            measurements = uplinks[tick]
            start = time.perf_counter()
            estimates = tracker.observe(measurements)
            choice = controller.decide(estimates)
            tick_times[tick] = time.perf_counter() - start
            if log is not None:
                log[tick] = choice
            if self.latency_sla_s is not None:
                # Every client is costed at its current option (the last
                # option for one without a decision) and only the issued
                # inferences count, so idle and anomalous lanes are dropped.
                with np.errstate(divide="ignore", invalid="ignore"):
                    latency = self.analysis.costs(measurements, choice, metric="latency")
                violated = latency > self.latency_sla_s
                violated &= tracker.active
                violations_by_client += violated

        # An inference is issued when a valid measurement arrives, and that
        # measurement gives the client an estimate, hence a decision: every
        # consumed measurement is served.  A client without a decision has
        # no estimate, and the controller holds exactly those ticks.
        served_by_client = tracker.num_observations
        decisions_by_client = workload.ticks - controller.holds
        decisions = int(decisions_by_client.sum())
        served = int(served_by_client.sum())
        violations = int(violations_by_client.sum())
        decision_time_s = float(tick_times.sum())
        # Every non-NaN measurement was either consumed or an anomaly.
        measured = served_by_client + tracker.anomalies
        silent = int(np.count_nonzero(measured == 0))
        # A client whose samples ended before the replay has none at the end.
        exhausted = int(np.count_nonzero((measured > 0) & np.isnan(uplinks[-1])))

        per_region: Dict[str, Dict[str, Any]] = {}
        switch_counts = controller.switches
        for label, mask in workload.region_masks().items():
            per_region[label] = {
                "clients": int(mask.sum()),
                "decisions": int(decisions_by_client[mask].sum()),
                "switches": int(switch_counts[mask].sum()),
                "served": int(served_by_client[mask].sum()),
                "violations": int(violations_by_client[mask].sum()),
            }

        return ServingReport(
            name=self.name,
            metric=self.analysis.metric,
            num_clients=num_clients,
            ticks=workload.ticks,
            option_labels=tuple(
                m.option.label for m in self.analysis.options
            ),
            decisions=decisions,
            switches=controller.num_switches,
            max_switches_per_client=int(switch_counts.max(initial=0)),
            decision_time_s=decision_time_s,
            decisions_per_s=(
                decisions / decision_time_s if decision_time_s > 0 else 0.0
            ),
            tick_p50_ms=float(np.percentile(tick_times, 50) * 1e3),
            tick_p99_ms=float(np.percentile(tick_times, 99) * 1e3),
            served=served,
            sla_latency_s=self.latency_sla_s,
            sla_violations=violations,
            anomalies=int(tracker.anomalies.sum()),
            idle_client_ticks=workload.ticks * num_clients - int(measured.sum()),
            held_ticks=int(controller.holds.sum()),
            silent_clients=silent,
            exhausted_clients=exhausted,
            per_region=per_region,
            decision_log=log,
        )
