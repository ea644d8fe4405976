"""Runtime adaptation of deployed models (paper §IV-E and §V-C).

LENS is a design-time methodology, but the deployed model must stay efficient
when the network conditions drift from the design-time expectation.  Before
deployment, the chosen architecture's deployment options are compared in a
pairwise manner and the upload-throughput intervals over which each option
dominates are computed; at runtime an online throughput tracker selects the
dominant option in O(1).  This module provides:

* :func:`deployment_latency` / :func:`deployment_energy` — closed-form
  re-evaluation of a :class:`~repro.partition.deployment.DeploymentMetrics`
  under an arbitrary uplink throughput (the edge-side components are constant;
  only the communication terms depend on ``tu``);
* :class:`ThresholdAnalysis` — pairwise crossover thresholds and dominance
  intervals (the 6.77 Mbps / 22.77 Mbps numbers of §V-C are instances of
  these), plus :meth:`ThresholdAnalysis.costs`, the vectorized option costs;
* :func:`first_minimum` — the one definition of a runtime decision: the
  first option whose cost is strictly lowest, the rule
  :meth:`ThresholdAnalysis.best_option`'s ``min`` applies, over the rows of
  a ``costs`` matrix;
* :class:`DynamicDeploymentController` — the scalar single-device switcher
  driven by a :class:`~repro.wireless.tracker.ThroughputTracker` (the
  reference the array paths are held bitwise equal to);
* :func:`simulate_runtime` — trace-driven comparison of fixed deployments
  against dynamic switching (the Fig. 8 experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.utils.units import mbps_to_bytes_per_second
from repro.utils.validation import require_positive, require_positive_finite
from repro.wireless.power_models import RadioPowerModel
from repro.wireless.tracker import ThroughputTracker
from repro.wireless.traces import ThroughputTrace

#: Metrics the runtime machinery can optimise.
RUNTIME_METRICS = ("latency", "energy")


def deployment_latency(
    metrics: DeploymentMetrics, uplink_mbps: float, round_trip_s: float
) -> float:
    """End-to-end latency of a deployment option under throughput ``uplink_mbps``."""
    require_positive(uplink_mbps, "uplink_mbps")
    if metrics.transferred_bytes <= 0:
        return metrics.edge_latency_s
    transmission = metrics.transferred_bytes / mbps_to_bytes_per_second(uplink_mbps)
    return metrics.edge_latency_s + transmission + round_trip_s


def deployment_energy(
    metrics: DeploymentMetrics, uplink_mbps: float, power_model: RadioPowerModel
) -> float:
    """Edge energy of a deployment option under throughput ``uplink_mbps``."""
    require_positive(uplink_mbps, "uplink_mbps")
    if metrics.transferred_bytes <= 0:
        return metrics.edge_energy_j
    transmission = metrics.transferred_bytes / mbps_to_bytes_per_second(uplink_mbps)
    return metrics.edge_energy_j + power_model.power_w(uplink_mbps) * transmission


def deployment_metric_value(
    metrics: DeploymentMetrics,
    uplink_mbps: float,
    metric: str,
    power_model: RadioPowerModel,
    round_trip_s: float,
) -> float:
    """Dispatch to :func:`deployment_latency` or :func:`deployment_energy`."""
    if metric == "latency":
        return deployment_latency(metrics, uplink_mbps, round_trip_s)
    if metric == "energy":
        return deployment_energy(metrics, uplink_mbps, power_model)
    raise ValueError(f"metric must be one of {RUNTIME_METRICS}, got {metric!r}")


def pairwise_threshold(
    option_a: DeploymentMetrics,
    option_b: DeploymentMetrics,
    metric: str,
    power_model: RadioPowerModel,
    round_trip_s: float,
) -> Optional[float]:
    """Uplink throughput at which two deployment options cost the same.

    Solves the closed-form crossover of the two cost curves (obtained by
    "equating their respective accumulative equations", §IV-E).  Returns
    ``None`` when the curves do not cross at a positive finite throughput
    (one option dominates for every ``tu``).
    """
    bits_a = option_a.transferred_bytes * 8.0
    bits_b = option_b.transferred_bytes * 8.0
    if metric == "latency":
        # edge_a + rtt_a + bits_a / (tu * 1e6) = edge_b + rtt_b + bits_b / (tu * 1e6)
        const_a = option_a.edge_latency_s + (round_trip_s if bits_a > 0 else 0.0)
        const_b = option_b.edge_latency_s + (round_trip_s if bits_b > 0 else 0.0)
        slope = (bits_b - bits_a) / 1e6
        const = const_a - const_b
    elif metric == "energy":
        # edge + alpha * bits/1e6 + beta * bits / (tu * 1e6)
        const_a = option_a.edge_energy_j + power_model.alpha_w_per_mbps * bits_a / 1e6
        const_b = option_b.edge_energy_j + power_model.alpha_w_per_mbps * bits_b / 1e6
        slope = power_model.beta_w * (bits_b - bits_a) / 1e6
        const = const_a - const_b
    else:
        raise ValueError(f"metric must be one of {RUNTIME_METRICS}, got {metric!r}")
    if abs(const) < 1e-15 or abs(slope) < 1e-15:
        return None
    threshold = slope / const
    if threshold <= 0 or not np.isfinite(threshold):
        return None
    return float(threshold)


def first_minimum(costs: np.ndarray) -> np.ndarray:
    """Row index of each column's first strict minimum: the runtime decision.

    ``costs`` is a :meth:`ThresholdAnalysis.costs` matrix, one row per
    option.  A later row replaces the running best only where its cost is
    strictly lower, which is the rule ``min`` applies in
    :meth:`ThresholdAnalysis.best_option`: ties go to the earlier option, a
    NaN cost never replaces a number, and a column whose first cost is NaN
    picks option 0.  It takes ``k - 1`` compare-and-select passes over the
    ``k`` rows.
    """
    best = costs[0]
    index = np.zeros(costs.shape[1:], dtype=np.intp)
    for row_index in range(1, len(costs)):
        row = costs[row_index]
        chosen = (row < best).astype(np.intp)
        chosen *= row_index
        # Rows come in index order, so a maximum selects without a branch.
        np.maximum(index, chosen, out=index)
        if row_index + 1 < len(costs):
            # The running best, also branch-free: fmin reads a NaN cost as
            # inf, so it never replaces the best, and minimum keeps a NaN
            # best, which no later cost is below.
            best = np.minimum(best, np.fmin(row, np.inf))
    return index


@dataclass
class DominanceInterval:
    """Throughput interval over which one deployment option is the best choice."""

    option: DeploymentOption
    low_mbps: float
    high_mbps: float

    def to_dict(self) -> Dict:
        return {
            "option": self.option.to_dict(),
            "low_mbps": self.low_mbps,
            "high_mbps": self.high_mbps,
        }


class ThresholdAnalysis:
    """Pairwise dominance analysis of a model's deployment options (§IV-E).

    Parameters
    ----------
    options:
        The deployment options to compare (typically the model's best split,
        All-Edge and All-Cloud).
    power_model / round_trip_s:
        Wireless parameters used to re-evaluate the options under varying
        throughput.
    metric:
        ``"latency"`` or ``"energy"`` — the metric being optimised at runtime.
    """

    def __init__(
        self,
        options: Sequence[DeploymentMetrics],
        power_model: RadioPowerModel,
        round_trip_s: float,
        metric: str = "latency",
    ):
        if len(options) < 2:
            raise ValueError("at least two deployment options are required")
        if metric not in RUNTIME_METRICS:
            raise ValueError(f"metric must be one of {RUNTIME_METRICS}, got {metric!r}")
        # Thresholds and trace replays are keyed by option label.
        if len({m.option.label for m in options}) != len(options):
            raise ValueError("deployment options must have distinct labels")
        self.options = tuple(options)
        self.power_model = power_model
        self.round_trip_s = float(round_trip_s)
        self.metric = metric
        self._transferred_bytes, self._edge_latency_s, self._edge_energy_j = np.array(
            [[m.transferred_bytes, m.edge_latency_s, m.edge_energy_j] for m in self.options],
            dtype=np.float64,
        ).T

    # ------------------------------------------------------------------ evaluation
    def value(self, metrics: DeploymentMetrics, uplink_mbps: float) -> float:
        """Metric value of one option at one throughput."""
        return deployment_metric_value(
            metrics, uplink_mbps, self.metric, self.power_model, self.round_trip_s
        )

    def best_option(self, uplink_mbps: float) -> DeploymentMetrics:
        """Option with the lowest metric value at the given throughput."""
        return min(self.options, key=lambda m: self.value(m, uplink_mbps))

    def costs(
        self,
        uplinks_mbps: np.ndarray,
        option_indices: Optional[np.ndarray] = None,
        metric: Optional[str] = None,
    ) -> np.ndarray:
        """Metric values of options at throughputs, in one array expression.

        With ``option_indices=None`` this is the ``(num_options, n)`` matrix
        whose element ``[i, j]`` is ``value(options[i], uplinks_mbps[j])``;
        the row of an option that transfers no bytes is its edge cost.
        Otherwise the indices broadcast against the throughputs, one value per
        ``(index, throughput)`` pair.  The arithmetic replicates
        :func:`deployment_latency` / :func:`deployment_energy` operation for
        operation (IEEE-754 makes the element-wise numpy ops identical to the
        scalar float ops, and ``+`` and ``*`` are commutative), so values
        match :meth:`value` bit for bit and :func:`first_minimum` of the
        matrix picks the :meth:`best_option` index, ties included.  ``metric``
        overrides the analysis metric (SLA accounting is always latency).
        """
        metric = self.metric if metric is None else metric
        if metric not in RUNTIME_METRICS:
            raise ValueError(f"metric must be one of {RUNTIME_METRICS}, got {metric!r}")
        uplinks = np.asarray(uplinks_mbps, dtype=np.float64)
        # mbps_to_bytes_per_second, element-wise in scalar evaluation order.
        rate = uplinks * 1e6 / 8.0
        if metric == "latency":
            edges, power_w = self._edge_latency_s, None
        else:
            edges = self._edge_energy_j
            power = self.power_model
            power_w = power.alpha_w_per_mbps * uplinks + power.beta_w
        if option_indices is None:
            values = np.empty((len(self.options),) + uplinks.shape)
            for i, (transferred, edge) in enumerate(zip(self._transferred_bytes, edges)):
                if transferred <= 0.0:
                    values[i] = edge
                else:
                    self._transfer_costs(transferred, edge, rate, power_w, values[i, ...])
            return values
        transferred = self._transferred_bytes.take(option_indices)
        edge = edges.take(option_indices)
        values = self._transfer_costs(transferred, edge, rate, power_w)
        return np.where(transferred <= 0.0, edge, values)

    def _transfer_costs(self, transferred, edge, rate, power_w, out=None):
        """Costs of options that send ``transferred`` bytes at ``rate`` bytes/s.

        They are computed in ``out`` (a new array if it is ``None``).
        """
        values = np.divide(transferred, rate, out=out)  # transmission time
        if power_w is None:  # (edge + transmission) + round trip
            values += edge
            values += self.round_trip_s
        else:  # edge + power * transmission
            values *= power_w
            values += edge
        return values

    def thresholds(self) -> Dict[Tuple[str, str], Optional[float]]:
        """Pairwise crossover thresholds keyed by option labels."""
        result: Dict[Tuple[str, str], Optional[float]] = {}
        for i, option_a in enumerate(self.options):
            for option_b in self.options[i + 1 :]:
                result[(option_a.option.label, option_b.option.label)] = (
                    pairwise_threshold(
                        option_a,
                        option_b,
                        self.metric,
                        self.power_model,
                        self.round_trip_s,
                    )
                )
        return result

    def dominance_intervals(
        self,
        min_mbps: float = 0.1,
        max_mbps: float = 100.0,
        resolution: int = 2000,
    ) -> List[DominanceInterval]:
        """Throughput intervals over which each option is the best choice.

        The interval boundaries are located on a fine logarithmic grid, whose
        winners are the :func:`first_minimum` of the :meth:`costs` at every
        grid point.
        """
        grid = np.geomspace(min_mbps, max_mbps, resolution)
        winners = first_minimum(self.costs(grid))
        starts = np.flatnonzero(np.diff(winners, prepend=-1))
        ends = np.append(starts[1:], grid.size) - 1
        return [
            DominanceInterval(
                option=self.options[winners[start]].option,
                low_mbps=float(grid[start]),
                high_mbps=float(grid[end]),
            )
            for start, end in zip(starts, ends)
        ]

    def switching_threshold(self) -> Optional[float]:
        """The single threshold separating the two dominant options, if any.

        Convenience accessor for the common two-regime case the paper reports
        (e.g. "model A favors the partitioned over All-Edge whenever
        tu > 6.77 Mbps").  Returns ``None`` when there are more than two
        dominance regimes.
        """
        intervals = self.dominance_intervals()
        if len(intervals) != 2:
            return None
        exact = pairwise_threshold(
            self._metrics_for(intervals[0].option),
            self._metrics_for(intervals[1].option),
            self.metric,
            self.power_model,
            self.round_trip_s,
        )
        if exact is not None:
            return exact
        return float(intervals[0].high_mbps)

    def _metrics_for(self, option: DeploymentOption) -> DeploymentMetrics:
        for metrics in self.options:
            if metrics.option == option:
                return metrics
        raise KeyError(f"option {option.label} is not part of this analysis")


class DynamicDeploymentController:
    """Runtime deployment switcher driven by an online throughput tracker.

    Parameters
    ----------
    analysis:
        The pre-deployment threshold analysis of the chosen model.
    tracker:
        Throughput tracker providing the current ``tu`` estimate; defaults to
        a memoryless tracker (trust the latest measurement), which matches
        the paper's O(1) switching description.
    """

    def __init__(
        self,
        analysis: ThresholdAnalysis,
        tracker: Optional[ThroughputTracker] = None,
    ):
        self.analysis = analysis
        self.tracker = tracker or ThroughputTracker(smoothing=1.0)
        self._switches = 0
        self._last_option: Optional[DeploymentOption] = None

    @property
    def num_switches(self) -> int:
        """How many times the selected deployment changed so far."""
        return self._switches

    def observe_and_select(self, uplink_mbps: float) -> DeploymentMetrics:
        """Feed one throughput measurement and return the option to use."""
        estimate = self.tracker.observe(uplink_mbps)
        best = self.analysis.best_option(estimate)
        if self._last_option is not None and best.option != self._last_option:
            self._switches += 1
        self._last_option = best.option
        return best


@dataclass
class RuntimeComparison:
    """Outcome of replaying a throughput trace against deployment strategies.

    ``cumulative`` maps a strategy label (one per fixed option plus
    ``"dynamic"``) to its accumulated metric over the trace; ``per_sample``
    holds the per-sample values for plotting Fig. 8-style curves.
    """

    metric: str
    cumulative: Dict[str, float]
    per_sample: Dict[str, List[float]] = field(default_factory=dict)
    num_switches: int = 0

    def improvement_percent(self, over: str) -> float:
        """Relative improvement of the dynamic strategy over a fixed one."""
        if over not in self.cumulative:
            raise KeyError(f"unknown strategy {over!r}")
        baseline = self.cumulative[over]
        dynamic = self.cumulative["dynamic"]
        if baseline <= 0:
            return 0.0
        return (baseline - dynamic) / baseline * 100.0

    def to_dict(self) -> Dict:
        return {
            "metric": self.metric,
            "cumulative": dict(self.cumulative),
            "num_switches": self.num_switches,
        }


def simulate_runtime(
    analysis: ThresholdAnalysis, trace: ThroughputTrace
) -> RuntimeComparison:
    """Replay a throughput trace against fixed and dynamic deployments.

    For every trace sample one inference is issued.  Fixed strategies always
    use their designated deployment option; the dynamic strategy trusts the
    latest measurement (the paper's memoryless O(1) switcher) and uses the
    option that costs least at it.  All strategies are charged using the
    *actual* throughput of the sample.  The whole replay is one
    :meth:`ThresholdAnalysis.costs` matrix: its rows are the fixed
    strategies and its :func:`first_minimum` is the dynamic choice.  Every
    sample must be positive and finite, as the scalar tracker requires.
    """
    uplinks = trace.uplinks_mbps
    # NaN is the minimum of an array holding one, and fails the check too.
    for bound in (uplinks.min(), uplinks.max()):
        require_positive_finite(float(bound), "uplink_mbps")
    costs = analysis.costs(uplinks)
    chosen = first_minimum(costs)
    per_sample: Dict[str, List[float]] = {
        metrics.option.label: row.tolist()
        for metrics, row in zip(analysis.options, costs)
    }
    per_sample["dynamic"] = costs[chosen, np.arange(uplinks.size)].tolist()
    cumulative = {label: float(np.sum(values)) for label, values in per_sample.items()}
    return RuntimeComparison(
        metric=analysis.metric,
        cumulative=cumulative,
        per_sample=per_sample,
        num_switches=int(np.count_nonzero(chosen[1:] != chosen[:-1])),
    )
