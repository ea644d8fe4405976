"""Property tests: the array decision path vs its scalar references.

A runtime decision is ``first_minimum`` of ``ThresholdAnalysis.costs``: the
first option whose cost is strictly lowest.  The contracts under test:

* ``costs`` equals the scalar ``deployment_latency`` / ``analysis.value``
  bit for bit, and ``first_minimum`` of it picks the ``best_option`` index,
  also where a cost is NaN (``np.argmin`` agrees on finite costs);
* feeding the same measurements to a :class:`FleetTracker` /
  :class:`FleetController` and to one :class:`ThroughputTracker` +
  ``analysis.best_option`` loop per client produces *bitwise identical*
  EWMA estimates and *element-wise identical* decisions and switch counts —
  including rounding-decided tie-breaks at exact threshold crossings;
* ``simulate_runtime`` replays a trace exactly as the scalar
  :class:`DynamicDeploymentController` loop charged by ``analysis.value``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import (
    RUNTIME_METRICS,
    DynamicDeploymentController,
    ThresholdAnalysis,
    deployment_latency,
    first_minimum,
    simulate_runtime,
)
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.serving import FleetController, FleetTracker
from repro.wireless.power_models import SUPPORTED_TECHNOLOGIES, RadioPowerModel
from repro.wireless.tracker import ThroughputTracker
from repro.wireless.traces import ThroughputTrace

WIFI = RadioPowerModel.for_technology("wifi")
RTT = 0.01


def edge_option(latency_s=0.04, energy_j=0.28):
    return DeploymentMetrics(
        option=DeploymentOption.all_edge(),
        latency_s=latency_s,
        energy_j=energy_j,
        edge_latency_s=latency_s,
        edge_energy_j=energy_j,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=0.0,
    )


def split_option(edge_latency_s=0.015, edge_energy_j=0.16,
                 transferred_bytes=36864.0):
    return DeploymentMetrics(
        option=DeploymentOption.split_after(7, "pool5"),
        latency_s=0.0,
        energy_j=0.0,
        edge_latency_s=edge_latency_s,
        edge_energy_j=edge_energy_j,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=transferred_bytes,
    )


def cloud_option(transferred_bytes=150528.0):
    return DeploymentMetrics(
        option=DeploymentOption.all_cloud(),
        latency_s=0.0,
        energy_j=0.0,
        edge_latency_s=0.0,
        edge_energy_j=0.0,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=transferred_bytes,
    )


def make_analysis(metric="energy"):
    return ThresholdAnalysis(
        options=[edge_option(), split_option(), cloud_option()],
        power_model=WIFI,
        round_trip_s=RTT,
        metric=metric,
    )


ANALYSES = {metric: make_analysis(metric) for metric in ("energy", "latency")}


def degenerate_analysis():
    """Two options whose cost curves coincide: rounding picks the winner."""
    twin_b = DeploymentMetrics(
        option=DeploymentOption.split_after(3, "conv3"),
        latency_s=0.04,
        energy_j=0.28,
        edge_latency_s=0.04,
        edge_energy_j=0.28,
        comm_latency_s=0.0,
        comm_energy_j=0.0,
        transferred_bytes=0.0,
    )
    return ThresholdAnalysis(
        options=[edge_option(latency_s=0.04, energy_j=0.28), twin_b],
        power_model=WIFI,
        round_trip_s=RTT,
        metric="energy",
    )


RUNTIME_ANALYSES = {**ANALYSES, "degenerate": degenerate_analysis()}


def option_index(analysis, metrics):
    """Position of one of ``analysis.options`` (by identity)."""
    return next(i for i, m in enumerate(analysis.options) if m is metrics)


def threshold_probes(analysis):
    """Every crossing threshold and its two neighbouring floats."""
    return [
        value
        for t in analysis.thresholds().values()
        if t is not None
        for value in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf))
    ]


uplink = st.floats(min_value=0.01, max_value=500.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def random_analyses(draw):
    """2-4 options with random costs; some transfer nothing, some tie."""
    options = [
        DeploymentMetrics(
            option=DeploymentOption.split_after(index),
            latency_s=0.0,
            energy_j=0.0,
            edge_latency_s=draw(st.sampled_from((0.0, 0.04)) | st.floats(0.0, 0.5)),
            edge_energy_j=draw(st.sampled_from((0.0, 0.28)) | st.floats(0.0, 1.0)),
            comm_latency_s=0.0,
            comm_energy_j=0.0,
            transferred_bytes=draw(st.just(0.0) | st.floats(1.0, 1e6)),
        )
        for index in range(draw(st.integers(2, 4)))
    ]
    return ThresholdAnalysis(
        options=options,
        power_model=RadioPowerModel.for_technology(
            draw(st.sampled_from(SUPPORTED_TECHNOLOGIES))
        ),
        round_trip_s=draw(st.floats(0.0, 0.1)),
        metric=draw(st.sampled_from(RUNTIME_METRICS)),
    )


@st.composite
def analysis_uplinks(draw, max_size=20):
    """A named analysis plus throughputs mixing random and threshold values."""
    name = draw(st.sampled_from(sorted(RUNTIME_ANALYSES)))
    analysis = RUNTIME_ANALYSES[name]
    probes = threshold_probes(analysis)
    sample = st.one_of(uplink, st.sampled_from(probes)) if probes else uplink
    return analysis, draw(st.lists(sample, min_size=1, max_size=max_size))


def scalar_replay(analysis, uplinks, smoothing):
    """Per-client reference loop: one tracker + ``best_option`` per client.

    NaN measurements hold the previous decision, matching the serving
    layer's idle-client semantics.
    """
    ticks, num_clients = uplinks.shape
    smoothing = np.broadcast_to(np.asarray(smoothing, dtype=np.float64),
                                (num_clients,))
    trackers = [ThroughputTracker(smoothing=float(s)) for s in smoothing]
    decisions = np.full((ticks, num_clients), -1, dtype=np.intp)
    last = [-1] * num_clients
    switches = [0] * num_clients
    for tick in range(ticks):
        for client in range(num_clients):
            value = uplinks[tick, client]
            if np.isnan(value):
                decisions[tick, client] = last[client]
                continue
            estimate = trackers[client].observe(float(value))
            index = option_index(analysis, analysis.best_option(estimate))
            if last[client] >= 0 and index != last[client]:
                switches[client] += 1
            last[client] = index
            decisions[tick, client] = index
    estimates = np.array(
        [np.nan if t.estimate_mbps is None else t.estimate_mbps
         for t in trackers],
        dtype=np.float64,
    )
    return estimates, decisions, np.array(switches, dtype=np.int64)


def vector_replay(analysis, uplinks, smoothing):
    ticks, num_clients = uplinks.shape
    tracker = FleetTracker(num_clients, smoothing=smoothing)
    controller = FleetController(analysis, num_clients)
    decisions = np.empty((ticks, num_clients), dtype=np.intp)
    for tick in range(ticks):
        decisions[tick] = controller.decide(tracker.observe(uplinks[tick]))
    return tracker.estimates_mbps, decisions, controller.switches


def assert_replays_match(analysis, uplinks, smoothing):
    scalar = scalar_replay(analysis, uplinks, smoothing)
    vector = vector_replay(analysis, uplinks, smoothing)
    # Estimates: bitwise identical (same float expression, same order).
    np.testing.assert_array_equal(scalar[0], vector[0])
    np.testing.assert_array_equal(scalar[1], vector[1])
    np.testing.assert_array_equal(scalar[2], vector[2])


measurement = st.one_of(st.just(float("nan")), uplink)  # NaN: idle tick


@st.composite
def fleets(draw):
    num_clients = draw(st.integers(min_value=1, max_value=6))
    ticks = draw(st.integers(min_value=1, max_value=10))
    uplinks = np.array(
        draw(
            st.lists(
                st.lists(measurement, min_size=num_clients,
                         max_size=num_clients),
                min_size=ticks, max_size=ticks,
            )
        ),
        dtype=np.float64,
    )
    smoothing = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0,
                          allow_nan=False),
                min_size=num_clients, max_size=num_clients,
            )
        ),
        dtype=np.float64,
    )
    metric = draw(st.sampled_from(("energy", "latency")))
    return uplinks, smoothing, metric


class TestElementwiseParity:
    @given(fleet=fleets())
    @settings(max_examples=60, deadline=None)
    def test_random_fleets_match_scalar_loop(self, fleet):
        uplinks, smoothing, metric = fleet
        assert_replays_match(ANALYSES[metric], uplinks, smoothing)

    @given(case=analysis_uplinks())
    @settings(max_examples=60, deadline=None)
    def test_every_decision_method_matches(self, case):
        """The ``argmin`` of the costs picks the ``best_option`` index."""
        analysis, values = case
        uplinks = np.array(values, dtype=np.float64)
        expected = [option_index(analysis, analysis.best_option(v)) for v in values]
        assert np.argmin(analysis.costs(uplinks), axis=0).tolist() == expected


class TestFirstMinimum:
    """``first_minimum`` is ``best_option``'s rule over a ``costs`` matrix."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_picks_the_best_option_index(self, data):
        analysis = data.draw(
            st.sampled_from(sorted(RUNTIME_ANALYSES)).map(RUNTIME_ANALYSES.get)
            | random_analyses()
        )
        probes = threshold_probes(analysis)
        # inf makes every transferring option's energy NaN (inf * 0).
        sample = st.one_of(uplink, st.just(np.inf), *(
            [st.sampled_from(probes)] if probes else []
        ))
        values = data.draw(st.lists(sample, min_size=1, max_size=20))
        with np.errstate(invalid="ignore"):
            got = first_minimum(analysis.costs(np.array(values)))
        expected = [option_index(analysis, analysis.best_option(v)) for v in values]
        assert got.tolist() == expected

    @given(
        columns=st.lists(
            st.lists(
                st.sampled_from((np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 2.0))
                | st.floats(allow_nan=True),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_min_on_any_costs(self, columns):
        """Ties go to the earlier row; a NaN never wins over an earlier cost."""
        costs = np.array(columns, dtype=np.float64).T
        expected = [min(range(len(col)), key=col.__getitem__) for col in columns]
        assert first_minimum(costs).tolist() == expected

    def test_nan_cost_lanes_keep_the_scalar_choice(self):
        # At inf the split and cloud energies are NaN: best_option keeps
        # All-Edge, where np.argmin would pick the first NaN.
        analysis = ANALYSES["energy"]
        expected = option_index(analysis, analysis.best_option(np.inf))
        with np.errstate(invalid="ignore"):
            costs = analysis.costs(np.array([np.inf]))
            choice = FleetController(analysis, 1).decide(np.array([np.inf]))
        assert np.isnan(costs[1:, 0]).all()
        assert expected == 0
        assert first_minimum(costs).tolist() == [expected]
        assert choice.tolist() == [expected]


class TestExactThresholdTieBreaking:
    @pytest.mark.parametrize("metric", ["energy", "latency"])
    def test_decisions_at_exact_crossings(self, metric):
        """Measurements *at* (and one ulp around) every threshold agree."""
        analysis = ANALYSES[metric]
        probes = threshold_probes(analysis)
        assert probes, "fixture options must cross somewhere"
        uplinks = np.array([probes], dtype=np.float64)  # one tick, N clients
        assert_replays_match(analysis, uplinks, 1.0)

    def test_ewma_landing_on_threshold(self):
        """Estimates (not raw measurements) hitting a threshold still agree."""
        analysis = ANALYSES["energy"]
        threshold = min(t for t in analysis.thresholds().values() if t is not None)
        # With s = 0.5 and prior == threshold, feeding the threshold twice
        # keeps the EWMA exactly on the crossing for several ticks.
        uplinks = np.full((4, 3), threshold, dtype=np.float64)
        uplinks[1, 1] = np.nextafter(threshold, 0.0)
        uplinks[2, 2] = np.nextafter(threshold, np.inf)
        assert_replays_match(analysis, uplinks, 0.5)


class TestDegenerateAnalyses:
    def test_indistinguishable_options_match_scalar(self):
        """Coinciding cost curves: rounding picks the winner, as in the scalar path."""
        analysis = degenerate_analysis()
        uplinks = np.array([[0.5, 1.0, 5.0, 50.0]], dtype=np.float64)
        assert_replays_match(analysis, uplinks, 1.0)


class TestTrackerStateParity:
    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=500.0, allow_nan=False),
            min_size=1, max_size=20,
        ),
        smoothing=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_client_estimates_bitwise_equal(self, values, smoothing):
        scalar = ThroughputTracker(smoothing=smoothing)
        fleet = FleetTracker(1, smoothing=smoothing)
        for value in values:
            expected = scalar.observe(value)
            got = fleet.observe(np.array([value]))[0]
            assert got == expected  # bitwise, not approx
        assert fleet.num_observations[0] == scalar.num_observations

    def test_priors_match_scalar_initial_estimate(self):
        scalar = ThroughputTracker(smoothing=0.3, initial_mbps=4.2)
        fleet = FleetTracker(2, smoothing=0.3, initial_mbps=[4.2, np.nan])
        assert fleet.estimates_mbps[0] == scalar.estimate_mbps
        assert np.isnan(fleet.estimates_mbps[1])
        expected = scalar.observe(6.0)
        got = fleet.observe(np.array([6.0, 6.0]))
        assert got[0] == expected
        assert got[1] == 6.0  # no prior: first observation wins


def scalar_runtime(analysis, values):
    """Per-sample reference replay: the scalar controller plus ``analysis.value``."""
    controller = DynamicDeploymentController(analysis)
    per_sample = {m.option.label: [] for m in analysis.options}
    per_sample["dynamic"] = []
    for value in values:
        for metrics in analysis.options:
            per_sample[metrics.option.label].append(analysis.value(metrics, value))
        chosen = controller.observe_and_select(value)
        per_sample["dynamic"].append(analysis.value(chosen, value))
    cumulative = {label: float(np.sum(v)) for label, v in per_sample.items()}
    return per_sample, cumulative, controller.num_switches


class TestRuntimeReplayParity:
    @given(case=analysis_uplinks(max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_simulate_runtime_matches_scalar_replay(self, case):
        analysis, values = case
        comparison = simulate_runtime(analysis, ThroughputTrace.from_values(values))
        per_sample, cumulative, switches = scalar_runtime(analysis, values)
        # == on lists and dicts of floats: bitwise for finite values.
        assert comparison.per_sample == per_sample
        assert comparison.cumulative == cumulative
        assert comparison.num_switches == switches

    @given(values=st.lists(uplink, min_size=1, max_size=20), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_latency_costs_equal_deployment_latency(self, values, data):
        # An energy analysis: ``metric="latency"`` must override it.
        analysis = ANALYSES["energy"]
        indices = data.draw(st.lists(
            st.integers(0, len(analysis.options) - 1),
            min_size=len(values), max_size=len(values),
        ))
        got = analysis.costs(np.array(values), np.array(indices), metric="latency")
        expected = [
            deployment_latency(analysis.options[i], v, analysis.round_trip_s)
            for i, v in zip(indices, values)
        ]
        assert got.tolist() == expected

    @pytest.mark.parametrize("bad", [0.0, -2.5])
    def test_non_positive_sample_raises(self, bad):
        trace = ThroughputTrace.from_values([3.0, bad, 4.0])
        with pytest.raises(ValueError):
            simulate_runtime(ANALYSES["latency"], trace)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_sample_raises(self, bad):
        """The scalar tracker rejects these, so the replay does too."""
        trace = ThroughputTrace.from_values([3.0, bad, 4.0])
        with pytest.raises(ValueError, match="finite"):
            simulate_runtime(ANALYSES["energy"], trace)
