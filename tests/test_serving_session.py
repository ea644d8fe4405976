"""Fault injection and service metrics for the serving layer + ``repro serve``.

Degradation contract: stalled clients, zero/negative/infinite measurements
and traces that end mid-replay must never raise — the fleet holds the last
decision, tallies the anomaly, and the report says exactly how much of the
replay was degraded.  The CLI contract: an empty Pareto set exits 1, an
unknown scenario exits 2.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.analysis.reporting import ExperimentReport
from repro.cli import main
from repro.core.runtime import ThresholdAnalysis, deployment_latency
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.serving import (
    FleetController,
    FleetTracker,
    FleetWorkload,
    ServingSession,
)
from repro.wireless.power_models import RadioPowerModel
from repro.wireless.tracker import ThroughputTracker
from repro.wireless.traces import ThroughputTrace


def build_analysis(metric="energy"):
    edge = DeploymentMetrics(
        option=DeploymentOption.all_edge(),
        latency_s=0.04, energy_j=0.28,
        edge_latency_s=0.04, edge_energy_j=0.28,
        comm_latency_s=0.0, comm_energy_j=0.0, transferred_bytes=0.0,
    )
    split = DeploymentMetrics(
        option=DeploymentOption.split_after(7, "pool5"),
        latency_s=0.0, energy_j=0.0,
        edge_latency_s=0.015, edge_energy_j=0.16,
        comm_latency_s=0.0, comm_energy_j=0.0, transferred_bytes=36864.0,
    )
    return ThresholdAnalysis(
        options=[edge, split],
        power_model=RadioPowerModel.for_technology("wifi"),
        round_trip_s=0.01,
        metric=metric,
    )


ANALYSIS = build_analysis()


def three_option_analysis(order=(0, 1, 2), metric="energy"):
    """``ANALYSIS``'s options plus All-Cloud, in the given order."""
    cloud = DeploymentMetrics(
        option=DeploymentOption.all_cloud(),
        latency_s=0.0, energy_j=0.0,
        edge_latency_s=0.0, edge_energy_j=0.0,
        comm_latency_s=0.0, comm_energy_j=0.0, transferred_bytes=150528.0,
    )
    options = [*ANALYSIS.options, cloud]
    return ThresholdAnalysis(
        options=[options[i] for i in order],
        power_model=ANALYSIS.power_model,
        round_trip_s=ANALYSIS.round_trip_s,
        metric=metric,
    )


def scalar_session(analysis, uplinks, smoothing, priors, sla):
    """Per-client reference replay: one scalar tracker and ``best_option``.

    A client decides at every tick at which it holds an estimate (a prior or
    an observed value) and holds otherwise; NaN and rejected measurements
    leave its estimate as it was.  Returns the decision log and per-client
    ``decisions``, ``holds``, ``switches``, ``served``, ``violations`` and
    ``anomalies`` counts.
    """
    ticks, num_clients = uplinks.shape
    log = np.full((ticks, num_clients), -1, dtype=np.intp)
    counts = {
        key: [0] * num_clients
        for key in ("decisions", "holds", "switches", "served", "violations", "anomalies")
    }
    for client in range(num_clients):
        prior = priors[client]
        tracker = ThroughputTracker(
            smoothing=smoothing, initial_mbps=None if np.isnan(prior) else prior
        )
        last = -1
        for tick in range(ticks):
            value = float(uplinks[tick, client])
            issued = False
            if not np.isnan(value):
                try:
                    tracker.observe(value)
                    issued = True
                except ValueError:
                    counts["anomalies"][client] += 1
            if tracker.estimate_mbps is None:
                counts["holds"][client] += 1
                continue
            best = analysis.best_option(tracker.estimate_mbps)
            choice = next(i for i, m in enumerate(analysis.options) if m is best)
            counts["switches"][client] += last >= 0 and choice != last
            counts["decisions"][client] += 1
            last = log[tick, client] = choice
            if issued:
                counts["served"][client] += 1
                latency = deployment_latency(best, value, analysis.round_trip_s)
                counts["violations"][client] += latency > sla
    return log, counts


class TestStalledClients:
    def test_fully_silent_client_is_reported_not_raised(self):
        uplinks = np.array([[3.0, np.nan], [4.0, np.nan], [2.0, np.nan]])
        workload = FleetWorkload(uplinks, regions=("a", "b"))
        report = ServingSession(ANALYSIS, workload,
                                record_decisions=True).run()
        assert report.silent_clients == 1
        assert report.held_ticks == 3
        # The silent client never gets a decision; the healthy one always does.
        assert (report.decision_log[:, 1] == -1).all()
        assert (report.decision_log[:, 0] >= 0).all()
        assert report.decisions == 3

    def test_intermittent_stall_holds_last_decision(self):
        uplinks = np.array([[3.0], [np.nan], [np.nan], [5.0]])
        workload = FleetWorkload(uplinks, regions=("a",))
        report = ServingSession(ANALYSIS, workload,
                                record_decisions=True).run()
        first = report.decision_log[0, 0]
        assert first >= 0
        # Stalled ticks repeat the previous decision: the estimate persists,
        # so the controller re-decides from it (held_ticks only counts
        # clients with no estimate at all; the gap shows in idle ticks).
        assert report.decision_log[1, 0] == first
        assert report.decision_log[2, 0] == first
        assert report.held_ticks == 0
        assert report.idle_client_ticks == 2
        assert report.silent_clients == 0
        # Held ticks still produce a decision (the held one).
        assert report.decisions == 4


class TestAnomalousMeasurements:
    @pytest.mark.parametrize("bad", [0.0, -3.0, np.inf, -np.inf])
    def test_bad_measurement_counts_anomaly_and_holds(self, bad):
        tracker = FleetTracker(2)
        controller = FleetController(ANALYSIS, 2)
        controller.decide(tracker.observe(np.array([3.0, 3.0])))
        before = tracker.estimates_mbps
        decision_before = controller.last_option_indices.copy()
        estimates = tracker.observe(np.array([bad, 4.0]))
        choice = controller.decide(estimates)
        # Client 0's estimate and decision are untouched; the anomaly is
        # tallied.  Client 1 proceeds normally.
        assert estimates[0] == before[0]
        assert choice[0] == decision_before[0]
        assert tracker.anomalies.tolist() == [1, 0]
        assert tracker.num_observations.tolist() == [1, 2]

    def test_session_reports_anomalies_without_serving_them(self):
        uplinks = np.array([[3.0, 3.0], [0.0, -1.0], [4.0, np.inf]])
        workload = FleetWorkload(uplinks, regions=("a", "b"))
        report = ServingSession(ANALYSIS, workload, latency_sla_s=10.0).run()
        assert report.anomalies == 3
        # Anomalous ticks issue no inference: 6 client-ticks, 3 anomalous.
        assert report.served == 3
        assert report.sla_violations == 0

    def test_nan_is_idle_not_anomalous(self):
        tracker = FleetTracker(1)
        tracker.observe(np.array([np.nan]))
        assert tracker.anomalies[0] == 0
        assert tracker.num_observations[0] == 0


class TestScalarSessionReplay:
    def test_staggered_clients_match_a_scalar_replay(self):
        """Late first measurements, priors, anomalies and silent clients.

        The session derives decisions and served counts from the holds and
        the observations instead of counting them every tick; each client
        here is its own region, so the per-region counts are per client.
        """
        nan = np.nan
        # Latency picks All-Edge below ~19.7 Mbps and All-Cloud above ~60.6.
        swing = [5.0, 30.0, 100.0, 10.0, 150.0, 2.0, 40.0, 90.0, 1.0, 70.0]
        columns = [
            swing,                                     # from tick 0
            [nan] * 3 + swing[3:],                     # first value at tick 3
            [nan] * 4 + swing[4:],                     # a prior, then tick 4
            [nan] * 10,                                # silent
            [0.0, -1.0, nan, np.inf, 6.0, nan, 50.0, -np.inf, 0.4, nan],
            [nan] * 10,                                # silent, with a prior
            [nan, 2.0, nan, nan, 30.0, 30.0, nan, 0.5, 0.5, 9.0],
        ]
        priors = [nan, nan, 0.5, nan, nan, 0.6, nan]
        uplinks = np.array(columns, dtype=np.float64).T
        regions = tuple(f"client{i}" for i in range(len(columns)))
        analysis = three_option_analysis(metric="latency")
        sla = 0.05
        report = ServingSession(
            analysis, FleetWorkload(uplinks, regions), smoothing=0.8,
            initial_mbps=priors, latency_sla_s=sla, record_decisions=True,
        ).run()
        log, counts = scalar_session(analysis, uplinks, 0.8, priors, sla)

        np.testing.assert_array_equal(report.decision_log, log)
        assert report.per_region == {
            region: {
                "clients": 1,
                "decisions": counts["decisions"][i],
                "switches": counts["switches"][i],
                "served": counts["served"][i],
                "violations": counts["violations"][i],
            }
            for i, region in enumerate(regions)
        }
        assert report.held_ticks == sum(counts["holds"])
        assert report.decisions == sum(counts["decisions"])
        assert report.switches == sum(counts["switches"])
        assert report.max_switches_per_client == max(counts["switches"])
        assert report.served == sum(counts["served"])
        assert report.sla_violations == sum(counts["violations"])
        assert report.anomalies == sum(counts["anomalies"]) == 4
        sampled = [np.flatnonzero(~np.isnan(column)) for column in uplinks.T]
        assert report.silent_clients == sum(len(t) == 0 for t in sampled) == 2
        assert report.exhausted_clients == sum(
            len(t) > 0 and t[-1] < len(uplinks) - 1 for t in sampled
        ) == 1
        assert report.idle_client_ticks == int(np.isnan(uplinks).sum())
        # Not vacuous: every kind of tick and outcome occurs.
        assert counts["holds"][1] == 3 and counts["holds"][5] == 0
        assert min(counts["switches"][:3]) > 0
        assert set(log[log >= 0].tolist()) == {0, 1, 2}
        assert 0 < report.sla_violations < report.served

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    def test_sla_accounting_over_bad_inputs_warns_nothing(self, order):
        """Zero, negative and infinite measurements and undecided clients.

        SLA latency is costed for every client at its current option (the
        last one for an undecided client), so these lanes divide by zero or
        compute 0/0; the session discards them without a RuntimeWarning.
        """
        nan = np.nan
        uplinks = np.array([
            [0.3, 50.0, nan, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [-1.0, -2.0, -1.0, np.inf],
            [np.inf, np.inf, np.inf, -np.inf],
            [-np.inf, -np.inf, -np.inf, 0.0],
            [nan, nan, nan, 3.0],
        ])
        workload = FleetWorkload(uplinks, regions=("a", "b", "c", "d"))
        analysis = three_option_analysis(order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ServingSession(
                analysis, workload, latency_sla_s=0.05, record_decisions=True,
            ).run()
        assert report.anomalies == 17
        assert report.served == 3
        assert report.held_ticks == 6 + 5
        assert (report.decision_log[:, 2] == -1).all()
        # At 0 Mbps the All-Edge client computes 0/0 and the other x/0.
        first = [analysis.options[i] for i in report.decision_log[0, :2]]
        assert [m.transferred_bytes > 0 for m in first] == [False, True]


class TestExhaustedTraces:
    def test_shorter_trace_exhausts_and_holds(self):
        long = ThroughputTrace.from_values([3.0, 4.0, 2.0, 5.0], name="long")
        short = ThroughputTrace.from_values([3.0, 4.0], name="short")
        workload = FleetWorkload.from_traces([long, short])
        report = ServingSession(ANALYSIS, workload,
                                record_decisions=True).run()
        assert report.idle_client_ticks == 2
        assert report.exhausted_clients == 1
        assert report.silent_clients == 0
        # After exhaustion the short client's decision is frozen.
        last_live = report.decision_log[1, 1]
        assert (report.decision_log[2:, 1] == last_live).all()

    def test_exhausted_clients_stop_being_served(self):
        long = ThroughputTrace.from_values([3.0] * 4, name="long")
        short = ThroughputTrace.from_values([3.0], name="short")
        workload = FleetWorkload.from_traces([long, short])
        report = ServingSession(ANALYSIS, workload, latency_sla_s=10.0).run()
        assert report.served == 5  # 4 + 1 live client-ticks


class TestServiceMetrics:
    def test_sla_accounting_tight_and_generous(self):
        uplinks = np.full((3, 4), 3.0)
        workload = FleetWorkload(uplinks, regions=("a",) * 4)
        tight = ServingSession(ANALYSIS, workload,
                               latency_sla_s=1e-6).run()
        generous = ServingSession(ANALYSIS, workload,
                                  latency_sla_s=100.0).run()
        assert tight.served == 12
        assert tight.sla_violations == 12
        assert tight.sla_violation_rate == 1.0
        assert generous.sla_violations == 0
        assert generous.sla_violation_rate == 0.0

    def test_no_sla_means_no_violation_accounting(self):
        workload = FleetWorkload(np.full((2, 2), 3.0), regions=("a", "b"))
        report = ServingSession(ANALYSIS, workload).run()
        assert report.sla_latency_s is None
        assert report.sla_violations == 0
        assert report.sla_violation_rate == 0.0

    def test_per_region_breakdown_sums_to_totals(self):
        workload = FleetWorkload.synthesize(
            30, 12, stall_probability=0.1, seed=3
        )
        report = ServingSession(ANALYSIS, workload,
                                latency_sla_s=0.5).run()
        assert sum(r["clients"] for r in report.per_region.values()) == 30
        assert sum(
            r["decisions"] for r in report.per_region.values()
        ) == report.decisions
        assert sum(
            r["switches"] for r in report.per_region.values()
        ) == report.switches
        assert sum(
            r["served"] for r in report.per_region.values()
        ) == report.served
        assert sum(
            r["violations"] for r in report.per_region.values()
        ) == report.sla_violations

    def test_per_region_violations_match_a_scalar_replay(self):
        # at a 0.1 s SLA every region has some served inferences that miss it
        sla = 0.1
        workload = FleetWorkload.synthesize(
            30, 12, stall_probability=0.1, seed=3
        )
        report = ServingSession(ANALYSIS, workload, latency_sla_s=sla,
                                record_decisions=True).run()
        expected = dict.fromkeys(workload.regions, 0)
        for tick, row in enumerate(report.decision_log):
            for client, choice in enumerate(row.tolist()):
                mbps = float(workload.uplinks_mbps[tick, client])
                if choice < 0 or not (np.isfinite(mbps) and mbps > 0.0):
                    continue
                latency = deployment_latency(
                    ANALYSIS.options[choice], mbps, ANALYSIS.round_trip_s
                )
                expected[workload.regions[client]] += latency > sla
        assert all(expected.values())
        assert {
            label: r["violations"] for label, r in report.per_region.items()
        } == expected
        assert sum(expected.values()) == report.sla_violations

    def test_throughput_and_latency_metrics_are_sane(self):
        workload = FleetWorkload.synthesize(50, 8, seed=1)
        report = ServingSession(ANALYSIS, workload).run()
        assert report.decisions_per_s > 0
        assert report.us_per_decision > 0
        assert report.tick_p99_ms >= report.tick_p50_ms >= 0
        payload = report.to_dict()
        assert payload["num_clients"] == 50
        assert json.dumps(payload)  # JSON-serializable end to end


class TestValidation:
    def test_tracker_rejects_bad_shapes_and_coefficients(self):
        with pytest.raises(ValueError):
            FleetTracker(0)
        with pytest.raises(ValueError):
            FleetTracker(2, smoothing=[0.5, 1.5])
        with pytest.raises(ValueError):
            FleetTracker(2, initial_mbps=[-1.0, 2.0])
        tracker = FleetTracker(2)
        with pytest.raises(ValueError):
            tracker.observe(np.array([1.0, 2.0, 3.0]))
        # The EWMA keeps 1 - smoothing from construction.
        with pytest.raises(ValueError):
            tracker.smoothing[0] = 0.5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_tracker_rejects_non_finite_priors(self, bad):
        # ThroughputTracker(initial_mbps=inf) raises too; NaN means no prior.
        with pytest.raises(ValueError, match="finite"):
            FleetTracker(2, initial_mbps=[bad, 2.0])
        assert np.isnan(FleetTracker(2, initial_mbps=[np.nan, 2.0]).estimates_mbps[0])

    def test_workload_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FleetWorkload(np.zeros((0, 2)), regions=("a", "b"))
        with pytest.raises(ValueError):
            FleetWorkload(np.zeros((2, 2)), regions=("a",))
        with pytest.raises(ValueError):
            FleetWorkload.from_traces([])
        with pytest.raises(ValueError):
            FleetWorkload.synthesize(0, 5)
        with pytest.raises(ValueError):
            FleetWorkload.synthesize(5, 5, stall_probability=1.5)
        with pytest.raises(ValueError):
            FleetWorkload.synthesize(5, 5, regions=[])

    def test_session_rejects_bad_method_and_sla(self):
        workload = FleetWorkload(np.full((1, 1), 3.0), regions=("a",))
        # There is one decision path: no decision-method option is taken.
        with pytest.raises(TypeError):
            ServingSession(ANALYSIS, workload, method="values")
        with pytest.raises(ValueError):
            ServingSession(ANALYSIS, workload, latency_sla_s=0.0)

    def test_controller_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FleetController(ANALYSIS, 0)
        controller = FleetController(ANALYSIS, 2)
        with pytest.raises(ValueError):
            controller.decide(np.array([1.0]))


class TestReportingIntegration:
    def test_experiment_report_renders_fleet_summary(self):
        workload = FleetWorkload.synthesize(
            12, 6, stall_probability=0.2, seed=5
        )
        serving = ServingSession(ANALYSIS, workload,
                                 latency_sla_s=0.5).run()
        report = ExperimentReport(title="Serving")
        report.add_serving_report(serving)
        markdown = report.render_markdown()
        assert "Serving session" in markdown
        assert "decisions/s" in markdown
        assert "Per-region breakdown" in markdown
        for label, stats in serving.per_region.items():
            assert label in markdown
            assert str(stats["clients"]) in markdown
        if serving.anomalies or serving.silent_clients:
            assert "Degraded inputs absorbed" in markdown


# ---------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def serve_store(tmp_path_factory):
    """A tiny campaign store (2 evaluations) for the serve CLI tests."""
    store_dir = tmp_path_factory.mktemp("serve") / "store"
    code = main([
        "campaign",
        "--scenario", "wifi-3mbps/jetson-tx2-gpu",
        "--strategy", "random",
        "--num-initial", "2", "--num-iterations", "0",
        "--pool-size", "8", "--predictor-samples", "40",
        "--store", str(store_dir), "--quiet",
    ])
    assert code == 0
    return store_dir


class TestServeCli:
    def test_serve_replays_a_stored_front(self, serve_store, capsys):
        code = main([
            "serve", "--store", str(serve_store),
            "--clients", "60", "--ticks", "12",
            "--sla-ms", "400", "--stall-probability", "0.1",
            "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving " in out
        assert "decisions/s" in out
        assert "per region:" in out

    def test_serve_json_payload_is_complete(self, serve_store, tmp_path,
                                            capsys):
        out_file = tmp_path / "serving.json"
        code = main([
            "serve", "--store", str(serve_store),
            "--clients", "20", "--ticks", "6",
            "--format", "json", "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "wifi-3mbps/jetson-tx2-gpu"
        assert payload["num_clients"] == 20
        assert payload["decisions"] > 0
        assert "switching_thresholds_mbps" in payload
        assert json.loads(out_file.read_text(encoding="utf-8")) == payload

    def test_serve_markdown_format(self, serve_store, capsys):
        code = main([
            "serve", "--store", str(serve_store),
            "--clients", "10", "--ticks", "4", "--format", "markdown",
        ])
        assert code == 0
        assert "## Serving session" in capsys.readouterr().out

    def test_empty_store_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["serve", "--store", str(empty)]) == 1
        assert "no Pareto" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, serve_store, capsys):
        code = main([
            "serve", "--store", str(serve_store),
            "--scenario", "no-such-scenario",
        ])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_known_but_absent_scenario_exits_1(self, serve_store, capsys):
        code = main([
            "serve", "--store", str(serve_store),
            "--scenario", "lte-3mbps/jetson-tx2-gpu",
        ])
        assert code == 1

    def test_unknown_region_exits_2(self, serve_store, capsys):
        code = main([
            "serve", "--store", str(serve_store),
            "--regions", "Atlantis",
        ])
        assert code == 2
