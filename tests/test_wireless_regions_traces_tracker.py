"""Tests for the regional catalogue, throughput traces and the online tracker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.workload import FleetWorkload
from repro.wireless.regions import (
    ALL_REGIONS,
    PAPER_REGIONS,
    Region,
    all_regions,
    paper_regions,
    region_by_name,
)
from repro.wireless.tracker import ThroughputTracker
from repro.wireless.traces import (
    ThroughputSample,
    ThroughputTrace,
    generate_lte_trace,
)


class TestRegions:
    def test_paper_regions_match_table_1(self):
        by_name = {r.name: r.avg_uplink_mbps for r in PAPER_REGIONS}
        assert by_name == {"South Korea": 16.1, "USA": 7.5, "Afghanistan": 0.7}

    def test_lookup_is_case_insensitive(self):
        assert region_by_name("usa").avg_uplink_mbps == 7.5
        with pytest.raises(KeyError):
            region_by_name("atlantis")

    def test_catalogue_is_sorted_by_throughput(self):
        speeds = [r.avg_uplink_mbps for r in all_regions()]
        assert speeds == sorted(speeds, reverse=True)
        assert len(all_regions()) == len(ALL_REGIONS)

    def test_paper_regions_accessor_preserves_order(self):
        assert [r.name for r in paper_regions()] == ["South Korea", "USA", "Afghanistan"]

    @pytest.mark.parametrize(
        "uplink", [0.0, -1.0, float("nan"), float("inf"), True, "3.0"], ids=repr
    )
    def test_region_requires_positive_throughput(self, uplink):
        """An infinite region replayed all-infinite uplinks that a serving
        session then served none of, without an error."""
        with pytest.raises(ValueError, match="avg_uplink_mbps"):
            Region("nowhere", uplink)

    def test_region_holds_its_throughput_as_float(self):
        region = Region("somewhere", 3)
        assert region.avg_uplink_mbps == 3.0 and type(region.avg_uplink_mbps) is float


class TestTraces:
    def test_default_trace_matches_collection_protocol(self):
        trace = generate_lte_trace(seed=0)
        assert len(trace) == 40
        assert trace[1].time_s - trace[0].time_s == pytest.approx(300.0)

    def test_trace_values_positive_and_reproducible(self):
        a = generate_lte_trace(seed=5)
        b = generate_lte_trace(seed=5)
        assert np.array_equal(a.uplinks_mbps, b.uplinks_mbps)
        assert np.all(a.uplinks_mbps > 0)

    def test_mean_throughput_tracks_requested_mean(self):
        trace = generate_lte_trace(num_samples=500, mean_mbps=8.0, seed=1)
        assert 4.0 < trace.mean_mbps < 14.0

    def test_statistics_accessors(self):
        trace = ThroughputTrace.from_values([1.0, 5.0, 3.0])
        assert trace.min_mbps == 1.0
        assert trace.max_mbps == 5.0
        assert trace.mean_mbps == pytest.approx(3.0)
        assert trace[1].uplink_mbps == 5.0

    def test_requires_ordered_samples(self):
        with pytest.raises(ValueError):
            ThroughputTrace(
                [ThroughputSample(10.0, 1.0), ThroughputSample(5.0, 2.0)]
            )
        with pytest.raises(ValueError):
            ThroughputTrace([])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_lte_trace(num_samples=0)
        with pytest.raises(ValueError):
            generate_lte_trace(correlation=1.5)
        with pytest.raises(ValueError):
            generate_lte_trace(mean_mbps=-1.0)

    def test_to_dict(self):
        data = generate_lte_trace(num_samples=3, seed=0).to_dict()
        assert len(data["samples"]) == 3

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_samples=st.integers(1, 60),
        mean_mbps=st.floats(0.1, 50.0),
        process=st.fixed_dictionaries(
            {},
            optional={
                "volatility": st.floats(0.0, 1.5),
                "correlation": st.floats(0.0, 0.99),
                "fade_probability": st.floats(0.0, 1.0),
                "fade_factor": st.floats(0.01, 1.0),
            },
        ),
    )
    def test_trace_is_a_one_client_fleet(self, seed, num_samples, mean_mbps, process):
        """Both generators run one AR(1) process: a trace equals the
        one-client fleet of the same mean and seed, bit for bit."""
        trace = generate_lte_trace(
            num_samples=num_samples, mean_mbps=mean_mbps, seed=seed, **process
        )
        fleet = FleetWorkload.synthesize(
            1, num_samples, regions=[Region("x", mean_mbps)], seed=seed, **process
        )
        assert trace.uplinks_mbps.tobytes() == fleet.uplinks_mbps[:, 0].tobytes()


class TestTracker:
    def test_memoryless_tracker_returns_latest(self):
        tracker = ThroughputTracker(smoothing=1.0)
        assert tracker.estimate_mbps is None
        tracker.observe(5.0)
        tracker.observe(9.0)
        assert tracker.estimate_mbps == 9.0
        assert tracker.num_observations == 2

    def test_smoothing_averages_observations(self):
        tracker = ThroughputTracker(smoothing=0.5)
        tracker.observe(4.0)
        tracker.observe(8.0)
        assert tracker.estimate_mbps == pytest.approx(6.0)

    def test_initial_estimate(self):
        tracker = ThroughputTracker(smoothing=0.5, initial_mbps=10.0)
        assert tracker.estimate_mbps == 10.0
        tracker.observe(20.0)
        assert tracker.estimate_mbps == pytest.approx(15.0)

    def test_reset_clears_state(self):
        tracker = ThroughputTracker()
        tracker.observe(3.0)
        tracker.reset()
        assert tracker.estimate_mbps is None
        assert tracker.history == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ThroughputTracker(smoothing=0.0)
        with pytest.raises(ValueError):
            ThroughputTracker(initial_mbps=-1.0)
        with pytest.raises(ValueError):
            ThroughputTracker().observe(0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_values_are_rejected(self, bad):
        """The fleet tracker counts these as anomalies; the scalar one raises."""
        tracker = ThroughputTracker(smoothing=0.5, initial_mbps=4.0)
        with pytest.raises(ValueError, match="finite"):
            tracker.observe(bad)
        assert tracker.estimate_mbps == 4.0
        assert tracker.num_observations == 0
        with pytest.raises(ValueError, match="finite"):
            ThroughputTracker(initial_mbps=bad)


class TestTrackerHistoryLimit:
    """Regression: unbounded ``_history`` growth on long-running trackers."""

    def test_default_keeps_full_history(self):
        tracker = ThroughputTracker()
        for value in range(1, 51):
            tracker.observe(float(value))
        assert len(tracker.history) == 50  # default behaviour unchanged

    def test_history_limit_bounds_memory_not_estimates(self):
        bounded = ThroughputTracker(smoothing=0.5, history_limit=4)
        unbounded = ThroughputTracker(smoothing=0.5)
        for value in (3.0, 7.0, 2.0, 9.0, 4.0, 6.0, 8.0):
            bounded.observe(value)
            unbounded.observe(value)
        # The estimate and observation count are unaffected by eviction...
        assert bounded.estimate_mbps == unbounded.estimate_mbps
        assert bounded.num_observations == unbounded.num_observations == 7
        # ...but only the most recent samples are retained.
        assert bounded.history == unbounded.history[-4:]
        assert len(bounded.history) == 4

    def test_zero_limit_keeps_no_history(self):
        tracker = ThroughputTracker(history_limit=0)
        for _ in range(10):
            tracker.observe(5.0)
        assert tracker.history == []
        assert tracker.num_observations == 10
        assert tracker.estimate_mbps == 5.0

    def test_reset_respects_limit(self):
        tracker = ThroughputTracker(history_limit=2)
        for value in (1.0, 2.0, 3.0):
            tracker.observe(value)
        tracker.reset()
        assert tracker.history == []
        assert tracker.num_observations == 0
        for value in (4.0, 5.0, 6.0):
            tracker.observe(value)
        assert tracker.history == [5.0, 6.0]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            ThroughputTracker(history_limit=-1)
