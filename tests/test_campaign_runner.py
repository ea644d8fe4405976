"""Campaign execution: grids, resume semantics, parallel equivalence."""

from __future__ import annotations

import json

import pytest

from repro.analysis.reporting import summarize_campaign
from repro.api.envelopes import SearchRequest, request_fingerprint
from repro.api.registry import RegistryError
from repro.api.scenario import Scenario
from repro.campaign import CampaignSpec, RunStore, StoreError, run_campaign
from repro.campaign.gridspec import expand_requests

#: 3 scenarios x 2 strategies = 6 cells, milliseconds each.
SPEC = CampaignSpec(
    scenarios=(
        "wifi-3mbps/jetson-tx2-gpu",
        "lte-3mbps/jetson-tx2-gpu",
        "3g-3mbps/jetson-tx2-cpu",
    ),
    strategies=("lens", "random"),
    seeds=(0,),
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)


def _report_dict(store: RunStore) -> dict:
    """Store report with the wall-clock fields (the only nondeterminism) removed."""
    summary = summarize_campaign(store.outcomes()).to_dict()
    for cell in summary["cells"]:
        cell.pop("wall_time_s")
    return summary


class TestCampaignSpec:
    def test_grid_expansion_is_the_full_product(self):
        requests = SPEC.requests()
        assert len(requests) == SPEC.num_cells == 6
        cells = {(r.scenario_name, r.strategy, r.seed) for r in requests}
        assert len(cells) == 6
        fingerprints = {request_fingerprint(r) for r in requests}
        assert len(fingerprints) == 6

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC.to_dict()), encoding="utf-8")
        assert CampaignSpec.load(path) == SPEC

    def test_unknown_spec_fields_rejected(self):
        """A typo'd key must not silently run a different campaign."""
        payload = SPEC.to_dict()
        payload["seed"] = [0, 1, 2]  # should have been "seeds"
        with pytest.raises(ValueError, match=r"unknown campaign spec fields \['seed'\]"):
            CampaignSpec.from_dict(payload)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            CampaignSpec(scenarios=())

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            CampaignSpec(scenarios=("a", "a"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_initial", 10.5),
            ("num_iterations", 2.5),
            ("candidate_pool_size", 8.5),
            ("batch_size", 1.5),
            ("predictor_samples_per_type", 40.9),
            ("seeds", [2.5, 3]),
            ("seeds", [True, 2]),
        ],
    )
    def test_non_integral_seeds_and_counts_are_rejected_not_truncated(
        self, field, value
    ):
        """``int()`` used to load ``10.5`` as 10 and a seed ``2.5`` as 2."""
        payload = SPEC.to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field.rstrip("s")):
            CampaignSpec.from_dict(payload)
        with pytest.raises(ValueError, match=field.rstrip("s")):
            CampaignSpec(scenarios=SPEC.scenarios, **{field: value})

    def test_integral_float_seeds_and_counts_load_as_ints(self):
        payload = SPEC.to_dict()
        payload.update(seeds=[0.0, 1], num_initial=4.0, predictor_samples_per_type=40.0)
        spec = CampaignSpec.from_dict(payload)
        assert spec.seeds == (0, 1) and type(spec.seeds[0]) is int
        assert type(spec.num_initial) is int and spec.num_initial == 4
        assert spec.requests()[0].fingerprint() == SPEC.requests()[0].fingerprint()

    @pytest.mark.parametrize("value", [float("inf"), True, "0.1"], ids=repr)
    def test_noise_std_must_be_a_finite_number(self, value):
        payload = SPEC.to_dict()
        payload["predictor_noise_std"] = value
        with pytest.raises(ValueError, match="predictor_noise_std must be a finite number"):
            CampaignSpec.from_dict(payload)
        with pytest.raises(ValueError, match="predictor_noise_std must be a finite number"):
            CampaignSpec(scenarios=SPEC.scenarios, predictor_noise_std=value)

    def test_round_trip_expands_to_the_same_grid(self):
        """An integral noise std used to expand to other fingerprints after
        ``to_dict``/``from_dict`` than before."""
        spec = CampaignSpec(scenarios=SPEC.scenarios, predictor_noise_std=0)
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec and type(clone.predictor_noise_std) is float
        assert [r.fingerprint() for r in clone.requests()] == [
            r.fingerprint() for r in spec.requests()
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_initial", 0),
            ("candidate_pool_size", 0),
            ("predictor_samples_per_type", 5),
            ("predictor_noise_std", -1.0),
        ],
    )
    def test_budgets_every_request_rejects_fail_when_the_spec_is_built(
        self, field, value
    ):
        """These specs used to construct and pass ``validate()``, failing
        only once ``requests()`` expanded the grid."""
        with pytest.raises(ValueError, match=field):
            CampaignSpec(scenarios=SPEC.scenarios, **{field: value})
        payload = SPEC.to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            CampaignSpec.from_dict(payload)

    def test_budget_defaults_and_cells_are_the_requests(self):
        spec = CampaignSpec(scenarios=("wifi-3mbps/jetson-tx2-gpu",))
        assert spec.requests() == [
            SearchRequest(scenario="wifi-3mbps/jetson-tx2-gpu")
        ]
        assert CampaignSpec.from_dict({"scenarios": list(spec.scenarios)}) == spec

    def test_validate_catches_unknown_names_upfront(self):
        bad = CampaignSpec(scenarios=("wifi-3mbps/jetson-tx2-gpu",),
                           strategies=("lense",))
        with pytest.raises(RegistryError, match="lens"):
            bad.validate()

    def test_expand_rejects_non_requests(self):
        with pytest.raises(TypeError, match="CampaignSpec or SearchRequests"):
            expand_requests(["not-a-request"])


class TestRunCampaign:
    def test_full_run_stores_every_cell(self, tmp_path):
        store = RunStore(tmp_path / "store")
        result = run_campaign(SPEC, store)
        assert len(result.executed) == 6
        assert result.skipped == ()
        assert sorted(store.fingerprints()) == sorted(
            request_fingerprint(r) for r in SPEC.requests()
        )

    def test_rerun_skips_everything(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_campaign(SPEC, store)
        again = run_campaign(SPEC, store)
        assert again.executed == ()
        assert sorted(again.skipped) == sorted(store.fingerprints())
        assert len(store) == 6

    def test_resume_executes_only_missing_cells(self, tmp_path):
        """A store pre-seeded with some fingerprints re-runs only the rest."""
        full = RunStore(tmp_path / "full")
        run_campaign(SPEC, full)

        preseeded = sorted(full.fingerprints())[:3]
        partial = RunStore(tmp_path / "partial")
        for fingerprint in preseeded:
            partial.append(full.get(fingerprint), fingerprint=fingerprint)

        events = []
        result = run_campaign(
            SPEC, partial,
            progress=lambda done, total, fp, outcome: events.append(
                (done, total, fp, outcome is None)
            ),
        )
        missing = set(full.fingerprints()) - set(preseeded)
        assert set(result.executed) == missing
        assert sorted(result.skipped) == preseeded
        # every cell reported exactly once, skips flagged as such
        assert [done for done, *_ in events] == list(range(1, 7))
        assert {fp for _, _, fp, was_skip in events if was_skip} == set(preseeded)
        # the resumed store reports identically to the fresh full run
        assert _report_dict(partial) == _report_dict(full)

    def test_no_resume_raises_on_stored_cells(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_campaign(SPEC, store)
        with pytest.raises(StoreError, match="already stored"):
            run_campaign(SPEC, store, resume=False)

    def test_duplicate_requests_run_once(self, tmp_path):
        requests = SPEC.requests()[:2]
        store = RunStore(tmp_path / "store")
        result = run_campaign(requests + requests, store)
        assert len(result.executed) == 2
        assert len(store) == 2

    def test_unknown_scenario_fails_before_any_cell_runs(self, tmp_path):
        store = RunStore(tmp_path / "store")
        bad = CampaignSpec(scenarios=("no-such-place/jetson-tx2-gpu",))
        with pytest.raises(RegistryError):
            run_campaign(bad, store)
        assert len(store) == 0

    def test_store_accepted_as_str_or_path(self, tmp_path):
        result = run_campaign(SPEC.requests()[:1], str(tmp_path / "a"))
        assert len(result.store) == 1
        result = run_campaign(SPEC.requests()[:1], tmp_path / "b")
        assert len(result.store) == 1


class TestParallelCampaign:
    def test_parallel_matches_serial(self, tmp_path):
        """workers=4 stores the same runs and reports the same winners."""
        serial = RunStore(tmp_path / "serial")
        run_campaign(SPEC, serial, workers=1)

        parallel = RunStore(tmp_path / "parallel")
        result = run_campaign(SPEC, parallel, workers=4)
        assert len(result.executed) == 6
        assert sorted(parallel.fingerprints()) == sorted(serial.fingerprints())
        assert _report_dict(parallel) == _report_dict(serial)

    def test_failing_cell_preserves_finished_work(self, tmp_path):
        """One bad cell raises, but completed cells are stored for resume."""
        good = SPEC.requests()[:2]
        bad = good[0].replace(
            # inline scenario whose device no worker registry knows
            scenario=Scenario(name="ghost/nowhere", device="ghost-device"),
        )
        store = RunStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="campaign cell .* failed"):
            run_campaign(good + [bad], store, workers=2)
        assert sorted(store.fingerprints()) == sorted(
            request_fingerprint(r) for r in good
        )

    def test_parallel_resume_executes_only_missing_cells(self, tmp_path):
        full = RunStore(tmp_path / "full")
        run_campaign(SPEC, full, workers=1)

        partial = RunStore(tmp_path / "partial")
        preseeded = sorted(full.fingerprints())[:4]
        for fingerprint in preseeded:
            partial.append(full.get(fingerprint), fingerprint=fingerprint)
        result = run_campaign(SPEC, partial, workers=2)
        assert set(result.executed) == set(full.fingerprints()) - set(preseeded)
        assert _report_dict(partial) == _report_dict(full)
