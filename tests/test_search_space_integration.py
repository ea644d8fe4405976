"""End-to-end search-space plumbing: requests, engine, campaigns, reports."""

from __future__ import annotations

import pytest
from oracles import partition as oracle

from repro.analysis.reporting import summarize_campaign
from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.registry import SEARCH_SPACES, RegistryError
from repro.api.session import build_context, run_search
from repro.campaign import CampaignSpec, RunStore, run_campaign

#: Budgets small enough for the full grid to run inside the tier-1 suite.
FAST = dict(
    num_initial=2,
    num_iterations=1,
    candidate_pool_size=8,
    predictor_samples_per_type=40,
    seed=0,
)


@pytest.fixture
def engine():
    return EvaluationEngine()


class TestRunSearchAcrossSpaces:
    @pytest.mark.parametrize("space_name", ["lens-vgg", "resnet-v1", "seq-conv1d"])
    def test_produces_valid_pareto_results(self, space_name, engine):
        outcome = run_search(
            SearchRequest(strategy="random", search_space=space_name, **FAST),
            engine=engine,
        )
        assert len(outcome) == 3
        front = outcome.pareto_candidates(("error_percent", "energy_j"))
        assert 1 <= len(front) <= len(outcome)
        for candidate in outcome.candidates:
            assert candidate.error_percent > 0
            assert candidate.latency_s > 0
            assert candidate.energy_j > 0
        assert outcome.request.search_space == space_name
        assert SearchOutcome.from_dict(outcome.to_dict()).request.search_space == (
            space_name
        )

    def test_no_resnet_candidate_cuts_a_residual_edge(self, engine):
        outcome = run_search(
            SearchRequest(strategy="lens", search_space="resnet-v1", **FAST),
            engine=engine,
        )
        space = SEARCH_SPACES.create("resnet-v1")
        for candidate in outcome.candidates:
            graph = space.decode_for_performance(
                candidate.genotype
            ).partition_graph()
            for option in (
                candidate.best_latency_option, candidate.best_energy_option
            ):
                if option.is_split:
                    assert oracle.allows_cut_after(graph, option.split_index)

    def test_unknown_space_raises_suggestion_error(self, engine):
        request = SearchRequest(search_space="resnet-v2", **FAST)
        with pytest.raises(RegistryError, match="Did you mean 'resnet-v1'"):
            build_context(request, engine=engine)

    def test_context_resolves_space_by_name(self, engine):
        context = build_context(
            SearchRequest(search_space="seq-conv1d", **FAST), engine=engine
        )
        assert context.search_space.space_name == "seq-conv1d"

    def test_keyword_name_is_a_request_field(self, engine):
        """run_search(search_space="name") must route to the request (and
        its fingerprint), not the instance-override slot."""
        outcome = run_search(
            strategy="random", search_space="resnet-v1", engine=engine, **FAST
        )
        assert outcome.request.search_space == "resnet-v1"
        assert outcome.candidates[0].architecture_name.startswith("resnet-v1-")
        assert outcome.request.fingerprint() == SearchRequest(
            strategy="random", search_space="resnet-v1", **FAST
        ).fingerprint()

    def test_keyword_name_overrides_request_object(self, engine):
        base = SearchRequest(strategy="random", **FAST)
        context = build_context(base, search_space="seq-conv1d", engine=engine)
        assert context.request.search_space == "seq-conv1d"
        assert context.search_space.space_name == "seq-conv1d"

    def test_instance_override_is_recorded_in_outcome_and_fingerprint(self, engine):
        """A search-space *instance* override must fold its space_name into
        the request, so the outcome is labelled correctly and never shares
        a fingerprint (store key) with a default-space run."""
        from repro.nn.search_space import SeqConv1DSearchSpace

        base = SearchRequest(strategy="random", **FAST)
        outcome = run_search(base, search_space=SeqConv1DSearchSpace(), engine=engine)
        assert outcome.request.search_space == "seq-conv1d"
        assert outcome.request.fingerprint() != base.fingerprint()
        assert outcome.request.fingerprint() == base.replace(
            search_space="seq-conv1d"
        ).fingerprint()

    def test_engine_partition_cache_is_keyed_by_space(self, engine):
        """Back-to-back runs in different spaces never share partition
        records; re-running the same space hits the cache."""
        request = SearchRequest(strategy="random", search_space="lens-vgg", **FAST)
        run_search(request, engine=engine)
        lens_entries = engine.cache_sizes()["partition_evaluations"]
        assert lens_entries > 0

        run_search(request.replace(search_space="resnet-v1"), engine=engine)
        assert engine.cache_sizes()["partition_evaluations"] > lens_entries

        before = engine.stats.snapshot()
        run_search(request, engine=engine)
        assert engine.stats.since(before)["partition_misses"] == 0


class TestCampaignsAcrossSpaces:
    def test_grid_expands_space_axis(self):
        spec = CampaignSpec(
            scenarios=("wifi-3mbps/jetson-tx2-gpu",),
            search_spaces=("lens-vgg", "resnet-v1", "seq-conv1d"),
            strategies=("random",),
            seeds=(0,),
        )
        assert spec.num_cells == 3
        spaces = [request.search_space for request in spec.requests()]
        assert spaces == ["lens-vgg", "resnet-v1", "seq-conv1d"]
        assert len({request.fingerprint() for request in spec.requests()}) == 3

    def test_spec_round_trips_and_validates(self):
        spec = CampaignSpec(
            scenarios=("wifi-3mbps/jetson-tx2-gpu",),
            search_spaces=("resnet-v1",),
        )
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        spec.validate()

        legacy = spec.to_dict()
        del legacy["search_spaces"]
        assert CampaignSpec.from_dict(legacy).search_spaces == ("lens-vgg",)

        typo = CampaignSpec(
            scenarios=("wifi-3mbps/jetson-tx2-gpu",),
            search_spaces=("seq-conv2d",),
        )
        with pytest.raises(RegistryError, match="seq-conv1d"):
            typo.validate()

    def test_campaign_and_report_cover_every_space(self, tmp_path, engine):
        spec = CampaignSpec(
            scenarios=("wifi-3mbps/jetson-tx2-gpu",),
            search_spaces=("lens-vgg", "resnet-v1", "seq-conv1d"),
            strategies=("random",),
            seeds=(0,),
            num_initial=FAST["num_initial"],
            num_iterations=FAST["num_iterations"],
            candidate_pool_size=FAST["candidate_pool_size"],
            predictor_samples_per_type=FAST["predictor_samples_per_type"],
        )
        store = RunStore(tmp_path / "store")
        result = run_campaign(spec, store, engine=engine)
        assert len(result.executed) == 3

        assert store.summary()["search_spaces"] == [
            "lens-vgg", "resnet-v1", "seq-conv1d"
        ]
        summary = summarize_campaign(store.outcomes())
        assert summary.num_runs == 3
        for cell in summary.cells:
            assert cell.pareto_size >= 1

        # resume: a second pass over the same grid re-runs nothing
        again = run_campaign(spec, store, engine=engine)
        assert again.executed == ()
        assert len(again.skipped) == 3
