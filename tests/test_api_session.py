"""Tests for repro.api.session: strategies, run_search and its two halves."""

import numpy as np
import pytest

from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.session import STRATEGIES, build_context, execute_strategy, run_search
from repro.nn.search_space import LensSearchSpace

FAST = dict(
    num_initial=5,
    num_iterations=8,
    candidate_pool_size=32,
    predictor_samples_per_type=60,
    seed=0,
)


@pytest.fixture(scope="module")
def engine():
    return EvaluationEngine()


class ThreeGenotypeSpace(LensSearchSpace):
    """One block and one choice per sized gene: the block must pool, and
    one or both fully-connected layers are present — three valid genotypes."""

    space_name = "three-genotype-vgg"

    def __init__(self):
        super().__init__(
            num_blocks=1,
            layers_per_block=(1,),
            kernel_sizes=(3,),
            filter_counts=(16,),
            fc_units=(64,),
            min_pool_layers=1,
        )


def test_strategy_registry_builtins():
    assert set(STRATEGIES.names()) == {"lens", "traditional", "random"}


def test_unknown_strategy_fails_with_listing(small_search_space, engine):
    request = SearchRequest(strategy="lense", **FAST)
    context = build_context(request, search_space=small_search_space, engine=engine)
    with pytest.raises(KeyError, match="Did you mean 'lens'"):
        execute_strategy(context)


def test_unknown_scenario_fails_with_listing(engine):
    with pytest.raises(KeyError, match="wifi-3mbps/jetson-tx2-gpu"):
        run_search(scenario="wifi-3mbps/jetson-tx2-gp", engine=engine, **FAST)


@pytest.mark.parametrize(
    "retired", [{"checkpoint_dir": "ck"}, {"checkpoint_every": 5}, {"resume": True}]
)
def test_retired_checkpoint_keywords_are_rejected(retired):
    """A killed search is recovered by calling ``run_search`` again, so the
    checkpoint keywords are gone — not silently swallowed as request fields."""
    (name,) = retired
    with pytest.raises(TypeError, match=name):
        run_search(
            strategy="random", scenario="wifi-3mbps/jetson-tx2-gpu", **FAST, **retired
        )
    request = SearchRequest(strategy="random", **FAST)
    with pytest.raises(TypeError, match=name):
        run_search(request, **retired)


class TestRunSearch:
    @pytest.fixture(scope="class")
    def outcome(self, small_search_space, engine):
        return run_search(
            strategy="lens",
            scenario="wifi-3mbps/jetson-tx2-gpu",
            search_space=small_search_space,
            engine=engine,
            **FAST,
        )

    def test_budget_and_label(self, outcome):
        assert len(outcome) == FAST["num_initial"] + FAST["num_iterations"]
        assert outcome.label == "lens"
        assert outcome.wall_time_s > 0.0

    def test_outcome_embeds_request_and_scenario(self, outcome):
        assert outcome.request.strategy == "lens"
        assert outcome.scenario.name == "wifi-3mbps/jetson-tx2-gpu"
        assert outcome.engine_stats["partition_misses"] > 0

    def test_outcome_round_trips(self, outcome):
        restored = SearchOutcome.from_dict(outcome.to_dict())
        assert len(restored) == len(outcome)
        assert restored.label == outcome.label
        assert restored.scenario == outcome.scenario
        assert restored.request == outcome.request
        a = outcome.result.objective_matrix(("error_percent", "energy_j"))
        b = restored.result.objective_matrix(("error_percent", "energy_j"))
        assert np.allclose(a, b)

    def test_front_history_tracks_every_evaluation(self, outcome):
        history = outcome.front_history
        assert history is not None
        assert len(history) == len(outcome)
        assert history.metrics == ("error_percent", "latency_s", "energy_j")
        volumes = history.hypervolumes()
        assert np.all(np.diff(volumes) >= -1e-12)  # prefixes only grow the front
        assert history.final_hypervolume > 0.0
        assert 1 <= history.final_front_size <= len(outcome)
        # entries carry the candidates' names and iteration numbers
        assert [e.candidate for e in history.entries] == [
            c.architecture_name for c in outcome.candidates
        ]
        assert [e.iteration for e in history.entries] == [
            c.iteration for c in outcome.candidates
        ]

    def test_front_history_round_trips_through_outcome(self, outcome):
        restored = SearchOutcome.from_dict(outcome.to_dict())
        assert restored.front_history == outcome.front_history

    def test_health_counters_round_trip_and_upgrade(self, outcome):
        # a healthy run carries empty counters (schema v4)
        assert outcome.health == {}
        data = outcome.to_dict()
        assert data["health"] == {}
        # pre-v4 payloads (no health key) upgrade to empty counters
        legacy = dict(data)
        legacy.pop("health")
        assert SearchOutcome.from_dict(legacy).health == {}
        # non-empty counters survive the round trip
        data["health"] = {"H_RESUMED": 1, "H_JITTER_ESCALATED": 3}
        restored = SearchOutcome.from_dict(data)
        assert restored.health == {"H_RESUMED": 1, "H_JITTER_ESCALATED": 3}

    def test_batched_epdc_search_keeps_the_budget(self, small_search_space, engine):
        batched = run_search(
            strategy="lens",
            search_space=small_search_space,
            engine=engine,
            acquisition="epdc",
            batch_size=4,
            **FAST,
        )
        assert len(batched) == FAST["num_initial"] + FAST["num_iterations"]
        assert batched.request.batch_size == 4
        assert batched.front_history is not None

    def test_accepts_request_objects_and_dicts(self, small_search_space, engine, outcome):
        request = SearchRequest(
            strategy="lens", scenario="wifi-3mbps/jetson-tx2-gpu", **FAST
        )
        for form in (request, request.to_dict()):
            other = run_search(
                form, search_space=small_search_space, engine=engine
            )
            assert np.allclose(
                other.result.objective_matrix(("error_percent", "energy_j")),
                outcome.result.objective_matrix(("error_percent", "energy_j")),
            )

    def test_by_name_run_reproduces_component_path(
        self, small_search_space, engine, outcome
    ):
        context = build_context(
            SearchRequest(strategy="lens", scenario="wifi-3mbps/jetson-tx2-gpu", **FAST),
            search_space=small_search_space,
            engine=EvaluationEngine(),
        )
        result = execute_strategy(context)
        component_front = {
            (c.architecture_name, round(c.error_percent, 9), round(c.energy_j, 12))
            for c in result.pareto_candidates(("error_percent", "energy_j"))
        }
        api_front = {
            (c.architecture_name, round(c.error_percent, 9), round(c.energy_j, 12))
            for c in outcome.pareto_candidates(("error_percent", "energy_j"))
        }
        assert component_front == api_front


class TestOtherStrategies:
    def test_traditional_uses_all_edge_objectives(self, small_search_space, engine):
        outcome = run_search(
            strategy="traditional",
            search_space=small_search_space,
            engine=engine,
            **FAST,
        )
        assert outcome.label == "traditional"
        for candidate in outcome.candidates:
            assert candidate.latency_s == pytest.approx(candidate.all_edge_latency_s)
            assert candidate.energy_j == pytest.approx(candidate.all_edge_energy_j)

    def test_random_strategy_respects_budget_and_is_reproducible(
        self, small_search_space, engine
    ):
        first = run_search(
            strategy="random", search_space=small_search_space, engine=engine, **FAST
        )
        second = run_search(
            strategy="random", search_space=small_search_space, engine=engine, **FAST
        )
        assert first.label == "random"
        assert len(first) == FAST["num_initial"] + FAST["num_iterations"]
        assert all(c.phase == "random" for c in first.candidates)
        assert [c.genotype for c in first.candidates] == [
            c.genotype for c in second.candidates
        ]

    def test_random_strategy_records_a_budget_it_cannot_spend(self, engine):
        # The space holds 3 genotypes, the budget is 24: the random strategy
        # evaluates each genotype once and says so in the health log.
        request = SearchRequest(
            strategy="random", **dict(FAST, num_initial=4, num_iterations=20)
        )
        context = build_context(request, search_space=ThreeGenotypeSpace(), engine=engine)
        assert len(execute_strategy(context)) == 3
        [event] = context.health.events
        assert event.code == "H_BUDGET_SHORTFALL"
        assert event.context == {"evaluated": 3, "budget": 24}
        outcome = run_search(request, search_space=ThreeGenotypeSpace(), engine=engine)
        assert len(outcome) == 3
        assert outcome.health == {"H_BUDGET_SHORTFALL": 1}
