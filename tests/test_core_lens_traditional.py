"""Tests for the LENS search, the Traditional baseline and their comparison."""

import json

import numpy as np
import pytest

from repro.analysis.pareto_metrics import compare_fronts
from repro.api import (
    EvaluationEngine,
    SearchOutcome,
    SearchRequest,
    build_context,
    execute_strategy,
    run_search,
)
from repro.core.results import CandidateEvaluation, SearchResult
from repro.partition.deployment import DeploymentOption

FAST = dict(
    scenario="wifi-3mbps/jetson-tx2-gpu",
    num_initial=5,
    num_iterations=8,
    candidate_pool_size=32,
    predictor_samples_per_type=60,
    seed=0,
)


@pytest.fixture(scope="module")
def small_search_space_module():
    from repro.nn.search_space import LensSearchSpace

    return LensSearchSpace(
        num_blocks=3,
        layers_per_block=(1, 2),
        kernel_sizes=(3, 5),
        filter_counts=(24, 64),
        fc_units=(256, 1024),
        min_pool_layers=2,
    )


def _off_edge_result():
    """A one-candidate Traditional result whose best deployments are off the edge.

    The small searches here deploy their fronts All-Edge for latency, so this
    input is what pins that partitioning reads the stored best values.
    """
    candidate = CandidateEvaluation(
        genotype=(0, 1),
        architecture_name="off-edge",
        error_percent=20.0,
        latency_s=0.5,
        energy_j=2.0,
        best_latency_option=DeploymentOption.all_cloud(),
        best_energy_option=DeploymentOption.split_after(3, "fc1"),
        all_edge_latency_s=0.5,
        all_edge_energy_j=2.0,
        extras={"best_latency_s": 0.25, "best_energy_j": 0.75},
    )
    return SearchResult([candidate], label="traditional")


@pytest.fixture(scope="module")
def engine():
    return EvaluationEngine()


@pytest.fixture(scope="module")
def lens_result(small_search_space_module, engine):
    return run_search(
        strategy="lens", search_space=small_search_space_module, engine=engine, **FAST
    ).result


class TestLensSearch:
    def test_budget_is_respected(self, lens_result):
        assert len(lens_result) == FAST["num_initial"] + FAST["num_iterations"]
        assert lens_result.label == "lens"

    def test_candidates_carry_deployment_annotations(self, lens_result):
        for candidate in lens_result:
            assert candidate.best_energy_option.label in {
                "All-Edge",
                "All-Cloud",
            } or candidate.best_energy_option.is_split
            assert candidate.energy_j <= candidate.all_edge_energy_j + 1e-12
            assert candidate.latency_s <= candidate.all_edge_latency_s + 1e-12

    def test_phases_and_iterations_recorded(self, lens_result):
        phases = [c.phase for c in lens_result]
        assert phases.count("init") == FAST["num_initial"]
        assert phases.count("bo") == FAST["num_iterations"]
        iterations = [c.iteration for c in lens_result]
        assert iterations == sorted(iterations)

    def test_pareto_front_is_non_empty(self, lens_result):
        front = lens_result.pareto_candidates(("error_percent", "energy_j"))
        assert len(front) >= 1

    def test_reproducibility_with_same_seed(self, small_search_space_module, lens_result):
        rerun = run_search(
            strategy="lens",
            search_space=small_search_space_module,
            engine=EvaluationEngine(),
            **FAST,
        )
        a = lens_result.objective_matrix(("error_percent", "energy_j"))
        b = rerun.result.objective_matrix(("error_percent", "energy_j"))
        assert np.allclose(a, b)

    def test_progress_callback_invoked(self, small_search_space_module, engine):
        calls = []
        outcome = run_search(
            strategy="lens",
            search_space=small_search_space_module,
            engine=engine,
            progress_callback=lambda index, evaluation: calls.append(evaluation),
            **FAST,
        )
        assert len(calls) == len(outcome)

    def test_raw_result_exposed(self, small_search_space_module, engine):
        # The component path hands back the strategy's own SearchResult,
        # without the outcome envelope run_search wraps around it.
        context = build_context(
            SearchRequest(strategy="lens", **FAST),
            search_space=small_search_space_module,
            engine=engine,
        )
        result = execute_strategy(context)
        assert isinstance(result, SearchResult) and result.label == "lens"
        assert len(result) == FAST["num_initial"] + FAST["num_iterations"]
        assert {c.phase for c in result} == {"init", "bo"}


class TestTraditionalSearch:
    @pytest.fixture(scope="class")
    def traditional_outcome(self, small_search_space_module, engine):
        return run_search(
            strategy="traditional",
            search_space=small_search_space_module,
            engine=engine,
            **FAST,
        )

    @pytest.fixture(scope="class")
    def traditional_result(self, traditional_outcome):
        return traditional_outcome.result

    @pytest.fixture(scope="class")
    def stored_result(self, traditional_outcome):
        """The same run read back from its JSON store form."""
        payload = json.loads(json.dumps(traditional_outcome.to_dict()))
        return SearchOutcome.from_dict(payload).result

    def test_partition_within_is_forced_off(self, small_search_space_module, engine):
        context = build_context(
            SearchRequest(strategy="traditional", **FAST),
            search_space=small_search_space_module,
            engine=engine,
        )
        assert context.evaluator.partition_within is False

    def test_objectives_are_all_edge_values(self, traditional_result):
        for candidate in traditional_result:
            assert candidate.latency_s == pytest.approx(candidate.all_edge_latency_s)
            assert candidate.energy_j == pytest.approx(candidate.all_edge_energy_j)
        assert traditional_result.label == "traditional"

    def test_post_hoc_partitioning_improves_or_preserves(
        self, traditional_result, stored_result
    ):
        for result in (traditional_result, stored_result, _off_edge_result()):
            partitioned = result.partitioned()
            assert partitioned.label == "traditional+partitioned"
            front = result.pareto_candidates(("error_percent", "energy_j"))
            assert len(partitioned) == len(front)
            for candidate, original in zip(partitioned, front):
                assert candidate.latency_s == original.extras["best_latency_s"]
                assert candidate.energy_j == original.extras["best_energy_j"]
                assert candidate.latency_s <= original.all_edge_latency_s
                assert candidate.energy_j <= original.all_edge_energy_j
                assert candidate.error_percent == original.error_percent
                assert candidate.genotype == original.genotype
                assert candidate.best_latency_option == original.best_latency_option
                assert candidate.best_energy_option == original.best_energy_option
                assert candidate.extras["partitioned_after_search"] is True
                assert "partitioned_after_search" not in original.extras
        # A stored outcome partitions exactly like the in-memory one.
        assert [c.to_dict() for c in stored_result.partitioned()] == [
            c.to_dict() for c in traditional_result.partitioned()
        ]

    def test_partition_result_can_cover_all_candidates(
        self, small_search_space_module, engine, traditional_result, stored_result
    ):
        partitioned = traditional_result.partitioned(pareto_only=False)
        assert len(partitioned) == len(traditional_result)
        assert all(c.extras["partitioned_after_search"] is True for c in partitioned)
        assert [c.to_dict() for c in stored_result.partitioned(pareto_only=False)] == [
            c.to_dict() for c in partitioned
        ]
        # The stored best-deployment values are what re-costing each
        # architecture through Algorithm 1 gives.
        context = build_context(
            SearchRequest(strategy="traditional", **FAST),
            search_space=small_search_space_module,
            engine=engine,
        )
        space = context.search_space
        for candidate in partitioned:
            architecture = space.decode_for_performance(candidate.genotype)
            evaluation = context.analyzer.evaluate(architecture)
            assert candidate.latency_s == pytest.approx(
                evaluation.best_latency.latency_s, rel=1e-9
            )
            assert candidate.energy_j == pytest.approx(
                evaluation.best_energy.energy_j, rel=1e-9
            )
            assert candidate.best_latency_option == evaluation.best_latency.option
            assert candidate.best_energy_option == evaluation.best_energy.option

    def test_front_comparison_against_lens(self, lens_result, traditional_result):
        partitioned = traditional_result.partitioned()
        comparison = compare_fronts(lens_result, partitioned, ("error_percent", "energy_j"))
        assert 0.0 <= comparison.a_dominates_b_fraction <= 1.0
        assert 0.0 <= comparison.combined_fraction_a <= 1.0
        assert comparison.a_front_size >= 1
        assert comparison.hypervolume_a >= 0.0
