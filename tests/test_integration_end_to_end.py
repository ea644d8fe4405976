"""End-to-end integration tests exercising the whole pipeline together.

These tests mirror the paper's experimental flow at a miniature scale:
train predictors, run LENS and the Traditional baseline on the same search
space and wireless expectation, compare frontiers, count criteria, and run
the runtime analysis on a frontier model.
"""

import numpy as np
import pytest

from repro.analysis.criteria import compare_criteria, paper_criteria
from repro.analysis.pareto_metrics import compare_fronts
from repro.analysis.runtime_eval import run_runtime_study
from repro.api import EvaluationEngine, SearchRequest, build_context, run_search
from repro.nn.search_space import LensSearchSpace
from repro.utils.serialization import dump_json, load_json, to_jsonable
from repro.wireless.traces import generate_lte_trace


@pytest.fixture(scope="module")
def pipeline():
    """Run a miniature LENS + Traditional experiment once for all tests."""
    space = LensSearchSpace(
        num_blocks=4,
        layers_per_block=(1, 2),
        kernel_sizes=(3, 5),
        filter_counts=(24, 64, 128),
        fc_units=(256, 2048),
        min_pool_layers=3,
    )
    request = SearchRequest(
        scenario="wifi-3mbps/jetson-tx2-gpu",
        num_initial=8,
        num_iterations=16,
        candidate_pool_size=48,
        predictor_samples_per_type=80,
        seed=7,
    )
    engine = EvaluationEngine()
    lens_result = run_search(request, search_space=space, engine=engine).result
    traditional_result = run_search(
        request, strategy="traditional", search_space=space, engine=engine
    ).result
    return {
        "space": space,
        "request": request,
        # the resolved components (predictor, channel, analyzer) of the runs
        "context": build_context(request, search_space=space, engine=engine),
        "lens_result": lens_result,
        "traditional_result": traditional_result,
        "partitioned": traditional_result.partitioned(),
    }


def test_lens_never_reports_higher_energy_than_unpartitioned_traditional(pipeline):
    """The qualitative claim behind Fig. 6: LENS charges each candidate its best
    deployment, so its energy floor can only be at or below the Traditional
    search's floor, and partition-aware candidates must beat their own
    All-Edge cost whenever a split is selected."""
    lens_min_energy = min(c.energy_j for c in pipeline["lens_result"])
    traditional_min_energy = min(c.energy_j for c in pipeline["traditional_result"])
    assert lens_min_energy <= traditional_min_energy
    for candidate in pipeline["lens_result"]:
        if candidate.best_energy_option.is_split:
            assert candidate.energy_j < candidate.all_edge_energy_j


def test_lens_frontier_not_dominated_by_unpartitioned_traditional(pipeline):
    comparison = compare_fronts(
        pipeline["lens_result"], pipeline["traditional_result"], ("error_percent", "energy_j")
    )
    assert comparison.b_dominates_a_fraction <= 0.5
    assert comparison.combined_fraction_a >= 0.4


def test_offloading_and_splits_shape_the_full_search_space(pipeline):
    """The effect LENS exploits must exist in the paper's full search space at
    the 3 Mbps WiFi expectation: most randomly sampled candidates prefer some
    form of offloading for energy, and architectures with a cheap convolutional
    prefix followed by heavy fully-connected layers prefer a genuine split."""
    full_space = LensSearchSpace()
    analyzer = pipeline["context"].analyzer

    offload_count = 0
    for seed in range(20):
        architecture = full_space.decode_for_performance(full_space.sample(seed))
        evaluation = analyzer.evaluate(architecture)
        if evaluation.best_energy.option.kind != "all_edge":
            offload_count += 1
    assert offload_count > 0

    # A thin-prefix / fat-FC candidate: every block one 3x3 layer of 24 filters
    # with pooling, then a single 8192-unit FC — the archetype that benefits
    # from splitting after the last pooling layer.
    values = {}
    for block in range(1, 6):
        values[f"block{block}_layers"] = 1
        values[f"block{block}_kernel"] = 3
        values[f"block{block}_filters"] = 24
        values[f"block{block}_pool"] = True
    values.update(
        {"fc1_present": True, "fc1_units": 8192, "fc2_present": False, "fc2_units": 256}
    )
    genotype = full_space.encoding.indices_from_values(values)
    architecture = full_space.decode_for_performance(genotype)
    evaluation = analyzer.evaluate(architecture)
    assert evaluation.best_energy.option.is_split
    assert evaluation.best_energy.energy_j < evaluation.all_edge.energy_j
    assert evaluation.best_energy.energy_j < evaluation.all_cloud.energy_j


def test_partitioned_traditional_still_leaves_room_for_lens(pipeline):
    comparison = compare_fronts(
        pipeline["lens_result"], pipeline["partitioned"], ("error_percent", "energy_j")
    )
    # The combined frontier should contain LENS members (the paper reports 76%).
    assert comparison.combined_fraction_a > 0.0
    assert 0.0 <= comparison.a_dominates_b_fraction <= 1.0


def test_criteria_comparison_runs_over_paper_thresholds(pipeline):
    full_partitioned = pipeline["traditional_result"].partitioned(pareto_only=False)
    comparisons = compare_criteria(
        pipeline["lens_result"], full_partitioned, paper_criteria()
    )
    assert len(comparisons) == 5
    assert all(c.count_a >= 0 and c.count_b >= 0 for c in comparisons)


def test_runtime_study_on_a_frontier_model(pipeline):
    context = pipeline["context"]
    front = pipeline["lens_result"].pareto_candidates(("error_percent", "energy_j"))
    model = front[0]
    architecture = pipeline["space"].decode_for_performance(model.genotype)
    trace = generate_lte_trace(num_samples=20, mean_mbps=8.0, seed=1)
    study = run_runtime_study(
        "model A", architecture, context.predictor, context.channel, trace, metric="energy"
    )
    dynamic = study.comparison.cumulative["dynamic"]
    assert all(dynamic <= value + 1e-12 for value in study.comparison.cumulative.values())


def test_results_serialise_to_json(pipeline, tmp_path):
    path = dump_json(pipeline["lens_result"].to_dict(), tmp_path / "lens.json")
    payload = load_json(path)
    assert payload["label"] == "lens"
    assert len(payload["candidates"]) == len(pipeline["lens_result"])
    # The whole comparison object is JSON-serialisable too.
    comparison = compare_fronts(pipeline["lens_result"], pipeline["partitioned"])
    assert to_jsonable(comparison.to_dict())


def test_search_is_fully_reproducible_end_to_end(pipeline):
    rerun = run_search(
        pipeline["request"],
        search_space=pipeline["space"],
        predictor=pipeline["context"].predictor,
        engine=EvaluationEngine(),
    ).result
    original = pipeline["lens_result"].objective_matrix(("error_percent", "energy_j"))
    repeated = rerun.objective_matrix(("error_percent", "energy_j"))
    assert np.allclose(original, repeated)
