"""Tests for repro.utils.serialization."""

import json

import numpy as np
import pytest

from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.scenario import scenario_by_name
from repro.core.results import CandidateEvaluation
from repro.partition.deployment import DeploymentOption
from repro.utils.serialization import dump_json, format_table, load_json, to_jsonable


def test_to_jsonable_handles_numpy_scalars():
    assert to_jsonable(np.int64(3)) == 3
    assert to_jsonable(np.float64(1.5)) == 1.5
    assert to_jsonable(np.bool_(True)) is True


def test_to_jsonable_handles_arrays_and_containers():
    value = {"a": np.arange(3), "b": (1, 2), "c": {np.float32(1.0)}}
    result = to_jsonable(value)
    assert result["a"] == [0, 1, 2]
    assert result["b"] == [1, 2]
    assert result["c"] == [1.0]


def test_to_jsonable_uses_to_dict():
    class Thing:
        def to_dict(self):
            return {"x": np.int32(7)}

    assert to_jsonable(Thing()) == {"x": 7}


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dump_and_load_round_trip(tmp_path):
    payload = {"values": [1, 2.5, "x"], "nested": {"flag": True}}
    path = dump_json(payload, tmp_path / "out" / "data.json")
    assert path.exists()
    assert load_json(path) == payload


def test_iter_jsonl_skips_damage_and_stops_at_a_torn_tail(tmp_path):
    from repro.utils.serialization import append_jsonl_atomic, iter_jsonl

    path = tmp_path / "log.jsonl"
    assert list(iter_jsonl(path)) == []  # a missing file is an empty log
    append_jsonl_atomic(path, {"n": 1})
    with path.open("ab") as handle:
        handle.write(b'not json\n[1, 2]\n7\n"text"\nnull\n\xc3(\n')
    append_jsonl_atomic(path, {"n": 2})
    with path.open("ab") as handle:
        handle.write(b'{"n": 3}')  # a writer mid-append: no newline yet
    assert list(iter_jsonl(path)) == [{"n": 1}, {"n": 2}]


def test_append_line_atomic_takes_one_terminated_line(tmp_path):
    from repro.utils.serialization import append_line_atomic

    path = tmp_path / "log.jsonl"
    assert append_line_atomic(path, b'{"n":1}\n') == (0, 8)
    with pytest.raises(ValueError, match="newline"):
        append_line_atomic(path, b'{"n":2}')
    assert path.read_bytes() == b'{"n":1}\n'


#: The types ``json`` reads back as themselves.
_JSON_LEAVES = (type(None), bool, int, float, str)


def _assert_json_builtins(value, where="outcome"):
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{where} has the non-string key {key!r}"
            _assert_json_builtins(item, f"{where}.{key}")
    elif type(value) is list:
        for index, item in enumerate(value):
            _assert_json_builtins(item, f"{where}[{index}]")
    else:
        assert type(value) in _JSON_LEAVES, f"{where} is a {type(value)!r}"


@pytest.mark.parametrize("space", ["lens-vgg", "resnet-v1", "seq-conv1d"])
def test_outcome_to_dict_holds_json_builtins_only(space):
    """The run store and the process-pool executor hand ``to_dict()`` to
    :mod:`json` and :mod:`pickle` as is, without a ``to_jsonable`` walk, so
    every strategy's outcome must already be JSON-native."""
    from repro.api.session import run_search

    for strategy, acquisition, batch_size in (
        ("random", "ts", 1),
        ("lens", "ts", 1),
        ("traditional", "ts", 1),
        ("lens", "epdc", 4),
    ):
        request = SearchRequest(
            strategy=strategy,
            search_space=space,
            acquisition=acquisition,
            batch_size=batch_size,
            num_initial=4,
            num_iterations=4,
            candidate_pool_size=16,
            predictor_samples_per_type=40,
            seed=5,
        )
        data = run_search(request).to_dict()
        assert data["candidates"] and data["front_history"]["entries"]
        assert to_jsonable(data) == data
        _assert_json_builtins(data)


def test_format_table_alignment_and_precision():
    table = format_table(
        rows=[["alexnet", 39.94321, 1], ["vgg16", 120.5, 22]],
        headers=["model", "latency_ms", "splits"],
        precision=2,
    )
    lines = table.splitlines()
    assert lines[0].startswith("model")
    assert "39.94" in table
    assert "120.50" in table
    assert len(lines) == 4  # header, separator, two rows


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(rows=[[1, 2], [1]], headers=["a", "b"])


# ---------------------------------------------------------------------- envelope round trips

def _sample_candidate() -> CandidateEvaluation:
    return CandidateEvaluation(
        genotype=(np.int64(1), 0, 2, 1, 0, 1),
        architecture_name="lens-000123",
        error_percent=np.float64(17.25),
        latency_s=0.042,
        energy_j=0.128,
        best_latency_option=DeploymentOption.split_after(4, "pool2"),
        best_energy_option=DeploymentOption.all_edge(),
        all_edge_latency_s=0.051,
        all_edge_energy_j=0.128,
        iteration=7,
        phase="bo",
        extras={"total_macs": np.int64(123456), "num_partition_points": 3},
    )


def test_candidate_evaluation_round_trips_through_json():
    candidate = _sample_candidate()
    payload = json.loads(json.dumps(to_jsonable(candidate)))
    restored = CandidateEvaluation.from_dict(payload)
    assert restored.genotype == tuple(int(v) for v in candidate.genotype)
    assert restored.architecture_name == candidate.architecture_name
    assert restored.error_percent == pytest.approx(candidate.error_percent)
    assert restored.best_latency_option == candidate.best_latency_option
    assert restored.best_energy_option == candidate.best_energy_option
    assert restored.phase == "bo" and restored.iteration == 7
    assert restored.extras["total_macs"] == 123456


def test_search_request_round_trips_through_json():
    request = SearchRequest(
        scenario="lte-3mbps/jetson-tx2-cpu",
        strategy="traditional",
        num_initial=6,
        num_iterations=14,
        candidate_pool_size=48,
        acquisition="ucb",
        seed=11,
        tags={"experiment": "ablation-7"},
    )
    payload = json.loads(json.dumps(to_jsonable(request)))
    assert SearchRequest.from_dict(payload) == request


def test_search_request_rejects_future_schema_versions():
    data = SearchRequest().to_dict()
    data["schema_version"] = 999
    with pytest.raises(ValueError, match="schema_version=999"):
        SearchRequest.from_dict(data)


def test_search_outcome_round_trips_through_json():
    outcome = SearchOutcome(
        request=SearchRequest(num_initial=2, num_iterations=0),
        scenario=scenario_by_name("wifi-3mbps/jetson-tx2-gpu"),
        label="lens",
        candidates=(_sample_candidate(),),
        wall_time_s=1.5,
        engine_stats={"layer_hits": np.int64(10), "layer_misses": 2},
    )
    payload = json.loads(json.dumps(to_jsonable(outcome)))
    restored = SearchOutcome.from_dict(payload)
    assert restored.label == "lens"
    assert restored.scenario == outcome.scenario
    assert restored.request == outcome.request
    assert len(restored) == 1
    assert restored.engine_stats == {"layer_hits": 10, "layer_misses": 2}
    assert restored.wall_time_s == pytest.approx(1.5)
