"""Golden-file fingerprint pinning across the v1 -> v2 -> v3 schema upgrades.

``tests/data/golden_requests_v1.json`` holds serialized schema-v1
:class:`~repro.api.envelopes.SearchRequest` payloads together with the
fingerprints they had *when schema v1 was current*.  Run stores key
persisted outcomes by fingerprint, so any drift would silently disconnect
every pre-upgrade store from its requests — these values must never change.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from repro.api.engine import EvaluationEngine
from repro.api.envelopes import (
    DEFAULT_BATCH_SIZE,
    SCHEMA_VERSION,
    SearchRequest,
    request_fingerprint,
)
from repro.hardware.predictors import LayerPerformancePredictor
from repro.hardware.profiler import (
    DEFAULT_PROFILING_NOISE_STD,
    DEFAULT_SAMPLES_PER_TYPE,
    MIN_SAMPLES_PER_TYPE,
    LayerProfiler,
)
from repro.nn.spaces import DEFAULT_SEARCH_SPACE

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_requests_v1.json"


def golden_entries():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["requests"]


@pytest.mark.parametrize(
    "entry", golden_entries(), ids=lambda e: e["fingerprint"]
)
def test_v1_fingerprints_never_shift(entry):
    request = SearchRequest.from_dict(entry["request"])
    assert request.fingerprint() == entry["fingerprint"]
    assert request_fingerprint(request) == entry["fingerprint"]


@pytest.mark.parametrize(
    "entry", golden_entries(), ids=lambda e: e["fingerprint"]
)
def test_v1_payloads_upgrade_to_current_schema(entry):
    assert entry["request"]["schema_version"] == 1
    assert "search_space" not in entry["request"]
    request = SearchRequest.from_dict(entry["request"])
    assert request.schema_version == SCHEMA_VERSION
    assert request.search_space == DEFAULT_SEARCH_SPACE


def test_upgraded_request_round_trips_with_stable_fingerprint():
    entry = golden_entries()[0]
    request = SearchRequest.from_dict(entry["request"])
    rewritten = SearchRequest.from_dict(request.to_dict())
    assert rewritten == request
    assert rewritten.to_dict()["schema_version"] == SCHEMA_VERSION
    assert rewritten.fingerprint() == entry["fingerprint"]


def test_explicit_default_space_matches_v1_fingerprint():
    """Writing search_space="lens-vgg" out loud is the same computation."""
    entry = golden_entries()[0]
    payload = dict(entry["request"])
    payload["schema_version"] = SCHEMA_VERSION
    payload["search_space"] = DEFAULT_SEARCH_SPACE
    assert SearchRequest.from_dict(payload).fingerprint() == entry["fingerprint"]


def test_non_default_space_changes_the_fingerprint():
    entry = golden_entries()[0]
    request = SearchRequest.from_dict(entry["request"])
    fingerprints = {
        request.replace(search_space=name).fingerprint()
        for name in (DEFAULT_SEARCH_SPACE, "resnet-v1", "seq-conv1d")
    }
    assert len(fingerprints) == 3
    assert entry["fingerprint"] in fingerprints


def test_tags_and_schema_version_stay_excluded():
    entry = golden_entries()[0]
    request = SearchRequest.from_dict(entry["request"])
    tagged = request.replace(tags={"note": "irrelevant"})
    assert tagged.fingerprint() == entry["fingerprint"]


# ---------------------------------------------------------------- v2 -> v3


def test_v1_payloads_upgrade_with_default_batch_size():
    entry = golden_entries()[0]
    request = SearchRequest.from_dict(entry["request"])
    assert request.batch_size == DEFAULT_BATCH_SIZE


def test_v2_payload_without_batch_size_upgrades_and_keeps_fingerprint():
    entry = golden_entries()[0]
    v2_payload = dict(entry["request"], schema_version=2)
    request = SearchRequest.from_dict(v2_payload)
    assert request.schema_version == SCHEMA_VERSION
    assert request.batch_size == DEFAULT_BATCH_SIZE
    assert request.fingerprint() == entry["fingerprint"]


def test_explicit_default_batch_size_matches_v1_fingerprint():
    """Writing batch_size=1 out loud is the same computation."""
    entry = golden_entries()[0]
    payload = dict(entry["request"])
    payload["schema_version"] = SCHEMA_VERSION
    payload["batch_size"] = DEFAULT_BATCH_SIZE
    assert SearchRequest.from_dict(payload).fingerprint() == entry["fingerprint"]


def test_non_default_batch_size_changes_the_fingerprint():
    entry = golden_entries()[0]
    request = SearchRequest.from_dict(entry["request"])
    assert request.replace(batch_size=4).fingerprint() != entry["fingerprint"]


def test_batch_size_round_trips_and_validates():
    entry = golden_entries()[0]
    request = SearchRequest.from_dict(entry["request"]).replace(batch_size=4)
    rewritten = SearchRequest.from_dict(request.to_dict())
    assert rewritten.batch_size == 4
    assert rewritten.fingerprint() == request.fingerprint()
    with pytest.raises(ValueError):
        request.replace(batch_size=0)


@pytest.mark.parametrize(
    "value", [-0.1, float("nan"), float("inf"), True, "0.1", None], ids=repr
)
def test_predictor_noise_std_is_validated_when_built_and_loaded(value):
    """An infinite std gave every candidate the same costs, and ``True`` ran as 1.0."""
    request = SearchRequest.from_dict(golden_entries()[0]["request"])
    with pytest.raises(ValueError, match="predictor_noise_std"):
        request.replace(predictor_noise_std=value)
    payload = request.to_dict()
    payload["predictor_noise_std"] = value
    with pytest.raises(ValueError, match="predictor_noise_std"):
        SearchRequest.from_dict(payload)


def test_integral_noise_std_is_held_as_float_with_the_envelope_fingerprint():
    """``predictor_noise_std=0`` used to fingerprint apart from its own envelope."""
    request = SearchRequest(predictor_noise_std=0)
    assert type(request.predictor_noise_std) is float
    loaded = SearchRequest.from_dict(request.to_dict())
    assert loaded.fingerprint() == request.fingerprint() == "77d386110e7d7688"
    assert SearchRequest(predictor_noise_std=0.0).fingerprint() == request.fingerprint()


#: Values a request envelope cannot keep: non-integral counts, which
#: ``int()`` used to truncate on load (moving the fingerprint), and a
#: profiling budget below the profiler's minimum, which failed every run.
UNKEEPABLE_COUNTS = [
    ("num_initial", 2.5),
    ("num_iterations", 1.5),
    ("candidate_pool_size", 8.5),
    ("batch_size", 1.5),
    ("predictor_samples_per_type", 40.9),
    ("predictor_samples_per_type", 5),
]


@pytest.mark.parametrize("field, value", UNKEEPABLE_COUNTS)
def test_unkeepable_counts_are_rejected_when_built_and_loaded(field, value):
    request = SearchRequest.from_dict(golden_entries()[0]["request"])
    with pytest.raises(ValueError, match=field):
        request.replace(**{field: value})
    payload = request.to_dict()
    payload[field] = value
    with pytest.raises(ValueError, match=field):
        SearchRequest.from_dict(payload)


@pytest.mark.parametrize(
    "field", [field for field, _ in UNKEEPABLE_COUNTS[:5]] + ["seed"]
)
def test_integral_float_counts_load_as_ints_with_the_int_fingerprint(field):
    request = SearchRequest.from_dict(golden_entries()[0]["request"])
    value = getattr(request, field) or 1  # num_iterations may be 0
    request = request.replace(**{field: value})
    payload = request.to_dict()
    payload[field] = float(value)
    loaded = SearchRequest.from_dict(payload)
    assert type(getattr(loaded, field)) is int
    assert getattr(loaded, field) == value
    assert loaded.fingerprint() == request.fingerprint()
    built = request.replace(**{field: float(value)})
    assert type(getattr(built, field)) is int
    assert built.fingerprint() == request.fingerprint()


@pytest.mark.parametrize("seed", [2.5, True, "2"])
def test_non_integral_seeds_are_rejected_when_built_and_loaded(seed):
    """A seed of ``2.5`` used to load as seed 2, under seed 2's fingerprint."""
    request = SearchRequest.from_dict(golden_entries()[0]["request"])
    with pytest.raises(ValueError, match="seed"):
        request.replace(seed=seed)
    payload = request.to_dict()
    payload["seed"] = seed
    with pytest.raises(ValueError, match="seed"):
        SearchRequest.from_dict(payload)
    payload["seed"] = None
    assert SearchRequest.from_dict(payload).seed is None


def test_profiling_minimum_is_the_profilers():
    request = SearchRequest.from_dict(golden_entries()[0]["request"])
    assert request.replace(
        predictor_samples_per_type=MIN_SAMPLES_PER_TYPE
    ).predictor_samples_per_type == MIN_SAMPLES_PER_TYPE
    with pytest.raises(ValueError, match="predictor_samples_per_type"):
        request.replace(predictor_samples_per_type=MIN_SAMPLES_PER_TYPE - 1)


def test_unknown_request_fields_are_rejected_and_named():
    """A typo'd key used to load silently, so ``repro run --request`` ran
    ``num_initial=10, seed=0`` for a file asking for 30 and 7."""
    payload = {"num_initals": 30, "sead": 7}
    with pytest.raises(
        ValueError, match=r"unknown search request fields \['num_initals', 'sead'\]"
    ):
        SearchRequest.from_dict(payload)
    payload = dict(SearchRequest(seed=7).to_dict(), num_initals=30)
    with pytest.raises(ValueError, match="num_initals"):
        SearchRequest.from_dict(payload)
    # every key the library writes loads, schema_version included
    assert SearchRequest.from_dict(SearchRequest(seed=7).to_dict()).seed == 7


def test_predictor_training_defaults_are_the_requests():
    """``train_for_device`` and ``LayerProfiler`` defaulted to 300 samples
    per family while every request trained on 200."""
    samples = SearchRequest.predictor_samples_per_type
    noise = SearchRequest.predictor_noise_std
    assert (samples, noise) == (DEFAULT_SAMPLES_PER_TYPE, DEFAULT_PROFILING_NOISE_STD)
    for callable_, noise_name, samples_name in (
        (EvaluationEngine.predictor_for, "noise_std", "samples_per_type"),
        (LayerPerformancePredictor.train_for_device, "noise_std", "samples_per_type"),
        (LayerProfiler.__init__, None, "samples_per_type"),
    ):
        parameters = inspect.signature(callable_).parameters
        assert parameters[samples_name].default == samples
        if noise_name:
            assert parameters[noise_name].default == noise
