"""Tests for repro.utils.blas: the scoped OpenBLAS thread count.

Two contracts: the helper sets, and then restores, the count of every
OpenBLAS the process loaded (a no-op where it finds none), and a search's
results do not depend on that count.
"""

import json

import pytest

from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchRequest
from repro.api.session import build_context, execute_strategy, run_search
from repro.utils import blas
from repro.utils.blas import blas_threads


def _counts():
    return [get() for get, _ in blas._openblas_controls()]


@pytest.fixture
def openblas():
    counts = _counts()
    if not counts:
        pytest.skip("no OpenBLAS loaded in this process")
    return counts


def test_scope_sets_and_restores_every_library(openblas):
    with blas_threads(1):
        assert _counts() == [1] * len(openblas)
        with blas_threads(2):
            assert _counts() == [2] * len(openblas)
        assert _counts() == [1] * len(openblas)
    assert _counts() == openblas


def test_scope_restores_when_the_body_raises(openblas):
    with blas_threads(2):
        with pytest.raises(RuntimeError, match="boom"):
            with blas_threads(1):
                raise RuntimeError("boom")
        assert _counts() == [2] * len(openblas)
    assert _counts() == openblas


def test_run_search_runs_at_one_thread_and_restores_the_count(openblas):
    seen = []
    with blas_threads(2):
        run_search(
            strategy="lens",
            num_initial=3,
            num_iterations=2,
            candidate_pool_size=16,
            predictor_samples_per_type=40,
            seed=0,
            engine=EvaluationEngine(),
            progress_callback=lambda index, evaluation: seen.append(_counts()),
        )
        assert _counts() == [2] * len(openblas)
    assert seen and all(counts == [1] * len(openblas) for counts in seen)


def test_missing_memory_map_makes_the_helper_a_no_op(openblas, monkeypatch, tmp_path):
    controls = blas._openblas_controls()
    with blas_threads(2):
        monkeypatch.setattr(blas, "MAPS_PATH", str(tmp_path / "no-such-maps"))
        assert blas._openblas_controls() == []
        with blas_threads(1):
            assert [get() for get, _ in controls] == [2] * len(openblas)


def test_unopenable_and_aliased_mappings_are_skipped(openblas, monkeypatch, tmp_path):
    with open(blas.MAPS_PATH, encoding="utf-8") as maps:
        lines = [line for line in maps if "openblas" in line]
    real = lines[0].split(maxsplit=5)[-1].rstrip()
    alias = tmp_path / "libopenblas-alias.so"
    alias.symlink_to(real)
    fake = tmp_path / "maps"
    fake.write_text(
        "".join(lines)
        + f"7f00-7f01 r--p 00000000 00:00 0 {alias}\n"
        + f"7f01-7f02 r--p 00000000 00:00 0 {tmp_path}/libopenblas.so (deleted)\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(blas, "MAPS_PATH", str(fake))
    assert len(blas._openblas_controls()) == len(openblas)


def test_rejects_a_count_below_one():
    with pytest.raises(ValueError, match="count must be >= 1"):
        with blas_threads(0):
            pass


@pytest.mark.parametrize(
    "fields",
    [
        dict(search_space="lens-vgg", acquisition="ts", batch_size=1),
        dict(search_space="resnet-v1", acquisition="epdc", batch_size=4),
    ],
    ids=["lens-vgg-ts", "resnet-v1-epdc-q4"],
)
def test_results_do_not_depend_on_the_thread_count(fields):
    request = SearchRequest(
        strategy="lens",
        num_initial=8,
        num_iterations=16,
        candidate_pool_size=128,
        predictor_samples_per_type=40,
        seed=5,
        **fields,
    )
    runs = []
    for threads in (1, 2):
        with blas_threads(threads):
            context = build_context(request, engine=EvaluationEngine())
            result = execute_strategy(context)
        runs.append(json.dumps([c.to_dict() for c in result], sort_keys=True))
    assert runs[0] == runs[1]
