"""Tests for crash-safe checkpoint/resume: snapshots, replay, bitwise parity.

The fault-injection/ladder/quarantine half of the resilience layer is
covered in ``tests/test_resilience.py``; this module pins the checkpoint
format, the recorder's flush/drift-guard behaviour, the replay-grouping
helper, and the end-to-end guarantee: a search killed mid-run and resumed
with a *fresh* engine produces a bitwise-identical outcome.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchRequest
from repro.api.session import _replay_group_sizes, run_search
from repro.campaign.manifest import (
    CampaignManifest,
    backoff_jitter_factor,
    resolve_backoff,
)
from repro.campaign.store import RunStore
from repro.campaign.supervisor import CampaignPolicy
from repro.campaign.worker import run_worker
from repro.resilience import faults
from repro.resilience.checkpoint import (
    CHECKPOINT_FILENAME,
    CheckpointRecord,
    CheckpointRecorder,
    SearchCheckpoint,
)
from repro.resilience.faults import FaultInjector, KilledByFault
from repro.resilience.health import HealthLog

FAST = dict(
    strategy="lens",
    scenario="wifi-3mbps/jetson-tx2-gpu",
    num_initial=3,
    num_iterations=4,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
    seed=3,
)


def _comparable(outcome):
    """Outcome dict minus run-local noise (timing, cache stats, health)."""
    data = outcome.to_dict()
    for key in ("wall_time_s", "engine_stats", "health"):
        data.pop(key, None)
    return data


def _run(small_search_space, **kwargs):
    """A FAST search on a fresh engine (no cross-run cache warm-up)."""
    params = dict(FAST)
    params.update(kwargs)
    return run_search(
        search_space=small_search_space, engine=EvaluationEngine(), **params
    )


# ---------------------------------------------------------------- snapshot format


class TestSearchCheckpoint:
    def _checkpoint(self):
        records = [
            CheckpointRecord(
                genotype=(1, 2, 3),
                objectives=(5.0, 0.01, 2.0),
                index=i,
                metadata={"architecture": f"arch-{i}"},
            )
            for i in range(3)
        ]
        return SearchCheckpoint(
            fingerprint="abc123", records=records, rng_state={"state": 7}
        )

    def test_round_trip(self):
        checkpoint = self._checkpoint()
        restored = SearchCheckpoint.from_dict(checkpoint.to_dict())
        assert restored == checkpoint
        assert restored.num_evaluations == 3
        assert restored.genotypes() == [(1, 2, 3)] * 3

    def test_future_schema_rejected(self):
        data = self._checkpoint().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            SearchCheckpoint.from_dict(data)

    def test_save_load_round_trip(self, tmp_path):
        checkpoint = self._checkpoint()
        cell_dir = SearchCheckpoint.cell_dir(tmp_path, checkpoint.fingerprint)
        path = checkpoint.save(cell_dir)
        assert path == cell_dir / CHECKPOINT_FILENAME
        assert SearchCheckpoint.load(cell_dir) == checkpoint

    def test_snapshot_with_recorded_features_still_loads(self, tmp_path):
        """Records once stored each candidate's features; loading ignores them."""
        legacy = {
            "schema_version": 1,
            "fingerprint": "abc123",
            "complete": False,
            "num_evaluations": 3,
            "rng_state": {"state": 7},
            "records": [
                {
                    "genotype": [1, 2, 3],
                    "features": [0.1, 0.2],
                    "objectives": [5.0, 0.01, 2.0],
                    "index": i,
                    "metadata": {"architecture": f"arch-{i}"},
                }
                for i in range(3)
            ],
        }
        cell_dir = tmp_path / "abc123"
        cell_dir.mkdir()
        (cell_dir / CHECKPOINT_FILENAME).write_text(json.dumps(legacy))
        health = HealthLog()
        assert SearchCheckpoint.load(cell_dir, health=health) == self._checkpoint()
        assert len(health) == 0

    def test_load_missing_returns_none(self, tmp_path):
        assert SearchCheckpoint.load(tmp_path / "nope") is None

    def test_load_corrupt_returns_none_and_records(self, tmp_path):
        cell_dir = tmp_path / "cell"
        cell_dir.mkdir()
        (cell_dir / CHECKPOINT_FILENAME).write_text("{torn write")
        health = HealthLog()
        assert SearchCheckpoint.load(cell_dir, health=health) is None
        assert health.count("H_CHECKPOINT_CORRUPT") == 1

    def test_discard_is_idempotent(self, tmp_path):
        checkpoint = self._checkpoint()
        cell_dir = SearchCheckpoint.cell_dir(tmp_path, "abc123")
        checkpoint.save(cell_dir)
        SearchCheckpoint.discard(tmp_path, "abc123")
        assert not cell_dir.exists()
        SearchCheckpoint.discard(tmp_path, "abc123")  # second call: no error


# ---------------------------------------------------------------- recorder


def _fake_evaluation(genotype, objectives):
    evaluation = SimpleNamespace(
        genotype=np.asarray(genotype, dtype=int),
        architecture_name="fake",
    )
    evaluation.metrics = dict(
        zip(("error_percent", "latency_s", "energy_j"), objectives)
    )
    return evaluation


def _recorder(cell_dir, **kwargs):
    return CheckpointRecorder(
        cell_dir,
        fingerprint="fp",
        objectives_fn=lambda ev: list(ev.metrics.values()),
        **kwargs,
    )


class TestCheckpointRecorder:
    def test_periodic_flush_and_finalize(self, tmp_path):
        health = HealthLog()
        recorder = _recorder(tmp_path / "fp", every=2, health=health)
        for i in range(5):
            recorder.on_evaluation(i, _fake_evaluation([i, i], [1.0, 2.0, 3.0]))
        # flushed at 2 and 4 evaluations, not yet at 5
        assert health.count("H_CHECKPOINT_SAVED") == 2
        partial = SearchCheckpoint.load(tmp_path / "fp")
        assert partial.num_evaluations == 4 and not partial.complete
        recorder.finalize()
        final = SearchCheckpoint.load(tmp_path / "fp")
        assert final.num_evaluations == 5 and final.complete
        assert [r.index for r in final.records] == list(range(5))

    def test_every_zero_flushes_only_on_finalize(self, tmp_path):
        recorder = _recorder(tmp_path / "fp", every=0)
        for i in range(7):
            recorder.on_evaluation(i, _fake_evaluation([i], [1.0, 2.0, 3.0]))
        assert SearchCheckpoint.load(tmp_path / "fp") is None
        recorder.finalize()
        assert SearchCheckpoint.load(tmp_path / "fp").num_evaluations == 7

    def test_negative_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _recorder(tmp_path / "fp", every=-1)

    def test_bound_rng_state_snapshotted(self, tmp_path):
        recorder = _recorder(tmp_path / "fp", every=1)
        rng = np.random.default_rng(0)
        recorder.bind_rng(rng)
        recorder.on_evaluation(0, _fake_evaluation([1], [1.0, 2.0, 3.0]))
        snapshot = SearchCheckpoint.load(tmp_path / "fp")
        assert snapshot.rng_state == json.loads(
            json.dumps(rng.bit_generator.state)
        )

    def test_drift_guard_fires_once_on_divergence(self, tmp_path):
        recorded = SearchCheckpoint(
            fingerprint="fp",
            records=[
                CheckpointRecord(
                    genotype=(9, 9),
                    objectives=(9.0, 9.0, 9.0),
                    index=i,
                )
                for i in range(2)
            ],
        )
        health = HealthLog()
        recorder = _recorder(
            tmp_path / "fp", every=0, health=health, resume_from=recorded
        )
        for i in range(2):  # both replayed evaluations diverge; reported once
            recorder.on_evaluation(i, _fake_evaluation([i, i], [1.0, 2.0, 3.0]))
        assert health.count("H_RESUME_DRIFT") == 1

    def test_matching_replay_reports_no_drift(self, tmp_path):
        evaluations = [
            _fake_evaluation([i, i], [1.0 + i, 2.0, 3.0]) for i in range(3)
        ]
        health = HealthLog()
        first = _recorder(tmp_path / "fp", every=0, health=health)
        for i, evaluation in enumerate(evaluations):
            first.on_evaluation(i, evaluation)
        first.finalize()
        recorded = SearchCheckpoint.load(tmp_path / "fp")
        replayer = _recorder(
            tmp_path / "fp", every=0, health=health, resume_from=recorded
        )
        for i, evaluation in enumerate(evaluations):
            replayer.on_evaluation(i, evaluation)
        assert health.count("H_RESUME_DRIFT") == 0


# ---------------------------------------------------------------- replay grouping


class TestReplayGroupSizes:
    def _request(self, **kwargs):
        params = dict(FAST)
        params.update(kwargs)
        return SearchRequest(**params)

    def test_mobo_full_history(self):
        # 3 initial + 4 iterations at batch_size=1 -> [3, 1, 1, 1, 1]
        request = self._request()
        assert _replay_group_sizes(request, 7) == [3, 1, 1, 1, 1]

    def test_mobo_truncates_to_group_boundary(self):
        request = self._request()
        assert _replay_group_sizes(request, 5) == [3, 1, 1]
        assert _replay_group_sizes(request, 3) == [3]

    def test_mobo_fewer_than_initial_replays_nothing(self):
        assert _replay_group_sizes(self._request(), 2) == []
        assert _replay_group_sizes(self._request(), 0) == []

    def test_mobo_batched_steps(self):
        request = self._request(num_initial=4, num_iterations=5, batch_size=2)
        # groups: init 4, then q = min(2, remaining) -> [4, 2, 2, 1]
        assert _replay_group_sizes(request, 9) == [4, 2, 2, 1]
        assert _replay_group_sizes(request, 7) == [4, 2]  # 7 < 4+2+2

    def test_random_chunks(self):
        request = self._request(
            strategy="random", num_initial=60, num_iterations=80
        )
        # budget 140 in chunks of 64 -> [64, 64, 12]
        assert _replay_group_sizes(request, 140) == [64, 64, 12]
        assert _replay_group_sizes(request, 100) == [64]
        assert _replay_group_sizes(request, 63) == []

    def test_group_sizes_never_exceed_records(self):
        for records in range(0, 8):
            sizes = _replay_group_sizes(self._request(), records)
            assert sum(sizes) <= records


# ---------------------------------------------------------------- end to end


class TestKillAndResume:
    def test_interrupted_search_resumes_bitwise_identical(
        self, small_search_space, tmp_path
    ):
        golden = _run(small_search_space)

        # Kill the checkpointed run after 5 of its 7 evaluations (raise-mode
        # kill: an in-process stand-in for SIGKILL that still evades
        # `except Exception` recovery).
        with faults.inject(
            FaultInjector(kill_at_evaluation=5, kill_mode="raise")
        ):
            with pytest.raises(KilledByFault):
                _run(
                    small_search_space,
                    checkpoint_dir=tmp_path,
                    checkpoint_every=1,
                )
        fingerprint = SearchRequest(**FAST).fingerprint()
        partial = SearchCheckpoint.load(tmp_path / fingerprint)
        assert partial is not None and not partial.complete
        assert partial.num_evaluations == 5

        resumed = _run(
            small_search_space, checkpoint_dir=tmp_path, checkpoint_every=1
        )
        assert resumed.health.get("H_RESUMED", 0) == 1
        assert resumed.health.get("H_RESUME_DRIFT", 0) == 0
        assert _comparable(resumed) == _comparable(golden)
        # the finalized snapshot marks the cell complete
        assert SearchCheckpoint.load(tmp_path / fingerprint).complete

    def test_fresh_run_ignores_existing_checkpoint(
        self, small_search_space, tmp_path
    ):
        first = _run(
            small_search_space, checkpoint_dir=tmp_path, checkpoint_every=1
        )
        second = _run(
            small_search_space,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            resume=False,
        )
        assert second.health.get("H_RESUMED", 0) == 0
        assert _comparable(second) == _comparable(first)

    def test_uncheckpointed_run_matches_checkpointed(
        self, small_search_space, tmp_path
    ):
        # Checkpointing must be observation-only: attaching the recorder
        # cannot perturb the search.
        plain = _run(small_search_space)
        recorded = _run(
            small_search_space, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        assert _comparable(recorded) == _comparable(plain)

    def test_corrupt_checkpoint_restarts_from_zero(
        self, small_search_space, tmp_path
    ):
        golden = _run(small_search_space)
        fingerprint = SearchRequest(**FAST).fingerprint()
        cell_dir = tmp_path / fingerprint
        cell_dir.mkdir(parents=True)
        (cell_dir / CHECKPOINT_FILENAME).write_text("not json at all")
        outcome = _run(
            small_search_space, checkpoint_dir=tmp_path, checkpoint_every=1
        )
        assert outcome.health.get("H_CHECKPOINT_CORRUPT", 0) == 1
        assert outcome.health.get("H_RESUMED", 0) == 0
        assert _comparable(outcome) == _comparable(golden)


# ---------------------------------------------------------------- worker wiring


class TestWorkerCheckpointing:
    def test_checkpointed_cell_stored_and_checkpoint_discarded(self, tmp_path):
        request = SearchRequest(search_space="resnet-v1", **FAST)
        RunStore(tmp_path)
        manifest = CampaignManifest.from_requests(
            [request],
            policy=CampaignPolicy(ttl_s=5.0, poll_s=0.05, checkpoint_every=2),
        )
        manifest.write(tmp_path)
        report = run_worker(
            tmp_path, worker_id="t", engine=EvaluationEngine(), max_cycles=5
        )
        assert report.executed == 1
        store = RunStore(tmp_path)
        assert len(store) == 1
        outcome = store.get(request.fingerprint())
        assert outcome.health.get("H_CHECKPOINT_SAVED", 0) >= 1
        # the cell's checkpoint directory is removed once the outcome lands
        assert list((tmp_path / "checkpoints").glob("*/*")) == []

    def test_manifest_checkpoint_every_round_trips(self, tmp_path):
        request = SearchRequest(search_space="resnet-v1", **FAST)
        manifest = CampaignManifest.from_requests(
            [request], policy=CampaignPolicy(checkpoint_every=7)
        )
        manifest.write(tmp_path)
        assert CampaignManifest.load(tmp_path).policy.checkpoint_every == 7
        with pytest.raises(ValueError):
            CampaignPolicy(checkpoint_every=-1)


# ---------------------------------------------------------------- backoff jitter


class TestBackoffJitter:
    def test_factor_is_deterministic_and_bounded(self):
        for fingerprint in ("aaa", "bbb", "ccc"):
            for attempt in range(1, 6):
                factor = backoff_jitter_factor(fingerprint, attempt)
                assert factor == backoff_jitter_factor(fingerprint, attempt)
                assert 0.5 <= factor < 1.5

    def test_factor_decorrelates_cells_and_attempts(self):
        factors = {
            backoff_jitter_factor(fingerprint, attempt)
            for fingerprint in ("aaa", "bbb")
            for attempt in (1, 2, 3)
        }
        assert len(factors) == 6  # all distinct: no lockstep retries

    def test_resolve_backoff_legacy_shape_is_exact(self):
        # the positional (pre-jitter) call keeps its original semantics
        assert resolve_backoff(100.0, 1, 2.0) == 102.0
        assert resolve_backoff(100.0, 3, 2.0) == 108.0

    def test_resolve_backoff_with_fingerprint_scales_by_factor(self):
        ready = resolve_backoff(100.0, 2, 2.0, fingerprint="cell-a")
        expected = 100.0 + 4.0 * backoff_jitter_factor("cell-a", 2)
        assert ready == pytest.approx(expected)
        assert 102.0 <= ready < 106.0  # delay in [0.5, 1.5) x base window
