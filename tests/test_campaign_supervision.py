"""Campaign supervision: deadlines, dead-lettering, circuit breaking, fsck."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.api.envelopes import SearchRequest, request_fingerprint
from repro.api.session import run_search
from repro.campaign import (
    CampaignPolicy,
    CampaignSupervisor,
    CellTimeout,
    CircuitBreaker,
    CircuitOpenError,
    DeadLetterQueue,
    RunStore,
    StoreError,
    deadline,
    fsck_store,
    run_campaign,
    run_worker,
)
from repro.campaign.errors import (
    AuditLog,
    ErrorEnvelope,
    classify_error,
    summarize_audit,
)
from repro.campaign.manifest import CampaignManifest, resolve_backoff
from repro.campaign.store import record_crc, verify_record_crc
from repro.campaign.supervisor import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    DEAD_LETTER_FILENAME,
)
from repro.cli import main as cli_main
from repro.resilience import faults
from repro.resilience.faults import FaultInjector

#: Budgets small enough that one real search is milliseconds.
FAST = dict(
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)


def _request(**overrides) -> SearchRequest:
    fields = dict(FAST, scenario="wifi-3mbps/jetson-tx2-gpu", strategy="random", seed=0)
    fields.update(overrides)
    return SearchRequest(**fields)


def _envelope(code="E_EXECUTION", **overrides) -> ErrorEnvelope:
    fields = dict(code=code, message="boom", fingerprint="cell-1", time_s=1.0)
    fields.update(overrides)
    return ErrorEnvelope(**fields)


def _bury(store_dir, request) -> str:
    """Fail a cell for good as a worker does: a final audit record flagged
    ``dead_letter``, then a burial in the dead-letter queue."""
    fingerprint = request_fingerprint(request)
    envelope = ErrorEnvelope(
        code="E_TIMEOUT",
        message="cell exceeded its 1s deadline",
        retryable=True,
        attempt=2,
        final=True,
        fingerprint=fingerprint,
        worker="w0",
        time_s=time.time(),
        context={
            "scenario": request.scenario_name,
            "search_space": request.search_space,
            "dead_letter": True,
        },
    )
    RunStore(store_dir).record_error(envelope)
    DeadLetterQueue(store_dir).bury(
        fingerprint, reason="retry budget exhausted (2/2)", envelopes=[envelope]
    )
    return fingerprint


# ---------------------------------------------------------------------- policy


class TestCampaignPolicy:
    def test_defaults_supervise_nothing(self):
        policy = CampaignPolicy()
        assert policy.cell_timeout_s == 0.0
        assert policy.circuit_threshold == 0.0
        assert not policy.circuit_enabled

    @pytest.mark.parametrize(
        "changes",
        [
            dict(ttl_s=0.0),
            dict(poll_s=-1.0),
            dict(max_attempts=0),
            dict(backoff_base_s=-0.1),
            dict(max_backoff_s=0.0),
            dict(cell_timeout_s=-1.0),
            dict(on_error="explode"),
            dict(checkpoint_every=-1),
            dict(circuit_window=0),
            dict(circuit_threshold=1.5),
            dict(circuit_threshold=-0.1),
            dict(circuit_cooldown_s=-1.0),
            dict(circuit_probes=0),
        ],
    )
    def test_invalid_fields_rejected(self, changes):
        with pytest.raises(ValueError):
            CampaignPolicy(**changes)

    def test_round_trip_and_replace(self):
        policy = CampaignPolicy(
            cell_timeout_s=12.0, circuit_threshold=0.5, max_backoff_s=7.0
        )
        assert CampaignPolicy.from_dict(policy.to_dict()) == policy
        assert policy.circuit_enabled
        assert policy.replace(circuit_threshold=0.0).circuit_enabled is False

    def test_from_dict_coerces_and_fills_defaults(self):
        policy = CampaignPolicy.from_dict({"ttl_s": "12", "max_attempts": "5"})
        assert policy.ttl_s == 12.0
        assert policy.max_attempts == 5
        assert policy.max_backoff_s == 60.0  # missing keys take defaults


class TestManifestPolicy:
    def test_v2_round_trip_keeps_supervision_fields(self, tmp_path):
        policy = CampaignPolicy(cell_timeout_s=9.0, circuit_threshold=0.25)
        manifest = CampaignManifest.from_requests([_request()], policy=policy)
        manifest.write(tmp_path)
        loaded = CampaignManifest.load(tmp_path)
        assert loaded.policy == policy
        assert loaded.policy.cell_timeout_s == 9.0
        assert loaded.policy.max_backoff_s == 60.0

    def test_v2_payload_mirrors_legacy_flat_keys(self):
        """v2 payloads carry the policy nested only, without the v1 flat
        keys (v1 manifests still load, see the next test)."""
        manifest = CampaignManifest.from_requests(
            [_request()], policy=CampaignPolicy(ttl_s=11.0, max_attempts=4)
        )
        payload = manifest.to_dict()
        assert payload["schema_version"] == 2
        assert payload["policy"]["ttl_s"] == 11.0
        assert payload["policy"]["max_attempts"] == 4
        assert set(payload) == {"schema_version", "cells", "policy", "created_at"}
        assert CampaignManifest.from_dict(payload) == manifest

    def test_v1_flat_manifest_still_loads(self):
        request = _request()
        v1 = {
            "cells": {request_fingerprint(request): request.to_dict()},
            "ttl_s": 17.0,
            "poll_s": 0.25,
            "max_attempts": 2,
            "backoff_base_s": 0.1,
            "on_error": "continue",
            "created_at": 123.0,
        }
        manifest = CampaignManifest.from_dict(v1)
        assert manifest.policy.ttl_s == 17.0
        assert manifest.policy.max_attempts == 2
        assert manifest.policy.on_error == "continue"
        # supervision fields take their off-by-default values
        assert manifest.policy.cell_timeout_s == 0.0
        assert not manifest.policy.circuit_enabled


class TestResolveBackoff:
    def test_legacy_shape_is_exact_and_uncapped(self):
        assert resolve_backoff(100.0, 1, 0.5) == 100.5
        assert resolve_backoff(100.0, 3, 0.5) == 102.0
        assert resolve_backoff(0.0, 10, 1.0) == 512.0

    def test_cap_clamps_high_attempts(self):
        assert resolve_backoff(0.0, 10, 1.0, max_backoff_s=5.0) == 5.0
        # below the cap the delay is untouched
        assert resolve_backoff(0.0, 2, 1.0, max_backoff_s=5.0) == 2.0

    def test_cap_applies_after_jitter(self):
        for attempt in range(1, 12):
            ready = resolve_backoff(
                0.0, attempt, 1.0, fingerprint="cell", max_backoff_s=3.0
            )
            assert ready <= 3.0


# ---------------------------------------------------------------------- deadline


class TestDeadline:
    def test_zero_disables_the_watchdog(self):
        with deadline(0):
            time.sleep(0.01)

    def test_main_thread_deadline_interrupts_a_blocking_sleep(self):
        start = time.time()
        with pytest.raises(CellTimeout):
            with deadline(0.2):
                time.sleep(30)
        assert time.time() - start < 5.0

    def test_timer_is_disarmed_after_the_block(self):
        with deadline(0.5):
            pass
        time.sleep(0.7)  # a leaked itimer would fire here and kill pytest

    def test_fallback_path_interrupts_other_threads(self):
        outcome = {}

        def work():
            try:
                with deadline(0.2):
                    finish = time.time() + 30
                    while time.time() < finish:
                        pass
            except CellTimeout:
                outcome["timed_out"] = True

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=20)
        assert outcome.get("timed_out")

    def test_timeout_classifies_as_e_timeout(self):
        assert isinstance(CellTimeout("late"), TimeoutError)
        assert classify_error(CellTimeout("late")) == "E_TIMEOUT"

    def test_circuit_open_error_is_a_runtime_error(self):
        assert issubclass(CircuitOpenError, RuntimeError)


# ---------------------------------------------------------------------- dead letter


class TestDeadLetterQueue:
    def test_bury_readmit_round_trip(self, tmp_path):
        queue = DeadLetterQueue(tmp_path)
        assert not queue.is_dead("cell-1")
        assert queue.readmitted_at("cell-1") is None

        chain = [_envelope(attempt=1), _envelope(attempt=2, final=True)]
        queue.bury("cell-1", reason="retry budget exhausted", envelopes=chain,
                   worker="w1")
        assert queue.is_dead("cell-1")
        assert len(queue) == 1
        assert [e.attempt for e in queue.envelopes("cell-1")] == [1, 2]
        assert queue.summary()["reasons"]["cell-1"] == "retry budget exhausted"

        assert queue.readmit("cell-1") is True
        assert not queue.is_dead("cell-1")
        assert queue.readmitted_at("cell-1") is not None
        assert queue.envelopes("cell-1") == []
        # burial history is append-only, never rewritten
        events = [json.loads(line) for line in
                  (tmp_path / DEAD_LETTER_FILENAME).read_text().splitlines()]
        assert [e["event"] for e in events] == ["bury", "readmit"]

    def test_readmit_of_unburied_cell_is_refused(self, tmp_path):
        queue = DeadLetterQueue(tmp_path)
        assert queue.readmit("never-buried") is False
        queue.bury("cell-1", reason="x")
        queue.readmit("cell-1")
        assert queue.readmit("cell-1") is False  # already re-admitted

    def test_readmit_all_returns_fingerprints(self, tmp_path):
        queue = DeadLetterQueue(tmp_path)
        queue.bury("b", reason="x")
        queue.bury("a", reason="y")
        assert queue.readmit_all() == ["a", "b"]
        assert len(queue) == 0
        assert queue.readmit_all() == []

    def test_second_burial_after_readmission_wins(self, tmp_path):
        queue = DeadLetterQueue(tmp_path)
        queue.bury("cell-1", reason="first life")
        queue.readmit("cell-1")
        queue.bury("cell-1", reason="second life")
        assert queue.is_dead("cell-1")
        assert queue.summary()["reasons"]["cell-1"] == "second life"
        assert queue.readmitted_at("cell-1") is None

    def test_torn_tail_is_ignored(self, tmp_path):
        queue = DeadLetterQueue(tmp_path)
        queue.bury("cell-1", reason="x")
        with (tmp_path / DEAD_LETTER_FILENAME).open("ab") as handle:
            handle.write(b'{"event": "readmit", "fingerprint": "cell-1"')
        assert queue.is_dead("cell-1")  # the half-written readmit never landed


# ---------------------------------------------------------------------- breaker


class TestCircuitBreaker:
    def test_disabled_breaker_never_opens(self):
        breaker = CircuitBreaker(window=2, threshold=0.0)
        for _ in range(10):
            assert breaker.record(False, now=0.0) == CIRCUIT_CLOSED
        assert breaker.allows(now=0.0)

    def test_opens_only_once_the_window_is_full(self):
        breaker = CircuitBreaker(window=3, threshold=1.0, cooldown_s=60.0)
        assert breaker.record(False, now=1.0) == CIRCUIT_CLOSED
        assert breaker.record(False, now=2.0) == CIRCUIT_CLOSED
        assert breaker.record(False, now=3.0) == CIRCUIT_OPEN
        assert breaker.failure_rate() == 1.0
        assert not breaker.allows(now=4.0)  # still cooling down

    def test_successes_keep_the_rate_below_threshold(self):
        breaker = CircuitBreaker(window=4, threshold=0.75, cooldown_s=60.0)
        for now, ok in enumerate([False, True, False, True, False, True]):
            breaker.record(ok, now=float(now))
        assert breaker.state == CIRCUIT_CLOSED  # sliding rate stays at 0.5

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(window=2, threshold=1.0, cooldown_s=5.0, probes=1)
        breaker.record(False, now=0.0)
        breaker.record(False, now=1.0)
        assert breaker.state == CIRCUIT_OPEN
        assert breaker.allows(now=10.0)  # past cooldown: half-opens, one probe
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert not breaker.allows(now=10.1)  # all probe slots out
        assert breaker.record(True, now=11.0) == CIRCUIT_CLOSED
        assert breaker.results == []  # window starts fresh

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(window=2, threshold=1.0, cooldown_s=5.0)
        breaker.record(False, now=0.0)
        breaker.record(False, now=1.0)
        assert breaker.allows(now=10.0)
        assert breaker.record(False, now=11.0) == CIRCUIT_OPEN
        assert breaker.opened_at == 11.0  # cooldown restarts from the probe
        states = [t[2] for t in breaker.transitions]
        assert states == [CIRCUIT_OPEN, CIRCUIT_HALF_OPEN, CIRCUIT_OPEN]

    def test_round_trip_preserves_state(self):
        breaker = CircuitBreaker(window=2, threshold=1.0, cooldown_s=5.0)
        breaker.record(False, now=0.0)
        breaker.record(False, now=1.0)
        clone = CircuitBreaker.from_dict(breaker.to_dict())
        assert clone.state == CIRCUIT_OPEN
        assert clone.opened_at == breaker.opened_at
        assert clone.transitions == breaker.transitions


class TestCampaignSupervisor:
    POLICY = CampaignPolicy(
        circuit_window=2, circuit_threshold=1.0, circuit_cooldown_s=60.0
    )

    def test_state_is_shared_across_instances(self, tmp_path):
        first = CampaignSupervisor(tmp_path, self.POLICY)
        second = CampaignSupervisor(tmp_path, self.POLICY)
        first.record_result(False)
        assert first.record_result(False) == CIRCUIT_OPEN
        assert second.circuit_state() == CIRCUIT_OPEN
        assert not second.circuit_allows()

    def test_release_probe_returns_the_slot(self, tmp_path):
        policy = self.POLICY.replace(circuit_cooldown_s=0.0)
        supervisor = CampaignSupervisor(tmp_path, policy)
        supervisor.record_result(False)
        supervisor.record_result(False)
        assert supervisor.circuit_allows()  # half-opens, takes the only probe
        assert not supervisor.circuit_allows()
        supervisor.release_probe()  # the claim no-opped; hand the slot back
        assert supervisor.circuit_allows()

    def test_disabled_policy_touches_nothing(self, tmp_path):
        supervisor = CampaignSupervisor(tmp_path, CampaignPolicy())
        assert supervisor.record_result(False) == CIRCUIT_CLOSED
        assert supervisor.circuit_allows()
        supervisor.release_probe()
        assert not supervisor.path.exists()
        assert supervisor.summary()["circuit_state"] == "disabled"

    def test_timeout_kills_and_dead_letters_in_summary(self, tmp_path):
        supervisor = CampaignSupervisor(tmp_path, CampaignPolicy())
        supervisor.note_timeout_kill()
        supervisor.note_timeout_kill()
        DeadLetterQueue(tmp_path).bury("cell-1", reason="x")
        summary = supervisor.summary()
        assert summary["timeout_kills"] == 2
        assert summary["dead_lettered"] == 1

    def test_corrupt_state_file_resets_to_fresh(self, tmp_path):
        supervisor = CampaignSupervisor(tmp_path, self.POLICY)
        supervisor.record_result(False)
        supervisor.path.write_text("{ not json", encoding="utf-8")
        assert supervisor.circuit_state() == CIRCUIT_CLOSED
        assert supervisor.circuit_allows()


# ---------------------------------------------------------------------- worker


class TestWorkerSupervision:
    def _manifest(self, request, **policy_changes):
        policy = CampaignPolicy(
            ttl_s=15.0,
            poll_s=0.05,
            max_attempts=2,
            backoff_base_s=0.05,
            max_backoff_s=1.0,
            cell_timeout_s=1.0,
        ).replace(**policy_changes)
        return CampaignManifest.from_requests([request], policy=policy)

    def test_deadline_kill_dead_letter_and_readmission(self, tmp_path):
        store_dir = tmp_path / "store"
        request = _request()
        fingerprint = request_fingerprint(request)
        manifest = self._manifest(request)
        manifest.write(store_dir)

        with faults.inject(FaultInjector(hang_at_evaluation=1, hang_seconds=60)):
            report = run_worker(store_dir, worker_id="wedged", manifest=manifest)

        assert report.timeout_kills == 2  # max_attempts, each killed at 1s
        assert report.dead_lettered == 1
        assert report.executed == 0
        assert report.summary()["timeout_kills"] == 2

        store = RunStore(store_dir)
        assert fingerprint not in store
        records = list(store.iter_audit_records())
        assert [r.code for r in records] == ["E_TIMEOUT", "E_TIMEOUT"]
        assert records[0].retryable and not records[0].final
        assert records[1].final
        assert records[1].context.get("dead_letter") is True

        queue = DeadLetterQueue(store_dir)
        assert queue.is_dead(fingerprint)
        chain = queue.envelopes(fingerprint)
        assert [e.attempt for e in chain] == [1, 2]

        # a scavenger never claims the buried cell
        scavenger = run_worker(store_dir, worker_id="scavenger", manifest=manifest)
        assert scavenger.executed == 0
        assert fingerprint not in RunStore(store_dir)

        # re-admission grants a fresh budget; a healthy worker finishes it
        assert queue.readmit(fingerprint) is True
        finisher = run_worker(store_dir, worker_id="finisher", manifest=manifest)
        assert finisher.executed == 1
        assert finisher.timeout_kills == 0
        assert fingerprint in RunStore(store_dir)

    def test_supervision_summary_rides_on_the_store(self, tmp_path):
        store_dir = tmp_path / "store"
        request = _request()
        manifest = self._manifest(request)
        manifest.write(store_dir)
        with faults.inject(FaultInjector(hang_at_evaluation=1, hang_seconds=60)):
            run_worker(store_dir, worker_id="wedged", manifest=manifest)
        summary = CampaignSupervisor(store_dir, manifest.policy).summary()
        assert summary["timeout_kills"] == 2
        assert summary["dead_lettered"] == 1
        assert summary["circuit_state"] == "disabled"

        audit = summarize_audit(RunStore(store_dir).iter_audit_records())
        assert audit["by_code"] == {"E_TIMEOUT": 2}
        assert audit["dead_lettered"] == [request_fingerprint(request)]


class TestReadmission:
    """A re-admitted dead-letter cell starts a new life: the failures of its
    previous one resolve it for nobody."""

    def test_final_failure_restarts_at_readmission(self, tmp_path):
        from repro.campaign.worker import final_failure

        request = _request()
        store = RunStore(tmp_path)
        queue = DeadLetterQueue(tmp_path)
        fingerprint = request_fingerprint(request)
        assert final_failure(store, fingerprint, request, queue) is None

        _bury(tmp_path, request)
        (buried,) = store.audit_records()
        assert final_failure(store, fingerprint, request, queue) == buried

        queue.readmit(fingerprint)
        assert final_failure(store, fingerprint, request, queue) is None
        retry = buried.replace(attempt=1, final=False, time_s=time.time() + 1.0)
        store.record_error(retry)
        assert final_failure(store, fingerprint, request, queue) is None
        failed = retry.replace(final=True, time_s=retry.time_s + 1.0)
        store.record_error(failed)
        assert final_failure(store, fingerprint, request, queue) == failed

        # a burial without an audit record still resolves the cell
        other = _request(seed=1)
        queue.bury(request_fingerprint(other), reason="poison")
        envelope = final_failure(store, request_fingerprint(other), other, queue)
        assert envelope.code == "E_POISON" and envelope.final

    def test_pull_worker_campaign_stores_a_readmitted_cell(self, tmp_path):
        store_dir = tmp_path / "store"
        request = _request()
        fingerprint = _bury(store_dir, request)
        assert DeadLetterQueue(store_dir).readmit(fingerprint)
        result = run_campaign(
            [request],
            store_dir,
            executor="pull-worker",
            policy=CampaignPolicy(ttl_s=15.0, poll_s=0.05),
        )
        assert result.failed == ()
        assert result.executed == (fingerprint,)
        assert RunStore(store_dir).fingerprints() == [fingerprint]


# ---------------------------------------------------------------------- integrity


def _synthetic_line(fingerprint, crc=True, scenario="s/d"):
    record = {
        "fingerprint": fingerprint,
        "outcome": {
            "request": {
                "scenario": scenario,
                "strategy": "x",
                "search_space": "sp",
                "seed": 0,
            },
            "scenario": {"name": scenario},
            "candidates": [],
            "wall_time_s": 0.0,
        },
    }
    if crc:
        record["crc32"] = record_crc(record)
    return (json.dumps(record) + "\n").encode("utf-8")


def _flip_crc_digit(data: bytes) -> bytes:
    """Corrupt the last digit of the first crc32 value in ``data``."""
    match = re.search(rb'"crc32": ?(\d+)', data)
    assert match, "no crc32 field to corrupt"
    last = match.end(1) - 1
    digit = data[last : last + 1]
    flipped = b"1" if digit != b"1" else b"2"
    return data[:last] + flipped + data[last + 1 :]


class TestStoreIntegrity:
    def test_new_records_carry_a_verifying_crc(self, tmp_path):
        store = RunStore(tmp_path / "flat")
        store.append(run_search(_request()))
        raw = next((tmp_path / "flat" / "shards").glob("*.jsonl")).read_bytes()
        record = json.loads(raw.decode("utf-8"))
        assert verify_record_crc(record)
        assert record["crc32"] == record_crc(record)

    def test_sharded_records_carry_a_verifying_crc(self, tmp_path):
        store = RunStore(tmp_path / "sharded")
        store.append(run_search(_request()))
        shard = next(iter((tmp_path / "sharded" / "shards").glob("*.jsonl")))
        record = json.loads(shard.read_bytes().decode("utf-8"))
        assert verify_record_crc(record)

    def test_crc_is_independent_of_key_order(self):
        record = json.loads(_synthetic_line("f1").decode("utf-8"))
        reordered = dict(reversed(list(record.items())))
        assert verify_record_crc(reordered)

    def test_legacy_records_without_crc_still_read(self, tmp_path):
        directory = tmp_path / "flat"
        directory.mkdir()
        (directory / "runs.jsonl").write_bytes(
            _synthetic_line("old", crc=False) + _synthetic_line("new")
        )
        store = RunStore(directory)
        assert store.fingerprints() == ["old", "new"]
        report = fsck_store(directory)
        assert report["legacy"] == 1
        assert report["intact"] == 1
        assert report["clean"]

    def test_flat_store_refuses_to_serve_rotten_records(self, tmp_path):
        directory = tmp_path / "flat"
        directory.mkdir()
        runs = directory / "runs.jsonl"
        runs.write_bytes(_synthetic_line("f1") + _synthetic_line("f2"))
        assert len(RunStore(directory)) == 2
        runs.write_bytes(_flip_crc_digit(runs.read_bytes()))
        reopened = RunStore(directory)
        assert reopened.fingerprints() == ["f2"]
        assert reopened.summary()["crc_mismatches"] == 1

    def test_sharded_store_skips_and_counts_rotten_records(self, tmp_path):
        store = RunStore(tmp_path / "sharded")
        fingerprint = store.append(run_search(_request()))
        shard = next(iter((tmp_path / "sharded" / "shards").glob("*.jsonl")))
        shard.write_bytes(_flip_crc_digit(shard.read_bytes()))
        reopened = RunStore(tmp_path / "sharded")
        assert fingerprint not in reopened
        assert reopened.summary()["crc_mismatches"] == 1

    def test_fsck_classifies_every_damage_mode(self, tmp_path):
        directory = tmp_path / "flat"
        directory.mkdir()
        intact = _synthetic_line("ok")
        legacy = _synthetic_line("old", crc=False)
        rotten = _flip_crc_digit(_synthetic_line("rot"))
        corrupt = b"not json at all\n"
        torn = b'{"fingerprint": "torn'
        (directory / "runs.jsonl").write_bytes(
            intact + legacy + rotten + corrupt + torn
        )
        report = fsck_store(directory)
        assert report["intact"] == 1
        assert report["legacy"] == 1
        assert report["crc_mismatch"] == 1
        assert report["corrupt"] == 1
        assert report["torn_bytes"] == len(torn)
        assert not report["clean"]
        assert not report["repaired"]
        assert "quarantine_dir" not in report

    def test_fsck_repair_quarantines_and_preserves_good_bytes(self, tmp_path):
        directory = tmp_path / "flat"
        directory.mkdir()
        intact = _synthetic_line("ok")
        legacy = _synthetic_line("old", crc=False)
        rotten = _flip_crc_digit(_synthetic_line("rot"))
        torn = b'{"fingerprint": "torn'
        (directory / "runs.jsonl").write_bytes(intact + legacy + rotten + torn)

        report = fsck_store(directory, repair=True)
        assert report["repaired"]
        assert report["quarantined_lines"] == 2
        sidecar = directory / "quarantine" / "runs.jsonl"
        assert sidecar.exists()
        assert rotten in sidecar.read_bytes()
        # intact and legacy lines survive byte-identically
        assert (directory / "runs.jsonl").read_bytes() == intact + legacy
        assert RunStore(directory).fingerprints() == ["ok", "old"]

        after = fsck_store(directory)
        assert after["clean"]
        assert not after["repaired"]

    def test_fsck_repair_on_a_clean_store_is_a_noop(self, tmp_path):
        directory = tmp_path / "flat"
        directory.mkdir()
        payload = _synthetic_line("ok")
        (directory / "runs.jsonl").write_bytes(payload)
        report = fsck_store(directory, repair=True)
        assert report["clean"]
        assert not report["repaired"]
        assert not (directory / "quarantine").exists()
        assert (directory / "runs.jsonl").read_bytes() == payload


# ---------------------------------------------------------------------- audit


class TestAuditStreaming:
    def test_iter_records_streams_lazily(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        for attempt in (1, 2, 3):
            log.append(_envelope(attempt=attempt))
        stream = log.iter_records()
        assert next(stream).attempt == 1  # a generator, not a list
        assert [r.attempt for r in stream] == [2, 3]
        assert [r.attempt for r in log.records()] == [1, 2, 3]

    def test_store_audit_streaming_matches_the_list_path(self, tmp_path):
        store = RunStore(tmp_path / "sharded")
        log = store.audit_log("s/d", "sp")
        log.append(_envelope())
        log.append(_envelope(code="E_TIMEOUT", attempt=2))
        streamed = [r.code for r in store.iter_audit_records()]
        assert streamed == [r.code for r in store.audit_records()]
        assert streamed == ["E_EXECUTION", "E_TIMEOUT"]

    def test_summarize_audit_accepts_a_generator(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        log.append(_envelope(final=True))
        log.append(_envelope(code="E_TIMEOUT", attempt=2, worker="w1"))
        summary = summarize_audit(log.iter_records())
        assert summary["num_records"] == 2
        assert summary["by_code"] == {"E_EXECUTION": 1, "E_TIMEOUT": 1}
        assert summary["failed_cells"] == ["cell-1"]
        assert summary["retries"] == 1
        assert summary["workers"] == ["w1"]

    def test_lines_that_are_not_envelopes_are_skipped(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        log.append(_envelope(fingerprint="cell-1"))
        with log.path.open("ab") as handle:
            handle.write(b'7\n[1, 2]\nnot json\n{"code": "E_EXECUTION", "context": 5}\n')
        log.append(_envelope(fingerprint="cell-2"))
        assert [r.fingerprint for r in log.iter_records()] == ["cell-1", "cell-2"]

    def test_store_audit_summary_resolves_against_store_and_dead_letters(
        self, tmp_path
    ):
        store_dir = tmp_path / "store"
        request = _request()
        stored = _bury(store_dir, request)
        DeadLetterQueue(store_dir).readmit(stored)
        RunStore(store_dir).append(run_search(request), fingerprint=stored)
        buried = _bury(store_dir, _request(seed=1))
        audit = RunStore(store_dir).audit_summary()
        assert audit["num_records"] == 2
        assert audit["failed_cells"] == [buried]
        assert audit["dead_lettered"] == [buried]
        assert RunStore(store_dir).summary()["audit"] == audit

    def test_store_audit_summary_applies_the_final_failure_rule(self, tmp_path):
        """A re-admitted cell is pending until a record of its new life is
        final, and a burial fails a cell even without an audit record."""
        store_dir = tmp_path / "store"
        fingerprint = _bury(store_dir, _request())
        DeadLetterQueue(store_dir).readmit(fingerprint)
        store = RunStore(store_dir)
        assert store.audit_summary()["failed_cells"] == []
        (buried,) = store.audit_records()
        retry = buried.replace(attempt=1, final=False, time_s=time.time() + 1.0)
        store.record_error(retry)
        assert store.audit_summary()["failed_cells"] == []
        store.record_error(retry.replace(final=True, time_s=retry.time_s + 1.0))
        assert store.audit_summary()["failed_cells"] == [fingerprint]
        DeadLetterQueue(store_dir).bury("unexplained", reason="operator")
        audit = store.audit_summary()
        assert audit["failed_cells"] == sorted([fingerprint, "unexplained"])
        assert audit["dead_lettered"] == ["unexplained"]

    def test_unknown_future_code_is_preserved_not_dropped(self):
        payload = _envelope().to_dict()
        payload["code"] = "E_QUANTUM_DECAY"
        payload["retryable"] = True  # never trust an unknown code to retry
        envelope = ErrorEnvelope.from_dict(payload)
        assert envelope.code == "E_QUANTUM_DECAY"
        assert envelope.retryable is False
        # direct construction stays strict
        with pytest.raises(ValueError, match="unknown error code"):
            ErrorEnvelope(code="E_QUANTUM_DECAY", message="x")
        # and a non-E_* code is rejected even through from_dict
        payload["code"] = "lowercase_junk"
        with pytest.raises(ValueError):
            ErrorEnvelope.from_dict(payload)

    def test_summarize_audit_counts_future_codes_and_dead_letters(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        log.append(_envelope(code="E_TIMEOUT"))
        future = _envelope(final=True).to_dict()
        future["code"] = "E_QUANTUM_DECAY"
        log.path.parent.mkdir(parents=True, exist_ok=True)
        with log.path.open("ab") as handle:
            handle.write((json.dumps(future) + "\n").encode("utf-8"))
        log.append(
            _envelope(
                code="E_POISON",
                fingerprint="cell-2",
                final=True,
                context={"dead_letter": True},
            )
        )
        summary = summarize_audit(log.iter_records())
        assert summary["by_code"] == {
            "E_POISON": 1,
            "E_QUANTUM_DECAY": 1,
            "E_TIMEOUT": 1,
        }
        assert summary["failed_cells"] == ["cell-1", "cell-2"]
        assert summary["dead_lettered"] == ["cell-2"]

    def test_report_renders_dead_letter_count_not_the_list(self, tmp_path):
        store = RunStore(tmp_path / "sharded")
        store.audit_log("s/d", "sp").append(
            _envelope(
                code="E_POISON", final=True, context={"dead_letter": True}
            )
        )
        from repro.analysis.reporting import ExperimentReport

        report = ExperimentReport(title="t")
        report.add_audit_summary(summarize_audit(store.iter_audit_records()))
        markdown = report.render_markdown()
        assert "**1** poison cell(s) dead-lettered" in markdown
        assert "[" not in markdown.split("poison")[0].splitlines()[-1]

    def test_classify_error_edges(self):
        assert classify_error(CellTimeout("late")) == "E_TIMEOUT"
        assert classify_error(StoreError("bad")) == "E_STORE"
        assert classify_error(OSError(28, "no space")) == "E_SYSTEM"
        assert classify_error(MemoryError()) == "E_SYSTEM"
        assert classify_error(KeyError("field")) == "E_VALIDATION"
        assert classify_error(RuntimeError("strategy blew up")) == "E_EXECUTION"
        assert classify_error(KeyboardInterrupt()) == "E_INTERNAL"


# ---------------------------------------------------------------------- CLI


class TestSupervisionCLI:
    def test_campaign_flags_build_the_policy_and_circuit_exits_4(
        self, tmp_path, monkeypatch, capsys
    ):
        captured = {}

        def fake_run_campaign(spec, store, **kwargs):
            captured.update(kwargs)
            raise CircuitOpenError("campaign circuit breaker is open")

        monkeypatch.setattr("repro.cli.run_campaign", fake_run_campaign)
        code = cli_main(
            [
                "campaign",
                "--scenario", "wifi-3mbps/jetson-tx2-gpu",
                "--strategy", "random",
                "--seed", "0",
                "--store", str(tmp_path / "store"),
                "--cell-timeout", "7",
                "--circuit-threshold", "0.5",
                "--circuit-window", "4",
                "--circuit-cooldown", "9",
                "--circuit-probes", "2",
                "--max-backoff", "33",
                "--quiet",
            ]
        )
        assert code == 4
        assert "circuit breaker is open" in capsys.readouterr().err
        policy = captured["policy"]
        assert policy.cell_timeout_s == 7.0
        assert policy.circuit_threshold == 0.5
        assert policy.circuit_window == 4
        assert policy.circuit_cooldown_s == 9.0
        assert policy.circuit_probes == 2
        assert policy.max_backoff_s == 33.0

    def test_retry_dead_readmits_and_exits_0(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        queue = DeadLetterQueue(store_dir)
        queue.bury("cell-1", reason="poison")
        code = cli_main(["campaign", "--store", str(store_dir), "--retry-dead"])
        assert code == 0
        assert "1 dead-lettered cell(s) re-admitted" in capsys.readouterr().out
        assert len(DeadLetterQueue(store_dir)) == 0

    @pytest.mark.parametrize("fmt", ["table", "markdown", "json"])
    def test_report_does_not_count_a_readmitted_stored_cell(
        self, tmp_path, capsys, fmt
    ):
        store_dir = tmp_path / "store"
        request = _request()
        fingerprint = _bury(store_dir, request)
        assert cli_main(["campaign", "--store", str(store_dir), "--retry-dead"]) == 0
        RunStore(store_dir).append(run_search(request), fingerprint=fingerprint)
        capsys.readouterr()
        assert cli_main(["report", "--store", str(store_dir), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            audit = json.loads(out)["audit"]
            assert audit["num_records"] == 1
            assert audit["failed_cells"] == [] and audit["dead_lettered"] == []
        else:
            assert "cell(s) permanently failed" in out
            assert not re.search(r"1\W* cell\(s\) permanently failed", out)
            assert "poison cell(s)" not in out

    def test_store_fsck_exit_codes(self, tmp_path, capsys):
        directory = tmp_path / "store"
        directory.mkdir()
        runs = directory / "runs.jsonl"
        runs.write_bytes(_synthetic_line("ok"))
        assert cli_main(["store", "fsck", "--store", str(directory)]) == 0

        runs.write_bytes(_synthetic_line("ok") + _flip_crc_digit(_synthetic_line("rot")))
        assert cli_main(["store", "fsck", "--store", str(directory)]) == 1
        assert "--repair" in capsys.readouterr().err

        assert cli_main(
            ["store", "fsck", "--store", str(directory), "--repair"]
        ) == 0
        assert cli_main(["store", "fsck", "--store", str(directory)]) == 0
        assert RunStore(directory).fingerprints() == ["ok"]
