"""Distributed campaign service: store shards, leases, workers, executors."""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.api.envelopes import SearchOutcome, SearchRequest, request_fingerprint
from repro.api.registry import RegistryError
from repro.api.scenario import Scenario
from repro.api.session import run_search
from repro.campaign import (
    CampaignSpec,
    RunStore,
    StoreError,
    merge_stores,
    open_store,
    run_campaign,
    run_worker,
)
from repro.campaign.errors import (
    ERROR_CODES,
    AuditLog,
    ErrorEnvelope,
    classify_error,
    summarize_audit,
)
from repro.campaign.executors import EXECUTORS, resolve_executor
from repro.campaign.leases import LeaseBoard
from repro.campaign.manifest import CampaignManifest, resolve_backoff
from repro.campaign.store import export_metrics, shard_key

#: Budgets small enough that one run is milliseconds.
FAST = dict(
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)

SPEC = CampaignSpec(
    scenarios=("wifi-3mbps/jetson-tx2-gpu",),
    strategies=("lens", "random"),
    seeds=(0, 1),
    **FAST,
)

SMALL_SPEC = CampaignSpec(
    scenarios=("wifi-3mbps/jetson-tx2-gpu",),
    strategies=("random",),
    seeds=(0, 1),
    **FAST,
)


def _request(**overrides) -> SearchRequest:
    fields = dict(FAST, scenario="wifi-3mbps/jetson-tx2-gpu", strategy="random", seed=0)
    fields.update(overrides)
    return SearchRequest(**fields)


def _append_many(directory, outcome_dict, worker, count):
    """Writer-process body: append ``count`` records, each visible at once."""
    store = RunStore(directory)
    outcome = SearchOutcome.from_dict(outcome_dict)
    for index in range(count):
        fingerprint = store.append(outcome, fingerprint=f"{worker}-{index}")
        if fingerprint not in store:
            raise SystemExit(f"{fingerprint} lost by the writer that appended it")


def _metric_rows(store):
    """Per-candidate metric triples rounded past the engine-cache ULP drift."""
    rows = {}
    for fingerprint in store.fingerprints():
        outcome = store.get(fingerprint)
        rows[fingerprint] = [
            (round(c.error_percent, 6), round(c.latency_s, 6), round(c.energy_j, 6))
            for c in outcome.candidates
        ]
    return rows


# ---------------------------------------------------------------------- sharded store


class TestShardedStore:
    def test_routing_is_deterministic_across_reopen(self, tmp_path):
        store = RunStore(tmp_path / "store")
        fingerprints = [
            store.append(run_search(_request(seed=seed))) for seed in (0, 1, 2)
        ]
        keys = store.shard_keys()
        reopened = RunStore(tmp_path / "store")
        assert reopened.fingerprints() == store.fingerprints()
        assert reopened.shard_keys() == keys
        for fingerprint in fingerprints:
            assert reopened.get(fingerprint).request.fingerprint() == fingerprint
        # same (scenario, space) -> same shard key, always
        assert shard_key("a/b", "s") == shard_key("a/b", "s")
        assert shard_key("a/b", "s") != shard_key("a/b", "t")

    def test_cells_route_to_per_context_shards(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(run_search(_request(scenario="wifi-3mbps/jetson-tx2-gpu")))
        store.append(run_search(_request(scenario="lte-3mbps/jetson-tx2-gpu")))
        assert len(store.shard_keys()) == 2
        assert len(store) == 2

    def test_duplicate_append_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        store.append(outcome)
        with pytest.raises(StoreError, match="already stored"):
            store.append(outcome)

    def test_refresh_sees_other_writers(self, tmp_path):
        writer = RunStore(tmp_path / "store")
        reader = RunStore(tmp_path / "store")
        fingerprint = writer.append(run_search(_request()))
        assert fingerprint not in reader
        reader.refresh()
        assert fingerprint in reader
        assert reader.get(fingerprint).request.fingerprint() == fingerprint

    def test_torn_tail_in_shard_is_ignored_then_compacted(self, tmp_path):
        store = RunStore(tmp_path / "store")
        fingerprint = store.append(run_search(_request()))
        shard_path = next((tmp_path / "store" / "shards").glob("*.jsonl"))
        with shard_path.open("ab") as handle:
            handle.write(b'{"fingerprint": "torn')  # crash mid-append

        reopened = RunStore(tmp_path / "store")
        assert reopened.fingerprints() == [fingerprint]
        stats = reopened.compact()
        assert stats["dropped_torn_bytes"] > 0
        assert reopened.fingerprints() == [fingerprint]
        # the shard is pristine again: every line intact
        for raw in shard_path.open("rb"):
            json.loads(raw)

    def test_append_after_a_torn_tail_is_kept(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = store.append(run_search(_request(seed=0)))
        shard_path = next((tmp_path / "store" / "shards").glob("*.jsonl"))
        with shard_path.open("ab") as handle:
            handle.write(b'{"fingerprint": "torn')  # a writer died mid-append
        second = store.append(run_search(_request(seed=1)))
        assert store.fingerprints() == [first, second]
        reopened = RunStore(tmp_path / "store")
        assert reopened.fingerprints() == [first, second]
        # the fragment is now a terminated corrupt line, never truncated
        assert reopened.summary()["corrupt_lines"] == 1
        assert b'{"fingerprint": "torn\n' in shard_path.read_bytes()

    def test_concurrent_writers_after_a_torn_tail_lose_nothing(self, tmp_path):
        """More writer processes than cores race appends into one shard
        that starts with a dead writer's fragment: every record lands."""
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        store.append(outcome, fingerprint="seed-record")
        shard_path = next((tmp_path / "store" / "shards").glob("*.jsonl"))
        with shard_path.open("ab") as handle:
            handle.write(b'{"fingerprint": "torn')
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(
                target=_append_many,
                args=(str(tmp_path / "store"), outcome.to_dict(), f"w{index}", 10),
            )
            for index in range(4)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0, 0, 0]
        reopened = RunStore(tmp_path / "store")
        assert len(reopened) == 1 + 4 * 10
        assert reopened.summary()["corrupt_lines"] == 1
        assert len(shard_path.read_bytes().splitlines()) == 1 + 1 + 4 * 10

    def test_corrupt_middle_line_skipped_and_counted(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = store.append(run_search(_request(seed=0)))
        shard_path = next((tmp_path / "store" / "shards").glob("*.jsonl"))
        with shard_path.open("ab") as handle:
            handle.write(b"garbage that is not json\n")
        store.refresh()
        second = store.append(run_search(_request(seed=1)))

        reopened = RunStore(tmp_path / "store")
        assert reopened.fingerprints() == [first, second]
        assert reopened.summary()["corrupt_lines"] == 1
        stats = reopened.compact()
        assert stats["dropped_corrupt_lines"] == 1
        assert RunStore(tmp_path / "store").summary()["corrupt_lines"] == 0

    def test_superseded_duplicate_resolves_latest_wins(self, tmp_path):
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        fingerprint = store.append(outcome)
        shard_path = next((tmp_path / "store" / "shards").glob("*.jsonl"))
        # a racing peer re-appends the same cell (reclaimed-lease worst case)
        line = shard_path.read_bytes()
        with shard_path.open("ab") as handle:
            handle.write(line)

        reopened = RunStore(tmp_path / "store")
        assert reopened.fingerprints() == [fingerprint]
        assert reopened.summary()["superseded"] == 1
        stats = reopened.compact()
        assert stats["dropped_superseded"] == 1
        assert len(shard_path.read_bytes().splitlines()) == 1

    def test_paginated_outcomes(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for seed in range(4):
            store.append(run_search(_request(seed=seed)))
        everything = [o.request.fingerprint() for o in store.outcomes()]
        assert len(everything) == 4
        page1 = [o.request.fingerprint() for o in store.outcomes(offset=0, limit=3)]
        page2 = [o.request.fingerprint() for o in store.outcomes(offset=3, limit=3)]
        assert page1 + page2 == everything
        # pagination windows are stable across reopen
        reopened = RunStore(tmp_path / "store")
        assert [
            o.request.fingerprint() for o in reopened.outcomes(offset=1, limit=2)
        ] == everything[1:3]
        with pytest.raises(ValueError, match="non-negative"):
            list(store.outcomes(offset=-1))

    def test_legacy_record_is_superseded_by_a_shard_record(self, tmp_path):
        """One cell both in a legacy ``runs.jsonl`` and in a shard (an old
        ``repro run`` into a sharded store): the store opens and serves the
        shard's record."""
        store = open_store(tmp_path / "store")
        fingerprint = store.append(run_search(_request()))
        shard_path = next((tmp_path / "store" / "shards").glob("*.jsonl"))
        (tmp_path / "store" / "runs.jsonl").write_bytes(shard_path.read_bytes())

        reopened = open_store(tmp_path / "store")
        assert reopened.fingerprints() == [fingerprint]
        assert reopened.shard_keys() == [shard_path.stem]
        assert reopened.summary()["superseded"] == 1
        assert reopened.get(fingerprint).request.fingerprint() == fingerprint

    def test_merge_stores_is_idempotent(self, tmp_path):
        source = RunStore(tmp_path / "source")
        for seed in (0, 1):
            source.append(run_search(_request(seed=seed)))
        dest = RunStore(tmp_path / "dest")
        assert merge_stores([source], dest) == {"merged": 2, "skipped": 0}
        assert merge_stores([source], dest) == {"merged": 0, "skipped": 2}
        assert sorted(dest.fingerprints()) == sorted(source.fingerprints())

    def test_export_metrics_columnar(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for seed in (0, 1):
            store.append(run_search(_request(seed=seed)))
        payload = export_metrics(store)
        assert payload["num_groups"] == 2
        for group in payload["groups"]:
            assert group["scenario"] == "wifi-3mbps/jetson-tx2-gpu"
            n = len(group["latency_s"])
            assert n > 0
            assert len(group["energy_j"]) == n
            assert len(group["error_percent"]) == n
        # groups are sorted by (scenario, space, strategy, seed)
        seeds = [group["seed"] for group in payload["groups"]]
        assert seeds == sorted(seeds)


# ---------------------------------------------------------------------- errors / audit


class TestErrorEnvelopes:
    def test_classification_table(self):
        assert classify_error(RegistryError("x")) == "E_REGISTRY"
        assert classify_error(StoreError("x")) == "E_STORE"
        assert classify_error(TimeoutError()) == "E_TIMEOUT"
        assert classify_error(MemoryError()) == "E_SYSTEM"
        assert classify_error(ValueError("x")) == "E_VALIDATION"
        assert classify_error(RuntimeError("x")) == "E_EXECUTION"
        for code in ("E_WORKER_LOST", "E_TIMEOUT", "E_SYSTEM"):
            assert ERROR_CODES[code][1], f"{code} must be retryable"

    def test_final_flag_follows_retry_budget(self):
        retryable = ErrorEnvelope.from_exception(
            TimeoutError("slow"), attempt=1, max_attempts=3
        )
        assert retryable.retryable and not retryable.final
        exhausted = ErrorEnvelope.from_exception(
            TimeoutError("slow"), attempt=3, max_attempts=3
        )
        assert exhausted.final
        deterministic = ErrorEnvelope.from_exception(
            ValueError("bad"), attempt=1, max_attempts=3
        )
        assert deterministic.final and not deterministic.retryable

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            ErrorEnvelope(code="E_NOPE", message="x")

    def test_audit_log_round_trip_and_torn_tail(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        for attempt in (1, 2):
            log.append(
                ErrorEnvelope.from_exception(
                    TimeoutError("slow"),
                    attempt=attempt,
                    fingerprint="abc",
                    worker="w0",
                    max_attempts=2,
                )
            )
        with log.path.open("ab") as handle:
            handle.write(b'{"code": "torn')
        records = log.records()
        assert len(records) == 2
        assert log.attempts("abc") == 2
        assert log.last("abc").final
        summary = summarize_audit(records)
        assert summary["by_code"] == {"E_TIMEOUT": 2}
        assert summary["failed_cells"] == ["abc"]
        assert summary["retries"] == 1
        assert summary["workers"] == ["w0"]

    def test_audit_append_after_a_torn_tail_is_counted(self, tmp_path):
        """A dead writer's fragment must not swallow the next attempt, or a
        poison cell gets one retry more than its budget allows."""
        log = AuditLog(tmp_path / "audit.jsonl")
        first = ErrorEnvelope.from_exception(
            TimeoutError("slow"), attempt=1, fingerprint="abc", max_attempts=2
        )
        log.append(first)
        with log.path.open("ab") as handle:
            handle.write(b'{"code": "torn')
        log.append(first.replace(attempt=2, final=True))
        assert log.attempts("abc") == 2
        assert log.last("abc").final

    def test_backoff_is_exponential(self):
        base = resolve_backoff(100.0, 1, 0.5)
        assert base == pytest.approx(100.5)
        assert resolve_backoff(100.0, 3, 0.5) == pytest.approx(102.0)


# ---------------------------------------------------------------------- leases


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path / "leases", "a", ttl_s=30.0)
        b = LeaseBoard(tmp_path / "leases", "b", ttl_s=30.0)
        lease = a.claim("cell-1")
        assert lease is not None and lease.worker == "a"
        assert b.claim("cell-1") is None
        a.release(lease)
        assert b.claim("cell-1").worker == "b"

    def test_expired_lease_is_reclaimed_from_dead_worker(self, tmp_path):
        board = LeaseBoard(tmp_path / "leases", "survivor", ttl_s=0.2)
        # a peer claimed the cell and died without releasing
        dead = LeaseBoard(tmp_path / "leases", "dead", ttl_s=0.2)
        stale = dead.claim("cell-1")
        assert stale is not None
        assert board.claim("cell-1") is None  # still fresh
        time.sleep(0.3)  # heartbeat window elapses with no heartbeat
        reclaimed = board.claim("cell-1")
        assert reclaimed is not None
        assert reclaimed.worker == "survivor"
        assert reclaimed.reclaims == 1

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        board = LeaseBoard(tmp_path / "leases", "w0", ttl_s=0.3)
        lease = board.claim("cell-1")
        for _ in range(3):
            time.sleep(0.15)
            lease = board.heartbeat(lease)
        peer = LeaseBoard(tmp_path / "leases", "peer", ttl_s=0.3)
        assert peer.claim("cell-1") is None  # heartbeats kept it fresh

    def test_concurrent_claims_have_one_winner(self, tmp_path):
        winners = []
        barrier = threading.Barrier(4)

        def contender(name):
            board = LeaseBoard(tmp_path / "leases", name, ttl_s=30.0)
            barrier.wait()
            lease = board.claim("cell-1")
            if lease is not None:
                winners.append(lease.worker)

        threads = [
            threading.Thread(target=contender, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1


# ---------------------------------------------------------------------- workers


class TestPullWorkers:
    def test_two_concurrent_workers_store_each_cell_exactly_once(self, tmp_path):
        store_dir = tmp_path / "shared"
        RunStore(store_dir)
        manifest = CampaignManifest.from_requests(
            SPEC.requests(), ttl_s=10.0, poll_s=0.05
        )
        manifest.write(store_dir)

        reports = {}

        def pull(worker_id):
            reports[worker_id] = run_worker(store_dir, worker_id=worker_id)

        threads = [
            threading.Thread(target=pull, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        store = RunStore(store_dir)
        assert set(store.fingerprints()) == set(manifest.cells)
        # exactly-once at the raw-line level: no duplicate appends at all
        total_lines = sum(
            sum(1 for _ in path.open("rb"))
            for path in (store_dir / "shards").glob("*.jsonl")
        )
        assert total_lines == len(manifest.cells)
        assert sum(r.executed for r in reports.values()) == len(manifest.cells)
        # all leases released
        assert list((store_dir / "leases").glob("*.lease")) == []

    def test_dead_workers_stored_cell_is_not_reexecuted(self, tmp_path):
        """A worker stored a cell but died before releasing its lease."""
        store_dir = tmp_path / "shared"
        store = RunStore(store_dir)
        requests = SMALL_SPEC.requests()
        manifest = CampaignManifest.from_requests(
            requests, ttl_s=0.2, poll_s=0.05
        )
        manifest.write(store_dir)

        dead_fp = request_fingerprint(requests[0])
        store.append(run_search(requests[0]), fingerprint=dead_fp)
        dead_board = LeaseBoard(store_dir / "leases", "dead", ttl_s=0.2)
        assert dead_board.claim(dead_fp) is not None  # never released
        time.sleep(0.3)

        report = run_worker(store_dir, worker_id="survivor")
        final = RunStore(store_dir)
        assert set(final.fingerprints()) == set(manifest.cells)
        assert report.executed == len(requests) - 1  # stored cell untouched
        # still exactly one record for the dead worker's cell
        lines = sum(
            sum(1 for _ in path.open("rb"))
            for path in (store_dir / "shards").glob("*.jsonl")
        )
        assert lines == len(requests)

    def test_reclaimed_finished_cell_is_a_noop(self, tmp_path, monkeypatch):
        """The idempotence re-check under the lease: a peer finished the
        cell between this worker's store refresh and its claim."""
        import repro.campaign.worker as worker_mod

        store_dir = tmp_path / "shared"
        RunStore(store_dir)
        request = SMALL_SPEC.requests()[0]
        fingerprint = request_fingerprint(request)
        manifest = CampaignManifest.from_requests(
            [request], ttl_s=10.0, poll_s=0.05
        )
        manifest.write(store_dir)
        outcome = run_search(request)

        real_claim = worker_mod.LeaseBoard.claim

        def racing_claim(self, fp):
            lease = real_claim(self, fp)
            if lease is not None:
                peer = RunStore(store_dir)
                if fp not in peer:  # the racing peer lands its append first
                    peer.append(outcome, fingerprint=fp)
            return lease

        monkeypatch.setattr(worker_mod.LeaseBoard, "claim", racing_claim)
        report = run_worker(store_dir, worker_id="late")
        assert report.skipped == 1  # re-claimed finished cell: no-op
        assert report.executed == 0
        shard_lines = sum(
            sum(1 for _ in path.open("rb"))
            for path in (store_dir / "shards").glob("*.jsonl")
        )
        assert shard_lines == 1
        assert RunStore(store_dir).fingerprints() == [fingerprint]

    def test_failed_cell_is_audited_and_final(self, tmp_path):
        store_dir = tmp_path / "shared"
        RunStore(store_dir)
        bad = _request().replace(
            scenario=Scenario(name="ghost/nowhere", device="ghost-device"),
        )
        manifest = CampaignManifest.from_requests(
            [bad], ttl_s=10.0, poll_s=0.05, max_attempts=3, backoff_base_s=0.01
        )
        manifest.write(store_dir)
        report = run_worker(store_dir, worker_id="w0")
        assert report.failed >= 1
        assert report.executed == 0
        store = RunStore(store_dir)
        records = store.audit_records()
        assert records, "failure must be audited"
        assert records[-1].final
        assert records[-1].code == "E_REGISTRY"
        assert len(store) == 0


# ---------------------------------------------------------------------- executors


class TestExecutors:
    def test_registry_and_resolution(self):
        assert EXECUTORS.names() == ["process-pool", "pull-worker", "serial"]
        assert resolve_executor(None, 1).name == "serial"
        assert resolve_executor(None, 4).name == "process-pool"
        assert resolve_executor("pull-worker", 2).name == "pull-worker"
        with pytest.raises(RegistryError, match="serial"):
            resolve_executor("serail", 1)
        with pytest.raises(RegistryError):
            resolve_executor("asyncio", 2)
        with pytest.raises(TypeError, match="executor"):
            resolve_executor(42, 1)

    def test_pull_worker_executor_matches_serial(self, tmp_path):
        serial = RunStore(tmp_path / "serial")
        run_campaign(SMALL_SPEC, serial)
        store = RunStore(tmp_path / "pull")
        result = run_campaign(
            SMALL_SPEC,
            store,
            executor="pull-worker",
            workers=2,
            executor_options={"ttl_s": 10.0, "poll_s": 0.1},
        )
        assert result.executor == "pull-worker"
        assert len(result.executed) == len(SMALL_SPEC.requests())
        assert sorted(store.fingerprints()) == sorted(serial.fingerprints())
        assert _metric_rows(store) == _metric_rows(serial)


# ---------------------------------------------------------------------- on_error


class TestOnError:
    def test_continue_records_envelope_and_keeps_going(self, tmp_path):
        good = SMALL_SPEC.requests()
        bad = good[0].replace(
            scenario=Scenario(name="ghost/nowhere", device="ghost-device"),
        )
        store = RunStore(tmp_path / "store")
        result = run_campaign([bad] + good, store, on_error="continue")
        assert len(result.failed) == 1
        assert result.failed[0].envelope.code == "E_REGISTRY"
        summary = result.summary()
        assert summary["failed"] == 1
        assert summary["failed_cells"] == [result.failed[0].fingerprint]
        # the bad cell did not stop the good ones
        assert sorted(store.fingerprints()) == sorted(
            request_fingerprint(r) for r in good
        )
        # and the failure is audited in the store
        assert len(store.audit_records()) == 1

    def test_fail_default_stops_and_raises(self, tmp_path):
        good = SMALL_SPEC.requests()
        bad = good[0].replace(
            scenario=Scenario(name="ghost/nowhere", device="ghost-device"),
        )
        store = RunStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="campaign cell .* failed"):
            run_campaign([bad] + good, store)
        assert len(store) == 0  # serial stops at the first (bad) cell

    def test_invalid_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            run_campaign(SMALL_SPEC, RunStore(tmp_path / "s"), on_error="retry")
