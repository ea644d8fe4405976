"""Campaign supervision: deadlines, failed cells, circuit breaking, fsck."""

from __future__ import annotations

import json
import multiprocessing
import re
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchRequest, request_fingerprint
from repro.api.scenario import Scenario
from repro.api.session import run_search
from repro.campaign import (
    CampaignPolicy,
    CampaignSupervisor,
    CellTimeout,
    CircuitBreaker,
    CircuitOpenError,
    RunStore,
    StoreError,
    deadline,
    fsck_store,
    merge_stores,
    run_campaign,
    run_worker,
)
from repro.campaign.errors import (
    AuditLog,
    ErrorEnvelope,
    classify_error,
    summarize_audit,
)
from repro.campaign.manifest import (
    CampaignManifest,
    backoff_jitter_factor,
    resolve_backoff,
)
from repro.campaign.store import DEAD_LETTER_FILENAME, record_crc, verify_record_crc
from repro.campaign.supervisor import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    SUPERVISOR_FILENAME,
)
from repro.cli import main as cli_main
from repro.resilience import faults
from repro.resilience.faults import FaultInjector
from repro.utils.serialization import append_jsonl_atomic

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


def _fail_for_good(store_dir, request) -> str:
    """Fail a cell for good as a worker does: a final audit record."""
    fingerprint = request_fingerprint(request)
    RunStore(store_dir).record_error(
        ErrorEnvelope(
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
            },
        )
    )
    return fingerprint


def _failed(store_dir, fingerprint) -> bool:
    """Whether the store's one rule says the cell has failed for good."""
    cell = RunStore(store_dir).cell_failures().get(fingerprint)
    return cell is not None and cell.failed


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
            dict(circuit_window=0),
            dict(circuit_threshold=1.5),
            dict(circuit_threshold=-0.1),
            dict(circuit_cooldown_s=-1.0),
            dict(circuit_probes=0),
            # counts are whole numbers, the rest real numbers: no truncation
            dict(max_attempts=2.5),
            dict(circuit_window=1.5),
            dict(circuit_probes="3"),
            dict(ttl_s=True),
            dict(circuit_threshold="0.5"),
            # NaN fails every range check (a JSON manifest can carry NaN)
            dict(ttl_s=float("nan")),
            dict(poll_s=float("nan")),
            dict(backoff_base_s=float("nan")),
            dict(max_backoff_s=float("nan")),
            dict(cell_timeout_s=float("nan")),
            dict(circuit_threshold=float("nan")),
            dict(circuit_cooldown_s=float("nan")),
            # so do infinities: an infinite deadline wrote a manifest that
            # is not JSON and failed every cell in setitimer
            dict(ttl_s=float("inf")),
            dict(poll_s=float("inf")),
            dict(backoff_base_s=float("inf")),
            dict(max_backoff_s=float("inf")),
            dict(cell_timeout_s=float("inf")),
            dict(circuit_threshold=float("-inf")),
            dict(circuit_cooldown_s=float("inf")),
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

    def test_from_dict_keeps_whole_numbers_and_fills_defaults(self):
        policy = CampaignPolicy.from_dict({"ttl_s": 12, "max_attempts": 5.0})
        assert policy.ttl_s == 12.0 and type(policy.ttl_s) is float
        assert policy.max_attempts == 5 and type(policy.max_attempts) is int
        assert policy.max_backoff_s == 60.0  # missing keys take defaults

    def test_checkpoint_every_is_no_longer_a_field(self):
        """A killed search is re-run, so the policy has no checkpoint
        cadence; a stored policy that still names one loads without it."""
        with pytest.raises(TypeError, match="checkpoint_every"):
            CampaignPolicy(checkpoint_every=5)
        assert "checkpoint_every" not in CampaignPolicy().to_dict()
        assert CampaignPolicy.from_dict({"checkpoint_every": 5}) == CampaignPolicy()

    @pytest.mark.parametrize(
        "stored",
        [
            {"max_attempts": 2.7},
            {"circuit_window": True},
            {"circuit_probes": "3"},
            {"ttl_s": "12"},
            {"backoff_base_s": False},
            {"cell_timeout_s": float("inf")},
        ],
    )
    def test_from_dict_rejects_what_it_used_to_coerce(self, stored):
        """A mistyped manifest fails to load instead of running a
        different policy (``int(2.7)`` was 2, ``int(True)`` 1)."""
        with pytest.raises(ValueError):
            CampaignPolicy.from_dict(stored)
        with pytest.raises(ValueError):  # the v1 flat manifest too
            CampaignManifest.from_dict(dict(stored, cells={}))


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

    def test_v2_manifest_with_retired_checkpoint_every_still_runs(self, tmp_path):
        """A manifest published while the policy still had
        ``checkpoint_every`` loads, ignoring the key, and its cells run."""
        requests = [_request(seed=0), _request(seed=1)]
        payload = CampaignManifest.from_requests(
            requests, policy=CampaignPolicy(ttl_s=5.0, poll_s=0.05)
        ).to_dict()
        payload["policy"]["checkpoint_every"] = 5
        RunStore(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        manifest = CampaignManifest.load(tmp_path)
        assert manifest.policy == CampaignPolicy(ttl_s=5.0, poll_s=0.05)
        report = run_worker(tmp_path, worker_id="w0", max_cycles=5)
        assert report.executed == 2
        assert set(RunStore(tmp_path).fingerprints()) == {
            request_fingerprint(request) for request in requests
        }


class TestResolveBackoff:
    def test_cap_clamps_high_attempts(self):
        assert resolve_backoff(0.0, 10, 1.0, "cell", max_backoff_s=5.0) == 5.0
        # below the cap the jittered delay is untouched
        assert resolve_backoff(0.0, 2, 1.0, "cell", max_backoff_s=5.0) == (
            2.0 * backoff_jitter_factor("cell", 2)
        )

    def test_cap_applies_after_jitter(self):
        for attempt in range(1, 12):
            ready = resolve_backoff(
                0.0, attempt, 1.0, fingerprint="cell", max_backoff_s=3.0
            )
            assert ready <= 3.0


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

    def test_resolve_backoff_with_fingerprint_scales_by_factor(self):
        ready = resolve_backoff(
            100.0, 2, 2.0, fingerprint="cell-a", max_backoff_s=60.0
        )
        expected = 100.0 + 4.0 * backoff_jitter_factor("cell-a", 2)
        assert ready == pytest.approx(expected)
        assert 102.0 <= ready < 106.0  # delay in [0.5, 1.5) x base window


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

    def test_a_deadline_the_timer_cannot_hold_restores_the_handler(self):
        """``setitimer`` overflows on ``1e12`` s; it used to raise after the
        alarm handler was installed, leaving it in place."""
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(OverflowError):
            with deadline(1e12):
                pass
        assert signal.getsignal(signal.SIGALRM) is before

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

    def test_corrupt_state_file_resets_to_fresh(self, tmp_path):
        supervisor = CampaignSupervisor(tmp_path, self.POLICY)
        supervisor.record_result(False)
        supervisor.path.write_text("{ not json", encoding="utf-8")
        assert supervisor.circuit_state() == CIRCUIT_CLOSED
        assert supervisor.circuit_allows()
        # a state whose breaker is not an object, or holds a field of
        # another type than the breaker writes, resets the same way
        for payload in (
            '{"circuit": null}',
            '{"circuit": 5}',
            '{"circuit": {"state": "open", "results": 5}}',
            '{"circuit": {"state": "open", "opened_at": "x"}}',
            '{"circuit": {"transitions": 5}}',
            '{"circuit": {"state": "closed", "window": "x"}}',
            '{"circuit": {"state": "closed", "window": true}}',
            '{"circuit": {"state": "ajar"}}',
        ):
            supervisor = CampaignSupervisor(tmp_path, self.POLICY)
            supervisor.path.write_text(payload, encoding="utf-8")
            assert supervisor.record_result(True) == CIRCUIT_CLOSED
            supervisor.path.write_text(payload, encoding="utf-8")
            assert supervisor.circuit_allows()
            assert supervisor.circuit_state() == CIRCUIT_CLOSED
            assert supervisor.summary()["circuit_state"] == CIRCUIT_CLOSED
            assert supervisor.record_result(False) == CIRCUIT_CLOSED


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
        assert [r.attempt for r in records] == [1, 2]
        assert records[0].retryable and not records[0].final
        assert records[1].final

        cell = store.cell_failures()[fingerprint]
        assert (cell.attempts, cell.last, cell.failed) == (2, records[1], True)

        # a scavenger never claims the failed cell
        scavenger = run_worker(store_dir, worker_id="scavenger", manifest=manifest)
        assert scavenger.executed == 0
        assert fingerprint not in RunStore(store_dir)
        assert len(RunStore(store_dir).audit_records()) == 2

        # re-admission grants a fresh budget; a healthy worker finishes it
        assert RunStore(store_dir).readmit_failed() == [fingerprint]
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
        assert summary == {"circuit_state": "disabled", "circuit_transitions": []}

        audit = RunStore(store_dir).audit_summary()
        assert audit["by_code"] == {"E_TIMEOUT": 2}
        assert audit["failed_cells"] == [request_fingerprint(request)]


class TestReadmission:
    """A re-admitted cell starts a new life: the failures of its previous
    one resolve it for nobody."""

    def test_final_failure_restarts_at_readmission(self, tmp_path):
        request = _request()
        store = RunStore(tmp_path)
        fingerprint = request_fingerprint(request)
        assert store.cell_failures() == {}
        assert store.readmit_failed() == []  # nothing has failed for good

        _fail_for_good(tmp_path, request)
        (final,) = store.audit_records()
        assert store.cell_failures()[fingerprint].last == final
        assert _failed(tmp_path, fingerprint)

        assert store.readmit_failed() == [fingerprint]
        assert store.readmit_failed() == []  # already re-admitted
        assert store.cell_failures() == {}
        retry = final.replace(attempt=1, final=False, time_s=time.time() + 1.0)
        store.record_error(retry)
        cell = store.cell_failures()[fingerprint]
        assert (cell.attempts, cell.last, cell.failed) == (1, retry, False)
        failed = retry.replace(final=True, time_s=retry.time_s + 1.0)
        store.record_error(failed)
        cell = store.cell_failures()[fingerprint]
        assert (cell.attempts, cell.last, cell.failed) == (2, failed, True)

        # a torn re-admission never landed
        with (tmp_path / DEAD_LETTER_FILENAME).open("ab") as handle:
            handle.write(b'{"event": "readmit", "fingerprint": "%s"' % fingerprint.encode())
        assert _failed(tmp_path, fingerprint)

    def test_pull_worker_campaign_stores_a_readmitted_cell(self, tmp_path):
        store_dir = tmp_path / "store"
        request = _request()
        fingerprint = _fail_for_good(store_dir, request)
        assert RunStore(store_dir).readmit_failed() == [fingerprint]
        result = run_campaign(
            [request],
            store_dir,
            executor="pull-worker",
            policy=CampaignPolicy(ttl_s=15.0, poll_s=0.05),
        )
        assert result.failed == ()
        assert result.executed == (fingerprint,)
        assert RunStore(store_dir).fingerprints() == [fingerprint]


class TestOneRecordOfFailures:
    """The audit log is the one record of a cell's failures: stores written
    when a final record was also copied into a ``bury`` event, and deadline
    kills were also counted in ``supervisor.json``, resolve the same cells."""

    def test_a_store_of_the_earlier_layout_resolves_the_same_cells(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        buried, readmitted = _request(seed=0), _request(seed=1)
        a, b = request_fingerprint(buried), request_fingerprint(readmitted)
        now = time.time()
        store = RunStore(store_dir)
        events = []
        for request, fingerprint in ((buried, a), (readmitted, b)):
            chain = [
                ErrorEnvelope(
                    code="E_TIMEOUT",
                    message="cell exceeded its 1s deadline",
                    retryable=True,
                    attempt=attempt,
                    final=attempt == 2,
                    fingerprint=fingerprint,
                    worker="w0",
                    time_s=now - 11.0 + attempt,
                    context={
                        "scenario": request.scenario_name,
                        "search_space": request.search_space,
                        **({"dead_letter": True} if attempt == 2 else {}),
                    },
                )
                for attempt in (1, 2)
            ]
            for envelope in chain:
                store.record_error(envelope)
            events.append({
                "event": "bury", "fingerprint": fingerprint,
                "reason": "retry budget exhausted (2/2)", "worker": "w0",
                "time_s": now - 8.0,
                "envelopes": [envelope.to_dict() for envelope in chain],
            })
        events.append({"event": "readmit", "fingerprint": b, "time_s": now - 5.0})
        (store_dir / DEAD_LETTER_FILENAME).write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )
        (store_dir / SUPERVISOR_FILENAME).write_text(
            json.dumps({
                "schema_version": 1,
                "circuit": CircuitBreaker().to_dict(),
                "timeout_kills": 2,
            }),
            encoding="utf-8",
        )

        # A has failed for good; B was re-admitted and has no failure since
        cells = RunStore(store_dir).cell_failures()
        assert set(cells) == {a}
        assert (cells[a].attempts, cells[a].failed) == (2, True)

        # no loop claims A, and B runs on a fresh budget of max_attempts=2
        policy = CampaignPolicy(ttl_s=15.0, poll_s=0.05, max_attempts=2)
        manifest = CampaignManifest.from_requests([buried, readmitted], policy=policy)
        report = run_worker(store_dir, worker_id="w1", manifest=manifest)
        assert (report.executed, report.fingerprints) == (1, [b])
        assert RunStore(store_dir).fingerprints() == [b]
        assert len(RunStore(store_dir).audit_records()) == 4

        capsys.readouterr()
        assert cli_main(["report", "--store", str(store_dir)]) == 0
        assert re.search(r"\b1 cell\(s\) permanently failed", capsys.readouterr().out)
        result = run_campaign(
            [buried, readmitted], store_dir, policy=policy.replace(on_error="continue")
        )
        assert result.skipped == (b,) and [f.fingerprint for f in result.failed] == [a]
        assert result.timeout_kills == 0

        assert cli_main(["campaign", "--store", str(store_dir), "--retry-dead"]) == 0
        assert "1 dead-lettered cell(s) re-admitted" in capsys.readouterr().out
        assert not _failed(store_dir, a)
        lines = (store_dir / DEAD_LETTER_FILENAME).read_text().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"event", "fingerprint", "time_s"}
        assert (last["event"], last["fingerprint"]) == ("readmit", a)

    def test_a_cell_failed_for_good_leaves_no_burial_and_no_kill_counter(
        self, tmp_path, hang_every_cell
    ):
        store_dir = tmp_path / "store"
        request = _request()
        result = run_campaign(
            [request],
            store_dir,
            executor="serial",
            policy=CampaignPolicy(
                cell_timeout_s=0.5,
                max_attempts=1,
                on_error="continue",
                circuit_threshold=1.0,
            ),
        )
        fingerprint = request_fingerprint(request)
        assert [f.fingerprint for f in result.failed] == [fingerprint]
        assert result.timeout_kills == 1
        assert not (store_dir / DEAD_LETTER_FILENAME).exists()
        state = json.loads((store_dir / SUPERVISOR_FILENAME).read_text())
        assert set(state) == {"schema_version", "circuit"}
        assert _failed(store_dir, fingerprint)


# ---------------------------------------------------------------------- every executor


@pytest.fixture
def hang_every_cell(monkeypatch):
    """Stall every search for 2 s after each evaluation, in this process and
    in any child: forked children inherit the injector, spawned ones read
    the environment.  A 0.5 s deadline kills such a cell; without one it
    finishes after 2 s per evaluation."""
    monkeypatch.setenv(faults.ENV_HANG_AT_EVAL, "1")
    monkeypatch.setenv(faults.ENV_HANG_SECONDS, "2")
    with faults.inject(FaultInjector(hang_at_evaluation=1, hang_seconds=2)):
        yield


def _ghost(request: SearchRequest) -> SearchRequest:
    """The request on a scenario whose device no registry knows (E_REGISTRY)."""
    return request.replace(
        scenario=Scenario(name="ghost/nowhere", device="ghost-device")
    )


class TestSupervisionOnEveryExecutor:
    """Deadlines, retries, failing for good and the breaker hold on every
    executor, because each runs the one pull loop."""

    def test_process_pool_kills_a_hung_cell_at_its_deadline(
        self, tmp_path, hang_every_cell
    ):
        request = _request()
        store = RunStore(tmp_path / "store")
        policy = CampaignPolicy(
            cell_timeout_s=0.5, max_attempts=1, on_error="continue"
        )
        result = run_campaign([request], store, executor="process-pool", policy=policy)
        (failure,) = result.failed
        assert failure.envelope.code == "E_TIMEOUT"
        assert result.timeout_kills == 1
        assert [r.code for r in store.audit_records()] == ["E_TIMEOUT"]
        assert len(store) == 0
        assert multiprocessing.active_children() == []
        # the cell has failed for good: a re-run reports it failed without
        # running it, and counts only its own kills
        again = run_campaign([request], store, executor="process-pool", policy=policy)
        assert [f.fingerprint for f in again.failed] == [failure.fingerprint]
        assert again.timeout_kills == 0
        assert len(store.audit_records()) == 1

    @pytest.mark.parametrize("executor", ["serial", "process-pool"])
    def test_retryable_failure_is_retried_then_dead_lettered(
        self, tmp_path, hang_every_cell, executor
    ):
        request = _request()
        fingerprint = request_fingerprint(request)
        store = RunStore(tmp_path / "store")
        result = run_campaign(
            [request],
            store,
            executor=executor,
            policy=CampaignPolicy(
                cell_timeout_s=0.5,
                max_attempts=2,
                backoff_base_s=0.01,
                poll_s=0.05,
                on_error="continue",
            ),
        )
        assert [f.fingerprint for f in result.failed] == [fingerprint]
        records = store.audit_records()
        assert [(r.code, r.attempt, r.final) for r in records] == [
            ("E_TIMEOUT", 1, False),
            ("E_TIMEOUT", 2, True),
        ]
        cell = store.cell_failures()[fingerprint]
        assert (cell.attempts, cell.last, cell.failed) == (2, records[-1], True)
        assert result.failed[0].envelope == records[-1]
        assert result.timeout_kills == 2

    @pytest.mark.parametrize("executor", ["serial", "process-pool"])
    def test_open_breaker_leaves_queued_cells_unrun(
        self, tmp_path, monkeypatch, executor
    ):
        if executor == "process-pool" and multiprocessing.get_start_method() != "fork":
            pytest.skip("only a forked child sees the patched run_search")
        import repro.campaign.executors as executors

        calls = tmp_path / "calls.txt"
        real_run_search = executors.run_search

        def counted(request, **kwargs):
            with calls.open("a", encoding="utf-8") as handle:
                handle.write(request_fingerprint(request) + "\n")
            return real_run_search(request, **kwargs)

        monkeypatch.setattr(executors, "run_search", counted)
        good = [_request(seed=seed) for seed in range(6)]
        bad = [_ghost(_request(seed=seed)) for seed in range(2)]
        cells = good[:1] + bad + good[1:]
        store = RunStore(tmp_path / "store")
        with pytest.raises(CircuitOpenError, match="5 cell\\(s\\) left unexecuted"):
            run_campaign(
                cells,
                store,
                executor=executor,
                policy=CampaignPolicy(
                    circuit_window=2,
                    circuit_threshold=1.0,
                    circuit_cooldown_s=60.0,
                    on_error="continue",
                ),
            )
        # good, bad, bad opened the breaker; the loop stopped at the next claim
        ran = calls.read_text(encoding="utf-8").split()
        assert ran == [request_fingerprint(r) for r in cells[:3]]
        store.refresh()
        assert store.fingerprints() == [request_fingerprint(good[0])]
        assert store.failed_cells() == sorted(request_fingerprint(r) for r in bad)
        assert multiprocessing.active_children() == []

    def test_pull_worker_stops_its_paused_workers_at_an_open_breaker(
        self, tmp_path
    ):
        proc = Path("/proc")
        if not proc.is_dir():
            pytest.skip("finds the worker processes through /proc")
        store_dir = tmp_path / "store"
        ghosts = [_ghost(_request(seed=seed)) for seed in range(4)]
        with pytest.raises(CircuitOpenError, match="2 cell\\(s\\) left unexecuted"):
            run_campaign(
                ghosts,
                store_dir,
                executor="pull-worker",
                policy=CampaignPolicy(
                    poll_s=0.05,
                    circuit_window=2,
                    circuit_threshold=1.0,
                    circuit_cooldown_s=60.0,
                    on_error="continue",
                ),
            )
        # the `repro worker`s paused at the breaker; none outlives the call
        workers = []
        for cmdline in proc.glob("[0-9]*/cmdline"):
            try:
                if str(store_dir).encode() in cmdline.read_bytes():
                    workers.append(cmdline.parent.name)
            except OSError:
                continue
        assert workers == []

    def test_standalone_worker_pauses_for_a_half_open_probe(self, tmp_path):
        """Only local loops stop at an open breaker; a `repro worker` loop
        keeps pausing until the cool-down admits a probe."""
        store_dir = tmp_path / "store"
        policy = CampaignPolicy(
            poll_s=0.05,
            circuit_window=1,
            circuit_threshold=1.0,
            circuit_cooldown_s=0.3,
        )
        manifest = CampaignManifest.from_requests([_request()], policy=policy)
        manifest.write(store_dir)
        supervisor = CampaignSupervisor(store_dir, policy)
        assert supervisor.record_result(False) == CIRCUIT_OPEN
        events = []
        report = run_worker(
            store_dir,
            worker_id="standalone",
            progress=lambda worker, event, fingerprint: events.append(event),
        )
        assert "paused" in events
        assert events[-1] == "executed" and report.executed == 1
        assert supervisor.circuit_state() == CIRCUIT_CLOSED


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
            "scenario": {"name": scenario, "device": "jetson-tx2-gpu"},
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


def _leave_checkpoint_files(store_dir, fingerprint) -> dict:
    """Write what a checkpointed search once left in a store:
    ``checkpoints/<fingerprint>/{checkpoint.json,health.jsonl}``."""
    cell = store_dir / "checkpoints" / fingerprint
    cell.mkdir(parents=True)
    snapshot = {
        "schema_version": 1,
        "fingerprint": fingerprint,
        "complete": False,
        "num_evaluations": 0,
        "rng_state": None,
        "records": [],
    }
    (cell / "checkpoint.json").write_text(json.dumps(snapshot))
    (cell / "health.jsonl").write_text(
        json.dumps({"code": "H_CHECKPOINT_SAVED", "message": "", "time_s": 1.0})
        + "\n"
    )
    return {path: path.read_bytes() for path in sorted(cell.iterdir())}


class TestLeftoverCheckpointFiles:
    """Stores written while searches could be checkpointed may still hold
    checkpoint snapshots and ``health.jsonl`` logs; nothing reads them."""

    def test_campaign_runs_cells_afresh_and_leaves_the_files(self, tmp_path):
        requests = [_request(strategy="lens", seed=0), _request(seed=1)]
        fresh = RunStore(tmp_path / "fresh")
        run_campaign(requests, fresh, engine=EvaluationEngine())

        store = RunStore(tmp_path / "old")
        leftovers = {}
        for request in requests:
            leftovers.update(
                _leave_checkpoint_files(store.directory, request_fingerprint(request))
            )
        result = run_campaign(requests, store, engine=EvaluationEngine())
        assert sorted(result.executed) == sorted(fresh.fingerprints())
        for fingerprint in fresh.fingerprints():
            outcome = store.get(fingerprint)
            assert outcome.health == {}
            assert outcome.candidates == fresh.get(fingerprint).candidates
        assert {path: path.read_bytes() for path in leftovers} == leftovers

    def test_fsck_repair_leaves_the_files_alone(self, tmp_path):
        store = RunStore(tmp_path / "old")
        store.append(run_search(_request()))
        leftovers = _leave_checkpoint_files(store.directory, "cell-1")
        shard = next((store.directory / "shards").glob("*.jsonl"))
        with shard.open("ab") as handle:
            handle.write(b'{"fingerprint": "torn')

        report = fsck_store(store.directory, repair=True)
        assert report["repaired"] and report["torn_bytes"] > 0
        assert set(report["files"]) == {shard.relative_to(store.directory).as_posix()}
        assert fsck_store(store.directory)["clean"]
        assert {path: path.read_bytes() for path in leftovers} == leftovers


def _canonical_line(record) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _store_lines(directory):
    return b"".join(
        path.read_bytes() for path in sorted((directory / "shards").glob("*.jsonl"))
    ).splitlines(keepends=True)


def _flip_last_digit_of(data: bytes, key: bytes) -> bytes:
    """Flip the last digit of the first number stored under ``"key":``."""
    match = re.search(b'"' + key + rb'":(-?[0-9.eE+-]+)', data)
    assert match, f"no {key!r} number to corrupt"
    last = match.end(1) - 1
    flipped = b"1" if data[last : last + 1] != b"1" else b"2"
    return data[:last] + flipped + data[last + 1 :]


class TestCanonicalRecordLines:
    """Records are written as the canonical bytes their CRC covers."""

    def test_appended_line_is_the_canonical_dump_of_its_record(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(run_search(_request()))
        (line,) = _store_lines(tmp_path / "store")
        assert line.startswith(b'{"crc32":')
        assert line == _canonical_line(json.loads(line))

    def test_the_byte_crc_and_the_reserialized_crc_agree(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for seed in (0, 1):
            store.append(run_search(_request(seed=seed)))
        for line in _store_lines(tmp_path / "store"):
            record = json.loads(line)
            assert record_crc(record) == record["crc32"]
            assert verify_record_crc(record)

    def test_a_flipped_float_digit_in_the_body_is_a_crc_mismatch(self, tmp_path):
        directory = tmp_path / "store"
        store = RunStore(directory)
        rotten = store.append(run_search(_request(seed=0)))
        intact = store.append(run_search(_request(seed=1)))
        (shard,) = (directory / "shards").glob("*.jsonl")
        first, second = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(_flip_last_digit_of(first, b"error_percent") + second)

        reopened = RunStore(directory)
        assert reopened.fingerprints() == [intact]
        assert rotten not in reopened
        assert reopened.skipped_lines() == {"corrupt_lines": 0, "crc_mismatches": 1}
        report = fsck_store(directory)
        assert (report["intact"], report["crc_mismatch"], report["clean"]) == (
            1, 1, False,
        )

    def test_a_byte_change_that_keeps_the_parsed_value_still_fails(self, tmp_path):
        """``1e-05`` -> ``1E-05`` is one flipped bit that parses to the same
        float: re-serializing the record would pass it, its bytes do not."""
        directory = tmp_path / "store"
        store = RunStore(directory)
        fingerprint = store.append(run_search(_request(tags={"tiny": 1e-05})))
        (shard,) = (directory / "shards").glob("*.jsonl")
        line = shard.read_bytes()
        assert line.count(b'"tiny":1e-05') == 1
        rotten = line.replace(b'"tiny":1e-05', b'"tiny":1E-05')
        assert verify_record_crc(json.loads(rotten))
        shard.write_bytes(rotten)

        assert fingerprint not in RunStore(directory)
        assert fsck_store(directory)["crc_mismatch"] == 1

    def test_a_record_in_the_earlier_line_format_verifies_by_reserialization(
        self, tmp_path
    ):
        directory = tmp_path / "store"
        donor = run_search(_request())
        record = {"fingerprint": "earlier", "outcome": donor.to_dict()}
        record["crc32"] = record_crc(record)
        shard = directory / "shards" / "earlier-00000000.jsonl"
        append_jsonl_atomic(shard, record)
        assert shard.read_bytes().startswith(b'{"fingerprint": "earlier", ')

        store = RunStore(directory)
        assert store.fingerprints() == ["earlier"]
        assert store.get("earlier").to_dict() == donor.to_dict()
        report = fsck_store(directory)
        assert (report["intact"], report["clean"]) == (1, True)

        shard.write_bytes(_flip_crc_digit(shard.read_bytes()))
        assert "earlier" not in RunStore(directory)
        assert fsck_store(directory)["crc_mismatch"] == 1

    def test_compacted_and_merged_stores_verify(self, tmp_path):
        source = RunStore(tmp_path / "source")
        racer = RunStore(tmp_path / "source")
        outcomes = [run_search(_request(seed=seed)) for seed in (0, 1)]
        for outcome in outcomes:
            source.append(outcome)
        racer.append(outcomes[1])  # a reclaimed lease's duplicate
        source.refresh()
        assert source.summary()["superseded"] == 1
        assert source.compact()["dropped_superseded"] == 1
        report = fsck_store(tmp_path / "source")
        assert (report["intact"], report["clean"]) == (2, True)

        dest = RunStore(tmp_path / "dest")
        assert merge_stores([source], dest) == {"merged": 2, "skipped": 0}
        report = fsck_store(tmp_path / "dest")
        assert (report["intact"], report["clean"]) == (2, True)
        for line in _store_lines(tmp_path / "dest"):
            assert line == _canonical_line(json.loads(line))
        assert RunStore(tmp_path / "dest").fingerprints() == source.fingerprints()


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
        assert summary == {
            "num_records": 2,
            "by_code": {"E_EXECUTION": 1, "E_TIMEOUT": 1},
            "retries": 1,
            "workers": ["w1"],
        }

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
        stored = _fail_for_good(store_dir, request)
        RunStore(store_dir).append(run_search(request), fingerprint=stored)
        failed = _fail_for_good(store_dir, _request(seed=1))
        audit = RunStore(store_dir).audit_summary()
        assert audit["num_records"] == 2
        assert audit["failed_cells"] == [failed]
        assert RunStore(store_dir).summary()["audit"] == audit

    def test_store_audit_summary_applies_the_final_failure_rule(self, tmp_path):
        """A re-admitted cell is pending until a record of its new life is
        final."""
        store_dir = tmp_path / "store"
        fingerprint = _fail_for_good(store_dir, _request())
        store = RunStore(store_dir)
        assert store.readmit_failed() == [fingerprint]
        assert store.audit_summary()["failed_cells"] == []
        (final,) = store.audit_records()
        retry = final.replace(attempt=1, final=False, time_s=time.time() + 1.0)
        store.record_error(retry)
        assert store.audit_summary()["failed_cells"] == []
        store.record_error(retry.replace(final=True, time_s=retry.time_s + 1.0))
        assert store.audit_summary()["failed_cells"] == [fingerprint]

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
        log.append(_envelope(code="E_POISON", fingerprint="cell-2", final=True))
        summary = summarize_audit(log.iter_records())
        assert summary["by_code"] == {
            "E_POISON": 1,
            "E_QUANTUM_DECAY": 1,
            "E_TIMEOUT": 1,
        }
        # a future code's final record fails its cell like any other
        assert RunStore(tmp_path).failed_cells() == ["cell-1", "cell-2"]

    def test_report_renders_dead_letter_count_not_the_list(self, tmp_path):
        store = RunStore(tmp_path / "sharded")
        store.audit_log("s/d", "sp").append(_envelope(code="E_POISON", final=True))
        from repro.analysis.reporting import ExperimentReport

        report = ExperimentReport(title="t")
        report.add_audit_summary(store.audit_summary())
        markdown = report.render_markdown()
        count_line = next(
            line for line in markdown.splitlines() if "permanently failed" in line
        )
        assert "**1** cell(s) permanently failed" in count_line
        assert "[" not in count_line and "cell-1" not in count_line
        assert "Failed cells: `cell-1`" in markdown
        assert "dead-lettered" not in markdown

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
        fingerprint = _fail_for_good(store_dir, _request())
        code = cli_main(["campaign", "--store", str(store_dir), "--retry-dead"])
        assert code == 0
        assert "1 dead-lettered cell(s) re-admitted" in capsys.readouterr().out
        assert not _failed(store_dir, fingerprint)
        assert cli_main(["campaign", "--store", str(store_dir), "--retry-dead"]) == 0
        assert "0 dead-lettered cell(s) re-admitted" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["table", "markdown", "json"])
    def test_report_does_not_count_a_readmitted_stored_cell(
        self, tmp_path, capsys, fmt
    ):
        store_dir = tmp_path / "store"
        request = _request()
        fingerprint = _fail_for_good(store_dir, request)
        assert cli_main(["campaign", "--store", str(store_dir), "--retry-dead"]) == 0
        RunStore(store_dir).append(run_search(request), fingerprint=fingerprint)
        capsys.readouterr()
        assert cli_main(["report", "--store", str(store_dir), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            audit = json.loads(out)["audit"]
            assert audit["num_records"] == 1
            assert audit["failed_cells"] == []
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
