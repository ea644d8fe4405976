"""The pull-worker loop: claim, execute, append, release.

A worker is an independent process (``repro worker --store DIR``) that
needs nothing but a shared store directory to join a campaign.  Its loop:

1. load the :class:`~repro.campaign.manifest.CampaignManifest` and open the
   :class:`~repro.campaign.store.RunStore`;
2. each cycle, :meth:`~repro.campaign.store.RunStore.refresh` and
   walk the manifest's unresolved cells — not stored, not permanently
   failed, not inside a retry-backoff window;
3. claim each via the :class:`~repro.campaign.leases.LeaseBoard` (expired
   leases of crashed peers are reclaimed transparently), **re-check the
   store under the lease** (a re-claimed finished cell is a no-op — the
   idempotence guarantee), execute under a heartbeat thread, append the
   outcome, release the lease;
4. failures become :class:`~repro.campaign.errors.ErrorEnvelope` records in
   the per-shard audit log; retryable ones are retried by whichever worker
   gets there after the exponential backoff, up to ``max_attempts``;
5. terminate once every manifest cell is resolved (stored, finally failed,
   or dead-lettered), sleeping ``poll_s`` between fruitless cycles while
   peers hold the remaining leases.

Because every coordination artifact is a file keyed by the request
fingerprint, any number of workers can run against one directory — on one
machine or many — and killing a worker at *any* point loses at most the
cell it was executing, which a peer reclaims one TTL later.

Supervision (see :mod:`repro.campaign.supervisor`) is layered on the same
loop when the manifest's policy opts in: cells execute under an enforced
:func:`~repro.campaign.supervisor.deadline` (overruns killed and audited
as ``E_TIMEOUT``), permanently failed cells — retry budget exhausted, or a
lease-reclaim history showing the cell repeatedly killed its workers — are
buried in the :class:`~repro.campaign.supervisor.DeadLetterQueue` and
never claimed again, and every result feeds the shared circuit breaker,
which pauses claiming while open.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.api.envelopes import SearchRequest
from repro.api.session import run_search
from repro.campaign.errors import ErrorEnvelope
from repro.campaign.leases import LEASES_DIRNAME, LeaseBoard, heartbeat
from repro.campaign.manifest import CampaignManifest, resolve_backoff
from repro.campaign.store import RunStore, StoreError
from repro.campaign.supervisor import (
    CampaignSupervisor,
    CellTimeout,
    DeadLetterQueue,
    deadline,
)
from repro.resilience.checkpoint import SearchCheckpoint

#: Subdirectory of the shared store holding per-cell search checkpoints
#: (only used when the manifest sets ``checkpoint_every > 0``).
CHECKPOINTS_DIRNAME = "checkpoints"

#: Progress callback: ``(worker_id, event, fingerprint)`` with event one of
#: ``"executed" | "skipped" | "failed" | "reclaimed" | "waiting" |
#: "buried" | "paused"``.
WorkerProgress = Callable[[str, str, str], None]


@dataclass
class WorkerReport:
    """What one worker process did over its lifetime."""

    worker: str
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    reclaimed: int = 0
    cycles: int = 0
    #: Cells this worker killed at their enforced deadline (``E_TIMEOUT``).
    timeout_kills: int = 0
    #: Cells this worker moved to the dead-letter queue.
    dead_lettered: int = 0
    wall_time_s: float = 0.0
    #: Fingerprints this worker personally stored, in completion order.
    fingerprints: List[str] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "executed": self.executed,
            "skipped": self.skipped,
            "failed": self.failed,
            "reclaimed": self.reclaimed,
            "cycles": self.cycles,
            "timeout_kills": self.timeout_kills,
            "dead_lettered": self.dead_lettered,
            "wall_time_s": self.wall_time_s,
        }


def default_worker_id() -> str:
    """A worker identity unique enough for audit records: host + pid."""
    host = os.uname().nodename if hasattr(os, "uname") else "host"
    return f"{host}-{os.getpid()}"


def final_failure(
    store: RunStore,
    fingerprint: str,
    request: SearchRequest,
    dead_letters: DeadLetterQueue,
) -> Optional[ErrorEnvelope]:
    """The failure that resolves a cell, or ``None`` while it needs work.

    A cell the store does not hold is finally failed when it is buried in
    the dead-letter queue, or when its last audit record is final.  That
    record is looked for after the cell's latest dead-letter re-admission:
    failures from a previous life do not keep a re-admitted cell failed.
    Workers stop claiming such a cell, and the ``pull-worker`` executor
    reports it failed with the returned envelope.
    """
    log = store.audit_log(request.scenario_name, request.search_space)
    if dead_letters.is_dead(fingerprint):
        # the burial resolves the cell even when no audit record explains it
        return log.last(fingerprint) or ErrorEnvelope(
            code="E_POISON",
            message="buried in the dead-letter queue",
            final=True,
            fingerprint=fingerprint,
        )
    last = log.last(fingerprint, since=dead_letters.readmitted_at(fingerprint))
    return last if last is not None and last.final else None


def run_worker(
    store_dir: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    manifest: Optional[CampaignManifest] = None,
    engine: Optional[Any] = None,
    max_cycles: Optional[int] = None,
    progress: Optional[WorkerProgress] = None,
) -> WorkerReport:
    """Run the pull loop against a shared store directory until done.

    Parameters
    ----------
    store_dir:
        Directory holding the run store, manifest and lease board.
    worker_id:
        Identity for leases/audit records (default ``<host>-<pid>``).
    manifest:
        Pre-loaded manifest (default: read ``manifest.json`` from the
        directory — the normal path for CLI workers).
    engine:
        Optional evaluation engine forwarded to ``run_search`` (in-process
        callers only; CLI workers use the default).
    max_cycles:
        Safety bound on poll cycles (``None`` = run to completion).
    progress:
        Optional ``(worker, event, fingerprint)`` callback.
    """
    store_dir = Path(store_dir)
    worker = worker_id or default_worker_id()
    if manifest is None:
        manifest = CampaignManifest.load(store_dir)
    policy = manifest.policy
    store = RunStore(store_dir)
    board = LeaseBoard(store_dir / LEASES_DIRNAME, worker, ttl_s=policy.ttl_s)
    supervisor = CampaignSupervisor(store_dir, policy)
    dead_letters = DeadLetterQueue(store_dir)
    requests = manifest.requests()
    report = WorkerReport(worker=worker)
    started = time.perf_counter()

    def note(event: str, fingerprint: str) -> None:
        if progress is not None:
            progress(worker, event, fingerprint)

    def bury(
        fingerprint: str,
        request: SearchRequest,
        envelope: ErrorEnvelope,
        reason: str,
        since: Optional[float],
    ) -> None:
        """Dead-letter one cell with its full failure chain."""
        log = store.audit_log(request.scenario_name, request.search_space)
        chain = list(log.history(fingerprint, since=since))
        if not chain or chain[-1].time_s != envelope.time_s:
            chain.append(envelope)
        dead_letters.bury(
            fingerprint, reason=reason, envelopes=chain, worker=worker
        )
        report.dead_lettered += 1
        note("buried", fingerprint)

    while True:
        report.cycles += 1
        store.refresh()
        progressed = False
        unresolved = 0
        for fingerprint, request in requests.items():
            if fingerprint in store or (
                final_failure(store, fingerprint, request, dead_letters)
                is not None
            ):
                continue
            unresolved += 1
            since = dead_letters.readmitted_at(fingerprint)
            log = store.audit_log(request.scenario_name, request.search_space)
            last = log.last(fingerprint, since=since)
            if last is not None:
                ready_at = resolve_backoff(
                    last.time_s,
                    last.attempt,
                    policy.backoff_base_s,
                    fingerprint=fingerprint,
                    max_backoff_s=policy.max_backoff_s,
                )
                if time.time() < ready_at:
                    continue  # inside the exponential-backoff window
            if not supervisor.circuit_allows():
                # breaker open (pause claiming until it cools down) or
                # half-open with every probe slot already handed out
                note("paused", fingerprint)
                continue
            lease = board.claim(fingerprint)
            if lease is None:
                supervisor.release_probe()
                continue  # a live peer holds it
            if lease.reclaims > 0:
                report.reclaimed += 1
                note("reclaimed", fingerprint)
            try:
                # idempotence: the lease may have been reclaimed from a peer
                # that finished the cell but died before releasing — re-check
                # the store *under the lease* and no-op if so
                store.refresh()
                if fingerprint in store:
                    supervisor.release_probe()
                    report.skipped += 1
                    note("skipped", fingerprint)
                    continue
                attempt = log.attempts(fingerprint, since=since) + 1
                if lease.reclaims >= policy.max_attempts:
                    # the cell's lease history shows it repeatedly *killing*
                    # workers (claimed, never reported, lease reclaimed) —
                    # a poison cell.  Bury it instead of feeding it another
                    # worker.
                    envelope = ErrorEnvelope(
                        code="E_POISON",
                        message=(
                            f"lease reclaimed {lease.reclaims}x without a "
                            f"result: the cell keeps killing its workers"
                        ),
                        retryable=False,
                        attempt=attempt,
                        final=True,
                        fingerprint=fingerprint,
                        worker=worker,
                        time_s=time.time(),
                        context={
                            "scenario": request.scenario_name,
                            "search_space": request.search_space,
                            "dead_letter": True,
                            "reclaims": lease.reclaims,
                        },
                    )
                    store.record_error(envelope)
                    bury(
                        fingerprint,
                        request,
                        envelope,
                        f"killed {lease.reclaims} workers (lease reclaims)",
                        since,
                    )
                    supervisor.record_result(False)
                    report.failed += 1
                    progressed = True
                    note("failed", fingerprint)
                    continue
                resilience_kwargs: Dict[str, Any] = {}
                if policy.checkpoint_every > 0:
                    # crash-safe mode: a reclaimed or retried cell resumes
                    # from its last snapshot instead of evaluation zero
                    resilience_kwargs = {
                        "checkpoint_dir": store_dir / CHECKPOINTS_DIRNAME,
                        "checkpoint_every": policy.checkpoint_every,
                        "resume": True,
                    }
                try:
                    with heartbeat(board, lease):
                        with deadline(policy.cell_timeout_s):
                            outcome = run_search(
                                request,
                                engine=engine,
                                **resilience_kwargs,
                            )
                    store.append(outcome, fingerprint=fingerprint)
                    if policy.checkpoint_every > 0:
                        SearchCheckpoint.discard(
                            store_dir / CHECKPOINTS_DIRNAME, fingerprint
                        )
                except StoreError:
                    # a racing peer stored the cell first — idempotent no-op
                    supervisor.release_probe()
                    report.skipped += 1
                    note("skipped", fingerprint)
                    continue
                except Exception as error:  # noqa: BLE001 - audited, not fatal
                    if isinstance(error, CellTimeout):
                        report.timeout_kills += 1
                        supervisor.note_timeout_kill()
                    envelope = ErrorEnvelope.from_exception(
                        error,
                        attempt=attempt,
                        fingerprint=fingerprint,
                        worker=worker,
                        context={
                            "scenario": request.scenario_name,
                            "search_space": request.search_space,
                        },
                        max_attempts=policy.max_attempts,
                    )
                    if envelope.final:
                        # permanently failed — dead-letter it so the burial
                        # reason and full chain survive next to the store
                        envelope = envelope.replace(
                            context=dict(envelope.context, dead_letter=True)
                        )
                        store.record_error(envelope)
                        bury(
                            fingerprint,
                            request,
                            envelope,
                            (
                                f"retry budget exhausted "
                                f"({attempt}/{policy.max_attempts})"
                                if envelope.retryable
                                else f"non-retryable {envelope.code}"
                            ),
                            since,
                        )
                    else:
                        store.record_error(envelope)
                    supervisor.record_result(False)
                    report.failed += 1
                    progressed = True
                    note("failed", fingerprint)
                    continue
                supervisor.record_result(True)
                report.executed += 1
                report.fingerprints.append(fingerprint)
                progressed = True
                note("executed", fingerprint)
            finally:
                board.release(lease)
        if unresolved == 0:
            break
        if max_cycles is not None and report.cycles >= max_cycles:
            break
        if not progressed:
            # everything unresolved is leased by peers or backing off
            note("waiting", "")
            time.sleep(policy.poll_s)
    report.wall_time_s = time.perf_counter() - started
    return report
