"""One pull loop runs every campaign cell; the executor names say where.

:func:`run_worker` is the only code that executes a cell.  Its loop:

1. load the :class:`~repro.campaign.manifest.CampaignManifest` and open the
   :class:`~repro.campaign.store.RunStore` of a shared store directory;
2. each cycle, :meth:`~repro.campaign.store.RunStore.refresh` the store,
   read its :meth:`~repro.campaign.store.RunStore.cell_failures` once, and
   walk the manifest's unresolved cells — not stored, not failed for good,
   not inside a retry-backoff window;
3. claim each via the :class:`~repro.campaign.leases.LeaseBoard` (expired
   leases of crashed peers are reclaimed transparently), **re-check the
   store and the cell's failures under the lease** (a re-claimed finished
   cell is a no-op — the idempotence guarantee — and the attempt number
   counts what peers audited meanwhile), run it under a heartbeat thread
   and the policy's :func:`~repro.campaign.supervisor.deadline`, append the
   outcome, release the lease;
4. failures become :class:`~repro.campaign.errors.ErrorEnvelope` records in
   the per-shard audit log; retryable ones are retried by whichever loop
   gets there after the exponential backoff, up to ``max_attempts``.  A
   cell that fails for good — retry budget exhausted, non-retryable, or a
   lease-reclaim history showing it repeatedly killed its workers — has a
   final last record, and no loop claims it again until ``repro campaign
   --retry-dead`` re-admits it.  Every result feeds the shared circuit
   breaker, which pauses claiming while open;
5. end once every manifest cell is resolved (stored or failed for good),
   sleeping ``poll_s`` between fruitless cycles while peers hold the
   remaining leases.  Under ``on_error="fail"`` a loop also ends once a
   cell it ran has failed for good.

Because every coordination artifact is a file keyed by the request
fingerprint, any number of loops can run against one directory — on one
machine or many — and killing one at *any* point loses at most the cell it
was running, which a peer reclaims one TTL later.

:func:`run_cells` runs a campaign's pending cells through that loop.  The
executor names of :func:`~repro.campaign.runner.run_campaign` only say
where the loop runs:

``serial``
    One loop in the calling process, on the caller's evaluation engine.
    Default for ``workers <= 1``.
``process-pool``
    N loops in :mod:`multiprocessing` children, started with the
    platform's default start method (forked children start with the
    parent's imports).  Default for ``workers > 1``.
``pull-worker``
    N ``repro worker`` subprocesses, the path that further workers on other
    machines join by pointing at the same directory.

The parent publishes the manifest, then sweeps the store while the loops
run, reporting each cell once as it is stored or fails for good.  A local
loop (in-process or child) that finds the breaker open stops; ``repro
worker`` subprocesses pause for half-open probes instead, so the parent
stops them.  Once every cell is resolved and no lease is held, the parent
stops the children still idling in their poll sleep.  Every child is
joined before :func:`run_cells` returns.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.api.envelopes import SearchRequest
from repro.api.registry import unknown_name
from repro.api.session import run_search
from repro.campaign.errors import ErrorEnvelope
from repro.campaign.leases import LEASES_DIRNAME, LeaseBoard, heartbeat
from repro.campaign.manifest import CampaignManifest, resolve_backoff
from repro.campaign.store import CellFailures, RunStore, StoreError
from repro.campaign.supervisor import (
    CIRCUIT_OPEN,
    CampaignPolicy,
    CampaignSupervisor,
    CellTimeout,
    CircuitOpenError,
    deadline,
)

#: Where :func:`run_cells` can run the loop (``run_campaign(executor=...)``).
EXECUTOR_NAMES = ("process-pool", "pull-worker", "serial")

#: Progress callback: ``(worker_id, event, fingerprint)`` with event one of
#: ``"executed" | "skipped" | "failed" | "reclaimed" | "waiting" |
#: "buried" | "paused"`` (``"buried"`` precedes the ``"failed"`` of a cell
#: that failed for good).
WorkerProgress = Callable[[str, str, str], None]


@dataclass
class WorkerReport:
    """What one worker loop did over its lifetime."""

    worker: str
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    reclaimed: int = 0
    cycles: int = 0
    #: Cells this worker killed at their enforced deadline (``E_TIMEOUT``).
    timeout_kills: int = 0
    #: Cells whose failure under this worker was final (failed for good).
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
        Pre-loaded manifest, walked in its cell order (default: read
        ``manifest.json`` from the directory — the normal path for CLI
        workers).
    engine:
        Optional evaluation engine forwarded to ``run_search`` (in-process
        callers only; CLI workers use the default).
    max_cycles:
        Safety bound on poll cycles (``None`` = run to completion).
    progress:
        Optional ``(worker, event, fingerprint)`` callback.  An exception it
        raises ends the loop (after the current cell's lease is released).
    """
    store_dir = Path(store_dir)
    worker = worker_id or default_worker_id()
    if manifest is None:
        manifest = CampaignManifest.load(store_dir)
    policy = manifest.policy
    store = RunStore(store_dir)
    board = LeaseBoard(store_dir / LEASES_DIRNAME, worker, ttl_s=policy.ttl_s)
    supervisor = CampaignSupervisor(store_dir, policy)
    requests = manifest.requests()
    report = WorkerReport(worker=worker)
    started = time.perf_counter()

    def note(event: str, fingerprint: str) -> None:
        if progress is not None:
            progress(worker, event, fingerprint)

    def backing_off(cell: Optional[CellFailures]) -> bool:
        """Whether a failed cell is inside its exponential-backoff window."""
        return cell is not None and time.time() < resolve_backoff(
            cell.last.time_s,
            cell.last.attempt,
            policy.backoff_base_s,
            fingerprint=cell.last.fingerprint,
            max_backoff_s=policy.max_backoff_s,
        )

    def fail(envelope: ErrorEnvelope) -> bool:
        """Audit one failed attempt; returns whether the loop must stop.

        Under ``on_error="fail"`` a loop claims nothing after a cell it ran
        failed for good.
        """
        store.record_error(envelope)
        if envelope.final:
            report.dead_lettered += 1
            note("buried", envelope.fingerprint)
        supervisor.record_result(False)
        report.failed += 1
        note("failed", envelope.fingerprint)
        return envelope.final and policy.on_error == "fail"

    halted = False
    while not halted:
        report.cycles += 1
        store.refresh()
        failures = store.cell_failures()
        progressed = False
        unresolved = 0
        for fingerprint, request in requests.items():
            if halted:
                break
            cell = failures.get(fingerprint)
            if fingerprint in store or (cell is not None and cell.failed):
                continue
            unresolved += 1
            if backing_off(cell):
                continue
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
                # and re-read its failures: a peer may have audited another
                # attempt since this cycle began, so max_attempts and the
                # backoff hold against concurrent loops
                cell = store.cell_failures().get(fingerprint)
                if cell is not None and (cell.failed or backing_off(cell)):
                    supervisor.release_probe()
                    continue
                attempt = 1 if cell is None else cell.attempts + 1
                context = {
                    "scenario": request.scenario_name,
                    "search_space": request.search_space,
                }
                if lease.reclaims >= policy.max_attempts:
                    # the cell's lease history shows it repeatedly *killing*
                    # workers (claimed, never reported, lease reclaimed) —
                    # a poison cell.  Fail it for good instead of feeding it
                    # another worker.
                    halted = fail(
                        ErrorEnvelope(
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
                            context=dict(context, reclaims=lease.reclaims),
                        )
                    )
                    progressed = True
                    continue
                try:
                    with heartbeat(board, lease):
                        with deadline(policy.cell_timeout_s):
                            outcome = run_search(request, engine=engine)
                    store.append(outcome, fingerprint=fingerprint)
                except StoreError:
                    # a racing peer stored the cell first — idempotent no-op
                    supervisor.release_probe()
                    report.skipped += 1
                    note("skipped", fingerprint)
                    continue
                except Exception as error:  # noqa: BLE001 - audited, not fatal
                    if isinstance(error, CellTimeout):
                        report.timeout_kills += 1
                    halted = fail(
                        ErrorEnvelope.from_exception(
                            error,
                            attempt=attempt,
                            fingerprint=fingerprint,
                            worker=worker,
                            context=context,
                            max_attempts=policy.max_attempts,
                        )
                    )
                    progressed = True
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
        if not progressed and not halted:
            # everything unresolved is leased by peers or backing off
            note("waiting", "")
            time.sleep(policy.poll_s)
    report.wall_time_s = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------- where the loop runs


class _Halt(Exception):
    """Raised by a local loop's progress hook to end the loop."""


def _halt_when_paused(worker: str, event: str, fingerprint: str) -> None:
    """Progress hook of a local loop: stop at an open breaker, not pause."""
    if event == "paused":
        raise _Halt


def _child_loop(store_dir: str, manifest: CampaignManifest) -> None:
    """Body of a ``process-pool`` child: one loop on its default engine.

    Besides stopping at an open breaker, the loop ends after its current
    cell once the parent process is gone, so a killed campaign leaves no
    orphan draining the grid.
    """
    parent = multiprocessing.parent_process()

    def hook(worker: str, event: str, fingerprint: str) -> None:
        _halt_when_paused(worker, event, fingerprint)
        if parent is not None and not parent.is_alive():
            raise _Halt

    try:
        run_worker(store_dir, manifest=manifest, progress=hook)
    except _Halt:
        pass


def _subprocess_env() -> Dict[str, str]:
    """Child environment whose ``PYTHONPATH`` resolves the ``repro`` package."""
    env = dict(os.environ)
    package_root = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{package_root}{os.pathsep}{existing}" if existing else package_root
        )
    return env


class _WorkerCommand(subprocess.Popen):
    """A ``repro worker`` subprocess, with the calls the parent makes on a
    :class:`multiprocessing.Process` child."""

    #: No handle to wait on: the parent polls these children.
    sentinel = None

    def __init__(self, store_dir: Path, worker_id: str):
        super().__init__(
            [
                sys.executable, "-m", "repro", "worker",
                "--store", str(store_dir), "--worker-id", worker_id,
            ],
            env=_subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def is_alive(self) -> bool:
        return self.poll() is None

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self.wait(timeout)
        except subprocess.TimeoutExpired:
            pass


def executor_name(executor: Optional[str], workers: int) -> str:
    """Check ``run_campaign``'s ``executor=``; ``None`` picks by ``workers``."""
    if executor is None:
        return "serial" if workers <= 1 else "process-pool"
    if not isinstance(executor, str):
        raise TypeError(
            f"executor must be None or one of {list(EXECUTOR_NAMES)}, got "
            f"{type(executor)!r}"
        )
    if executor not in EXECUTOR_NAMES:
        raise unknown_name("campaign executor", executor, EXECUTOR_NAMES)
    return executor


def run_cells(
    executor: str,
    pending: Sequence[Tuple[str, SearchRequest]],
    store: RunStore,
    *,
    workers: int,
    policy: CampaignPolicy,
    engine: Optional[Any],
    resolved: Callable[[str, Optional[ErrorEnvelope]], None],
) -> List[str]:
    """Run pending cells through the pull loop wherever ``executor`` says.

    ``resolved(fingerprint, failure)`` is called once per cell as the
    parent's sweep finds it stored (``failure=None``) or failed for good,
    in that order.  Returns the fingerprints still unresolved once every
    loop has ended.  Raises
    :class:`~repro.campaign.supervisor.CircuitOpenError` when the shared
    breaker opened with cells left.
    """
    manifest = CampaignManifest.from_requests(
        [request for _, request in pending], policy=policy
    )
    manifest.write(store.directory)
    unresolved = dict(pending)

    def sweep() -> None:
        store.refresh()
        # the loops' own rule, so a re-admitted cell is not failed by the
        # records of its previous life
        failures = store.cell_failures()
        for fingerprint in list(unresolved):
            cell = failures.get(fingerprint)
            if fingerprint in store:
                failure = None
            elif cell is not None and cell.failed:
                failure = cell.last
            else:
                continue
            del unresolved[fingerprint]
            resolved(fingerprint, failure)

    supervisor = CampaignSupervisor(store.directory, policy)
    if executor == "serial":
        def hook(worker: str, event: str, fingerprint: str) -> None:
            sweep()
            _halt_when_paused(worker, event, fingerprint)

        try:
            run_worker(
                store.directory, manifest=manifest, engine=engine, progress=hook
            )
        except _Halt:
            pass
    else:
        children: List[Any] = []
        leases = LeaseBoard(
            store.directory / LEASES_DIRNAME, "campaign", ttl_s=policy.ttl_s
        )
        interval = min(0.2, policy.poll_s)
        try:
            for index in range(workers):
                if executor == "process-pool":
                    child = multiprocessing.Process(
                        target=_child_loop, args=(str(store.directory), manifest)
                    )
                    child.start()
                else:
                    child = _WorkerCommand(store.directory, f"w{index}")
                children.append(child)
            while True:
                live = [child for child in children if child.is_alive()]
                if not live:
                    break
                sweep()
                if not unresolved and all(
                    leases.holder(fingerprint) is None for fingerprint, _ in pending
                ):
                    # every cell is resolved and no loop is inside one: the
                    # loops left would idle up to poll_s before seeing it
                    break
                if executor == "pull-worker" and (
                    supervisor.circuit_state() == CIRCUIT_OPEN
                ):
                    break  # paused `repro worker`s never exit on their own
                sentinels = [
                    child.sentinel for child in live if child.sentinel is not None
                ]
                if sentinels:
                    multiprocessing.connection.wait(sentinels, interval)
                else:
                    time.sleep(interval)
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
            for child in children:
                child.join(10.0)
                if child.is_alive():
                    child.kill()
                    child.join()
    sweep()
    if unresolved and supervisor.circuit_state() == CIRCUIT_OPEN:
        raise CircuitOpenError(
            f"campaign circuit breaker is open (failure rate over the last "
            f"{policy.circuit_window} cells reached "
            f"{policy.circuit_threshold:g}); {len(unresolved)} cell(s) left "
            f"unexecuted"
        )
    return list(unresolved)
