"""Pluggable campaign executors behind a string-keyed registry.

:func:`~repro.campaign.runner.run_campaign` plans the grid (expand, dedupe,
resume-skip) and persists results; *how* the pending cells actually execute
is delegated to a :class:`CampaignExecutor` resolved by name through
:data:`EXECUTORS` — the same registry idiom as devices, search spaces and
strategies (:mod:`repro.api.registry`).

Built-in executors
------------------
``serial``
    In-process loop sharing one evaluation engine.  Deterministic order,
    best cache reuse, no parallelism.  Default for ``workers <= 1``.
``process-pool``
    A :class:`concurrent.futures.ProcessPoolExecutor` fan-out (the
    pre-existing parallel path, refactored behind the interface).  Default
    for ``workers > 1``.
``pull-worker``
    Publishes a :class:`~repro.campaign.manifest.CampaignManifest` into a
    shared :class:`~repro.campaign.store.RunStore` directory and
    launches N ``repro worker`` processes that *pull* cells through the
    lease protocol (:mod:`repro.campaign.leases`).  The only executor that
    survives worker crashes mid-campaign, and the same protocol additional
    workers on other machines join by pointing at the directory.

Executors report results through the :class:`ExecutionContext` callbacks —
``record`` for outcomes, ``fail`` for error envelopes — and never touch the
store directly unless their protocol requires it (pull workers persist
outcomes themselves; they pass ``persisted=True`` so the runner does not
append twice).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.registry import Registry
from repro.api.session import run_search
from repro.campaign.errors import ErrorEnvelope
from repro.campaign.manifest import CampaignManifest
from repro.campaign.store import RunStore
from repro.campaign.supervisor import (
    CIRCUIT_OPEN,
    CampaignPolicy,
    CampaignSupervisor,
    CircuitOpenError,
    DeadLetterQueue,
    deadline,
)
from repro.campaign.worker import final_failure


@dataclass
class ExecutionContext:
    """Everything an executor needs to run one campaign's pending cells.

    Attributes
    ----------
    pending:
        ``(fingerprint, request)`` pairs still to execute, in grid order.
    store:
        The destination store (executors that persist results themselves —
        pull workers — need its directory; others leave writes to ``record``).
    workers:
        Parallelism degree requested by the caller.
    policy:
        The campaign's :class:`~repro.campaign.supervisor.CampaignPolicy`.
        Its ``on_error="fail"`` stops launching new cells after the first
        failure; ``"continue"`` records the envelope and keeps going.
    engine:
        Optional evaluation-engine override (in-process executors only).
    record / fail:
        Result callbacks provided by the runner.  ``record(fingerprint,
        outcome, persisted=False)`` stores a finished cell (``persisted=True``
        means the executor already wrote it); ``fail(fingerprint, envelope,
        persisted=False)`` registers a permanent failure likewise.
    """

    pending: List[Tuple[str, SearchRequest]]
    store: Any
    workers: int = 1
    policy: CampaignPolicy = field(default_factory=CampaignPolicy)
    engine: Optional[Any] = None
    record: Callable[..., None] = lambda *a, **k: None
    fail: Callable[..., None] = lambda *a, **k: None

    @property
    def stop_on_error(self) -> bool:
        return self.policy.on_error == "fail"


class CampaignExecutor:
    """Protocol of a campaign executor.

    Subclasses implement :meth:`run`, reporting every pending cell exactly
    once through ``context.record`` / ``context.fail`` (except cells skipped
    because ``on_error="fail"`` stopped the campaign early).
    """

    #: Registry key (also shown in ``CampaignResult.summary()``).
    name: str = "base"

    def run(self, context: ExecutionContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------- serial


class SerialExecutor(CampaignExecutor):
    """In-process loop sharing one engine across cells.

    Honours the policy's ``cell_timeout_s``: each cell runs under
    :func:`~repro.campaign.supervisor.deadline`, so an overrun raises
    :class:`~repro.campaign.supervisor.CellTimeout` and is enveloped as
    ``E_TIMEOUT`` like any other failure.
    """

    name = "serial"

    def run(self, context: ExecutionContext) -> None:
        cell_timeout_s = context.policy.cell_timeout_s
        for fingerprint, request in context.pending:
            try:
                with deadline(cell_timeout_s):
                    outcome = run_search(request, engine=context.engine)
            except Exception as error:  # noqa: BLE001 - enveloped
                context.fail(
                    fingerprint,
                    ErrorEnvelope.from_exception(
                        error,
                        fingerprint=fingerprint,
                        worker=self.name,
                        context={
                            "scenario": request.scenario_name,
                            "search_space": request.search_space,
                        },
                    ),
                )
                if context.stop_on_error:
                    return
                continue
            context.record(fingerprint, outcome)


# ---------------------------------------------------------------------- process pool


def _execute_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one serialized request, return a plain dict.

    Module-level (picklable) and dict-in/dict-out so it crosses process
    boundaries regardless of start method; ``SearchOutcome.to_dict`` holds
    JSON built-ins only.  The per-process default engine warms up across
    the cells a worker executes.
    """
    return run_search(SearchRequest.from_dict(payload)).to_dict()


class ProcessPoolCampaignExecutor(CampaignExecutor):
    """Fan cells out over a :class:`ProcessPoolExecutor`.

    Workers resolve scenario/space/strategy *names* through their own
    freshly-imported registries, so custom components must be registered at
    import time (see the :mod:`repro.campaign.runner` docstring).  A failing
    cell never discards finished work: successes are stored as they
    complete, and under ``on_error="fail"`` not-yet-started cells are
    cancelled while in-flight ones drain.

    ``cell_timeout_s`` is **not** enforced here (a pool worker cannot be
    killed per-cell without losing its warm engine); use the
    ``pull-worker`` executor when deadlines matter.
    """

    name = "process-pool"

    def run(self, context: ExecutionContext) -> None:
        if not context.pending:
            return
        requests = dict(context.pending)
        failed_once = False
        with ProcessPoolExecutor(max_workers=max(1, context.workers)) as pool:
            futures = {
                pool.submit(_execute_request, request.to_dict()): fingerprint
                for fingerprint, request in context.pending
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    if future.cancelled():
                        continue
                    fingerprint = futures[future]
                    try:
                        outcome = SearchOutcome.from_dict(future.result())
                    except Exception as error:  # noqa: BLE001 — drain the rest
                        if context.stop_on_error and not failed_once:
                            for outstanding in remaining:
                                outstanding.cancel()
                        failed_once = True
                        request = requests[fingerprint]
                        context.fail(
                            fingerprint,
                            ErrorEnvelope.from_exception(
                                error,
                                fingerprint=fingerprint,
                                worker=self.name,
                                context={
                                    "scenario": request.scenario_name,
                                    "search_space": request.search_space,
                                },
                            ),
                        )
                        continue
                    context.record(fingerprint, outcome)


# ---------------------------------------------------------------------- pull worker


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


class PullWorkerExecutor(CampaignExecutor):
    """Launch N ``repro worker`` processes pulling from a shared store.

    The executor publishes the manifest, spawns the workers, then
    *observes*: it polls the store, reporting newly appeared outcomes
    (``persisted=True`` — the workers already wrote them) and
    finally-failed audit records, until every pending cell is resolved.
    Workers crashing is survivable — peers reclaim their leases; the
    campaign only fails if **all** workers exit with cells still
    unresolved.

    Its settings are the campaign's
    :class:`~repro.campaign.supervisor.CampaignPolicy` fields: ``ttl_s``
    lease expiry window, ``poll_s`` poll interval, ``max_attempts`` /
    ``backoff_base_s`` / ``max_backoff_s`` retry policy, ``cell_timeout_s``
    enforced per-cell deadline, ``checkpoint_every`` crash-safe mid-search
    checkpointing (``0`` disables; see ``docs/robustness.md``), and the
    ``circuit_*`` breaker knobs.  If the shared breaker opens mid-campaign
    the observer raises
    :class:`~repro.campaign.supervisor.CircuitOpenError` (CLI exit code 4)
    after shutting the workers down.
    """

    name = "pull-worker"

    def run(self, context: ExecutionContext) -> None:
        store = context.store
        if not context.pending:
            return
        manifest = CampaignManifest.from_requests(
            [request for _, request in context.pending], policy=context.policy
        )
        manifest.write(store.directory)
        env = _subprocess_env()
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "--store",
                    str(store.directory),
                    "--worker-id",
                    f"w{index}",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for index in range(max(1, context.workers))
        ]
        try:
            self._observe(context, store, manifest, workers)
        except CircuitOpenError:
            # paused workers never exit on their own — tell them to stop
            # before the finally block waits on them
            for process in workers:
                if process.poll() is None:
                    process.terminate()
            raise
        finally:
            for process in workers:
                if process.poll() is None:
                    try:
                        process.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        process.terminate()
                        try:
                            process.wait(timeout=5.0)
                        except subprocess.TimeoutExpired:
                            process.kill()
                            process.wait()

    def _observe(
        self,
        context: ExecutionContext,
        store: RunStore,
        manifest: CampaignManifest,
        workers: List[subprocess.Popen],
    ) -> None:
        dead_letters = DeadLetterQueue(store.directory)

        def sweep(unresolved: Dict[str, SearchRequest]) -> None:
            store.refresh()
            for fingerprint in list(unresolved):
                request = unresolved[fingerprint]
                if fingerprint in store:
                    context.record(
                        fingerprint, store.get(fingerprint), persisted=True
                    )
                    del unresolved[fingerprint]
                    continue
                # the workers' own rule, so a re-admitted dead-letter cell
                # is not failed by the records of its previous life
                failure = final_failure(store, fingerprint, request, dead_letters)
                if failure is not None:
                    context.fail(fingerprint, failure, persisted=True)
                    del unresolved[fingerprint]

        policy = manifest.policy
        supervisor = CampaignSupervisor(store.directory, policy)
        unresolved = dict(context.pending)
        while unresolved:
            sweep(unresolved)
            if not unresolved:
                break
            if (
                policy.circuit_enabled
                and supervisor.circuit_state() == CIRCUIT_OPEN
            ):
                # the shared breaker tripped: abort the campaign instead of
                # burning the remaining grid (workers are shut down by the
                # caller's finally block; the store keeps what finished)
                raise CircuitOpenError(
                    f"campaign circuit breaker is open (failure rate over "
                    f"the last {policy.circuit_window} cells reached "
                    f"{policy.circuit_threshold:g}); {len(unresolved)} "
                    f"cell(s) left unexecuted"
                )
            if all(process.poll() is not None for process in workers):
                # one final sweep so results stored right before the last
                # worker exited are not missed
                sweep(unresolved)
                if unresolved:
                    raise RuntimeError(
                        f"all pull workers exited with {len(unresolved)} "
                        f"campaign cell(s) unresolved: "
                        f"{sorted(unresolved)[:5]}"
                    )
                break
            time.sleep(min(0.2, policy.poll_s))


# ---------------------------------------------------------------------- registry

#: String-keyed registry of campaign executors; ``EXECUTORS.create(name)``
#: returns a fresh executor instance.  Register custom executors with
#: ``EXECUTORS.register("my-executor", MyExecutor)``.
EXECUTORS = Registry(
    "campaign executor",
    {
        SerialExecutor.name: SerialExecutor,
        ProcessPoolCampaignExecutor.name: ProcessPoolCampaignExecutor,
        PullWorkerExecutor.name: PullWorkerExecutor,
    },
)


def resolve_executor(
    executor: Optional[Any], workers: int
) -> CampaignExecutor:
    """Turn ``run_campaign``'s ``executor=`` argument into an instance.

    ``None`` keeps the historical behaviour: ``serial`` for ``workers <= 1``,
    ``process-pool`` otherwise.  Strings resolve through :data:`EXECUTORS`;
    instances pass through untouched.
    """
    if executor is None:
        executor = "serial" if workers <= 1 else "process-pool"
    if isinstance(executor, str):
        return EXECUTORS.create(executor)
    if isinstance(executor, CampaignExecutor):
        return executor
    raise TypeError(
        f"executor must be None, a registry name or a CampaignExecutor, "
        f"got {type(executor)!r}"
    )
