"""Campaign execution: plan the grid, delegate to a pluggable executor.

:func:`run_campaign` takes a :class:`~repro.campaign.gridspec.CampaignSpec`
(or an explicit request list) and a run store, skips every cell whose
fingerprint the store already holds (*resume*), and hands the rest to a
:class:`~repro.campaign.executors.CampaignExecutor` resolved by name
through :data:`~repro.campaign.executors.EXECUTORS`:

* ``serial`` — in-process, one shared engine (default for ``workers <= 1``);
* ``process-pool`` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out (default for ``workers > 1``);
* ``pull-worker`` — N independent ``repro worker`` processes pulling from a
  shared :class:`~repro.campaign.store.RunStore` directory through the
  crash-safe lease protocol (see :doc:`docs/distributed`).

Each finished :class:`~repro.api.envelopes.SearchOutcome` is appended to
the store as soon as it completes, so an interrupted campaign loses at
most the cells that were in flight.  Failures become structured
:class:`~repro.campaign.errors.ErrorEnvelope` audit records; under the
default ``on_error="fail"`` the first failure stops the campaign (finished
cells stay stored for resume), while ``on_error="continue"`` records the
envelope and keeps going, surfacing failed-cell counts in
:meth:`CampaignResult.summary`.

Out-of-process executors ship requests to workers in their serialized dict
form and rebuild outcomes from dicts in the parent, so only plain data
crosses process boundaries.  Workers resolve scenario, search-space and
strategy *names* through their own (freshly imported) default registries;
custom scenarios must therefore be passed inline (a
:class:`~repro.api.scenario.Scenario` object inside the request serializes
fully) or registered at import time.  Custom *search spaces* have no inline
form — a space registered only in the parent script passes ``validate()``
there but raises in every worker, so register custom spaces from a module
workers import (e.g. via :func:`repro.api.registry.register_search_space`
at module level) or run with the ``serial`` executor.

Results agree across executors within 1e-9, not bit for bit: every run is
seeded through its request, but a warm evaluation engine (shared across
the cells one process runs) serves values that another cell's candidate
pools computed, and a pool's last bits depend on which candidates share it
(see :class:`~repro.api.engine.EvaluationEngine`).  One-candidate pools are
bitwise identical to the scalar oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.engine import EvaluationEngine
from repro.api.envelopes import SearchOutcome, SearchRequest, request_fingerprint
from repro.api.scenario import ScenarioRegistry
from repro.campaign.errors import ErrorEnvelope
from repro.campaign.executors import (
    EXECUTORS,
    CampaignExecutor,
    ExecutionContext,
    _execute_request,  # noqa: F401  (re-exported; pickled by older callers)
    resolve_executor,
)
from repro.campaign.gridspec import CampaignSpec, expand_requests
from repro.campaign.store import RunStore, StoreError, open_store
from repro.campaign.supervisor import (
    CIRCUIT_OPEN,
    CampaignPolicy,
    CampaignSupervisor,
    CircuitBreaker,
    CircuitOpenError,
)

#: Optional ``callback(done_count, total_count, fingerprint, outcome)`` fired
#: after each cell is stored (and once per skipped cell, with ``outcome=None``).
CampaignProgress = Callable[[int, int, str, Optional[SearchOutcome]], None]


@dataclass(frozen=True)
class CellFailure:
    """One permanently failed campaign cell."""

    fingerprint: str
    envelope: ErrorEnvelope

    def to_dict(self) -> Dict[str, Any]:
        return {"fingerprint": self.fingerprint, "envelope": self.envelope.to_dict()}


@dataclass
class CampaignResult:
    """What one :func:`run_campaign` call did.

    Attributes
    ----------
    store:
        The store every outcome went into.
    executed:
        Fingerprints run by this call, in completion order.
    skipped:
        Fingerprints that were already stored (resume hits), in grid order.
    failed:
        :class:`CellFailure` records of permanently failed cells (only
        non-empty under ``on_error="continue"``).
    workers / executor / wall_time_s:
        Execution settings and total duration of the call.
    timeout_kills / dead_lettered / circuit_state / circuit_transitions:
        Supervision telemetry (see :mod:`repro.campaign.supervisor`):
        cells killed at their enforced deadline, cells moved to the
        dead-letter queue, and the circuit breaker's final state plus its
        ``(time, from, to)`` transition history.  ``circuit_state`` is
        ``"disabled"`` when the policy never enables the breaker, so an
        unsupervised campaign's summary keys are stable.
    """

    store: RunStore
    executed: Tuple[str, ...] = ()
    skipped: Tuple[str, ...] = ()
    failed: Tuple[CellFailure, ...] = ()
    workers: int = 1
    executor: str = "serial"
    wall_time_s: float = 0.0
    timeout_kills: int = 0
    dead_lettered: int = 0
    circuit_state: str = "disabled"
    circuit_transitions: Tuple[Any, ...] = ()

    @property
    def total_cells(self) -> int:
        """Grid size seen by this call (executed + skipped + failed)."""
        return len(self.executed) + len(self.skipped) + len(self.failed)

    def summary(self) -> Dict[str, Any]:
        """Compact dict form (for logs and the CLI)."""
        return {
            "store": str(self.store.directory),
            "total_cells": self.total_cells,
            "executed": len(self.executed),
            "skipped": len(self.skipped),
            "failed": len(self.failed),
            "failed_cells": [failure.fingerprint for failure in self.failed],
            "workers": self.workers,
            "executor": self.executor,
            "wall_time_s": self.wall_time_s,
            "timeout_kills": self.timeout_kills,
            "dead_lettered": self.dead_lettered,
            "circuit_state": self.circuit_state,
            "circuit_transitions": [
                list(t) for t in self.circuit_transitions
            ],
        }


def _plan(
    spec: Union[CampaignSpec, Sequence[SearchRequest]],
    store: RunStore,
    resume: bool,
) -> Tuple[List[Tuple[str, SearchRequest]], List[str]]:
    """Split the grid into (pending fingerprint/request pairs, skipped)."""
    pending: List[Tuple[str, SearchRequest]] = []
    skipped: List[str] = []
    seen: Dict[str, SearchRequest] = {}
    for request in expand_requests(spec):
        fingerprint = request_fingerprint(request)
        if fingerprint in seen:
            continue  # identical cell declared twice — run it once
        seen[fingerprint] = request
        if fingerprint in store:
            if not resume:
                raise StoreError(
                    f"cell {fingerprint} ({request.scenario_name} x "
                    f"{request.strategy}, seed={request.seed}) is already stored "
                    f"in {store.directory} and resume is disabled"
                )
            skipped.append(fingerprint)
        else:
            pending.append((fingerprint, request))
    return pending, skipped


def run_campaign(
    spec: Union[CampaignSpec, Sequence[SearchRequest]],
    store: Union[RunStore, str, Path],
    *,
    workers: int = 1,
    resume: bool = True,
    executor: Optional[Union[str, CampaignExecutor]] = None,
    executor_options: Optional[Dict[str, Any]] = None,
    policy: Optional[CampaignPolicy] = None,
    on_error: str = "fail",
    scenarios: Optional[ScenarioRegistry] = None,
    engine: Optional[EvaluationEngine] = None,
    progress: Optional[CampaignProgress] = None,
) -> CampaignResult:
    """Execute a campaign grid into a persistent store.

    Parameters
    ----------
    spec:
        A :class:`CampaignSpec` or an explicit request sequence.
    store:
        Target store — a :class:`~repro.campaign.store.RunStore` or its
        directory path.
    workers:
        Parallelism degree.  With ``executor=None``, ``<= 1`` runs the
        ``serial`` executor and larger values the ``process-pool`` one.
    resume:
        Skip cells whose fingerprint the store already holds (default).
        ``resume=False`` raises *before any cell runs* if part of the grid
        is already stored, rather than silently duplicating records.
    executor:
        Executor name from :data:`~repro.campaign.executors.EXECUTORS`
        (``"serial"``, ``"process-pool"``, ``"pull-worker"``) or an
        instance; ``None`` picks by ``workers``.
    executor_options:
        Executor-specific settings (e.g. ``ttl_s`` / ``poll_s`` /
        ``max_attempts`` / ``backoff_base_s`` for ``pull-worker``).
    policy:
        Optional :class:`~repro.campaign.supervisor.CampaignPolicy`
        carrying the supervision knobs (enforced cell deadline, retry and
        backoff limits, circuit breaker).  Its fields merge *under* any
        flat ``executor_options`` (explicit options win).  With the
        breaker enabled, a campaign whose sliding-window failure rate
        trips the threshold aborts with
        :class:`~repro.campaign.supervisor.CircuitOpenError` (CLI exit
        code 4); out-of-process supervision (dead-lettering, shared
        breaker state) applies on the ``pull-worker`` executor, while
        in-process executors track the breaker in memory.
    on_error:
        ``"fail"`` (default) stops on the first failed cell and raises
        after draining in-flight work — finished cells stay stored.
        ``"continue"`` records an error envelope in the store's audit log
        and keeps going; failures are reported in the result.
    scenarios:
        Registry used for upfront validation and by the serial path
        (defaults to :data:`repro.api.scenario.SCENARIOS`).
    engine:
        Evaluation engine for the serial path; shared across cells so
        predictors and layer costs are trained once per device.  Ignored by
        out-of-process executors (each worker keeps its own).
    progress:
        Optional :data:`CampaignProgress` callback.
    """
    if on_error not in ("fail", "continue"):
        raise ValueError(
            f"on_error must be 'fail' or 'continue', got {on_error!r}"
        )
    if isinstance(store, (str, Path)):
        store = open_store(store)
    if isinstance(spec, CampaignSpec):
        spec.validate(scenarios)
    resolved = resolve_executor(executor, workers)
    start = time.perf_counter()
    pending, skipped = _plan(spec, store, resume)
    total = len(pending) + len(skipped)
    done = 0
    for fingerprint in skipped:
        done += 1
        if progress is not None:
            progress(done, total, fingerprint, None)

    executed: List[str] = []
    failures: List[CellFailure] = []

    # in-process circuit breaker: pull workers share the file-backed one
    # (via the manifest policy); every other executor feeds this in-memory
    # breaker through the record/fail callbacks below
    breaker: Optional[CircuitBreaker] = None
    if (
        policy is not None
        and policy.circuit_enabled
        and resolved.name != "pull-worker"
    ):
        breaker = CircuitBreaker(
            window=policy.circuit_window,
            threshold=policy.circuit_threshold,
            cooldown_s=policy.circuit_cooldown_s,
            probes=policy.circuit_probes,
        )

    def _trip(success: bool) -> None:
        if breaker is None:
            return
        if breaker.record(success) == CIRCUIT_OPEN:
            raise CircuitOpenError(
                f"campaign circuit breaker is open (failure rate over the "
                f"last {breaker.window} cells reached {breaker.threshold:g})"
            )

    def _record(
        fingerprint: str, outcome: SearchOutcome, persisted: bool = False
    ) -> None:
        nonlocal done
        if not persisted:
            store.append(outcome, fingerprint=fingerprint)
        executed.append(fingerprint)
        done += 1
        if progress is not None:
            progress(done, total, fingerprint, outcome)
        _trip(True)

    def _fail(
        fingerprint: str, envelope: ErrorEnvelope, persisted: bool = False
    ) -> None:
        nonlocal done
        if not persisted:
            store.record_error(envelope, **envelope.context)
        failures.append(CellFailure(fingerprint, envelope))
        done += 1
        _trip(False)

    options = dict(policy.to_dict()) if policy is not None else {}
    options.update(executor_options or {})
    if pending:
        resolved.run(
            ExecutionContext(
                pending=pending,
                store=store,
                workers=max(1, int(workers)),
                on_error=on_error,
                scenarios=scenarios,
                engine=engine,
                record=_record,
                fail=_fail,
                options=options,
            )
        )
    if failures and on_error == "fail":
        first = failures[0]
        raise RuntimeError(
            f"campaign cell {first.fingerprint} failed ({len(executed)} finished "
            f"cells were stored; resume re-runs only the rest): "
            f"{first.envelope.message}"
        )

    # supervision telemetry: the pull-worker path persists it next to the
    # store; in-process paths derive it from the failures and the breaker
    if resolved.name == "pull-worker":
        supervision = CampaignSupervisor(
            store.directory, policy or CampaignPolicy()
        ).summary()
        timeout_kills = supervision["timeout_kills"]
        dead_lettered = supervision["dead_lettered"]
        circuit_state = supervision["circuit_state"]
        circuit_transitions = tuple(
            tuple(t) for t in supervision["circuit_transitions"]
        )
    else:
        timeout_kills = sum(
            1 for failure in failures if failure.envelope.code == "E_TIMEOUT"
        )
        dead_lettered = 0
        if breaker is not None:
            circuit_state = breaker.state
            circuit_transitions = tuple(breaker.transitions)
        else:
            circuit_state = "disabled"
            circuit_transitions = ()

    return CampaignResult(
        store=store,
        executed=tuple(executed),
        skipped=tuple(skipped),
        failed=tuple(failures),
        workers=max(1, int(workers)),
        executor=resolved.name,
        wall_time_s=time.perf_counter() - start,
        timeout_kills=timeout_kills,
        dead_lettered=dead_lettered,
        circuit_state=circuit_state,
        circuit_transitions=circuit_transitions,
    )
