"""Campaign execution: plan the grid, run the rest through the pull loop.

:func:`run_campaign` takes a :class:`~repro.campaign.gridspec.CampaignSpec`
(or an explicit request list) and a run store, skips every cell whose
fingerprint the store already holds (*resume*), and runs the rest through
the one pull-worker loop, :func:`~repro.campaign.executors.run_worker`.
The executor name only says where that loop runs (see
:mod:`repro.campaign.executors`):

* ``serial`` — one loop in-process, on the caller's engine (default for
  ``workers <= 1``);
* ``process-pool`` — N loops in :mod:`multiprocessing` children (default
  for ``workers > 1``);
* ``pull-worker`` — N independent ``repro worker`` processes pulling from
  the shared :class:`~repro.campaign.store.RunStore` directory (see
  :doc:`docs/distributed`).

On every executor a loop appends each finished
:class:`~repro.api.envelopes.SearchOutcome` to the store as soon as it
completes, so an interrupted campaign loses at most the cells that were in
flight, and the policy's deadlines, retries and shared circuit breaker hold.
Failures become structured
:class:`~repro.campaign.errors.ErrorEnvelope` audit records; under the
policy's default ``on_error="fail"`` a loop claims no further cell once a
cell it ran has failed for good, and the campaign raises (finished cells
stay stored for resume), while ``on_error="continue"`` keeps going,
surfacing failed-cell counts in :meth:`CampaignResult.summary`.

Child loops read their requests from the published manifest, so only plain
data crosses process boundaries.  They resolve scenario, search-space and
strategy *names* through their own default registries (inherited when
forked, freshly imported otherwise); custom scenarios must therefore be
passed inline (a :class:`~repro.api.scenario.Scenario` object inside the
request serializes fully) or registered at import time.  Custom *search
spaces* have no inline form — a space registered only in the parent script
passes ``validate()`` there but raises in every ``repro worker``, so
register custom spaces from a module workers import (e.g. via
:func:`repro.api.registry.register_search_space` at module level) or run
with the ``serial`` executor.

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
from repro.campaign.errors import ErrorEnvelope
from repro.campaign.executors import executor_name, run_cells
from repro.campaign.gridspec import CampaignSpec, expand_requests
from repro.campaign.store import RunStore, StoreError, open_store
from repro.campaign.supervisor import CampaignPolicy, CampaignSupervisor

#: Optional ``callback(done_count, total_count, fingerprint, outcome)`` fired
#: once per cell: with the :class:`~repro.api.envelopes.SearchOutcome` of a
#: stored cell, the :class:`~repro.campaign.errors.ErrorEnvelope` of a cell
#: that failed for good, and ``None`` for a skipped (already stored) cell.
CampaignProgress = Callable[
    [int, int, str, Union[SearchOutcome, ErrorEnvelope, None]], None
]


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
        Fingerprints run by this call, in the order the parent saw them
        stored.
    skipped:
        Fingerprints that were already stored (resume hits), in grid order.
    failed:
        :class:`CellFailure` records of permanently failed cells (only
        returned under the policy's ``on_error="continue"``).
    workers / executor / wall_time_s:
        Execution settings and total duration of the call.
    timeout_kills:
        Cells killed at their enforced deadline during this call: the
        ``E_TIMEOUT`` records it added to the store's audit logs.
    circuit_state / circuit_transitions:
        The circuit breaker's final state plus its ``(time, from, to)``
        transition history, from the store's
        :meth:`~repro.campaign.supervisor.CampaignSupervisor.summary`.
        ``circuit_state`` is ``"disabled"`` when the policy never enables
        the breaker, so an unsupervised campaign's summary keys are stable.
    """

    store: RunStore
    executed: Tuple[str, ...] = ()
    skipped: Tuple[str, ...] = ()
    failed: Tuple[CellFailure, ...] = ()
    workers: int = 1
    executor: str = "serial"
    wall_time_s: float = 0.0
    timeout_kills: int = 0
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
            "circuit_state": self.circuit_state,
            "circuit_transitions": [
                list(t) for t in self.circuit_transitions
            ],
        }


def _timeout_kills(store: RunStore) -> int:
    """Deadline kills the store's audit logs hold: its ``E_TIMEOUT`` records."""
    return sum(1 for record in store.iter_audit_records() if record.code == "E_TIMEOUT")


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
    executor: Optional[str] = None,
    policy: Optional[CampaignPolicy] = None,
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
        Where the pull loop runs: ``"serial"``, ``"process-pool"`` or
        ``"pull-worker"`` (see :data:`~repro.campaign.executors.EXECUTOR_NAMES`);
        ``None`` picks by ``workers``.
    policy:
        The campaign's :class:`~repro.campaign.supervisor.CampaignPolicy`
        (default: ``CampaignPolicy()``), the one carrier of its settings:
        lease and retry limits, the enforced cell deadline, the circuit
        breaker and ``on_error``, on every executor.  Under
        ``on_error="fail"`` (default) a loop claims no further cell once a
        cell it ran has failed for good, and the campaign raises once every
        loop has ended — finished cells stay stored.  ``"continue"`` keeps
        going; failures are audited in the store and reported in the
        result.  With the breaker enabled, a campaign whose sliding-window
        failure rate trips the threshold aborts with
        :class:`~repro.campaign.supervisor.CircuitOpenError` (CLI exit
        code 4) without running the cells still queued.
    engine:
        Evaluation engine of the ``serial`` loop; shared across cells so
        predictors and layer costs are trained once per device.  Ignored by
        the other executors (each child keeps its own).
    progress:
        Optional :data:`CampaignProgress` callback.
    """
    policy = policy or CampaignPolicy()
    if isinstance(store, (str, Path)):
        store = open_store(store)
    if isinstance(spec, CampaignSpec):
        spec.validate()
    name = executor_name(executor, workers)
    workers = max(1, int(workers))
    kills_before = _timeout_kills(store)
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

    def resolved(fingerprint: str, failure: Optional[ErrorEnvelope]) -> None:
        nonlocal done
        done += 1
        if failure is not None:
            failures.append(CellFailure(fingerprint, failure))
        else:
            executed.append(fingerprint)
        if progress is not None:
            progress(
                done,
                total,
                fingerprint,
                store.get(fingerprint) if failure is None else failure,
            )

    left: List[str] = []
    if pending:
        left = run_cells(
            name,
            pending,
            store,
            workers=workers,
            policy=policy,
            engine=engine,
            resolved=resolved,
        )
    if failures and policy.on_error == "fail":
        first = failures[0]
        raise RuntimeError(
            f"campaign cell {first.fingerprint} failed ({len(executed)} finished "
            f"cells were stored; resume re-runs only the rest): "
            f"{first.envelope.message}"
        )
    if left:
        raise RuntimeError(
            f"every campaign worker exited with {len(left)} cell(s) "
            f"unresolved: {sorted(left)[:5]}"
        )
    supervision = CampaignSupervisor(store.directory, policy).summary()
    return CampaignResult(
        store=store,
        executed=tuple(executed),
        skipped=tuple(skipped),
        failed=tuple(failures),
        workers=workers,
        executor=name,
        wall_time_s=time.perf_counter() - start,
        timeout_kills=_timeout_kills(store) - kills_before,
        circuit_state=supervision["circuit_state"],
        circuit_transitions=tuple(
            tuple(t) for t in supervision["circuit_transitions"]
        ),
    )
