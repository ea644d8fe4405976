"""repro.campaign — a distributed, resumable search-campaign service.

A *campaign* runs the same search grid the paper's headline figures are
built from (scenarios x strategies x seeds) as one restartable unit:

* :mod:`repro.campaign.gridspec` — :class:`CampaignSpec`, the declarative
  grid (axes + shared budgets, JSON round-trip);
* :mod:`repro.campaign.store` — :class:`RunStore`, append-only JSONL
  shards of outcomes keyed by request fingerprint, one per (scenario x
  space), safe for concurrent writers, plus :func:`open_store` /
  :func:`fsck_store` / :func:`merge_stores` / :func:`export_metrics`;
* :mod:`repro.campaign.executors` — the :data:`EXECUTORS` registry of
  execution back-ends (``serial`` / ``process-pool`` / ``pull-worker``);
* :mod:`repro.campaign.leases` / :mod:`repro.campaign.manifest` /
  :mod:`repro.campaign.worker` — the crash-safe pull protocol behind the
  ``pull-worker`` executor (``repro worker`` on the CLI);
* :mod:`repro.campaign.errors` — :class:`ErrorEnvelope` failure records and
  per-shard audit logs;
* :mod:`repro.campaign.supervisor` — :class:`CampaignPolicy` and the
  supervision subsystem: enforced per-cell deadlines, poison-cell
  dead-lettering and a shared circuit breaker (see ``docs/distributed.md``);
* :mod:`repro.campaign.runner` — :func:`run_campaign`, which skips cells
  already in the store and hands the rest to the chosen executor.

Quickstart::

    from repro.campaign import CampaignSpec, RunStore, run_campaign

    spec = CampaignSpec(
        scenarios=("wifi-3mbps/jetson-tx2-gpu", "lte-3mbps/jetson-tx2-gpu"),
        strategies=("lens", "traditional", "random"),
        seeds=(0, 1),
        num_initial=10, num_iterations=30,
    )
    result = run_campaign(spec, RunStore("runs/paper-grid"), workers=4)
    print(result.summary())   # re-running executes only missing cells

Distributed::

    run_campaign(spec, RunStore("runs/shared"), executor="pull-worker", workers=4)
    # ... or point extra `repro worker --store runs/shared` processes at
    # the same directory from other machines.

The same machinery is scriptable from the command line; see
``python -m repro campaign --help``, ``python -m repro worker --help`` and
``docs/distributed.md``.
"""

from repro.campaign.errors import ERROR_CODES, AuditLog, ErrorEnvelope, summarize_audit
from repro.campaign.executors import EXECUTORS, CampaignExecutor
from repro.campaign.gridspec import CampaignSpec, expand_requests
from repro.campaign.leases import Lease, LeaseBoard
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import CampaignResult, CellFailure, run_campaign
from repro.campaign.store import (
    RunStore,
    StoreError,
    export_metrics,
    fsck_store,
    merge_stores,
    open_store,
)
from repro.campaign.supervisor import (
    CampaignPolicy,
    CampaignSupervisor,
    CellTimeout,
    CircuitBreaker,
    CircuitOpenError,
    DeadLetterQueue,
    deadline,
)
from repro.campaign.worker import WorkerReport, run_worker

__all__ = [
    "CampaignPolicy",
    "CampaignSupervisor",
    "CellTimeout",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadLetterQueue",
    "deadline",
    "fsck_store",
    "CampaignSpec",
    "expand_requests",
    "CampaignResult",
    "CellFailure",
    "run_campaign",
    "RunStore",
    "StoreError",
    "open_store",
    "merge_stores",
    "export_metrics",
    "EXECUTORS",
    "CampaignExecutor",
    "ErrorEnvelope",
    "ERROR_CODES",
    "AuditLog",
    "summarize_audit",
    "Lease",
    "LeaseBoard",
    "CampaignManifest",
    "WorkerReport",
    "run_worker",
]
