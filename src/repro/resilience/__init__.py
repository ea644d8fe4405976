"""In-search resilience: health telemetry and fault injection.

Two cooperating pieces make a search survivable and its degradations
visible (see ``docs/robustness.md``):

* :mod:`~repro.resilience.health` — structured ``H_*`` events recording
  every degradation-ladder fallback, with counters that ride on
  :class:`~repro.api.envelopes.SearchOutcome`;
* :mod:`~repro.resilience.faults` — a deterministic fault injector
  (forced ``LinAlgError``, NaN objectives, process kill at evaluation N)
  driving the tests and the chaos drills.

A search killed mid-run is not resumed: it is a pure function of its
request, so whoever retries it (``repro run`` again, or a campaign's lease
reclaim and retry) re-runs the request and gets the same result.
"""

from repro.resilience.faults import FaultInjector, KilledByFault
from repro.resilience.health import (
    HEALTH_CODES,
    HealthEvent,
    HealthLog,
    summarize_health,
)

__all__ = [
    "FaultInjector",
    "KilledByFault",
    "HEALTH_CODES",
    "HealthEvent",
    "HealthLog",
    "summarize_health",
]
