"""Structured health events for degraded-but-alive searches.

The numerical degradation ladder (:mod:`repro.optim.gp`,
:mod:`repro.optim.gp_bank`, :mod:`repro.optim.mobo`) never lets a search
crash on a recoverable condition — it falls back.  Every fallback is
recorded as a :class:`HealthEvent` in a :class:`HealthLog` so a degraded
run is *visible*: the log's counters ride on
:class:`~repro.api.envelopes.SearchOutcome` (fingerprint-neutral, like the
front history) and surface in ``repro report``.

Health codes
------------
======================== ====================================================
code                     meaning
======================== ====================================================
H_JITTER_ESCALATED       a Cholesky factorisation only succeeded after the
                         diagonal jitter was escalated (x10 up to a cap)
H_EXACT_REFIT            an incremental factor append failed; the bank
                         refit the full history from scratch instead
H_HETEROGENEOUS_FALLBACK the shared-factor fit failed even with escalated
                         jitter; per-objective GPs with escalated noise
                         were fit independently
H_RANDOM_ACQUISITION     the surrogate/acquisition stage failed outright;
                         that iteration's candidates were chosen at random
H_OBJECTIVE_QUARANTINED  an objective function returned non-finite (or
                         empty) values; the evaluation was recorded but
                         excluded from the archive and the surrogates
H_DUPLICATE_ACCEPTED     no unseen candidate could be sampled; a possible
                         duplicate was accepted
H_BUDGET_SHORTFALL       the random strategy found fewer distinct
                         candidates than its budget and evaluated only those
======================== ====================================================

This mirrors the campaign service's ``E_*`` error-code scheme
(:mod:`repro.campaign.errors`): ``E_*`` codes describe *failed cells*,
``H_*`` codes describe *degraded-but-completed searches*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping

#: Every known health code with a one-line description.  ``repro report``
#: legends read this mapping (a code stored by an older version and since
#: retired reads "(unknown code)"); ``tests/test_docs_code_tables.py``
#: checks the table in ``docs/robustness.md`` and this module's docstring
#: against it.
HEALTH_CODES: Dict[str, str] = {
    "H_JITTER_ESCALATED": "Cholesky succeeded only after jitter escalation",
    "H_EXACT_REFIT": "incremental append failed; refit from scratch",
    "H_HETEROGENEOUS_FALLBACK": "shared fit failed; per-objective GPs fit independently",
    "H_RANDOM_ACQUISITION": "surrogate stage failed; iteration fell back to random sampling",
    "H_OBJECTIVE_QUARANTINED": "non-finite objectives recorded but excluded from archive/GP",
    "H_DUPLICATE_ACCEPTED": "no unseen candidate could be sampled; a possible duplicate was accepted",
    "H_BUDGET_SHORTFALL": "the random strategy found fewer distinct candidates than its budget",
}


@dataclass
class HealthEvent:
    """One structured record of a resilience fallback firing."""

    code: str
    message: str = ""
    time_s: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in HEALTH_CODES:
            raise ValueError(
                f"unknown health code {self.code!r}; "
                f"known codes: {sorted(HEALTH_CODES)}"
            )
        if not self.time_s:
            self.time_s = time.time()


class HealthLog:
    """In-memory list of a search's health events.

    A log is cheap enough to create unconditionally: recording is an
    append to a Python list, and the healthy search path records nothing
    at all — the <2% hot-path overhead budget is enforced by
    ``benchmarks/bench_gp_hotpath.py``.
    """

    def __init__(self) -> None:
        self.events: List[HealthEvent] = []

    def record(self, code: str, message: str = "", **context: Any) -> HealthEvent:
        """Record one event."""
        event = HealthEvent(code=code, message=message, context=context)
        self.events.append(event)
        return event

    def counters(self) -> Dict[str, int]:
        """Event counts by code (sorted; the ``SearchOutcome.health`` field)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.code] = counts.get(event.code, 0) + 1
        return dict(sorted(counts.items()))

    def count(self, code: str) -> int:
        """Number of recorded events with ``code``."""
        return sum(1 for event in self.events if event.code == code)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # Truthy even when empty: the optimizer, the GP bank and the GP take
        # `health or HealthLog()`, and a search's shared log must reach them
        # all while it is still empty, not be swapped for a fresh one.
        return True


def summarize_health(counter_maps: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Merge per-outcome health counters into one campaign-level tally."""
    totals: Dict[str, int] = {}
    for counters in counter_maps:
        for code, count in (counters or {}).items():
            totals[str(code)] = totals.get(str(code), 0) + int(count)
    return dict(sorted(totals.items()))
