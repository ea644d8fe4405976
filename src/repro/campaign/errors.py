"""Structured failure records for distributed campaigns.

One bad cell must never kill a million-cell campaign.  Every failure inside
the campaign service is therefore captured as an :class:`ErrorEnvelope` — a
uniform ``code``/``message``/``retryable``/``attempt`` record in the style
of service error-code schemes — and appended to an :class:`AuditLog`, an
append-only JSONL file living next to the store data it describes.  Workers
read the audit log back to drive bounded retry with exponential backoff:
the number of prior attempts and the timestamp of the last failure are both
recoverable from the log alone, so retry state survives worker crashes.

Error codes
-----------
========== ========= ====================================================
code       retryable meaning
========== ========= ====================================================
E_REGISTRY no        unknown scenario / search-space / strategy name
E_VALIDATION no      invalid request field values
E_STORE    no        store inconsistency (corrupt record, duplicate key)
E_WORKER_LOST yes    a worker process died before returning a result
E_TIMEOUT  yes       the cell exceeded its time limit
E_SYSTEM   yes       OS-level failure (out of memory, I/O error)
E_EXECUTION no       the search strategy raised while running
E_POISON   no        the cell exhausted its retry budget; dead-lettered
E_INTERNAL no        anything else — a library bug
========== ========= ====================================================

Retryable codes describe conditions that can heal (a crashed peer, a full
disk); non-retryable codes are deterministic — re-running the same request
would fail the same way — so workers mark them ``final`` on first sight.

Forward compatibility: audit logs written by a *newer* version of this
package may carry ``E_*`` codes this version does not know.
:meth:`ErrorEnvelope.from_dict` preserves such records (conservatively
non-retryable) instead of dropping them, so ``repro report`` over a shared
store never under-counts failures; direct construction stays strict.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.utils.serialization import append_jsonl_atomic

#: ``code -> (description, retryable)`` — the uniform error-code scheme of
#: the campaign service (documented in ``docs/distributed.md``).
ERROR_CODES: Dict[str, tuple] = {
    "E_REGISTRY": ("unknown scenario/search-space/strategy name", False),
    "E_VALIDATION": ("invalid request field values", False),
    "E_STORE": ("store inconsistency", False),
    "E_WORKER_LOST": ("worker process died before returning a result", True),
    "E_TIMEOUT": ("cell exceeded its time limit", True),
    "E_SYSTEM": ("OS-level failure (memory, I/O)", True),
    "E_EXECUTION": ("search strategy raised while running", False),
    "E_POISON": (
        "cell exhausted its retry budget or repeatedly killed workers; "
        "dead-lettered",
        False,
    ),
    "E_INTERNAL": ("unexpected library failure", False),
}

#: Shape of a plausible future error code — see the forward-compatibility
#: note in the module docstring.
_FUTURE_CODE = re.compile(r"^E_[A-Z][A-Z0-9_]*$")


def classify_error(error: BaseException) -> str:
    """Map an exception to its campaign error code.

    Import-order safe: registry/store types are matched by class name as
    well as identity, so classification works in worker processes that
    raised through a different import path.
    """
    names = {cls.__name__ for cls in type(error).__mro__}
    if "RegistryError" in names:
        return "E_REGISTRY"
    if "StoreError" in names:
        return "E_STORE"
    if isinstance(error, (TimeoutError,)):
        return "E_TIMEOUT"
    if "BrokenProcessPool" in names or "BrokenExecutor" in names:
        return "E_WORKER_LOST"
    if isinstance(error, (MemoryError, OSError)):
        return "E_SYSTEM"
    if isinstance(error, (ValueError, TypeError, KeyError)):
        return "E_VALIDATION"
    if isinstance(error, Exception):
        return "E_EXECUTION"
    return "E_INTERNAL"


@dataclass(frozen=True)
class ErrorEnvelope:
    """One structured failure record.

    Parameters
    ----------
    code:
        A key of :data:`ERROR_CODES`.
    message:
        Human-readable description (usually ``str(exception)``).
    retryable:
        Whether re-running the cell can succeed.  Defaults to the code's
        table entry.
    attempt:
        1-based attempt number of the failed execution.
    final:
        ``True`` once the cell is permanently failed (non-retryable error,
        or the retry budget is exhausted) — workers treat final cells as
        resolved and stop claiming them.
    fingerprint / worker / time_s / context:
        Which cell failed, who ran it, when (epoch seconds), and optional
        routing metadata (scenario / search space).
    """

    code: str
    message: str
    retryable: bool = False
    attempt: int = 1
    final: bool = False
    fingerprint: Optional[str] = None
    worker: Optional[str] = None
    time_s: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(
                f"unknown error code {self.code!r}; "
                f"known codes: {sorted(ERROR_CODES)}"
            )

    @classmethod
    def from_exception(
        cls,
        error: BaseException,
        *,
        attempt: int = 1,
        fingerprint: Optional[str] = None,
        worker: Optional[str] = None,
        context: Optional[Mapping[str, Any]] = None,
        max_attempts: int = 1,
    ) -> "ErrorEnvelope":
        """Wrap an exception, deciding retryability and finality.

        A failure is ``final`` when its code is non-retryable or the
        attempt just made was the last one allowed.
        """
        code = classify_error(error)
        retryable = ERROR_CODES[code][1]
        return cls(
            code=code,
            message=f"{type(error).__name__}: {error}",
            retryable=retryable,
            attempt=int(attempt),
            final=(not retryable) or attempt >= max_attempts,
            fingerprint=fingerprint,
            worker=worker,
            time_s=time.time(),
            context=dict(context or {}),
        )

    def replace(self, **changes: Any) -> "ErrorEnvelope":
        """Copy with the given fields changed."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
            "attempt": self.attempt,
            "final": self.final,
            "fingerprint": self.fingerprint,
            "worker": self.worker,
            "time_s": self.time_s,
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorEnvelope":
        code = str(data["code"])
        fields = dict(
            code=code,
            message=str(data.get("message", "")),
            retryable=bool(data.get("retryable", False)),
            attempt=int(data.get("attempt", 1)),
            final=bool(data.get("final", False)),
            fingerprint=data.get("fingerprint"),
            worker=data.get("worker"),
            time_s=float(data.get("time_s", 0.0)),
            context=dict(data.get("context", {})),
        )
        if code not in ERROR_CODES and _FUTURE_CODE.match(code):
            # a record written by a newer version: preserve it rather than
            # rejecting it, but never trust an unknown code to be retryable
            fields["retryable"] = False
            envelope = object.__new__(cls)
            for name, value in fields.items():
                object.__setattr__(envelope, name, value)
            return envelope
        return cls(**fields)


class AuditLog:
    """Append-only JSONL log of :class:`ErrorEnvelope` records.

    Safe for concurrent writers (single atomic append per record) and for
    readers at any time: a torn trailing line is skipped, never half-parsed.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, envelope: ErrorEnvelope) -> None:
        """Persist one failure record."""
        append_jsonl_atomic(self.path, envelope.to_dict())

    def iter_records(self) -> Iterator[ErrorEnvelope]:
        """Stream every intact record in append order, one at a time.

        This is the memory-bounded path: a million-record audit log is
        never materialised as a list, so ``repro report`` and
        :func:`summarize_audit` read it in O(1) memory.
        """
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn tail — a writer is (or was) mid-append
                try:
                    yield ErrorEnvelope.from_dict(json.loads(raw))
                except (ValueError, KeyError):
                    continue  # interleave casualty; compaction removes it

    def records(self) -> List[ErrorEnvelope]:
        """Every intact record, in append order (see :meth:`iter_records`)."""
        return list(self.iter_records())

    def attempts(self, fingerprint: str, since: Optional[float] = None) -> int:
        """Number of recorded failures of one cell.

        ``since`` ignores records at or before that epoch time — the
        baseline a re-admitted dead-letter cell restarts its retry budget
        from.
        """
        return sum(1 for _ in self.history(fingerprint, since=since))

    def history(
        self, fingerprint: str, since: Optional[float] = None
    ) -> Iterator[ErrorEnvelope]:
        """Stream one cell's failure records, optionally after ``since``."""
        for record in self.iter_records():
            if record.fingerprint != fingerprint:
                continue
            if since is not None and record.time_s <= since:
                continue
            yield record

    def last(
        self, fingerprint: str, since: Optional[float] = None
    ) -> Optional[ErrorEnvelope]:
        """Most recent failure record of one cell, if any."""
        match = None
        for record in self.history(fingerprint, since=since):
            match = record
        return match

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())


def summarize_audit(records: Iterable[ErrorEnvelope]) -> Dict[str, Any]:
    """Aggregate audit records into the shape reports and the CLI print.

    Returns ``num_records``, per-``code`` counts, the fingerprints of
    permanently failed cells, how many records were retries
    (``attempt > 1``), which workers reported failures, and how many cells
    were dead-lettered (records whose ``context`` carries
    ``dead_letter=True``).  Single-pass and streaming: ``records`` may be a
    generator (e.g. :meth:`AuditLog.iter_records`) and is never
    materialised, so arbitrarily long audit logs summarise in O(1) memory.
    """
    num_records = 0
    by_code: Dict[str, int] = {}
    failed: List[str] = []
    failed_seen = set()
    dead_lettered = set()
    workers = set()
    retries = 0
    for record in records:
        num_records += 1
        by_code[record.code] = by_code.get(record.code, 0) + 1
        if record.final and record.fingerprint:
            if record.fingerprint not in failed_seen:
                failed_seen.add(record.fingerprint)
                failed.append(record.fingerprint)
        if record.fingerprint and record.context.get("dead_letter"):
            dead_lettered.add(record.fingerprint)
        if record.attempt > 1:
            retries += 1
        if record.worker:
            workers.add(record.worker)
    return {
        "num_records": num_records,
        "by_code": dict(sorted(by_code.items())),
        "failed_cells": sorted(failed),
        "retries": retries,
        "workers": sorted(workers),
        "dead_lettered": sorted(dead_lettered),
    }
