"""Crash-safe in-search checkpointing with deterministic resume-by-replay.

A :class:`CheckpointRecorder` taps a search's per-evaluation progress
stream and flushes a :class:`SearchCheckpoint` — the evaluated (candidate,
objectives, metadata, RNG state) history — every K evaluations
via the shared atomic temp-write+rename
(:func:`repro.utils.serialization.atomic_write_text`), into a
per-fingerprint directory::

    <checkpoint_dir>/<request fingerprint>/checkpoint.json
    <checkpoint_dir>/<request fingerprint>/health.jsonl

Resume is **replay, not state surgery**: searches are pure functions of
their request (seeded sampling, deterministic costing), so
``run_search(checkpoint_dir=..., resume=True)`` replays the recorded
candidates through the :class:`~repro.api.engine.EvaluationEngine` cache
in one batched evaluation and then re-runs the strategy from evaluation 0
— every recorded evaluation becomes a cache hit, and the resumed search
is bitwise-identical to an uninterrupted one (the incremental-Cholesky
factor, the RNG stream and the candidate sequence are all regenerated,
never restored).  The checkpointed RNG state is used as a *drift guard*:
on replay the live generator state is compared against the recorded one
at the recorded evaluation count, and any divergence (changed library,
changed environment) is surfaced as an ``H_RESUME_DRIFT`` health event
rather than silently producing a franken-run.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.resilience.health import HealthLog
from repro.utils.serialization import atomic_write_text, to_jsonable

#: File name of the snapshot inside a per-fingerprint checkpoint directory.
CHECKPOINT_FILENAME = "checkpoint.json"

#: File name of the persisted health-event stream next to the snapshot.
HEALTH_LOG_FILENAME = "health.jsonl"

#: Snapshot schema version (independent of the envelope schema).
CHECKPOINT_SCHEMA_VERSION = 1

#: Default flush period, in evaluations.
DEFAULT_CHECKPOINT_EVERY = 10


@dataclass
class CheckpointRecord:
    """One evaluated candidate as recorded in a checkpoint.

    Snapshots written before records dropped their ``features`` key still
    load: :meth:`from_dict` ignores it.
    """

    genotype: Tuple[int, ...]
    objectives: Tuple[float, ...]
    index: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "genotype": list(self.genotype),
            "objectives": list(self.objectives),
            "index": self.index,
            "metadata": to_jsonable(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckpointRecord":
        return cls(
            genotype=tuple(int(g) for g in data["genotype"]),
            objectives=tuple(float(o) for o in data["objectives"]),
            index=int(data.get("index", 0)),
            metadata=dict(data.get("metadata", {})),
        )


@dataclass
class SearchCheckpoint:
    """The evaluated history of one (possibly interrupted) search."""

    fingerprint: str
    records: List[CheckpointRecord] = field(default_factory=list)
    rng_state: Optional[Dict[str, Any]] = None
    complete: bool = False
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    @property
    def num_evaluations(self) -> int:
        return len(self.records)

    def genotypes(self) -> List[Tuple[int, ...]]:
        """The recorded candidate sequence (replay order)."""
        return [record.genotype for record in self.records]

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "complete": self.complete,
            "num_evaluations": self.num_evaluations,
            "rng_state": to_jsonable(self.rng_state) if self.rng_state else None,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchCheckpoint":
        version = int(data.get("schema_version", CHECKPOINT_SCHEMA_VERSION))
        if version < 1 or version > CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"cannot read checkpoint with schema_version={version}; "
                f"this library supports versions 1..{CHECKPOINT_SCHEMA_VERSION}"
            )
        return cls(
            fingerprint=str(data.get("fingerprint", "")),
            records=[CheckpointRecord.from_dict(r) for r in data.get("records", [])],
            rng_state=data.get("rng_state"),
            complete=bool(data.get("complete", False)),
            schema_version=version,
        )

    # ------------------------------------------------------------ persistence
    @staticmethod
    def cell_dir(checkpoint_dir: Union[str, Path], fingerprint: str) -> Path:
        """The per-fingerprint directory a search checkpoints into."""
        return Path(checkpoint_dir) / fingerprint

    def save(self, cell_dir: Union[str, Path]) -> Path:
        """Atomically write the snapshot (temp file + rename)."""
        path = Path(cell_dir) / CHECKPOINT_FILENAME
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True) + "\n")
        return path

    @classmethod
    def load(
        cls,
        cell_dir: Union[str, Path],
        health: Optional[HealthLog] = None,
    ) -> Optional["SearchCheckpoint"]:
        """Read a snapshot; ``None`` when absent or unreadable.

        Corruption is survivable by design (the atomic writer never leaves
        a torn file, but disks and humans do): an unreadable checkpoint is
        reported as ``H_CHECKPOINT_CORRUPT`` and ignored, so the search
        simply starts from evaluation 0.
        """
        path = Path(cell_dir) / CHECKPOINT_FILENAME
        if not path.is_file():
            return None
        try:
            return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError) as error:
            if health is not None:
                health.record(
                    "H_CHECKPOINT_CORRUPT",
                    f"ignoring unreadable checkpoint {path}: {error}",
                    path=str(path),
                )
            return None

    @staticmethod
    def discard(checkpoint_dir: Union[str, Path], fingerprint: str) -> None:
        """Remove a cell's checkpoint directory (idempotent)."""
        shutil.rmtree(
            SearchCheckpoint.cell_dir(checkpoint_dir, fingerprint),
            ignore_errors=True,
        )


class CheckpointRecorder:
    """Streams a search's evaluations into periodic atomic snapshots.

    Wired into the progress-callback chain by
    :func:`repro.api.session.run_search`; strategy loops additionally
    :meth:`bind_rng` their generator so each flush can snapshot its state.

    Parameters
    ----------
    cell_dir:
        The per-fingerprint directory snapshots are written into.
    fingerprint:
        The request fingerprint (stored in the snapshot for sanity checks).
    objectives_fn:
        Extractor turning a progress event's evaluation into the objective
        vector recorded for the drift guard.
    every:
        Flush period in evaluations (``0`` flushes only on finalize).
    health:
        Health log receiving ``H_CHECKPOINT_SAVED`` / ``H_RESUME_DRIFT``.
    resume_from:
        The checkpoint this run was resumed from, if any; replayed
        evaluations are verified against it (drift guard).
    """

    def __init__(
        self,
        cell_dir: Union[str, Path],
        fingerprint: str,
        objectives_fn: Callable[[Any], Sequence[float]],
        every: int = DEFAULT_CHECKPOINT_EVERY,
        health: Optional[HealthLog] = None,
        resume_from: Optional[SearchCheckpoint] = None,
    ):
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        self.cell_dir = Path(cell_dir)
        self.fingerprint = str(fingerprint)
        self.objectives_fn = objectives_fn
        self.every = int(every)
        self.health = health
        self.resume_from = resume_from
        self._records: List[CheckpointRecord] = []
        self._rng: Optional[np.random.Generator] = None
        self._drift_reported = False

    def bind_rng(self, rng: np.random.Generator) -> None:
        """Attach the strategy's generator so flushes snapshot its state."""
        self._rng = rng

    # ----------------------------------------------------------------- stream
    def on_evaluation(self, index: int, evaluation: Any) -> None:
        """Record one completed evaluation (and maybe flush)."""
        record = CheckpointRecord(
            genotype=tuple(int(g) for g in evaluation.genotype),
            objectives=tuple(float(o) for o in self.objectives_fn(evaluation)),
            index=int(index),
            metadata={"architecture": getattr(evaluation, "architecture_name", "")},
        )
        self._records.append(record)
        self._check_drift(record)
        if self.every > 0 and len(self._records) % self.every == 0:
            self.flush()

    def _check_drift(self, record: CheckpointRecord) -> None:
        """Compare a replayed evaluation against the checkpointed history."""
        if self.resume_from is None or self._drift_reported:
            return
        position = len(self._records) - 1
        if position < self.resume_from.num_evaluations:
            recorded = self.resume_from.records[position]
            if (
                record.genotype != recorded.genotype
                or record.objectives != recorded.objectives
            ):
                self._report_drift(
                    f"replayed evaluation {position} diverged from the "
                    f"checkpointed history",
                    index=position,
                )
                return
        if (
            len(self._records) == self.resume_from.num_evaluations
            and self.resume_from.rng_state is not None
            and self._rng is not None
        ):
            live = to_jsonable(self._rng.bit_generator.state)
            if live != self.resume_from.rng_state:
                self._report_drift(
                    "RNG state at the checkpointed evaluation count does not "
                    "match the recorded state",
                    index=len(self._records) - 1,
                )

    def _report_drift(self, message: str, **context: Any) -> None:
        self._drift_reported = True
        if self.health is not None:
            self.health.record("H_RESUME_DRIFT", message, **context)

    # ----------------------------------------------------------------- flush
    def _snapshot(self, complete: bool) -> SearchCheckpoint:
        rng_state = None
        if self._rng is not None:
            rng_state = to_jsonable(self._rng.bit_generator.state)
        return SearchCheckpoint(
            fingerprint=self.fingerprint,
            records=list(self._records),
            rng_state=rng_state,
            complete=complete,
        )

    def flush(self, complete: bool = False) -> Path:
        """Write the current history atomically; returns the path written."""
        path = self._snapshot(complete).save(self.cell_dir)
        if self.health is not None:
            self.health.record(
                "H_CHECKPOINT_SAVED",
                f"flushed {len(self._records)} evaluation(s)",
                num_evaluations=len(self._records),
                complete=complete,
            )
        return path

    def finalize(self) -> Path:
        """Mark the search complete and write the final snapshot."""
        return self.flush(complete=True)
