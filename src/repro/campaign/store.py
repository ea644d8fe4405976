"""Persistent, resumable, multi-writer storage of search outcomes.

A :class:`RunStore` is a directory of append-only JSONL files, one serialized
:class:`~repro.api.envelopes.SearchOutcome` record per line, keyed by request
fingerprint:

* ``shards/<key>.jsonl`` — every outcome is routed deterministically to the
  shard of the (scenario x search space) context its request declares
  (:func:`shard_key`);
* ``audit/<key>.jsonl`` — per-shard logs of structured
  :class:`~repro.campaign.errors.ErrorEnvelope` failure records.

Opening a store scans the shards into an in-memory fingerprint -> (shard,
byte offset) index, which is never written to disk; an ``index.json`` left
by older versions is ignored.

Legacy stores
-------------
Stores written before the sharded layout hold one ``runs.jsonl`` plus a
root ``audit.jsonl``.  They open without a conversion step: ``runs.jsonl``
is read as one more, read-only shard and ``audit.jsonl`` as one more audit
log, both listed first.  Every append goes to ``shards/``; a record a
``shards/`` file holds supersedes a legacy record of the same fingerprint.

Concurrency and durability
--------------------------
Shards accept **concurrent writers**: every append is one ``O_APPEND``
``os.write`` under an advisory ``flock``
(:func:`~repro.utils.serialization.append_jsonl_atomic`), so records from
independent ``repro worker`` processes on one machine land whole and never
interleave.  A record is durable once its newline is on disk.  The scan is
*tolerant*:

* an unterminated tail is not durable yet; it is re-examined by the next
  :meth:`RunStore.refresh` and never truncated — the next append
  terminates a dead writer's fragment first, so it becomes one corrupt
  line;
* an unparseable line (``corrupt_lines``) or a record whose CRC32 disagrees
  with its content (``crc_mismatches``, see :func:`record_crc`) is skipped,
  counted in :meth:`RunStore.summary`, and never served; ``repro store
  fsck --repair`` (:func:`fsck_store`) quarantines it;
* a duplicate fingerprint (a lease reclaimed from a worker that died after
  appending but before releasing) resolves latest-record-wins
  ("superseded"), and :meth:`RunStore.compact` drops the dead bytes.

Opening a store for reading never writes, so a monitoring ``repro report``
cannot disturb a live campaign.  Reads follow one deterministic order —
the legacy shard first, then shards sorted by key, append order within a
shard — which paginates consistently across reopens.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.envelopes import SearchOutcome, request_fingerprint
from repro.campaign.errors import AuditLog, ErrorEnvelope, summarize_audit
from repro.campaign.supervisor import DeadLetterQueue
from repro.nn.spaces import DEFAULT_SEARCH_SPACE
from repro.utils.serialization import append_jsonl_atomic, to_jsonable

#: Name of the legacy single-file record file, read as a read-only shard.
RUNS_FILENAME = "runs.jsonl"

#: Name of the legacy root audit log, read before the per-shard logs.
AUDIT_FILENAME = "audit.jsonl"

#: Subdirectory holding the per-(scenario x space) shard JSONL files.
SHARDS_DIRNAME = "shards"

#: Subdirectory holding the per-shard audit logs.
AUDIT_DIRNAME = "audit"

#: Subdirectory where :func:`fsck_store` with ``repair=True`` banishes bad lines.
QUARANTINE_DIRNAME = "quarantine"

#: Shard key of the legacy ``runs.jsonl`` (never a :func:`shard_key` value,
#: which always ends in ``-<hex digest>``).
LEGACY_SHARD = "_legacy"

#: Hex digits of the shard-key hash suffix (collision guard for slugs).
_SHARD_HASH_LENGTH = 8


class StoreError(RuntimeError):
    """A run store's on-disk state is inconsistent."""


def record_crc(record: Dict[str, Any]) -> int:
    """CRC32 of one store record, over a canonical serialization.

    The checksum covers every field except ``crc32`` itself, serialized
    with sorted keys and tight separators — independent of the key order
    and whitespace of the line actually on disk, so a compacted or merged
    record verifies identically.  New records carry the result as a
    ``crc32`` field; records written before the field existed verify
    vacuously (there is nothing to check them against).
    """
    payload = {key: value for key, value in record.items() if key != "crc32"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return zlib.crc32(blob) & 0xFFFFFFFF


def verify_record_crc(record: Dict[str, Any]) -> bool:
    """Whether a record's stored ``crc32`` matches its content.

    Records without the field (pre-CRC stores) pass — old stores keep
    reading — but a present-and-wrong checksum means the bytes rotted on
    disk (or were tampered with) and the record must never be served.
    """
    stored = record.get("crc32")
    if stored is None:
        return True
    try:
        return int(stored) == record_crc(record)
    except (TypeError, ValueError):
        return False


def _parse_record(raw: bytes) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One store line as ``(record, index summary)``.

    Raises ``ValueError`` or ``TypeError`` unless the line is a record: a
    JSON object with a ``fingerprint`` and an object ``outcome`` holding the
    ``request`` and ``scenario`` objects that
    :meth:`~repro.api.envelopes.SearchOutcome.from_dict` reads without a
    default, whose index summary names its scenario, strategy and search
    space with strings.  The store scan and :func:`fsck_store` share this
    check, so a line fsck keeps is one the scan serves, and every other line
    is corrupt to both.
    """
    record = json.loads(raw.decode("utf-8"))
    if not isinstance(record, dict) or "fingerprint" not in record:
        raise ValueError("not a store record: no fingerprint")
    outcome = record.get("outcome")
    if not isinstance(outcome, dict) or not all(
        isinstance(outcome.get(key), dict) for key in ("request", "scenario")
    ):
        raise ValueError(
            "not a store record: its outcome lacks a request or scenario object"
        )
    summary = _record_summary(record)
    if not all(
        isinstance(summary[key], str) for key in ("scenario", "strategy", "search_space")
    ):
        raise ValueError(
            "not a store record: its scenario, strategy or search space is not a string"
        )
    return record, summary


def _record_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    """Compact index entry derived from one serialized outcome record."""
    outcome = record["outcome"]
    request = outcome.get("request", {})
    scenario = request.get("scenario", "?")
    if isinstance(scenario, dict):
        scenario = scenario.get("name", "?")
    return {
        "scenario": scenario,
        "strategy": request.get("strategy", "?"),
        # schema-v1 records predate the search_space field: default space
        "search_space": request.get("search_space", DEFAULT_SEARCH_SPACE),
        "seed": request.get("seed"),
        "num_candidates": len(outcome.get("candidates", [])),
        "wall_time_s": float(outcome.get("wall_time_s", 0.0)),
    }


def shard_key(scenario: str, search_space: str) -> str:
    """Deterministic shard key of one (scenario, search space) context.

    A readable slug plus a short hash of the exact pair, so two contexts
    whose names slugify identically still land in different shards, and the
    routing is stable across processes, platforms and store reopens.
    """
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", f"{scenario}--{search_space}")
    slug = slug.strip("-") or "shard"
    digest = hashlib.sha256(
        f"{scenario}\x00{search_space}".encode("utf-8")
    ).hexdigest()[:_SHARD_HASH_LENGTH]
    return f"{slug}-{digest}"


@dataclass
class _Shard:
    """In-memory scan state of one shard file."""

    key: str
    path: Path
    #: Byte position up to which the file has been durably parsed; a torn
    #: tail past it is re-examined on the next :meth:`RunStore.refresh`.
    good_end: int = 0
    #: Unparseable lines skipped by the tolerant scanner.
    corrupt_lines: int = 0
    #: Lines that parsed but failed their CRC32 check (disk rot) — counted,
    #: never indexed, never served; ``fsck_store`` quarantines them.
    crc_mismatches: int = 0
    #: ``fingerprint -> (offset, summary)`` in append order (dict ordering).
    entries: Dict[str, Tuple[int, Dict[str, Any]]] = field(default_factory=dict)
    #: Records replaced by a later append of the same fingerprint.
    superseded: int = 0


class RunStore:
    """Fingerprint-keyed persistent collection of search outcomes.

    Parameters
    ----------
    directory:
        Store directory; created (with parents) by the first append.
        Existing shard files, and a legacy ``runs.jsonl``, are indexed
        immediately.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.shards_dir = self.directory / SHARDS_DIRNAME
        self.audit_dir = self.directory / AUDIT_DIRNAME
        self._shards: Dict[str, _Shard] = {}
        #: fingerprint -> shard key (offsets live in the shard entries).
        self._routing: Dict[str, str] = {}
        self.refresh(full=True)

    # ------------------------------------------------------------------ scanning
    def refresh(self, full: bool = False) -> None:
        """(Re)scan the store files, picking up concurrent writers' appends.

        Incremental by default: each known shard is re-read only past its
        last durable byte, so a refresh inside a polling worker costs the
        new records, not the whole store.  A shard that *shrank* (an
        external :meth:`compact` or repair) is rescanned in full.
        """
        if full:
            self._shards.clear()
            self._routing.clear()
        for key, path in _data_files(self.directory):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            shard = self._shards.setdefault(key, _Shard(key=key, path=path))
            if size < shard.good_end:
                for fingerprint in shard.entries:
                    self._routing.pop(fingerprint, None)
                shard = self._shards[key] = _Shard(key=key, path=path)
            if size > shard.good_end:
                self._scan_shard(shard)

    def _scan_shard(self, shard: _Shard) -> None:
        """Tolerantly index the records from ``good_end`` to the durable end."""
        with shard.path.open("rb") as handle:
            handle.seek(shard.good_end)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn tail: not durable (yet) — re-read next time
                offset = shard.good_end
                shard.good_end += len(raw)
                try:
                    record, summary = _parse_record(raw)
                except (ValueError, TypeError):
                    # a line mangled by a writer killed mid-append, or one
                    # without the record shape; skip it but keep scanning
                    # — later records are intact
                    shard.corrupt_lines += 1
                    continue
                if not verify_record_crc(record):
                    # parses but the checksum disagrees: disk rot.  A rotten
                    # record must never be served; fsck quarantines the line.
                    shard.crc_mismatches += 1
                    continue
                self._index_record(shard, str(record["fingerprint"]), offset, summary)

    def _index_record(
        self, shard: _Shard, fingerprint: str, offset: int, summary: Dict[str, Any]
    ) -> None:
        owner = self._routing.get(fingerprint, shard.key)
        if owner != shard.key:
            if LEGACY_SHARD not in (owner, shard.key):
                raise StoreError(
                    f"fingerprint {fingerprint!r} appears in shards {owner!r} "
                    f"and {shard.key!r}; the store needs manual repair"
                )
            # one cell in the legacy file and in a shard: every shard record
            # was appended after the legacy file was last written, so it wins
            legacy = self._shards[LEGACY_SHARD]
            legacy.superseded += 1
            if shard is legacy:
                return
            legacy.entries.pop(fingerprint)
        elif fingerprint in shard.entries:
            shard.superseded += 1
            shard.entries.pop(fingerprint)  # latest record wins
        shard.entries[fingerprint] = (offset, summary)
        self._routing[fingerprint] = shard.key

    # ------------------------------------------------------------------ writing
    def append(
        self, outcome: SearchOutcome, fingerprint: Optional[str] = None
    ) -> str:
        """Persist one outcome into its (scenario x space) shard.

        Returns the fingerprint, which defaults to the outcome's own request
        fingerprint.  Routing is deterministic: every writer sends the same
        fingerprint to the same file.  Appending a fingerprint this instance
        already holds raises (re-running a finished cell is a campaign-runner
        bug, not a storage event); a racing append from a *different*
        process (a reclaimed lease whose original holder silently finished)
        lands as a superseded duplicate instead, resolved latest-wins on scan
        and dropped by :meth:`compact`.
        """
        fingerprint = fingerprint or request_fingerprint(outcome.request)
        if fingerprint in self._routing:
            raise StoreError(
                f"fingerprint {fingerprint!r} is already stored in {self.directory}"
            )
        record = {"fingerprint": fingerprint, "outcome": to_jsonable(outcome.to_dict())}
        record["crc32"] = record_crc(record)
        summary = _record_summary(record)
        key = shard_key(summary["scenario"], summary["search_space"])
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = _Shard(
                key=key, path=self.shards_dir / f"{key}.jsonl"
            )
        offset, end = append_jsonl_atomic(shard.path, record)
        if offset == shard.good_end:  # nothing else landed since our last scan
            shard.entries[fingerprint] = (offset, summary)
            shard.good_end = end
            self._routing[fingerprint] = key
        else:
            # another writer appended, or a torn tail was terminated, since
            # our last scan: rescan the gap so the in-memory view stays whole
            self._scan_shard(shard)
        return fingerprint

    # ------------------------------------------------------------------ reading
    def _ordered_shards(self) -> List[_Shard]:
        """The read order: the legacy shard first, then shards by key."""
        return sorted(
            self._shards.values(), key=lambda s: (s.key != LEGACY_SHARD, s.key)
        )

    def _ordered_entries(self) -> List[Tuple[str, _Shard, int]]:
        """``(fingerprint, shard, offset)`` in the deterministic read order."""
        return [
            (fingerprint, shard, offset)
            for shard in self._ordered_shards()
            for fingerprint, (offset, _) in shard.entries.items()
        ]

    def fingerprints(self) -> List[str]:
        """Stored fingerprints, in the deterministic read order."""
        return [fingerprint for fingerprint, _, _ in self._ordered_entries()]

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and fingerprint in self._routing

    def __len__(self) -> int:
        return len(self._routing)

    @staticmethod
    def _load(shard: _Shard, offset: int) -> SearchOutcome:
        with shard.path.open("rb") as handle:
            handle.seek(offset)
            record = json.loads(handle.readline().decode("utf-8"))
        return SearchOutcome.from_dict(record["outcome"])

    def get(self, fingerprint: str) -> SearchOutcome:
        """Load one stored outcome (O(1) via the shard offset index)."""
        try:
            shard = self._shards[self._routing[fingerprint]]
            offset, _ = shard.entries[fingerprint]
        except KeyError:
            raise KeyError(
                f"fingerprint {fingerprint!r} is not stored in {self.directory}"
            ) from None
        return self._load(shard, offset)

    def outcomes(
        self, offset: int = 0, limit: Optional[int] = None
    ) -> Iterator[SearchOutcome]:
        """Stream stored outcomes, paginated over the deterministic order.

        The order — the legacy shard first, then shards sorted by key,
        append order within each shard — is stable across reopens, so
        ``offset``/``limit`` windows partition the store consistently for
        paginated readers.
        """
        if offset < 0 or (limit is not None and limit < 0):
            raise ValueError(
                f"offset/limit must be non-negative, got {offset}/{limit}"
            )
        entries = self._ordered_entries()
        window = entries[offset:] if limit is None else entries[offset:offset + limit]
        for _, shard, position in window:
            yield self._load(shard, position)

    def records(self) -> Dict[str, Dict[str, Any]]:
        """Fingerprint -> summary (scenario, strategy, space, seed, size)."""
        return {
            fingerprint: dict(shard.entries[fingerprint][1])
            for fingerprint, shard, _ in self._ordered_entries()
        }

    def shard_keys(self) -> List[str]:
        """Keys of every shard currently holding records, in read order."""
        return [shard.key for shard in self._ordered_shards() if shard.entries]

    def skipped_lines(self) -> Dict[str, int]:
        """Damaged lines the scan skipped and never serves, by kind."""
        return {
            "corrupt_lines": sum(s.corrupt_lines for s in self._shards.values()),
            "crc_mismatches": sum(s.crc_mismatches for s in self._shards.values()),
        }

    def summary(self) -> Dict[str, Any]:
        """Store overview (used by ``repro list --store`` and reports)."""
        records = self.records()
        return {
            "directory": str(self.directory),
            "num_runs": len(records),
            "num_shards": len(self.shard_keys()),
            "scenarios": sorted({r["scenario"] for r in records.values()}),
            "strategies": sorted({r["strategy"] for r in records.values()}),
            "search_spaces": sorted({r["search_space"] for r in records.values()}),
            "total_wall_time_s": sum(r["wall_time_s"] for r in records.values()),
            "superseded": sum(s.superseded for s in self._shards.values()),
            **self.skipped_lines(),
            "dead_letter": len(DeadLetterQueue(self.directory)),
            "audit": self.audit_summary(),
        }

    # ------------------------------------------------------------------ audit
    def audit_log(self, scenario: str, search_space: str) -> AuditLog:
        """The audit log of one (scenario x search space) shard."""
        return AuditLog(self.audit_dir / f"{shard_key(scenario, search_space)}.jsonl")

    def record_error(
        self,
        envelope: ErrorEnvelope,
        *,
        scenario: Optional[str] = None,
        search_space: Optional[str] = None,
    ) -> None:
        """Append a failure envelope to its shard's audit log.

        Falls back to the envelope's own ``context`` for routing, and to a
        catch-all ``_unrouted`` log when neither names the shard.
        """
        scenario = scenario or envelope.context.get("scenario")
        search_space = search_space or envelope.context.get("search_space")
        if scenario and search_space:
            log = self.audit_log(str(scenario), str(search_space))
        else:
            log = AuditLog(self.audit_dir / "_unrouted.jsonl")
        log.append(envelope)

    def audit_summary(self) -> Dict[str, Any]:
        """:func:`summarize_audit` of the audit logs, resolved against the store.

        ``failed_cells`` follows the rule of
        :func:`repro.campaign.worker.final_failure`: a cell the store does
        not hold is failed when it is buried in the dead-letter queue, or
        when its last audit record after its latest re-admission is final.
        A re-admitted cell that has not run again, or ran and was stored,
        is not failed.  ``dead_lettered`` lists the cells the dead-letter
        queue holds buried now, not every burial the audit records flag.
        """
        dead_letters = DeadLetterQueue(self.directory)
        buried = dead_letters.dead()
        audit = summarize_audit(self.iter_audit_records())
        pending = {
            fingerprint
            for fingerprint in audit["failed_cells"]
            if fingerprint not in self and fingerprint not in buried
        }
        last_final: Dict[str, bool] = {}
        if pending:
            readmitted = dead_letters.readmitted()
            for record in self.iter_audit_records():
                fingerprint = record.fingerprint
                if fingerprint in pending and record.time_s > readmitted.get(
                    fingerprint, float("-inf")
                ):
                    last_final[fingerprint] = record.final
        audit["failed_cells"] = sorted(
            {fingerprint for fingerprint in buried if fingerprint not in self}
            | {fingerprint for fingerprint, final in last_final.items() if final}
        )
        audit["dead_lettered"] = sorted(buried)
        return audit

    def audit_records(self) -> List[ErrorEnvelope]:
        """Every failure envelope (see :meth:`iter_audit_records`)."""
        return list(self.iter_audit_records())

    def iter_audit_records(self) -> Iterator[ErrorEnvelope]:
        """Stream failure envelopes: the legacy root log, then each shard's.

        One record is in memory at a time, so ``repro report`` stays flat
        even over campaigns whose audit logs hold thousands of retries.
        """
        paths = [self.directory / AUDIT_FILENAME]
        if self.audit_dir.is_dir():
            paths += sorted(self.audit_dir.glob("*.jsonl"))
        for path in paths:
            yield from AuditLog(path).iter_records()

    # ------------------------------------------------------------------ maintenance
    def compact(self) -> Dict[str, Any]:
        """Rewrite every shard, dropping torn tails and superseded records.

        Each shard — the legacy one included — is rebuilt into a temp file
        (intact latest-wins records only, original order) and atomically
        replaced, so a crash mid-compact leaves the old shard untouched.
        **Single-writer only**: run while no workers are appending.
        Returns per-store statistics.
        """
        self.refresh()
        kept = 0
        dropped_superseded = 0
        dropped_corrupt = 0
        dropped_crc = 0
        torn_bytes = 0
        for shard in self._ordered_shards():
            dropped_superseded += shard.superseded
            dropped_corrupt += shard.corrupt_lines
            dropped_crc += shard.crc_mismatches
            try:
                size = shard.path.stat().st_size
            except OSError:
                size = shard.good_end
            torn_bytes += max(0, size - shard.good_end)
            lines: List[bytes] = []
            with shard.path.open("rb") as handle:
                for offset, _ in sorted(shard.entries.values(), key=lambda e: e[0]):
                    handle.seek(offset)
                    lines.append(handle.readline())
            tmp = shard.path.with_name(shard.path.name + f".tmp.{os.getpid()}")
            with tmp.open("wb") as handle:
                handle.writelines(lines)
            os.replace(tmp, shard.path)
            kept += len(lines)
        self.refresh(full=True)
        return {
            "shards": len(self._shards),
            "kept": kept,
            "dropped_superseded": dropped_superseded,
            "dropped_corrupt_lines": dropped_corrupt,
            "dropped_crc_mismatches": dropped_crc,
            "dropped_torn_bytes": torn_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"RunStore({str(self.directory)!r}, runs={len(self)}, "
            f"shards={len(self.shard_keys())})"
        )


# ---------------------------------------------------------------------- helpers


def _data_files(directory: Path) -> List[Tuple[str, Path]]:
    """``(shard key, path)`` of every record file, the legacy one first."""
    files = [(LEGACY_SHARD, directory / RUNS_FILENAME)]
    shards_dir = directory / SHARDS_DIRNAME
    if shards_dir.is_dir():
        files += [(path.stem, path) for path in sorted(shards_dir.glob("*.jsonl"))]
    return files


def open_store(directory: Union[str, Path]) -> RunStore:
    """Open the run store in ``directory`` (created by its first append)."""
    return RunStore(directory)


def _fsck_file(path: Path) -> Dict[str, Any]:
    """Classify every line of one store data file at the raw-byte level.

    Returns the original raw bytes of each *keepable* line (``intact`` —
    CRC verified — and ``legacy`` — pre-CRC records with nothing to verify)
    plus the bytes to quarantine (``corrupt`` lines that are not records —
    the store scan's check, :func:`_parse_record` — ``crc_mismatch``
    rotten records, and a torn unterminated tail).
    Keepable bytes are returned exactly as read, so a repair rewrite is
    byte-identical for every record it preserves.
    """
    counts = {
        "intact": 0,
        "legacy": 0,
        "crc_mismatch": 0,
        "corrupt": 0,
        "torn_bytes": 0,
    }
    keep: List[bytes] = []
    quarantine: List[bytes] = []
    data = path.read_bytes()
    offset = 0
    end = len(data)
    while offset < end:
        newline = data.find(b"\n", offset)
        if newline < 0:
            # unterminated tail: a writer died mid-append (or the write was
            # torn by the kernel).  Offline — which is when fsck runs — that
            # is damage, not work in progress.
            counts["torn_bytes"] = end - offset
            quarantine.append(data[offset:end])
            break
        raw = data[offset : newline + 1]
        offset = newline + 1
        try:
            record, _ = _parse_record(raw)
        except (ValueError, TypeError):
            counts["corrupt"] += 1
            quarantine.append(raw)
            continue
        if "crc32" not in record:
            counts["legacy"] += 1
            keep.append(raw)
        elif verify_record_crc(record):
            counts["intact"] += 1
            keep.append(raw)
        else:
            counts["crc_mismatch"] += 1
            quarantine.append(raw)
    return {"counts": counts, "keep": keep, "quarantine": quarantine}


def fsck_store(
    directory: Union[str, Path], repair: bool = False
) -> Dict[str, Any]:
    """Verify (and optionally repair) the integrity of a store on disk.

    Scans the legacy ``runs.jsonl`` and every ``shards/*.jsonl`` file raw,
    classifying each line as *intact* (CRC verified), *legacy* (pre-CRC,
    nothing to verify), *crc_mismatch* (parses, checksum disagrees — disk
    rot), *corrupt* (unparseable, or not shaped like a record) or a *torn*
    unterminated tail.  ``repro store fsck`` is the CLI face of this
    function.

    With ``repair=True`` every bad line is appended to a sidecar under
    ``quarantine/`` (named after its source file, so nothing is ever
    destroyed), each damaged file is atomically rewritten keeping the
    **original raw bytes** of its intact and legacy lines — byte-identical
    preservation.
    **Single-writer only**: repair while no workers are appending.

    Returns a report with per-file and total counts, ``clean`` (no issues
    found), ``repaired`` and ``quarantined_lines``.
    """
    directory = Path(directory)
    targets = [path for _, path in _data_files(directory) if path.exists()]
    totals = {
        "intact": 0,
        "legacy": 0,
        "crc_mismatch": 0,
        "corrupt": 0,
        "torn_bytes": 0,
    }
    report: Dict[str, Any] = {
        "directory": str(directory),
        "files": {},
        "repaired": False,
        "quarantined_lines": 0,
    }
    damaged: List[Tuple[Path, Dict[str, Any]]] = []
    for path in targets:
        result = _fsck_file(path)
        relative = path.relative_to(directory).as_posix()
        report["files"][relative] = result["counts"]
        for name in totals:
            totals[name] += result["counts"][name]
        if result["quarantine"]:
            damaged.append((path, result))
    report.update(totals)
    report["clean"] = (
        totals["crc_mismatch"] == 0
        and totals["corrupt"] == 0
        and totals["torn_bytes"] == 0
    )
    if not repair or not damaged:
        return report
    quarantine_dir = directory / QUARANTINE_DIRNAME
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    for path, result in damaged:
        relative = path.relative_to(directory).as_posix()
        sidecar = quarantine_dir / relative.replace("/", "__")
        with sidecar.open("ab") as handle:
            for raw in result["quarantine"]:
                # terminate the torn fragment so the sidecar stays
                # line-oriented across repeated fsck runs
                handle.write(raw if raw.endswith(b"\n") else raw + b"\n")
                report["quarantined_lines"] += 1
        tmp = path.with_name(path.name + f".fsck.{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.writelines(result["keep"])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    report["repaired"] = True
    report["quarantine_dir"] = str(quarantine_dir)
    return report


def merge_stores(sources: Sequence[RunStore], dest: RunStore) -> Dict[str, int]:
    """Copy every record the destination is missing, keyed by fingerprint.

    Fingerprints already present in ``dest`` are skipped (idempotent —
    re-merging is a no-op), so merging is how per-machine stores
    consolidate.
    """
    merged = 0
    skipped = 0
    for source in sources:
        for fingerprint in source.fingerprints():
            if fingerprint in dest:
                skipped += 1
                continue
            dest.append(source.get(fingerprint), fingerprint=fingerprint)
            merged += 1
    return {"merged": merged, "skipped": skipped}


def export_metrics(store: RunStore) -> Dict[str, Any]:
    """Columnar per-candidate metric arrays from a run store.

    One group per (scenario, search space, strategy, seed) — the campaign
    grid axes — each carrying parallel ``latency_s`` / ``energy_j`` /
    ``error_percent`` arrays over every stored candidate of that cell, in
    evaluation order, plus the contributing fingerprints.  This is the
    analysis/dashboard feed: loading it needs no envelope decoding at all.
    """
    groups: Dict[Tuple[str, str, str, Any], Dict[str, Any]] = {}
    for outcome in store.outcomes():
        request = outcome.request
        key = (
            outcome.scenario.name,
            request.search_space,
            outcome.label,
            request.seed,
        )
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "scenario": key[0],
                "search_space": key[1],
                "strategy": key[2],
                "seed": key[3],
                "fingerprints": [],
                "latency_s": [],
                "energy_j": [],
                "error_percent": [],
            }
        group["fingerprints"].append(request_fingerprint(request))
        for candidate in outcome.candidates:
            group["latency_s"].append(float(candidate.latency_s))
            group["energy_j"].append(float(candidate.energy_j))
            group["error_percent"].append(float(candidate.error_percent))
    ordered = [
        groups[key]
        for key in sorted(groups, key=lambda k: tuple(str(part) for part in k))
    ]
    return {
        "schema_version": 1,
        "num_groups": len(ordered),
        "num_candidates": sum(len(g["latency_s"]) for g in ordered),
        "groups": ordered,
    }
