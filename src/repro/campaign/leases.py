"""Crash-safe cell leases for pull workers.

A campaign cell must be executed by **at most one** worker at a time, even
when the workers are independent processes (possibly on different machines)
sharing nothing but a directory.  The coordination primitive is a *lease
file*: ``leases/<fingerprint>.lease`` created with ``O_CREAT | O_EXCL`` —
an atomic create-if-absent on every POSIX filesystem (including NFSv3+) —
holding a small JSON payload naming the holder and its last heartbeat.

Protocol
--------
1. **Claim** — try to create the lease file exclusively.  Success means the
   cell is yours; ``FileExistsError`` means another worker holds it.
2. **Heartbeat** — while executing, periodically rewrite the payload
   (temp file + ``os.replace``, so readers never see a torn payload) with a
   fresh timestamp.  :class:`heartbeat` runs this on a daemon thread.
3. **Reclaim** — a lease whose heartbeat is older than the TTL belongs to a
   crashed (or wedged) peer; a lease file whose payload cannot be read
   counts from its mtime.  Any worker may break it: re-read, re-check
   expiry, unlink, then race through step 1 again.  Losing the race is
   fine — *someone* owns the cell afterwards.
4. **Release** — unlink the file after the outcome is stored (or the
   failure audited).

Idempotence lives one level up: a worker that wins a reclaimed lease first
re-checks the store and treats an already-stored fingerprint as a no-op, so
the worst case of every race is a duplicate *check*, never a duplicate
*record* (and the run store resolves even a true double-append
latest-wins).  Leases are best-effort mutual exclusion for efficiency; the
store's append discipline is what guarantees integrity.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Subdirectory (inside a store directory) holding the lease files.
LEASES_DIRNAME = "leases"


@dataclass(frozen=True)
class Lease:
    """A successfully claimed (or observed) lease."""

    fingerprint: str
    worker: str
    acquired_at: float
    heartbeat_at: float
    #: How many times this cell's lease was broken from a dead peer before
    #: the current holder claimed it.
    reclaims: int = 0

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat."""
        return (time.time() if now is None else now) - self.heartbeat_at

    def expired(self, ttl_s: float, now: Optional[float] = None) -> bool:
        """Whether the holder has missed its heartbeat window."""
        return self.age_s(now) > ttl_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "worker": self.worker,
            "acquired_at": self.acquired_at,
            "heartbeat_at": self.heartbeat_at,
            "reclaims": self.reclaims,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Lease":
        return cls(
            fingerprint=str(data.get("fingerprint", "")),
            worker=str(data.get("worker", "?")),
            acquired_at=float(data.get("acquired_at", 0.0)),
            heartbeat_at=float(data.get("heartbeat_at", 0.0)),
            reclaims=int(data.get("reclaims", 0)),
        )


class LeaseBoard:
    """Claim / heartbeat / reclaim / release leases in one directory.

    Parameters
    ----------
    directory:
        The ``leases/`` directory (created on first claim).  By convention
        this lives inside the shared store directory.
    worker:
        Identity written into claimed leases (shown in ``repro report`` and
        audit records).
    ttl_s:
        Heartbeat freshness window; a lease older than this is reclaimable.
        Campaigns pass their policy's
        :attr:`~repro.campaign.supervisor.CampaignPolicy.ttl_s`.
    """

    def __init__(self, directory: Union[str, Path], worker: str, *, ttl_s: float):
        self.directory = Path(directory)
        self.worker = worker
        self.ttl_s = float(ttl_s)
        if self.ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.lease"

    # ------------------------------------------------------------------ claim
    def claim(self, fingerprint: str) -> Optional[Lease]:
        """Try to acquire the lease on one cell.

        Returns the :class:`Lease` on success, ``None`` when another live
        worker holds it.  An *expired* lease (crashed peer) is broken and
        re-raced transparently.
        """
        lease = self._try_create(fingerprint, reclaims=0)
        if lease is not None:
            return lease
        holder = self.holder(fingerprint)
        if holder is None:
            # holder released between our create attempt and read: re-race
            return self._try_create(fingerprint, reclaims=0)
        if not holder.expired(self.ttl_s):
            return None
        return self._reclaim(fingerprint, holder)

    def _try_create(self, fingerprint: str, reclaims: int) -> Optional[Lease]:
        self.directory.mkdir(parents=True, exist_ok=True)
        now = time.time()
        lease = Lease(
            fingerprint=fingerprint,
            worker=self.worker,
            acquired_at=now,
            heartbeat_at=now,
            reclaims=reclaims,
        )
        try:
            fd = os.open(
                str(self._path(fingerprint)),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            return None
        try:
            os.write(fd, json.dumps(lease.to_dict()).encode("utf-8"))
        finally:
            os.close(fd)
        return lease

    def _reclaim(self, fingerprint: str, stale: Lease) -> Optional[Lease]:
        """Break an expired lease and race for the replacement."""
        current = self.holder(fingerprint)
        if current is None:
            return self._try_create(fingerprint, reclaims=stale.reclaims + 1)
        if current.heartbeat_at != stale.heartbeat_at or not current.expired(
            self.ttl_s
        ):
            return None  # holder heartbeat (or a new holder) — still live
        try:
            os.unlink(self._path(fingerprint))
        except FileNotFoundError:
            pass  # another reclaimer beat us to the unlink; race on
        return self._try_create(fingerprint, reclaims=current.reclaims + 1)

    # ------------------------------------------------------------------ observe
    def holder(self, fingerprint: str) -> Optional[Lease]:
        """Read the current lease of a cell, ``None`` when unleased.

        Tolerant of the claim/heartbeat races: a lease file that vanishes
        reads as ``None``, and one momentarily empty mid-create is re-read.
        A payload that stays unreadable — its creator died between creating
        the file and writing it, or the write failed — reads as a lease
        last heart-beaten at the file's mtime, so it expires after the TTL
        and is reclaimed like any dead peer's lease.
        """
        path = self._path(fingerprint)
        for _ in range(3):
            try:
                raw = path.read_bytes()
            except OSError:
                return None
            try:
                data = json.loads(raw)
                if isinstance(data, dict):
                    return Lease.from_dict(data)
            except (ValueError, TypeError):
                pass
            time.sleep(0.01)  # writer mid-create; payload lands shortly
        try:
            written_at = path.stat().st_mtime
        except OSError:
            return None
        return Lease(
            fingerprint=fingerprint,
            worker="?",
            acquired_at=written_at,
            heartbeat_at=written_at,
        )

    def active(self) -> List[Lease]:
        """Every currently readable lease on the board."""
        if not self.directory.is_dir():
            return []
        leases = []
        for path in sorted(self.directory.glob("*.lease")):
            lease = self.holder(path.stem)
            if lease is not None:
                leases.append(lease)
        return leases

    # ------------------------------------------------------------------ maintain
    def heartbeat(self, lease: Lease) -> Lease:
        """Refresh a held lease's timestamp (temp file + atomic replace)."""
        refreshed = Lease(
            fingerprint=lease.fingerprint,
            worker=lease.worker,
            acquired_at=lease.acquired_at,
            heartbeat_at=time.time(),
            reclaims=lease.reclaims,
        )
        path = self._path(lease.fingerprint)
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(refreshed.to_dict()), encoding="utf-8")
        os.replace(tmp, path)
        return refreshed

    def release(self, lease: Lease) -> None:
        """Drop a held lease (idempotent)."""
        try:
            os.unlink(self._path(lease.fingerprint))
        except FileNotFoundError:
            pass


class heartbeat:
    """Context manager heart-beating one lease on a daemon thread.

    >>> board = LeaseBoard(directory, "w0", ttl_s=30.0)
    >>> lease = board.claim(fingerprint)
    >>> with heartbeat(board, lease):
    ...     outcome = run_search(request)          # doctest: +SKIP

    The interval defaults to a third of the board TTL, so a healthy worker
    refreshes its lease three times per expiry window.
    """

    def __init__(
        self,
        board: LeaseBoard,
        lease: Lease,
        interval_s: Optional[float] = None,
    ):
        self.board = board
        self.lease = lease
        self.interval_s = (
            float(interval_s) if interval_s is not None else board.ttl_s / 3.0
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        lease = self.lease
        while not self._stop.wait(self.interval_s):
            try:
                lease = self.board.heartbeat(lease)
            except OSError:  # pragma: no cover - transient FS hiccup
                continue
        self.lease = lease

    def __enter__(self) -> "heartbeat":
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{self.lease.fingerprint}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, self.interval_s * 2))
