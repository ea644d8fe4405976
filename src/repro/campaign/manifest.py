"""Shared work manifest for pull workers.

The ``pull-worker`` executor does not *push* cells to workers; it writes a
``manifest.json`` into the shared store directory describing the whole
campaign — every cell keyed by its request fingerprint (the idempotency
key), plus the lease/retry/supervision policy — and workers *pull* from it:
claim a lease on an unresolved fingerprint, execute, append, release,
repeat.  The manifest is the only coordination artifact besides the store
itself, so a worker needs nothing but the store directory path to join a
campaign (from any machine sharing the filesystem).

The policy travels as a :class:`~repro.campaign.supervisor.CampaignPolicy`
(schema v2 nests it under ``"policy"``; v1 manifests, which carry the
policy as flat top-level keys, are still read).  The file is written
atomically (temp + ``os.replace``), so workers always read a complete
manifest, and re-writing the same campaign is idempotent — cells are keyed
by fingerprint, and fingerprints of already-stored cells are simply
skipped by every worker.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.api.envelopes import SearchRequest, request_fingerprint
from repro.campaign.supervisor import CampaignPolicy
from repro.utils.serialization import atomic_write_text

#: Name of the manifest file inside a shared store directory.
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class CampaignManifest:
    """Everything a pull worker needs to execute a campaign.

    Parameters
    ----------
    cells:
        ``fingerprint -> serialized SearchRequest`` for every cell of the
        expanded grid (including already-finished ones — workers skip
        stored fingerprints, which is what makes re-publishing idempotent).
    policy:
        The campaign's :class:`~repro.campaign.supervisor.CampaignPolicy`
        (leases, bounded retry, deadlines, circuit breaker).  The policy
        fields are also readable directly on the manifest (``manifest.ttl_s``
        etc.) for backward compatibility with the flat v1 layout.
    created_at:
        Epoch seconds the manifest was published.
    """

    cells: Dict[str, Dict[str, Any]]
    policy: CampaignPolicy = field(default_factory=CampaignPolicy)
    created_at: float = field(default_factory=time.time)

    # ------------------------------------------------------------------ policy views
    @property
    def ttl_s(self) -> float:
        return self.policy.ttl_s

    @property
    def poll_s(self) -> float:
        return self.policy.poll_s

    @property
    def max_attempts(self) -> int:
        return self.policy.max_attempts

    @property
    def backoff_base_s(self) -> float:
        return self.policy.backoff_base_s

    @property
    def max_backoff_s(self) -> float:
        return self.policy.max_backoff_s

    @property
    def cell_timeout_s(self) -> float:
        return self.policy.cell_timeout_s

    @property
    def on_error(self) -> str:
        return self.policy.on_error

    @property
    def checkpoint_every(self) -> int:
        return self.policy.checkpoint_every

    @classmethod
    def from_requests(
        cls,
        requests: Iterable[SearchRequest],
        policy: Optional[CampaignPolicy] = None,
        **overrides: Any,
    ) -> "CampaignManifest":
        """Build a manifest from expanded grid requests.

        Policy settings come either as a ready
        :class:`~repro.campaign.supervisor.CampaignPolicy` or as flat
        keyword overrides (``ttl_s=10.0, max_attempts=5`` — the historical
        call shape); both at once applies the overrides on top.
        """
        cells = {
            request_fingerprint(request): request.to_dict() for request in requests
        }
        created_at = overrides.pop("created_at", None)
        resolved = policy or CampaignPolicy()
        if overrides:
            resolved = resolved.replace(**overrides)
        kwargs: Dict[str, Any] = {"cells": cells, "policy": resolved}
        if created_at is not None:
            kwargs["created_at"] = float(created_at)
        return cls(**kwargs)

    def requests(self) -> Dict[str, SearchRequest]:
        """Deserialized ``fingerprint -> SearchRequest`` mapping."""
        return {
            fingerprint: SearchRequest.from_dict(payload)
            for fingerprint, payload in self.cells.items()
        }

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": 2,
            "cells": dict(self.cells),
            "policy": self.policy.to_dict(),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignManifest":
        if isinstance(data.get("policy"), Mapping):
            policy = CampaignPolicy.from_dict(data["policy"])
        else:
            # v1 manifest: reconstruct the policy from the flat keys (the
            # supervision fields simply take their off-by-default values)
            policy = CampaignPolicy.from_dict(data)
        return cls(
            cells={str(k): dict(v) for k, v in dict(data.get("cells", {})).items()},
            policy=policy,
            created_at=float(data.get("created_at", 0.0)),
        )

    # ------------------------------------------------------------------ file I/O
    def write(self, store_dir: Union[str, Path]) -> Path:
        """Atomically publish the manifest into a store directory."""
        path = Path(store_dir) / MANIFEST_FILENAME
        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, store_dir: Union[str, Path]) -> "CampaignManifest":
        """Read the manifest published in a store directory."""
        path = Path(store_dir) / MANIFEST_FILENAME
        if not path.exists():
            raise FileNotFoundError(
                f"no campaign manifest at {path}; publish one with "
                f"'repro campaign --executor pull-worker' first"
            )
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))


def backoff_jitter_factor(fingerprint: str, attempt: int) -> float:
    """Deterministic decorrelation factor in ``[0.5, 1.5)`` for one retry.

    Derived from a SHA-256 of ``fingerprint:attempt``, so every worker
    computes the *same* jitter for the same cell and attempt (no shared
    state, no RNG), while different cells failing at the same instant —
    e.g. after a store outage — spread their retries instead of
    thundering back in lockstep.
    """
    digest = hashlib.sha256(f"{fingerprint}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 0.5 + unit


def resolve_backoff(
    last_failure_time_s: float,
    attempt: int,
    backoff_base_s: float,
    fingerprint: Union[str, None] = None,
    max_backoff_s: Union[float, None] = None,
) -> float:
    """Epoch time before which a failed cell must not be retried.

    With a ``fingerprint`` the exponential delay is scaled by the cell's
    deterministic :func:`backoff_jitter_factor`; without one (the legacy
    call shape) the delay is exact.  ``max_backoff_s`` caps the final delay
    (after jitter), so high attempt counts wait at most the cap instead of
    growing without bound; ``None`` keeps the historical uncapped shape.
    """
    delay = backoff_base_s * (2 ** max(0, attempt - 1))
    if fingerprint is not None:
        delay *= backoff_jitter_factor(fingerprint, attempt)
    if max_backoff_s is not None:
        delay = min(delay, float(max_backoff_s))
    return last_failure_time_s + delay
