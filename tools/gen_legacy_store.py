#!/usr/bin/env python
"""Regenerate ``tests/data/legacy_store/``, a tiny single-file run store.

Run stores used to come in a second layout: one ``runs.jsonl`` holding
every record plus one root ``audit.jsonl``.  Directories in that layout
still exist, and :class:`repro.campaign.store.RunStore` reads them as one
read-only legacy shard.  This script writes such a store byte for byte the
way the single-file writer did (``json.dumps`` with the record's own key
order, one ``\\n``-terminated line per record):

* one pre-checksum record, without the ``crc32`` field, like every record
  written before per-record checksums existed;
* two checksummed fast-budget records;
* one failure envelope in ``audit.jsonl``.

``tests/test_campaign_store.py`` holds the store to serving these records
unchanged, to resuming over them, and to ``repro store fsck`` calling it
clean.  Rerun this only when the fixture itself must change::

    PYTHONPATH=src python tools/gen_legacy_store.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.envelopes import SearchRequest  # noqa: E402
from repro.api.session import run_search  # noqa: E402
from repro.campaign.errors import ErrorEnvelope  # noqa: E402
from repro.campaign.store import record_crc  # noqa: E402
from repro.utils.serialization import to_jsonable  # noqa: E402

OUTPUT = REPO_ROOT / "tests" / "data" / "legacy_store"

FAST = dict(
    strategy="random",
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)

#: ``(request, carries a crc32 field)`` in the order the records are written.
RECORDS = (
    (SearchRequest(scenario="wifi-3mbps/jetson-tx2-gpu", seed=0, **FAST), False),
    (SearchRequest(scenario="lte-3mbps/jetson-tx2-gpu", seed=1, **FAST), True),
    (
        SearchRequest(
            scenario="wifi-3mbps/jetson-tx2-gpu", search_space="seq-conv1d",
            seed=2, **FAST,
        ),
        True,
    ),
)


def legacy_line(request: SearchRequest, crc: bool) -> bytes:
    """One ``runs.jsonl`` line as the single-file writer appended it."""
    outcome = run_search(request)
    record = {
        "fingerprint": request.fingerprint(),
        "outcome": to_jsonable(outcome.to_dict()),
    }
    if crc:
        record["crc32"] = record_crc(record)
    return (json.dumps(record, sort_keys=False) + "\n").encode("utf-8")


def audit_line() -> bytes:
    """One final failure envelope of a cell the store does not hold."""
    failed = SearchRequest(scenario="3g-3mbps/jetson-tx2-cpu", seed=3, **FAST)
    envelope = ErrorEnvelope(
        code="E_EXECUTION",
        message="RuntimeError: strategy raised",
        final=True,
        fingerprint=failed.fingerprint(),
        worker="legacy",
        time_s=1700000000.0,
        context={"scenario": failed.scenario_name, "search_space": failed.search_space},
    )
    return (json.dumps(envelope.to_dict(), sort_keys=False) + "\n").encode("utf-8")


def main() -> int:
    OUTPUT.mkdir(parents=True, exist_ok=True)
    runs = b"".join(legacy_line(request, crc) for request, crc in RECORDS)
    (OUTPUT / "runs.jsonl").write_bytes(runs)
    (OUTPUT / "audit.jsonl").write_bytes(audit_line())
    print(f"wrote {len(RECORDS)} records ({len(runs)} bytes) and 1 envelope "
          f"to {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
