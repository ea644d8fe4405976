"""Run-store persistence: fingerprints, round-trips, torn tails, legacy stores."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api.envelopes import SearchRequest, request_fingerprint
from repro.api.session import run_search
from repro.campaign import fsck_store, open_store, run_campaign
from repro.campaign.store import RUNS_FILENAME, RunStore, StoreError
from repro.utils.serialization import to_jsonable

#: Budgets small enough that one run is milliseconds.
FAST = dict(
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)

#: A single-file store (``runs.jsonl`` + ``audit.jsonl``) written by
#: ``tools/gen_legacy_store.py``: one pre-checksum record, two checksummed
#: records and one failure envelope.
LEGACY_STORE = Path(__file__).parent / "data" / "legacy_store"


def _legacy_lines():
    """The fixture's three ``runs.jsonl`` lines (seeds 0, 1, 2)."""
    return (LEGACY_STORE / RUNS_FILENAME).read_bytes().splitlines(keepends=True)


def _request(**overrides) -> SearchRequest:
    fields = dict(FAST, scenario="wifi-3mbps/jetson-tx2-gpu", strategy="random", seed=0)
    fields.update(overrides)
    return SearchRequest(**fields)


class TestRequestFingerprint:
    def test_deterministic_and_tag_independent(self):
        base = _request()
        assert base.fingerprint() == _request().fingerprint()
        tagged = _request(tags={"note": "metadata must not change the key"})
        assert tagged.fingerprint() == base.fingerprint()

    def test_sensitive_to_computational_fields(self):
        base = _request()
        for changed in (
            _request(seed=1),
            _request(strategy="lens"),
            _request(scenario="lte-3mbps/jetson-tx2-gpu"),
            _request(num_iterations=3),
            _request(acquisition="ucb"),
        ):
            assert changed.fingerprint() != base.fingerprint()

    def test_survives_serialization_round_trip(self):
        base = _request(tags={"run": "a"})
        restored = SearchRequest.from_dict(json.loads(json.dumps(base.to_dict())))
        assert request_fingerprint(restored) == base.fingerprint()


class TestRunStore:
    def test_append_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        fingerprint = store.append(outcome)
        assert fingerprint == outcome.request.fingerprint()
        assert fingerprint in store
        assert len(store) == 1
        restored = store.get(fingerprint)
        assert restored.to_dict() == outcome.to_dict()

    def test_reopen_recovers_index(self, tmp_path):
        """The fingerprint index is rebuilt from the shards on every open;
        a stale ``index.json`` that older versions wrote is ignored."""
        directory = tmp_path / "store"
        store = RunStore(directory)
        fingerprints = [
            store.append(run_search(_request(seed=seed))) for seed in (0, 1, 2)
        ]
        stale_index = directory / "index.json"
        stale_index.write_text('{"records": {}}\n', encoding="utf-8")

        reopened = RunStore(directory)
        assert reopened.fingerprints() == fingerprints
        for fingerprint in fingerprints:
            assert reopened.get(fingerprint).request.fingerprint() == fingerprint
        reopened.append(run_search(_request(seed=3)))
        assert stale_index.read_text(encoding="utf-8") == '{"records": {}}\n'
        assert len(RunStore(directory)) == 4

    def test_open_for_reading_creates_nothing(self, tmp_path):
        directory = tmp_path / "absent"
        store = RunStore(directory)
        assert len(store) == 0
        assert list(store.outcomes()) == []
        assert not directory.exists()  # only the first append creates it

    def test_duplicate_append_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        store.append(outcome)
        with pytest.raises(StoreError, match="already stored"):
            store.append(outcome)

    def test_torn_tail_is_ignored_and_never_truncated(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        runs_path = directory / RUNS_FILENAME
        # a legacy file whose writer was killed mid-append: half a record
        damaged = b"".join(_legacy_lines()) + b'{"fingerprint": "dead", "outco'
        runs_path.write_bytes(damaged)

        reopened = RunStore(directory)
        assert len(reopened) == 3
        assert [o.request.seed for o in reopened.outcomes()] == [0, 1, 2]
        appended = reopened.append(run_search(_request(seed=3)))
        assert reopened.fingerprints() == RunStore(directory).fingerprints()
        assert reopened.fingerprints()[-1] == appended
        # appends go to the shards: the legacy file keeps every byte
        assert runs_path.read_bytes() == damaged

    def test_parseable_tail_without_newline_is_still_torn(self, tmp_path):
        """Durability requires the newline: a flushed prefix that happens to
        parse as complete JSON is not indexed."""
        directory = tmp_path / "store"
        directory.mkdir()
        lines = _legacy_lines()
        last = json.loads(lines[-1])["fingerprint"]
        # the kill ate the final newline
        (directory / RUNS_FILENAME).write_bytes(b"".join(lines).rstrip(b"\n"))

        reopened = RunStore(directory)
        assert len(reopened) == 2  # the newline-less record is torn, not stored
        assert last not in reopened
        outcome = RunStore(LEGACY_STORE).get(last)
        readded = reopened.append(outcome, fingerprint=last)
        assert readded == last
        assert RunStore(directory).fingerprints() == reopened.fingerprints()

    def test_corrupt_middle_record_is_skipped_and_counted(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        lines = _legacy_lines()
        (directory / RUNS_FILENAME).write_bytes(lines[0] + b"not json\n" + lines[2])
        store = RunStore(directory)
        assert store.fingerprints() == [
            json.loads(lines[0])["fingerprint"], json.loads(lines[2])["fingerprint"]
        ]
        assert store.summary()["corrupt_lines"] == 1

    def test_non_object_lines_are_counted_corrupt(self, tmp_path):
        """Lines that parse to an array, a number, a string or null are not
        records: the scan counts them as fsck does and keeps going."""
        directory = tmp_path / "store"
        directory.mkdir()
        lines = _legacy_lines()
        (directory / RUNS_FILENAME).write_bytes(
            lines[0] + b'[1, 2]\n7\n"text"\nnull\n' + lines[2]
        )
        store = open_store(directory)
        assert store.fingerprints() == [
            json.loads(lines[0])["fingerprint"], json.loads(lines[2])["fingerprint"]
        ]
        assert store.skipped_lines()["corrupt_lines"] == 4
        assert fsck_store(directory)["corrupt"] == 4

    @pytest.mark.parametrize(
        "line",
        [
            b'{"fingerprint": "a", "outcome": [1]}\n',
            b'{"fingerprint": "a", "outcome": {"request": 5}}\n',
            b'{"fingerprint": "a"}\n',
            b'{"outcome": {}}\n',
            b'{"fingerprint": "a", "outcome": {"request": {"scenario": ["x"]}}}\n',
            b'{"fingerprint": "b", "outcome": {"request": {"scenario": "wifi"}}}\n',
        ],
        ids=[
            "outcome-list",
            "request-number",
            "no-outcome",
            "no-fingerprint",
            "scenario-name-list",
            "no-outcome-scenario",
        ],
    )
    def test_objects_without_the_record_shape_are_corrupt_to_scan_and_fsck(
        self, tmp_path, line
    ):
        """The scan and fsck share one check: a record is an object with a
        fingerprint and an object outcome holding request and scenario
        objects, and its scenario, strategy and space names are strings."""
        directory = tmp_path / "store"
        lines = _legacy_lines()
        shard = directory / "shards" / "x.jsonl"
        shard.parent.mkdir(parents=True)
        shard.write_bytes(lines[0] + line + lines[2])
        store = open_store(directory)
        assert store.fingerprints() == [
            json.loads(lines[0])["fingerprint"], json.loads(lines[2])["fingerprint"]
        ]
        assert store.skipped_lines()["corrupt_lines"] == 1
        report = fsck_store(directory)
        assert (report["corrupt"], report["clean"]) == (1, False)
        repaired = fsck_store(directory, repair=True)
        assert repaired["quarantined_lines"] == 1
        assert shard.read_bytes() == lines[0] + lines[2]
        assert fsck_store(directory)["clean"]

    def test_outcomes_stream_in_append_order(self, tmp_path):
        store = RunStore(tmp_path / "store")
        expected = []
        for seed in (3, 1, 2):
            outcome = run_search(_request(seed=seed))
            store.append(outcome)
            expected.append(outcome.request.seed)
        assert [o.request.seed for o in store.outcomes()] == expected

    def test_summary_aggregates_records(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(run_search(_request(seed=0)))
        store.append(run_search(_request(seed=0, strategy="lens")))
        summary = store.summary()
        assert summary["num_runs"] == 2
        assert summary["scenarios"] == ["wifi-3mbps/jetson-tx2-gpu"]
        assert summary["strategies"] == ["lens", "random"]

    def test_outcomes_paginate_with_offset_and_limit(self, tmp_path):
        store = RunStore(tmp_path / "store")
        expected = []
        for seed in (0, 1, 2, 3):
            store.append(run_search(_request(seed=seed)))
            expected.append(seed)
        assert [o.request.seed for o in store.outcomes(offset=1, limit=2)] == [1, 2]
        assert [o.request.seed for o in store.outcomes(offset=3)] == [3]
        assert [o.request.seed for o in store.outcomes(offset=9)] == []
        with pytest.raises(ValueError, match="non-negative"):
            list(store.outcomes(offset=-1))
        with pytest.raises(ValueError, match="non-negative"):
            list(store.outcomes(limit=-1))


class TestLegacyStore:
    @pytest.fixture
    def legacy(self, tmp_path):
        directory = tmp_path / "legacy"
        shutil.copytree(LEGACY_STORE, directory)
        return directory

    def test_fixture_records_are_served_unchanged(self, legacy):
        records = [
            json.loads(line)
            for line in (legacy / RUNS_FILENAME).read_bytes().splitlines()
        ]
        assert ["crc32" in record for record in records] == [False, True, True]
        store = RunStore(legacy)
        assert store.fingerprints() == [record["fingerprint"] for record in records]
        for record in records:
            served = store.get(record["fingerprint"])
            assert to_jsonable(served.to_dict()) == record["outcome"]
        assert [to_jsonable(o.to_dict()) for o in store.outcomes()] == [
            record["outcome"] for record in records
        ]
        envelope = json.loads((legacy / "audit.jsonl").read_bytes())
        assert [e.to_dict() for e in store.iter_audit_records()] == [envelope]

    def test_fixture_is_clean_and_resumes(self, legacy):
        report = fsck_store(legacy)
        assert report["clean"]
        assert (report["legacy"], report["intact"]) == (1, 2)
        requests = [outcome.request for outcome in RunStore(legacy).outcomes()]
        result = run_campaign(requests, legacy)
        assert len(result.skipped) == 3
        assert result.executed == ()

    def test_appends_land_in_shards_and_leave_the_legacy_file_alone(self, legacy):
        before = (legacy / RUNS_FILENAME).read_bytes()
        store = RunStore(legacy)
        fingerprint = store.append(run_search(_request(seed=7)))
        assert (legacy / RUNS_FILENAME).read_bytes() == before
        assert len(list((legacy / "shards").glob("*.jsonl"))) == 1
        reopened = RunStore(legacy)
        assert len(reopened) == 4
        assert reopened.fingerprints()[-1] == fingerprint
