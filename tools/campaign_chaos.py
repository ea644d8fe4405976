#!/usr/bin/env python
"""Campaign supervision chaos drills: deadlines, dead-letter, circuit, fsck.

The acceptance drill of the supervision subsystem, runnable locally and in
CI::

    PYTHONPATH=src python tools/campaign_chaos.py

1. **Deadline + dead-letter**: a worker whose search wedges forever
   (``REPRO_FAULT_HANG_AT_EVAL``) must be killed at the enforced per-cell
   deadline, audited as ``E_TIMEOUT``, retried, and — once the retry budget
   is exhausted — have failed for good, its two ``E_TIMEOUT`` audit records
   its whole failure chain (``RunStore.cell_failures``).  A fresh worker
   must refuse to claim the failed cell; ``repro campaign --retry-dead``
   must re-admit it, after which ``repro campaign --executor pull-worker``
   over the same cell must store it and exit 0 (its observer may not fail
   the cell on the records of its previous life).
2. **Store integrity**: an injected ENOSPC append leaves the store
   byte-identical; an injected torn append and two simulated bit-flips —
   one in a record's body, one in another record's checksum — are detected
   by the CRC layer (counted, never served), reported by ``repro store
   fsck``, quarantined by ``--repair``, and the repaired store keeps every
   intact record byte-identical.
3. **Circuit breaker, end to end**: a grid that fails on every cell must
   trip the breaker of the ``serial`` and the ``process-pool`` executor
   (their loops stop claiming, and ``run_campaign`` raises
   ``CircuitOpenError``); ``repro campaign --executor pull-worker`` over
   cells that time out on every attempt must trip the sliding-window
   breaker, stop the workers claiming, and exit with code 4.
4. **Healthy parity**: a supervised campaign over healthy cells stores
   record-identical contents (modulo per-run wall time, and the checksum
   that covers it) and summaries as an unsupervised one, and audits no
   failure.

Exits non-zero with a diagnostic on any violation and keeps its temporary
workspace for inspection; a passing run removes it.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.envelopes import request_fingerprint  # noqa: E402
from repro.campaign import (  # noqa: E402
    CampaignPolicy,
    CampaignSpec,
    CircuitOpenError,
    RunStore,
    fsck_store,
    run_campaign,
)
from repro.campaign.manifest import CampaignManifest  # noqa: E402
from repro.campaign.supervisor import SUPERVISOR_FILENAME  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.resilience import faults  # noqa: E402

SCENARIO = "wifi-3mbps/jetson-tx2-gpu"

#: Budgets small enough that one healthy cell is a second or two.
FAST = dict(
    num_initial=2,
    num_iterations=1,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)

TIMEOUT_S = 180.0


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _child_env(extra_env: dict = None) -> dict:
    """Environment of a ``repro`` child process: this checkout's ``src`` on
    the path, and no fault injection unless ``extra_env`` asks for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for name in (
        faults.ENV_HANG_AT_EVAL, faults.ENV_HANG_SECONDS,
        faults.ENV_KILL_AT_EVAL,
    ):
        env.pop(name, None)
    env.update(extra_env or {})
    return env


def _spawn_worker(
    store_dir: Path, worker_id: str, extra_env: dict = None
) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--store", str(store_dir), "--worker-id", worker_id],
        env=_child_env(extra_env),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _shard_records(store_dir: Path) -> dict:
    """fingerprint -> outcome dict with volatile fields stripped."""
    records = {}
    for path in sorted((store_dir / "shards").glob("*.jsonl")):
        for line in path.read_bytes().splitlines():
            record = json.loads(line)
            outcome = dict(record["outcome"])
            outcome.pop("wall_time_s", None)
            records[record["fingerprint"]] = outcome
    return records


def drill_deadline_and_dead_letter(base: Path) -> int:
    print("[1/4] deadline + dead-letter drill...")
    store_dir = base / "deadline"
    RunStore(store_dir)
    request = CampaignSpec(
        scenarios=(SCENARIO,), strategies=("random",), seeds=(0,), **FAST
    ).requests()[0]
    fingerprint = request_fingerprint(request)
    policy = CampaignPolicy(
        ttl_s=15.0, poll_s=0.2, max_attempts=2, backoff_base_s=0.2,
        max_backoff_s=1.0, cell_timeout_s=6.0,
    )
    CampaignManifest.from_requests([request], policy=policy).write(store_dir)

    # this worker's search wedges forever at evaluation 1; only the deadline
    # watchdog can get the cell back
    hung = _spawn_worker(store_dir, "hung", extra_env={
        faults.ENV_HANG_AT_EVAL: "1", faults.ENV_HANG_SECONDS: "600",
    })
    try:
        hung.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        hung.kill()
        return _fail("hung worker was not released by the deadline watchdog")
    if hung.returncode != 0:
        return _fail(f"hung worker exited {hung.returncode}, expected 0 "
                     "(fail the cell for good and finish)")

    store = RunStore(store_dir)

    def failed_for_good() -> bool:
        store.refresh()
        cell = store.cell_failures().get(fingerprint)
        return cell is not None and cell.failed

    if len(store) != 0:
        return _fail("a wedged cell still produced a stored outcome")
    chain = store.audit_records()
    if [e.code for e in chain] != ["E_TIMEOUT"] * policy.max_attempts or any(
        e.fingerprint != fingerprint for e in chain
    ):
        return _fail(f"expected {policy.max_attempts} E_TIMEOUT audit "
                     f"records of the cell, found {[e.code for e in chain]}")
    cell = store.cell_failures().get(fingerprint)
    if cell is None or not cell.failed:
        return _fail("the poison cell has not failed for good")
    if cell.attempts != len(chain) or cell.last != chain[-1]:
        return _fail(f"the cell's failure chain is not its {len(chain)} "
                     f"E_TIMEOUT records: {cell}")
    print(f"      killed at the {policy.cell_timeout_s:g}s deadline twice, "
          f"failed for good with a {cell.attempts}-record chain")

    # a fresh worker must refuse the failed cell and exit with nothing to do
    scavenger = _spawn_worker(store_dir, "scavenger")
    scavenger.wait(timeout=60.0)
    if not failed_for_good() or len(store) != 0 or (
        len(store.audit_records()) != len(chain)
    ):
        return _fail("a fresh worker re-claimed a dead-lettered cell")
    print("      fresh worker refused the failed cell")

    # explicit re-admission, then a pull-worker campaign over the same cell
    # finishes it; its observer must not fail the cell on the final audit
    # record of its previous life
    code = cli_main(["campaign", "--store", str(store_dir), "--retry-dead"])
    if code != 0:
        return _fail(f"repro campaign --retry-dead exited {code}")
    if failed_for_good():
        return _fail("--retry-dead did not re-admit the failed cell")
    try:
        campaign = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--store", str(store_dir), "--scenario", SCENARIO,
             "--strategy", "random", "--seed", "0",
             "--executor", "pull-worker", "--workers", "1",
             "--num-initial", str(FAST["num_initial"]),
             "--num-iterations", str(FAST["num_iterations"]),
             "--pool-size", str(FAST["candidate_pool_size"]),
             "--predictor-samples", str(FAST["predictor_samples_per_type"]),
             "--quiet"],
            env=_child_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _fail("pull-worker campaign did not finish the re-admitted cell")
    if campaign.returncode != 0:
        return _fail(f"pull-worker campaign over the re-admitted cell exited "
                     f"{campaign.returncode}, expected 0\n"
                     f"stdout: {campaign.stdout}\nstderr: {campaign.stderr}")
    store.refresh()
    if sorted(store.fingerprints()) != [fingerprint]:
        return _fail("re-admitted cell was not executed by the pull-worker "
                     "campaign")
    print("      --retry-dead re-admitted it; a pull-worker campaign stored "
          "the cell and exited 0")
    return 0


def drill_store_integrity(base: Path) -> int:
    print("[2/4] store-integrity drill (ENOSPC, torn write, bit-flip, fsck)...")
    store_dir = base / "integrity"
    store = RunStore(store_dir)
    spec = CampaignSpec(
        scenarios=(SCENARIO,), strategies=("random",), seeds=(0, 1, 2), **FAST
    )
    run_campaign(spec, store)
    (shard_path,) = sorted((store_dir / "shards").glob("*.jsonl"))
    pristine = shard_path.read_bytes()
    original_lines = pristine.splitlines(keepends=True)
    if any(b'"crc32"' not in line for line in original_lines):
        return _fail("new records do not carry a crc32 field")
    donor = store.get(sorted(store.fingerprints())[0])

    # ENOSPC: the append fails before a byte lands; the store is untouched
    try:
        with faults.inject(faults.FaultInjector(enospc_appends=1)):
            store.append(donor, fingerprint="chaos-enospc")
        return _fail("injected ENOSPC append did not raise")
    except OSError as error:
        if error.errno != errno.ENOSPC:
            return _fail(f"expected ENOSPC, got {error!r}")
    if shard_path.read_bytes() != pristine:
        return _fail("ENOSPC append modified the shard file")
    print("      ENOSPC append raised; shard byte-identical")

    # torn write: the writer dies half way through its line
    try:
        with faults.inject(faults.FaultInjector(torn_appends=1)):
            store.append(donor, fingerprint="chaos-torn")
        return _fail("injected torn append did not kill the writer")
    except faults.KilledByFault:
        pass
    torn_tail = len(shard_path.read_bytes()) - len(pristine)
    if torn_tail <= 0:
        return _fail("torn append left no partial line behind")

    # bit-flips (simulated disk rot) that leave each line parseable: the
    # last digit of a float in the first record's body, so its canonical
    # bytes no longer match their checksum, and the last digit of the second
    # record's checksum field (a leading zero would be invalid JSON instead)
    def flip_last_digit(line: bytes, key: bytes) -> bytes:
        flipped = bytearray(line)
        anchor = flipped.index(key) + len(key)
        while not chr(flipped[anchor]).isdigit():
            anchor += 1
        while chr(flipped[anchor]).isdigit() or flipped[anchor] == ord("."):
            anchor += 1
        anchor -= 1
        flipped[anchor] = ord("1") if flipped[anchor] == ord("0") else ord("0")
        return bytes(flipped)

    shard_path.write_bytes(flip_last_digit(original_lines[0], b'"error_percent":')
                           + flip_last_digit(original_lines[1], b'"crc32":')
                           + original_lines[2]
                           + shard_path.read_bytes()[len(pristine):])

    reopened = RunStore(store_dir)
    if len(reopened) != 1:
        return _fail(f"store served {len(reopened)} records; the two rotten "
                     "ones must be skipped")
    if reopened.summary()["crc_mismatches"] != 2:
        return _fail("the scan did not count both CRC mismatches")

    report = fsck_store(store_dir)
    if report["clean"] or report["crc_mismatch"] != 2 or \
            report["torn_bytes"] != torn_tail or report["intact"] != 1:
        return _fail(f"fsck verify misclassified the damage: {report}")
    print(f"      fsck: {report['intact']} intact, 2 checksum mismatches "
          f"(body, checksum), {report['torn_bytes']} torn byte(s) detected")

    report = fsck_store(store_dir, repair=True)
    if not report["repaired"] or report["quarantined_lines"] != 3:
        return _fail(f"fsck --repair did not quarantine the three bad lines: "
                     f"{report}")
    if shard_path.read_bytes() != original_lines[2]:
        return _fail("repair did not keep the intact record byte-identical")
    quarantined = list((store_dir / "quarantine").iterdir())
    if not quarantined:
        return _fail("repair left no quarantine sidecar behind")
    after = fsck_store(store_dir)
    if not after["clean"]:
        return _fail(f"store still unclean after repair: {after}")
    repaired = RunStore(store_dir)
    if len(repaired) != 1 or repaired.summary()["crc_mismatches"] != 0:
        return _fail("repaired store does not scan clean")
    print(f"      repair quarantined 3 line(s) into "
          f"{quarantined[0].name}; intact record byte-identical")
    return 0


def drill_circuit_breaker(base: Path) -> int:
    print("[3/4] circuit-breaker drill (campaign CLI must exit 4)...")
    store_dir = base / "circuit"

    # local loops first: a request batch that fails on every cell must trip
    # the shared breaker, and the in-process loop and the child loop must
    # stop at it
    from repro.api.scenario import Scenario
    good = CampaignSpec(
        scenarios=(SCENARIO,), strategies=("random",), seeds=(0, 1, 2, 3),
        **FAST,
    ).requests()
    ghosts = [
        request.replace(
            scenario=Scenario(name="ghost/nowhere", device="ghost-device")
        )
        for request in good
    ]
    policy = CampaignPolicy(circuit_window=2, circuit_threshold=1.0,
                            circuit_cooldown_s=60.0, on_error="continue")
    for executor in ("serial", "process-pool"):
        try:
            run_campaign(ghosts, RunStore(store_dir / executor),
                         executor=executor, policy=policy)
            return _fail(f"{executor} campaign over failing cells did not "
                         "trip the breaker")
        except CircuitOpenError as error:
            print(f"      {executor} executor tripped the breaker: {error}")

    # end to end: every pull-worker attempt times out (wedged search +
    # 3s deadline); two failures fill the window, the shared breaker opens,
    # and the campaign CLI must exit with code 4
    cli_dir = store_dir / "pull"
    env = _child_env({faults.ENV_HANG_AT_EVAL: "1", faults.ENV_HANG_SECONDS: "600"})
    campaign = subprocess.run(
        [sys.executable, "-m", "repro", "campaign",
         "--store", str(cli_dir), "--scenario", SCENARIO,
         "--strategy", "random", "--seed", "0", "--seed", "1",
         "--executor", "pull-worker", "--workers", "2",
         "--cell-timeout", "3", "--circuit-threshold", "1.0",
         "--circuit-window", "2", "--circuit-cooldown", "60",
         "--max-attempts", "3", "--on-error", "continue",
         "--ttl", "15", "--poll", "0.2", "--backoff", "0.2",
         "--num-initial", "2", "--num-iterations", "1",
         "--pool-size", "16", "--predictor-samples", "40", "--quiet"],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if campaign.returncode != 4:
        return _fail(f"campaign CLI exited {campaign.returncode}, expected "
                     f"4 (circuit open)\nstderr: {campaign.stderr}")
    state = json.loads((cli_dir / SUPERVISOR_FILENAME).read_text())
    if state["circuit"]["state"] != "open":
        return _fail(f"supervisor.json records circuit state "
                     f"{state['circuit']['state']!r}, expected 'open'")
    transitions = state["circuit"].get("transitions", [])
    kills = sum(1 for e in RunStore(cli_dir).audit_records() if e.code == "E_TIMEOUT")
    print(f"      pull-worker campaign exited 4; shared breaker open after "
          f"{kills} timeout kill(s), "
          f"transitions: {[t[-1] for t in transitions]}")
    return 0


def drill_healthy_parity(base: Path) -> int:
    print("[4/4] healthy-parity drill (supervision must be inert)...")
    spec = CampaignSpec(
        scenarios=(SCENARIO,), strategies=("random",), seeds=(0, 1), **FAST
    )
    plain_dir, supervised_dir = base / "plain", base / "supervised"
    plain = run_campaign(spec, RunStore(plain_dir))
    policy = CampaignPolicy(cell_timeout_s=120.0, circuit_window=4,
                            circuit_threshold=1.0)
    supervised = run_campaign(
        spec, RunStore(supervised_dir), policy=policy
    )
    if supervised.summary()["failed"] or plain.summary()["failed"]:
        return _fail("healthy campaign reported failures")
    if _shard_records(plain_dir) != _shard_records(supervised_dir):
        return _fail("supervised store contents diverge from unsupervised "
                     "(beyond wall time)")
    volatile = {"total_wall_time_s", "directory"}
    plain_summary = {k: v for k, v in RunStore(plain_dir).summary().items()
                     if k not in volatile}
    supervised_summary = {
        k: v for k, v in RunStore(supervised_dir).summary().items()
        if k not in volatile
    }
    if plain_summary != supervised_summary:
        return _fail(f"store summaries diverge:\n{plain_summary}\n"
                     f"{supervised_summary}")
    if supervised.summary()["circuit_state"] not in ("closed", "disabled"):
        return _fail("healthy supervised campaign did not keep the breaker "
                     "closed")
    audit = RunStore(supervised_dir).audit_summary()
    if audit["by_code"].get("E_TIMEOUT") or audit["failed_cells"]:
        return _fail(f"healthy supervised campaign audited failures: {audit}")
    print("      supervised and unsupervised stores identical "
          "(modulo wall time); breaker stayed closed")
    return 0


def main() -> int:
    base = Path(tempfile.mkdtemp(prefix="repro-campaign-chaos-"))
    print(f"workspace: {base}")
    for drill in (
        drill_deadline_and_dead_letter,
        drill_store_integrity,
        drill_circuit_breaker,
        drill_healthy_parity,
    ):
        code = drill(base)
        if code:
            print(f"workspace kept for inspection: {base}", file=sys.stderr)
            return code
    print("OK: deadlines enforced, poison cells failed for good and "
          "re-admittable, circuit breaker trips to exit 4, store rot "
          "detected/quarantined/repaired, healthy supervision inert")
    shutil.rmtree(base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
