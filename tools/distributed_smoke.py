#!/usr/bin/env python
"""Distributed campaign smoke test: crash a worker mid-run, verify parity.

The acceptance drill of the pull-worker protocol, runnable locally and in
CI::

    PYTHONPATH=src python tools/distributed_smoke.py

1. Run a small grid **serially** into a store (the reference).
2. Publish the same grid as a manifest in a second store directory and
   start two ``repro worker`` subprocesses against it.
3. As soon as the first outcome lands, **SIGKILL one worker** — whatever
   lease it holds goes stale and must be reclaimed by the survivor after
   the TTL.
4. Wait for the survivor to drain the manifest, then start one more worker
   (a **re-run** of the campaign): it must find nothing to do.
5. Assert the shared store holds exactly the serial fingerprint set, every
   record exactly once at the raw-line level, and per-cell candidate
   metrics matching the serial run (to 6 decimals — executors may differ in
   last-ulp float noise from engine-cache warm-up order).
6. Mid-search kill drill: publish a one-cell lens campaign and start a
   worker that SIGKILLs itself mid-search (``REPRO_FAULT_KILL_AT_EVAL``);
   a clean worker must then reclaim the cell and **re-run** it, storing
   one record whose candidate metrics match a serial run of that cell (to
   the 6 decimals of step 5).

Exits non-zero with a diagnostic on any violation and keeps its temporary
workspace for inspection; a passing run removes it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import (  # noqa: E402
    CampaignPolicy,
    CampaignSpec,
    RunStore,
    run_campaign,
)
from repro.campaign.manifest import CampaignManifest  # noqa: E402

SPEC = CampaignSpec(
    scenarios=("wifi-3mbps/jetson-tx2-gpu",),
    strategies=("random",),
    seeds=(0, 1, 2, 3),
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)

TTL_S = 3.0
TIMEOUT_S = 180.0


def _spawn_worker(
    store_dir: Path, worker_id: str, extra_env: dict = None
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--store", str(store_dir), "--worker-id", worker_id],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _metric_rows(store):
    rows = {}
    for fingerprint in store.fingerprints():
        outcome = store.get(fingerprint)
        rows[fingerprint] = [
            (round(c.error_percent, 6), round(c.latency_s, 6), round(c.energy_j, 6))
            for c in outcome.candidates
        ]
    return rows


def _drill(base: Path) -> int:
    print(f"[1/6] serial reference run ({SPEC.num_cells} cells)...")
    serial = RunStore(base / "serial")
    result = run_campaign(SPEC, serial)
    print(f"      {len(result.executed)} cells in {result.wall_time_s:.1f}s")

    print("[2/6] publishing manifest, starting 2 pull workers...")
    store_dir = base / "shared"
    RunStore(store_dir)
    CampaignManifest.from_requests(
        SPEC.requests(),
        policy=CampaignPolicy(ttl_s=TTL_S, poll_s=0.2, max_attempts=3),
    ).write(store_dir)
    victim = _spawn_worker(store_dir, "victim")
    survivor = _spawn_worker(store_dir, "survivor")

    print("[3/6] waiting for first stored cell, then killing one worker...")
    observer = RunStore(store_dir)
    deadline = time.time() + TIMEOUT_S
    while len(observer) == 0:
        if time.time() > deadline:
            print("FAIL: no cell stored before timeout", file=sys.stderr)
            return 1
        time.sleep(0.1)
        observer.refresh()
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    print(f"      killed worker 'victim' with {len(observer)} cell(s) stored")

    print("[4/6] waiting for the survivor to drain the manifest...")
    try:
        survivor.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        survivor.kill()
        print("FAIL: surviving worker did not finish in time", file=sys.stderr)
        return 1
    rerun = _spawn_worker(store_dir, "rerun")
    rerun.wait(timeout=60.0)

    print("[5/6] verifying parity with the serial run...")
    final = RunStore(store_dir)
    failures = []
    if set(final.fingerprints()) != set(serial.fingerprints()):
        failures.append(
            f"fingerprint sets differ: {sorted(final.fingerprints())} vs "
            f"{sorted(serial.fingerprints())}"
        )
    raw_lines = sum(
        sum(1 for _ in path.open("rb"))
        for path in (store_dir / "shards").glob("*.jsonl")
    )
    if raw_lines != SPEC.num_cells:
        failures.append(
            f"expected {SPEC.num_cells} raw shard lines (exactly-once), "
            f"found {raw_lines}"
        )
    if _metric_rows(final) != _metric_rows(serial):
        failures.append("per-cell candidate metrics diverge from the serial run")
    leftover_leases = list((store_dir / "leases").glob("*.lease"))
    # the victim's lease may remain if it died holding one and every cell
    # was finished by the survivor via other claims — stale but harmless;
    # only *fresh* leases after completion indicate a protocol bug
    reclaims = sum(
        1 for envelope in final.audit_records() if envelope.attempt > 1
    )
    summary = final.summary()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: {summary['num_runs']} cells exactly-once across "
        f"{summary['num_shards']} shard(s); worker crash survived "
        f"({len(leftover_leases)} stale lease file(s), {reclaims} audited "
        f"retries); re-run was a no-op"
    )

    print("[6/6] mid-search kill drill (kill inside a search, re-run the "
          "cell)...")
    chaos_dir = base / "chaos"
    RunStore(chaos_dir)
    chaos_spec = CampaignSpec(
        scenarios=("wifi-3mbps/jetson-tx2-gpu",),
        strategies=("lens",),
        seeds=(0,),
        num_initial=2,
        num_iterations=4,
        candidate_pool_size=16,
        predictor_samples_per_type=40,
    )
    CampaignManifest.from_requests(
        chaos_spec.requests(),
        policy=CampaignPolicy(ttl_s=TTL_S, poll_s=0.2, max_attempts=3),
    ).write(chaos_dir)
    # this worker SIGKILLs itself after 3 of the cell's 6 evaluations
    doomed = _spawn_worker(
        chaos_dir, "doomed", extra_env={"REPRO_FAULT_KILL_AT_EVAL": "3"}
    )
    doomed.wait(timeout=120.0)
    if doomed.returncode != -9:
        print(f"FAIL: doomed worker exited {doomed.returncode}, expected "
              "SIGKILL (-9)", file=sys.stderr)
        return 1
    finisher = _spawn_worker(chaos_dir, "finisher")
    try:
        finisher.wait(timeout=120.0)
    except subprocess.TimeoutExpired:
        finisher.kill()
        print("FAIL: finishing worker did not drain the chaos manifest",
              file=sys.stderr)
        return 1
    chaos_store = RunStore(chaos_dir)
    if len(chaos_store) != 1:
        print(f"FAIL: chaos store holds {len(chaos_store)} cells, expected 1",
              file=sys.stderr)
        return 1
    chaos_serial = RunStore(base / "chaos-serial")
    run_campaign(chaos_spec, chaos_serial)
    if _metric_rows(chaos_store) != _metric_rows(chaos_serial):
        print("FAIL: the re-run cell's candidate metrics diverge from a "
              "serial run of it", file=sys.stderr)
        return 1
    print("OK: the finisher re-ran the killed cell and stored candidates "
          "matching a serial run of it")
    return 0


def main() -> int:
    base = Path(tempfile.mkdtemp(prefix="repro-distributed-smoke-"))
    print(f"workspace: {base}")
    code = _drill(base)
    if code == 0:
        shutil.rmtree(base)
    else:
        print(f"workspace kept for inspection: {base}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
