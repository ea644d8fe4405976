#!/usr/bin/env python
"""Search chaos drill: kill a search mid-run, re-run it, inject failures.

The acceptance drill of the resilience layer (``repro.resilience``),
runnable locally and in CI::

    PYTHONPATH=src python tools/search_chaos.py

1. Run one search **uninterrupted** (the golden reference).
2. Run the same request in a subprocess with ``REPRO_FAULT_KILL_AT_EVAL``
   set — the process SIGKILLs itself mid-search, after logging each
   completed evaluation to the workspace.
3. **Re-run** the request on a fresh engine and assert the outcome is
   bitwise-identical to the golden run — same candidate sequence, same
   fronts, same fingerprint.  A search is a pure function of its request,
   so a re-run is the whole recovery.
4. Inject **Cholesky failures** (``LinAlgError``) and assert the search
   completes with the degradation ladder recorded in the health log
   instead of raising.
5. Inject **NaN objectives** and assert the poisoned evaluations are
   quarantined while the search still completes its budget.

Exits non-zero with a diagnostic on any violation and keeps its temporary
workspace for inspection; a passing run removes it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.engine import EvaluationEngine  # noqa: E402
from repro.api.session import run_search  # noqa: E402
from repro.resilience import FaultInjector, faults  # noqa: E402

#: One small-but-real search: 4 init + 6 BO = 10 evaluations.
REQUEST = dict(
    strategy="lens",
    scenario="wifi-3mbps/jetson-tx2-gpu",
    search_space="resnet-v1",
    num_initial=4,
    num_iterations=6,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
    seed=11,
)
KILL_AT_EVAL = 7  # mid-search: after the BO phase has begun

#: Ladder rungs that prove degradation.
LADDER_CODES = (
    "H_JITTER_ESCALATED",
    "H_EXACT_REFIT",
    "H_HETEROGENEOUS_FALLBACK",
    "H_RANDOM_ACQUISITION",
)


def _comparable(outcome) -> dict:
    """The deterministic part of an outcome: everything except timing,
    cache statistics and the health counters themselves."""
    payload = outcome.to_dict()
    for volatile in ("wall_time_s", "engine_stats", "health"):
        payload.pop(volatile, None)
    return payload


def _run_crash_child(progress_log: Path) -> subprocess.CompletedProcess:
    """Run REQUEST in a subprocess that SIGKILLs itself at KILL_AT_EVAL,
    appending one line to ``progress_log`` per completed evaluation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULT_KILL_AT_EVAL"] = str(KILL_AT_EVAL)
    child = (
        "import json, sys\n"
        "from repro.api.session import run_search\n"
        "request = json.loads(sys.argv[1])\n"
        "def log(index, evaluation):\n"
        "    with open(sys.argv[2], 'a') as handle:\n"
        "        handle.write(f'{index} {evaluation.architecture_name}\\n')\n"
        "run_search(progress_callback=log, **request)\n"
        "sys.exit(3)  # unreachable: the injected kill fires first\n"
    )
    return subprocess.run(
        [sys.executable, "-c", child, json.dumps(REQUEST), str(progress_log)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _drill(base: Path) -> int:
    failures = []

    print("[1/5] golden uninterrupted run...")
    golden = run_search(engine=EvaluationEngine(), **REQUEST)
    fingerprint = golden.request.fingerprint()
    print(f"      {len(golden)} candidates, fingerprint {fingerprint}")

    print(f"[2/5] crash run: SIGKILL after evaluation {KILL_AT_EVAL}...")
    progress_log = base / "crash-progress.txt"
    crashed = _run_crash_child(progress_log)
    if crashed.returncode != -9:
        failures.append(
            f"crash child exited {crashed.returncode}, expected SIGKILL (-9); "
            f"stderr: {crashed.stderr.decode(errors='replace')[-500:]}"
        )
    completed = (
        len(progress_log.read_text().splitlines()) if progress_log.exists() else 0
    )
    print(f"      killed after {completed} of {len(golden)} evaluation(s)")
    if completed != KILL_AT_EVAL:
        failures.append(
            f"expected the kill after evaluation {KILL_AT_EVAL}, the child "
            f"logged {completed}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    print("[3/5] re-running the killed request on a fresh engine...")
    rerun = run_search(engine=EvaluationEngine(), **REQUEST)
    if _comparable(rerun) != _comparable(golden):
        failures.append("re-run outcome is not bitwise-identical to the golden run")
    else:
        print(f"      bitwise parity OK ({len(rerun)} candidates)")

    print("[4/5] LinAlgError injection: the degradation ladder must absorb it...")
    with faults.inject(FaultInjector(linalg_failures=50)):
        degraded = run_search(engine=EvaluationEngine(), **REQUEST)
    ladder_events = {c: degraded.health.get(c, 0) for c in LADDER_CODES}
    if sum(ladder_events.values()) == 0:
        failures.append(
            f"LinAlg injection left no ladder events in health: {degraded.health}"
        )
    if len(degraded) == 0:
        failures.append("LinAlg-degraded search produced no candidates")
    print(f"      completed with {dict((c, n) for c, n in ladder_events.items() if n)}")

    print("[5/5] NaN-objective injection: poisoned evaluations must be quarantined...")
    nan_indices = (2, 5)
    with faults.inject(FaultInjector(nan_evaluations=nan_indices)):
        poisoned = run_search(engine=EvaluationEngine(), **REQUEST)
    quarantined = poisoned.health.get("H_OBJECTIVE_QUARANTINED", 0)
    if quarantined != len(nan_indices):
        failures.append(
            f"expected {len(nan_indices)} quarantined evaluations, "
            f"health says {quarantined}: {poisoned.health}"
        )
    expected = REQUEST["num_initial"] + REQUEST["num_iterations"] - len(nan_indices)
    if len(poisoned) != expected:
        failures.append(
            f"NaN-poisoned search kept {len(poisoned)} candidates, "
            f"expected {expected}"
        )
    print(f"      completed with {quarantined} quarantined evaluation(s)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "OK: kill/re-run bitwise parity, LinAlg degradation absorbed, "
        "NaN evaluations quarantined"
    )
    return 0


def main() -> int:
    base = Path(tempfile.mkdtemp(prefix="repro-search-chaos-"))
    print(f"workspace: {base}")
    code = _drill(base)
    if code == 0:
        shutil.rmtree(base)
    else:
        print(f"workspace kept for inspection: {base}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
