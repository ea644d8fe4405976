"""The repository's benchmark: workloads measured from outside the program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-vgg-ts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, untraced then traced

Workloads: ``search-vgg-ts``, ``campaign-random`` and ``serve-fleet`` (why
each was chosen: ``perfbench/rationale.json``).  The program is imported from
``src/`` after compiling its bytecode, so no run pays for compilation.  Each
run then starts fresh interpreters one after another:

* five set-up-only processes; ``setup_s`` is the median of their set-up
  times and that of the measured process, each corrected for host speed;
* the measured process, which keeps its main thread on one CPU, runs as many
  whole units of work as fit in ``--seconds`` (at least one) while a probe
  thread times the benchmark's reference loop on that CPU, and checks every
  unit's outputs;
* with ``--trace 1``, a second process that does the same with entry-point
  wrappers installed and derives the per-layer metrics from their spans.

On a shared 2-vCPU VM the same code runs up to 2x slower for minutes at a
time, and the two vCPUs at different speeds, so the time metrics are given in
reference-loop times (``ref``): each unit's wall and CPU time is divided by the
mean time of the reference loop (``worker.reference_s``) sampled on the same
CPU while the unit ran.  Set-up time, reported in seconds, is likewise
divided by the loop's time right after set-up and multiplied by
``REFERENCE_NOMINAL_S``: seconds on a host where the loop takes that long.
The measured seconds are printed beside them and kept in the record.

Each run prints the environment, the outcome digest, the measured seconds and
its metrics, then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or its per-layer
metrics with ``--trace 1``); with ``--workload`` that line is the last of
standard output.  The full record, with the environment it ran in, goes to
``perfbench/.out/``; the latest traced run of each workload leaves its spans
there too.  The exit code is 0 unless a process failed or timed out, in which
case no result is printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Every run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0

#: Set-up-only processes per run (one in smoke runs).  Single cold starts
#: spread by up to +-25 % on a shared 2-vCPU VM, so set-up time is the median
#: of six: these and the measured process.
COLD_STARTS = 5

#: Seconds the reference loop takes on a quiet 2-vCPU Xeon VM; set-up times
#: are reported as they would be on a host this fast.
REFERENCE_NOMINAL_S = 0.0025

WORKLOADS = ("search-vgg-ts", "campaign-random", "serve-fleet")


class BenchmarkError(RuntimeError):
    """A process of the run failed or the checkout cannot be benchmarked."""


def _cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def _commit() -> Optional[str]:
    """The checkout's commit, when it is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _end_session(pgid: int) -> None:
    """Kill what is left of a worker's process group and wait until it is gone.

    Campaign pool workers share the worker's session; none may outlive the run.
    """
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _spawn(mode: str, args, out: Path, deadline: float) -> Dict:
    """Run one worker process to completion and return its result."""
    out.unlink(missing_ok=True)
    shutil.rmtree(out.parent / f"{out.stem}.scratch", ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    command += ["--spawn-ns", str(time.monotonic_ns())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"{mode} process of {args.workload} timed out")
    finally:
        _end_session(process.pid)
    shutil.rmtree(out.parent / f"{out.stem}.scratch", ignore_errors=True)
    if process.returncode != 0 or not out.is_file():
        sys.stderr.write(output[-4000:])
        raise BenchmarkError(f"{mode} process of {args.workload} exited {process.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _units_summary(result: Dict) -> Tuple[int, int, List[str], set]:
    """(attempted, failed, failure messages, digests) of a measured process."""
    attempted = failed = 0
    failures: List[str] = []
    for unit in result["units"]:
        attempted += unit["operations"]
        if unit["failures"]:
            failed += unit["operations"]
            failures += unit["failures"]
    return attempted, failed, failures, {unit["digest"] for unit in result["units"]}


def run(args) -> Dict:
    """Execute one benchmark run and return its full record."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(str(directory), quiet=1)
    OUT.mkdir(exist_ok=True)
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    steal_start, total_start = _cpu_times()

    setups = [
        _spawn("setup", args, OUT / f"{key}-setup{i}.json", deadline)["setup"]
        for i in range(1 if args.smoke else COLD_STARTS)
    ]
    measured = _spawn("measure", args, OUT / f"{key}-measure.json", deadline)
    setups.append(measured["setup"])
    attempted, failed, failures, digests = _units_summary(measured)
    units = measured["units"]
    metrics = {
        "setup_s": REFERENCE_NOMINAL_S * median(s["setup_s"] / s["ref_s"] for s in setups),
        "wall_ref": median(u["wall_s"] / u["ref_s"] for u in units),
        "throughput_per_ref": median(u["operations"] * u["ref_s"] / u["wall_s"] for u in units),
        "cpu_ref": median(u["cpu_s"] / u["ref_s"] for u in units),
        "peak_rss_mb": measured["peak_rss_mb"],
        "quality": median(u["quality"] for u in units),
    }
    names = benchmark["end_to_end"]
    record: Dict = {
        "untraced_digest": sorted(digests),
        "measured": {
            "wall_s": median(u["wall_s"] for u in units),
            "throughput_per_s": median(u["operations"] / u["wall_s"] for u in units),
            "cpu_s": median(u["cpu_s"] for u in units),
            "ref_s": median(u["ref_s"] for u in units),
            "setup_s": median(s["setup_s"] for s in setups),
        },
    }
    if args.trace:
        traced = _spawn("trace", args, OUT / f"{key}-trace.json", deadline)
        t_attempted, t_failed, t_failures, t_digests = _units_summary(traced)
        attempted, failed, failures = attempted + t_attempted, failed + t_failed, failures + t_failures
        record["traced_digest"] = sorted(t_digests)
        if t_digests != digests:
            failures.append("traced and untraced runs gave different outcome digests")
        digests |= t_digests
        overhead = (
            median(u["wall_s"] / u["ref_s"] for u in traced["units"]) / metrics["wall_ref"] - 1.0
        )
        metrics = dict(traced["per_layer"])
        metrics.update({
            "setup.import_s": median(s["import_s"] for s in setups),
            "setup.predictor_s": median(s["predictor_s"] for s in setups),
            "setup.model_s": median(s["model_s"] for s in setups),
            "trace.overhead_share": overhead,
        })
        record["missing_spans"] = traced["missing_spans"]
        names = benchmark["per_layer"]
    if len(digests) != 1:
        failures.append(f"units gave {len(digests)} different outcome digests")
        failed = attempted
    steal_end, total_end = _cpu_times()
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=dict(
            measured["environment"],
            nproc=len(os.sched_getaffinity(0)),
            commit=_commit(),
            steal_share=(steal_end - steal_start) / max(1, total_end - total_start),
        ),
        units=len(units),
        setup_samples_s=[s["setup_s"] for s in setups],
        unit_walls_s=[u["wall_s"] for u in units],
        unit_refs_s=[u["ref_s"] for u in units],
        failures=failures,
        result={
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in names
            },
        },
    )
    (OUT / f"{key}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: Dict) -> None:
    """Print one run: environment, outcome digest, metrics, then the result line."""
    env = record["environment"]
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']} x{env['blas_threads']} threads, nproc {env['nproc']}, units on cpu {env['cpu']}, "
        f"commit {env['commit']}, steal {100 * env['steal_share']:.2f}%"
    )
    print(f"digest: {record['workload']} seed {record['seed']}: "
          f"{' '.join(record['untraced_digest'])}"
          + (f" traced {' '.join(record['traced_digest'])}" if record["trace"] else ""))
    measured = record["measured"]
    print(f"measured: wall_s {measured['wall_s']:.4g} s, throughput_per_s "
          f"{measured['throughput_per_s']:.6g} 1/s, cpu_s {measured['cpu_s']:.4g} s, "
          f"reference loop {measured['ref_s']:.4g} s, {record['units']} units, "
          f"setup_s {measured['setup_s']:.4g} s")
    for message in record["failures"]:
        print(f"FAILED: {message}")
    for missing in record.get("missing_spans", []):
        print(f"missing span: {missing}")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it, every workload untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the benchmark's own tests")
    args = parser.parse_args(argv)
    plan = (
        [(args.workload, args.trace)]
        if args.workload
        else [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    )
    for workload, trace in plan:
        try:
            record = run(argparse.Namespace(**dict(vars(args), workload=workload, trace=trace)))
        except BenchmarkError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
