"""One workload process: set-up, timed units of work, checks.

Started by ``run.py`` in a fresh interpreter, so that set-up time covers the
interpreter, the imports and everything the first unit needs::

    python3 perfbench/worker.py {setup,measure,trace} --workload NAME --seed N
        --seconds S --spawn-ns T --out RESULT.json [--smoke]

``setup`` stops once the workload is ready; ``measure`` then keeps its main
thread on one CPU and runs as many whole units of work as fit in
``--seconds`` (at least one) while a probe thread times the reference loop
on that CPU;
``trace`` does the same with the entry-point wrappers of ``tracer.py``
installed.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

#: Seconds between two timings of the reference loop while units run.
PROBE_INTERVAL_S = 0.1
#: Reference-loop timings right after set-up, for the host speed set-up ran at.
SETUP_REFERENCE_SAMPLES = 50


def _cpu_s() -> float:
    """User + system CPU of this process (all threads) and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_environment() -> dict:
    """The BLAS library numpy loaded and the thread count it runs with."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


def reference_s() -> float:
    """CPU seconds a fixed pure-Python loop takes on the calling thread now.

    On a shared host the same code runs up to about 2x slower for minutes
    at a time, in CPU time as much as in wall time, and this loop slows with
    it.  The loop is the benchmark's own code, so no change to the program
    can move it.  Thread CPU time leaves out the time the loop waits for the
    CPU or the GIL.
    """
    start = time.thread_time()
    table: dict = {}
    total = 0
    for i in range(10_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += i * 3 % 7
    return time.thread_time() - start


class HostProbe:
    """Times :func:`reference_s` every ``PROBE_INTERVAL_S`` while units run.

    The probe is a thread started after the main thread is pinned, so it
    shares the main thread's CPU and, in the campaign, the pool worker's.
    Sampled during a unit, not only around it, the loop follows the host's
    speed changes of a few seconds, which a long unit averages over.  Its
    CPU time, about 3 % of the units', counts in ``cpu_s``.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            seconds = reference_s()
            self.samples.append((time.monotonic_ns(), seconds))

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self, start_ns: int, end_ns: int) -> float:
        """Mean loop time sampled between the two instants (one fresh
        sample when a unit was too short to be sampled)."""
        inside = [s for t, s in self.samples if start_ns <= t <= end_ns] or [reference_s()]
        return sum(inside) / len(inside)


def run_units(spec, seconds: float, tracer) -> list:
    """Run as many whole units of work as fit in ``seconds``, at least one.

    The count is fixed by the first unit's wall time: a unit that lasts about
    ``seconds`` runs once, instead of once or twice from run to run.  A
    unit's ``ref_s`` is the mean reference-loop time the probe sampled
    while it ran.
    """
    units = []
    count = 1
    with HostProbe() as probe:
        while len(units) < count:
            cpu = _cpu_s()
            start = time.monotonic_ns()
            raw = spec.run_unit(tracer)
            end = time.monotonic_ns()
            cpu = _cpu_s() - cpu
            units.append({"wall_s": (end - start) / 1e9, "cpu_s": cpu,
                          "ref_s": probe.mean_s(start, end), "start_ns": start,
                          "end_ns": end, **spec.inspect(raw)})
            del raw  # free this unit's outputs before the next unit runs
            count = max(1, int(seconds // units[0]["wall_s"]))
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    scratch = args.out.parent / f"{args.out.stem}.scratch"
    budget = workloads.SMOKE if args.smoke else workloads.PAPER
    spec = workloads.WORKLOADS[args.workload](args.seed, budget, scratch)
    timings = spec.setup()
    ready_ns = time.monotonic_ns()
    result = {
        "setup": {
            "setup_s": (ready_ns - args.spawn_ns) / 1e9 - timings.get("inputs_s", 0.0),
            "ref_s": sum(reference_s() for _ in range(SETUP_REFERENCE_SAMPLES))
            / SETUP_REFERENCE_SAMPLES,
            "import_s": (timings["imported_ns"] - args.spawn_ns) / 1e9,
            "predictor_s": timings.get("predictor_s", 0.0),
            "model_s": timings.get("model_s", 0.0),
        }
    }
    if args.mode != "setup":
        spec.prepare_inputs()
        # The vCPUs of a shared host run at different speeds, so the units and
        # the probe's reference loop run on one of them.  Only the calling
        # thread is pinned: BLAS threads, started at import, keep every CPU;
        # the probe thread and campaign pool workers, started from this
        # thread, share its CPU.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        tracer = None
        if args.mode == "trace":
            import tracer as tracing

            # the latest traced run of each workload keeps its spans
            spans = args.out.parent / f"{args.workload}.spans"
            shutil.rmtree(spans, ignore_errors=True)
            run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
            tracer = tracing.Tracer(spans, run_id).install()
        units = run_units(spec, args.seconds, tracer)
        result.update(
            units=units,
            peak_rss_mb=_peak_rss_mb(),
            environment=dict(blas_environment(), cpu=cpu),
        )
        if tracer is not None:
            result["missing_spans"] = tracer.missing
            result["per_layer"] = tracing.per_layer_metrics(tracer.collect(), units)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
