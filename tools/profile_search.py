#!/usr/bin/env python
"""cProfile harness for one search run, split by subsystem.

Runs :func:`repro.api.run_search` under cProfile and prints the hottest
functions plus an aggregate split of where the time went: the surrogate
engine (``repro.optim.gp`` / ``gp_bank`` / ``kernels``), acquisition
scoring, Pareto bookkeeping, genotype sampling, repair and decoding
(``repro.nn``), and candidate evaluation (predictors, Algorithm 1, the
channel model, the engine caches).  Time no bucket claims — numpy builtins
called from all of them, the MOBO loop, the profiler itself — is printed as
the unattributed remainder, so the rows sum to wall time.  ``--phase eval``
breaks the candidate-evaluation row down further::

    PYTHONPATH=src python tools/profile_search.py --evaluations 300
    PYTHONPATH=src python tools/profile_search.py --evaluations 100 --phase eval
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import run_search  # noqa: E402

#: Finer attribution inside candidate evaluation (``--phase eval``): which
#: share goes to the per-layer predictors, the partition costing, the channel
#: cost model, the accuracy surrogate, the engine's caching layer and the
#: one-off predictor training.  Order matters — first match wins.
EVAL_BUCKETS = {
    "layer predictors + features": ("hardware/predictors.py", "hardware/features.py"),
    "partition costing": ("partition/",),
    "channel cost model": ("wireless/",),
    "accuracy surrogate": ("accuracy/",),
    "engine caching": ("api/engine.py",),
    "evaluator glue": ("core/evaluation.py",),
    "predictor training (simulator)": ("hardware/",),
}

#: Module substrings used to attribute internal time to subsystems.
BUCKETS = {
    "surrogate (gp/bank/kernels)": ("optim/gp.py", "optim/gp_bank.py", "optim/kernels.py"),
    "acquisition + scalarisation": ("optim/acquisition.py", "optim/scalarization.py"),
    "pareto bookkeeping": ("optim/pareto.py",),
    "nn: sample/repair/decode": ("nn/",),
    "candidate evaluation": tuple(
        fragment for fragments in EVAL_BUCKETS.values() for fragment in fragments
    ),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strategy", default="lens")
    parser.add_argument("--scenario", default="wifi-3mbps/jetson-tx2-gpu")
    parser.add_argument("--search-space", default="lens-vgg")
    parser.add_argument(
        "--evaluations", type=int, default=300,
        help="Bayesian-optimization iterations (plus --num-initial random ones)",
    )
    parser.add_argument("--num-initial", type=int, default=10)
    parser.add_argument("--pool-size", type=int, default=128)
    parser.add_argument("--predictor-samples", type=int, default=80)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--phase", choices=("all", "eval"), default="all",
        help=(
            "'eval' adds a breakdown of the candidate-evaluation row "
            "(predictor vs partition vs channel vs accuracy time)"
        ),
    )
    parser.add_argument(
        "--top", type=int, default=25, help="how many rows of the pstats table to print"
    )
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key (cumulative, tottime, ...)"
    )
    return parser.parse_args(argv)


def bucket_times(stats: pstats.Stats, buckets: dict = BUCKETS) -> dict:
    """Total internal time attributed to each bucket of ``buckets``."""
    totals = {name: 0.0 for name in buckets}
    for (filename, _line, _name), entry in stats.stats.items():  # type: ignore[attr-defined]
        internal_time = entry[2]
        for name, fragments in buckets.items():
            if any(fragment in filename for fragment in fragments):
                totals[name] += internal_time
                break
    return totals


def main(argv=None) -> int:
    args = parse_args(argv)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    outcome = run_search(
        strategy=args.strategy,
        scenario=args.scenario,
        search_space=args.search_space,
        num_initial=args.num_initial,
        num_iterations=args.evaluations,
        candidate_pool_size=args.pool_size,
        predictor_samples_per_type=args.predictor_samples,
        seed=args.seed,
    )
    profiler.disable()
    elapsed = time.perf_counter() - start

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)

    totals = bucket_times(stats)
    print(
        f"run: {args.strategy} / {args.scenario} / {args.search_space}, "
        f"{len(outcome.candidates)} evaluations, {elapsed:.2f}s wall"
    )
    print("time by subsystem (internal time, seconds):")
    rows = sorted(totals.items(), key=lambda item: -item[1])
    rows.append(("unattributed (builtins, glue)", elapsed - sum(totals.values())))
    for name, seconds in rows:
        share = 100.0 * seconds / elapsed if elapsed > 0 else 0.0
        print(f"  {name:<30} {seconds:8.3f}s  ({share:5.1f}% of wall)")

    if args.phase == "eval":
        eval_totals = bucket_times(stats, EVAL_BUCKETS)
        phase_total = sum(eval_totals.values())
        print(
            "candidate-evaluation breakdown "
            f"(internal time, {phase_total:.3f}s total):"
        )
        for name, seconds in sorted(eval_totals.items(), key=lambda item: -item[1]):
            share = 100.0 * seconds / phase_total if phase_total > 0 else 0.0
            print(f"  {name:<30} {seconds:8.3f}s  ({share:5.1f}% of row)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
