"""Parallel search campaign with a persistent, resumable run store.

The paper's headline comparisons (Fig. 2/6, Table I) come from running the
same search under many device x wireless conditions.  This example declares
that grid once as a :class:`~repro.campaign.gridspec.CampaignSpec` (three
scenarios x two strategies), fans it out over worker processes into a
JSONL-backed :class:`~repro.campaign.store.RunStore`, then *re-runs the
campaign* to show resume semantics: every cell is already fingerprinted in
the store, so nothing executes twice.  Finally the store is aggregated into
per-scenario winners — the strategy owning the largest share of each
scenario's combined Pareto front.

The same flow is scriptable without Python; see ``docs/cli.md``:

    python -m repro campaign --spec spec.json --store runs/demo --workers 4
    python -m repro report --store runs/demo

Run with:  python examples/parallel_campaign.py [store-directory]
"""

from __future__ import annotations

import sys
import tempfile

from repro.analysis.reporting import summarize_campaign
from repro.campaign import CampaignSpec, RunStore, run_campaign
from repro.utils.serialization import format_table


def main() -> None:
    spec = CampaignSpec(
        scenarios=(
            "wifi-3mbps/jetson-tx2-gpu",
            "lte-3mbps/jetson-tx2-gpu",
            "3g-3mbps/jetson-tx2-cpu",
        ),
        strategies=("lens", "random"),
        seeds=(0,),
        num_initial=10,
        num_iterations=30,
        candidate_pool_size=64,
    )
    directory = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-campaign-"
    )
    store = RunStore(directory)
    print(f"Campaign: {spec.num_cells} cells into {store.directory}")

    result = run_campaign(spec, store, workers=4)
    print(f"first pass:  executed {len(result.executed)}, "
          f"skipped {len(result.skipped)} ({result.wall_time_s:.1f}s, "
          f"{result.workers} workers)")

    # Re-running the identical grid resumes from the store: zero executions.
    # Interrupting the first pass and re-running behaves the same way — only
    # the unfinished cells execute.
    resumed = run_campaign(spec, store, workers=4)
    print(f"second pass: executed {len(resumed.executed)}, "
          f"skipped {len(resumed.skipped)} ({resumed.wall_time_s:.2f}s)")

    summary = summarize_campaign(store.outcomes())
    rows = [
        [cell.scenario, cell.strategy, cell.num_candidates, cell.pareto_size,
         round(cell.best["error_percent"], 2),
         round(cell.best["energy_j"] * 1e3, 1)]
        for cell in summary.cells
    ]
    print()
    print(format_table(
        rows,
        ["scenario", "strategy", "candidates", "pareto", "best err %", "best mJ"],
    ))
    print("\nPer-scenario winners (largest combined-frontier share):")
    for winner in summary.winners:
        share = winner.shares[winner.winner]
        print(f"  {winner.scenario:<28} {winner.winner:<12} "
              f"({100 * share:.0f}% of a {winner.front_size}-point front)")
    print(f"\nstore persisted at {store.directory} "
          f"(one shard per scenario x space, {len(store)} runs)")


if __name__ == "__main__":
    main()
