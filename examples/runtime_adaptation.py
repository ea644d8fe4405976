"""Runtime adaptation: threshold analysis and dynamic deployment switching.

After LENS selects a model and its best deployment for the *expected*
conditions, the deployed system still faces throughput variability.  This
example reproduces the paper's Section IV-E / Fig. 8 workflow for one model:

1. pick an energy-efficient model from a LENS Pareto frontier;
2. compute the throughput thresholds at which its deployment options swap
   places (pairwise comparison of the accumulated cost equations);
3. replay a synthetic LTE throughput trace (40 samples, one every 5 minutes)
   against the fixed deployments and the dynamic throughput-tracking switcher.

Run with:  python examples/runtime_adaptation.py
"""

from __future__ import annotations

from repro.analysis.runtime_eval import run_runtime_study
from repro.api import Scenario, SearchRequest, build_context, run_search
from repro.utils.serialization import format_table
from repro.wireless.traces import generate_lte_trace


def main() -> None:
    scenario = Scenario(
        name="lte-7mbps/jetson-tx2-gpu", wireless_technology="lte", uplink_mbps=7.0
    )
    request = SearchRequest(scenario=scenario, num_initial=12, num_iterations=28, seed=3)
    print("Searching for candidate models (reduced budget)...")
    outcome = run_search(request)
    # The run's resolved components: search space, predictor, expected channel.
    context = build_context(request)

    front = outcome.pareto_candidates(("error_percent", "energy_j"))
    model = min(front, key=lambda c: c.energy_j)
    architecture = context.search_space.decode_for_performance(model.genotype)
    print(
        f"Selected model {model.architecture_name}: "
        f"{model.error_percent:.1f}% error, {model.energy_mj:.1f} mJ via "
        f"{model.best_energy_option.label}"
    )

    trace = generate_lte_trace(num_samples=40, period_s=300, mean_mbps=7.0, seed=9)
    print(
        f"\nReplaying an LTE throughput trace: mean {trace.mean_mbps:.1f} Mbps, "
        f"range [{trace.min_mbps:.1f}, {trace.max_mbps:.1f}] Mbps"
    )

    study = run_runtime_study(
        model.architecture_name,
        architecture,
        context.predictor,
        context.channel,
        trace,
        metric="energy",
        include_all_edge=True,
        include_all_cloud=True,
    )

    if study.switching_threshold_mbps is not None:
        print(
            f"Switching threshold between the two dominant options: "
            f"{study.switching_threshold_mbps:.2f} Mbps"
        )

    rows = []
    dynamic_total = study.comparison.cumulative["dynamic"]
    for label, total in sorted(study.comparison.cumulative.items(), key=lambda kv: kv[1]):
        gain = (
            "-"
            if label == "dynamic"
            else f"{study.comparison.improvement_percent(label):.2f}%"
        )
        rows.append([label, round(total, 3), gain])
    print("\nCumulative energy over the trace (lower is better):\n")
    print(format_table(rows, ["strategy", "energy J", "dynamic saves"]))
    print(
        f"\nThe dynamic switcher changed deployment {study.comparison.num_switches} "
        f"times and never does worse than the best fixed option "
        f"({dynamic_total:.3f} J total)."
    )


if __name__ == "__main__":
    main()
