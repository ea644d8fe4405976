"""Analysis utilities reproducing the paper's figures and tables."""

from repro.analysis.criteria import (
    PAPER_CRITERIA,
    Criterion,
    CriterionComparison,
    compare_criteria,
    paper_criteria,
)
from repro.analysis.deployment_sweep import (
    DeploymentConfiguration,
    RegionalPreferenceRow,
    SweepRow,
    preference_changes,
    regional_preferences,
    sweep_deployments,
)
from repro.analysis.pareto_metrics import (
    FrontComparison,
    compare_fronts,
    frontier_extremes,
)
from repro.analysis.reporting import (
    CampaignCell,
    CampaignSummary,
    ExperimentReport,
    ScenarioWinner,
    combined_front_shares,
    merged_results,
    summarize_campaign,
)
from repro.analysis.per_layer import (
    LayerReportRow,
    latency_share_by_type,
    per_layer_report,
)
from repro.analysis.runtime_eval import (
    RuntimeStudy,
    run_runtime_study,
    select_runtime_options,
)

__all__ = [
    "PAPER_CRITERIA",
    "Criterion",
    "CriterionComparison",
    "compare_criteria",
    "paper_criteria",
    "DeploymentConfiguration",
    "RegionalPreferenceRow",
    "SweepRow",
    "preference_changes",
    "regional_preferences",
    "sweep_deployments",
    "FrontComparison",
    "compare_fronts",
    "frontier_extremes",
    "CampaignCell",
    "CampaignSummary",
    "ExperimentReport",
    "ScenarioWinner",
    "combined_front_shares",
    "merged_results",
    "summarize_campaign",
    "LayerReportRow",
    "latency_share_by_type",
    "per_layer_report",
    "RuntimeStudy",
    "run_runtime_study",
    "select_runtime_options",
]
