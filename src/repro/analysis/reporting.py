"""Markdown experiment reports and campaign aggregation.

:func:`summarize_campaign` aggregates the outcomes of a campaign (typically
streamed from a :class:`~repro.campaign.store.RunStore`) into per
scenario/search-space/strategy cells and per scenario/search-space
winners — the strategy owning the largest share of that context's combined
Pareto front, the comparison behind the paper's Fig. 6.  Candidates from
different search spaces are never pooled into one front: an image-CNN
error/energy trade-off is not comparable to a 1-D sequence model's.
Aggregation depends only on the *set* of outcomes, never their order, so
serial, parallel and resumed campaigns report identically.

:class:`ExperimentReport` renders such results as one Markdown document:
a campaign summary with its resilience counters and failure audit
(``repro report --format markdown``), or a fleet serving session
(``repro serve --format markdown``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serving.session import ServingReport

from repro.api.envelopes import SearchOutcome
from repro.core.results import CandidateEvaluation, SearchResult
from repro.nn.spaces import DEFAULT_SEARCH_SPACE
from repro.optim.pareto import pareto_front_mask
from repro.resilience.health import HEALTH_CODES, summarize_health


def _outcome_space(outcome: SearchOutcome) -> str:
    """Search-space name of an outcome (default for pre-v2 requests)."""
    return getattr(outcome.request, "search_space", DEFAULT_SEARCH_SPACE)


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a GitHub-style Markdown table."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(["---"] * len(headers)) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines)


class ExperimentReport:
    """Accumulates experiment sections and renders them as one Markdown document."""

    def __init__(self, title: str = "LENS reproduction report"):
        self.title = str(title)
        self._sections: List[str] = []

    # ------------------------------------------------------------------ sections
    def add_text(self, heading: str, body: str) -> "ExperimentReport":
        """Add a free-form section."""
        self._sections.append(f"## {heading}\n\n{body.strip()}")
        return self

    def add_serving_report(
        self, report: "ServingReport", heading: Optional[str] = None
    ) -> "ExperimentReport":
        """Add a fleet serving-session summary (see :mod:`repro.serving`).

        Renders the one-row fleet summary (decisions/sec, decision-latency
        percentiles, switch counts, SLA accounting) followed by the
        per-region breakdown when the workload labelled one.
        """
        heading = heading or f"Serving session — {report.name} ({report.metric})"
        summary_headers, summary_rows = report.summary_rows()
        body = (
            f"Served **{report.num_clients}** clients for **{report.ticks}** "
            f"ticks, deciding between: {', '.join(report.option_labels)}.\n\n"
            + _markdown_table(summary_headers, summary_rows)
        )
        region_headers, region_rows = report.region_rows()
        if region_rows:
            body += (
                "\n\n### Per-region breakdown\n\n"
                + _markdown_table(region_headers, region_rows)
            )
        degraded = []
        if report.anomalies:
            degraded.append(f"{report.anomalies} anomalous measurement(s)")
        if report.silent_clients:
            degraded.append(f"{report.silent_clients} silent client(s)")
        if report.exhausted_clients:
            degraded.append(f"{report.exhausted_clients} exhausted trace(s)")
        if degraded:
            body += "\n\nDegraded inputs absorbed: " + ", ".join(degraded) + "."
        return self.add_text(heading, body)

    # ------------------------------------------------------------------ rendering
    def render_markdown(self) -> str:
        """Render the full report as a Markdown string."""
        parts = [f"# {self.title}", ""]
        parts.extend(self._sections)
        return "\n\n".join(parts).strip() + "\n"

    def add_campaign_summary(
        self, summary: "CampaignSummary", heading: str = "Campaign summary"
    ) -> "ExperimentReport":
        """Add a campaign's per-cell table and per scenario/space winners."""
        cell_headers, cell_rows = summary.cell_table()
        winner_headers, winner_rows = summary.winner_table()
        body = (
            f"**{summary.num_runs}** stored runs over "
            f"**{len(summary.winners)}** scenario/space contexts "
            f"(metrics: {' / '.join(summary.metrics)}).\n\n"
            + _markdown_table(cell_headers, cell_rows)
            + "\n\n### Winners (largest combined-frontier share)\n\n"
            + _markdown_table(winner_headers, winner_rows)
        )
        hv_headers, hv_rows = summary.hypervolume_table()
        if hv_rows:  # only v3+ outcomes carry front telemetry
            body += (
                "\n\n### Final hypervolume (per-run reference boxes)\n\n"
                + _markdown_table(hv_headers, hv_rows)
            )
        return self.add_text(heading, body)

    def add_health_summary(
        self, health: Dict[str, int], heading: str = "Resilience health"
    ) -> "ExperimentReport":
        """Add a campaign's aggregated resilience counters.

        ``health`` is an ``H_*`` code -> count mapping, e.g.
        :attr:`CampaignSummary.health` or one outcome's
        :attr:`~repro.api.envelopes.SearchOutcome.health`.  The legend for
        each code comes from :data:`~repro.resilience.health.HEALTH_CODES`
        (documented in ``docs/robustness.md``).
        """
        if not health:
            return self.add_text(heading, "No degradation events.")
        rows = [
            [code, count, HEALTH_CODES.get(code, "(unknown code)")]
            for code, count in sorted(health.items())
        ]
        total = sum(health.values())
        body = (
            f"**{total}** resilience event(s) across the stored runs.\n\n"
            + _markdown_table(["health code", "events", "meaning"], rows)
        )
        return self.add_text(heading, body)

    def add_audit_summary(
        self, audit: Dict[str, Any], heading: str = "Failure audit"
    ) -> "ExperimentReport":
        """Add a campaign's error/audit overview.

        ``audit`` is the dict produced by
        :meth:`repro.campaign.store.RunStore.audit_summary` — per-code
        counts, permanently failed cells, retries and reporting workers — or
        by :func:`repro.campaign.errors.summarize_audit`, which lists no
        failed cells.
        """
        if not audit.get("num_records"):
            return self.add_text(heading, "No failure records.")
        code_rows = [
            [code, count] for code, count in sorted(audit["by_code"].items())
        ]
        failed = audit.get("failed_cells", [])
        lines = [
            f"**{audit['num_records']}** failure record(s), "
            f"**{len(failed)}** cell(s) permanently failed, "
            f"**{audit.get('retries', 0)}** retries.",
            "",
            _markdown_table(["error code", "records"], code_rows),
        ]
        if failed:
            listed = ", ".join(f"`{fp}`" for fp in failed[:10])
            suffix = " …" if len(failed) > 10 else ""
            lines += ["", f"Failed cells: {listed}{suffix}"]
        workers = audit.get("workers", [])
        if workers:
            lines += ["", f"Reporting workers: {', '.join(workers)}"]
        return self.add_text(heading, "\n".join(lines))


# ---------------------------------------------------------------------- campaigns

@dataclass(frozen=True)
class CampaignCell:
    """Aggregate of every stored run of one scenario x space x strategy cell."""

    scenario: str
    search_space: str
    strategy: str
    seeds: Tuple[Optional[int], ...]
    num_runs: int
    num_candidates: int
    pareto_size: int
    best: Dict[str, float]
    wall_time_s: float
    #: Mean final hypervolume over the cell's runs that recorded a
    #: :class:`~repro.optim.pareto.FrontHistory` (``None`` when none did —
    #: e.g. outcomes stored before schema v3).
    final_hypervolume: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "scenario": self.scenario,
            "search_space": self.search_space,
            "strategy": self.strategy,
            "seeds": list(self.seeds),
            "num_runs": self.num_runs,
            "num_candidates": self.num_candidates,
            "pareto_size": self.pareto_size,
            "best": dict(self.best),
            "wall_time_s": self.wall_time_s,
        }
        # emitted only when recorded, so pre-telemetry payloads are unchanged
        if self.final_hypervolume is not None:
            payload["final_hypervolume"] = self.final_hypervolume
        return payload


@dataclass(frozen=True)
class ScenarioWinner:
    """Which strategy owns a scenario's combined Pareto front.

    ``shares[strategy]`` is the fraction of the combined frontier (Pareto
    front over *all* strategies' candidates pooled together, within one
    scenario *and* search space — never across spaces) contributed by that
    strategy — the Fig. 6 comparison, generalised past two strategies.
    Ties break toward the better best-``metrics[0]`` value, then
    alphabetically, so the winner is deterministic.
    """

    scenario: str
    search_space: str
    winner: str
    shares: Dict[str, float]
    front_size: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "search_space": self.search_space,
            "winner": self.winner,
            "shares": dict(self.shares),
            "front_size": self.front_size,
        }


@dataclass(frozen=True)
class CampaignSummary:
    """Everything :func:`summarize_campaign` derives from a run store."""

    metrics: Tuple[str, str]
    num_runs: int
    cells: Tuple[CampaignCell, ...]
    winners: Tuple[ScenarioWinner, ...]
    #: Aggregated resilience counters (``H_*`` code -> total) over every
    #: stored outcome — empty when no run recorded a degradation event
    #: (including outcomes stored before schema v4).
    health: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "metrics": list(self.metrics),
            "num_runs": self.num_runs,
            "cells": [cell.to_dict() for cell in self.cells],
            "winners": [winner.to_dict() for winner in self.winners],
        }
        # emitted only when any run recorded events, so healthy-campaign
        # payloads are unchanged
        if self.health:
            payload["health"] = dict(self.health)
        return payload

    def winner_for(self, scenario: str, search_space: Optional[str] = None) -> str:
        """Winning strategy of one scenario (and search space).

        ``search_space`` may be omitted while the scenario was only run
        under one space; with several spaces stored it must be named, since
        their frontiers are not comparable.
        """
        matches = [
            winner
            for winner in self.winners
            if winner.scenario == scenario
            and (search_space is None or winner.search_space == search_space)
        ]
        if not matches:
            raise KeyError(
                f"no runs stored for scenario {scenario!r}"
                + (f" and search space {search_space!r}" if search_space else "")
            )
        if len(matches) > 1:
            spaces = sorted(w.search_space for w in matches)
            raise KeyError(
                f"scenario {scenario!r} was run under several search spaces "
                f"{spaces}; pass search_space= to pick one"
            )
        return matches[0].winner

    # ------------------------------------------------------------------ tables
    def cell_table(
        self, include_wall_time: bool = True
    ) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` of the per-cell table, for any renderer.

        ``include_wall_time=False`` leaves out the one column that varies
        between executions of the same grid, making the rendered table
        byte-reproducible (the CLI report relies on this).
        """
        headers = [
            "scenario", "space", "strategy", "runs", "candidates", "pareto",
            f"best {self.metrics[0]}", f"best {self.metrics[1]}",
        ]
        rows: List[List[Any]] = [
            [
                cell.scenario,
                cell.search_space,
                cell.strategy,
                cell.num_runs,
                cell.num_candidates,
                cell.pareto_size,
                round(cell.best[self.metrics[0]], 3),
                round(cell.best[self.metrics[1]], 4),
            ]
            for cell in self.cells
        ]
        if include_wall_time:
            headers.append("wall s")
            for cell, row in zip(self.cells, rows):
                row.append(round(cell.wall_time_s, 2))
        return headers, rows

    def hypervolume_table(self) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` of per-cell final hypervolumes.

        One row per cell that recorded front telemetry — the mean over its
        runs' final hypervolumes, each in its run's own reference box (a
        progress signal; for a strictly shared-reference comparison
        recompute from the pooled candidates, as ``benchmarks/bench_epdc.py``
        does).  The volume is in raw objective units, so it spans many
        orders of magnitude across budgets and scenarios: it is rendered
        with 4 significant digits (``1.66e-09``, ``2.152``), never rounded
        to a fixed number of decimals.  Empty rows when no stored outcome
        carries a :class:`~repro.optim.pareto.FrontHistory`.
        """
        headers = ["scenario", "space", "strategy", "runs", "mean final hypervolume"]
        rows = [
            [
                cell.scenario,
                cell.search_space,
                cell.strategy,
                cell.num_runs,
                f"{cell.final_hypervolume:.4g}",
            ]
            for cell in self.cells
            if cell.final_hypervolume is not None
        ]
        return headers, rows

    def health_table(self) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` of aggregated resilience counters.

        One row per ``H_*`` code any stored run recorded, with the code's
        legend from :data:`~repro.resilience.health.HEALTH_CODES`.  Empty
        rows for an all-healthy campaign.
        """
        headers = ["health code", "events", "meaning"]
        rows = [
            [code, count, HEALTH_CODES.get(code, "(unknown code)")]
            for code, count in sorted(self.health.items())
        ]
        return headers, rows

    def winner_table(self) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` of the per scenario/space winner table."""
        headers = ["scenario", "space", "winner", "front share", "front size"]
        rows = [
            [
                winner.scenario,
                winner.search_space,
                winner.winner,
                f"{100 * winner.shares[winner.winner]:.1f}%",
                winner.front_size,
            ]
            for winner in self.winners
        ]
        return headers, rows


def merged_results(
    outcomes: Iterable[SearchOutcome],
) -> Dict[Tuple[str, str], Dict[str, SearchResult]]:
    """Pool campaign outcomes into
    ``(scenario, search space) -> strategy -> SearchResult``.

    Runs of the same cell (different seeds) are concatenated into one result
    whose label is the strategy name; candidates from different search
    spaces are kept apart (their objective trade-offs are not comparable).
    Keys come out in sorted order regardless of store order.
    """
    pooled: Dict[Tuple[str, str], Dict[str, List[CandidateEvaluation]]] = {}
    for outcome in outcomes:
        context = (outcome.scenario.name, _outcome_space(outcome))
        per_context = pooled.setdefault(context, {})
        per_context.setdefault(outcome.label, []).extend(outcome.candidates)
    return {
        context: {
            strategy: SearchResult(candidates, label=strategy)
            for strategy, candidates in sorted(per_context.items())
        }
        for context, per_context in sorted(pooled.items())
    }


def combined_front_shares(
    results: Dict[str, SearchResult],
    metrics: Sequence[str] = ("error_percent", "energy_j"),
) -> Tuple[Dict[str, float], int]:
    """Per-strategy share of the pooled Pareto front, plus its size."""
    owners: List[str] = []
    rows: List[List[float]] = []
    for strategy, result in sorted(results.items()):
        for candidate in result:
            owners.append(strategy)
            rows.append([candidate.metric(m) for m in metrics])
    if not rows:
        return {strategy: 0.0 for strategy in results}, 0
    mask = pareto_front_mask(np.asarray(rows, dtype=float))
    front_size = int(mask.sum())
    shares = {
        strategy: (
            sum(1 for owner, keep in zip(owners, mask) if keep and owner == strategy)
            / front_size
        )
        for strategy in results
    }
    return shares, front_size


def summarize_campaign(
    outcomes: Iterable[SearchOutcome],
    metrics: Sequence[str] = ("error_percent", "energy_j"),
) -> CampaignSummary:
    """Aggregate campaign outcomes into cells and per scenario/space winners.

    ``outcomes`` is any iterable of :class:`SearchOutcome` — typically
    ``RunStore.outcomes()``.  Cells and winners are keyed by scenario *and*
    search space, so multi-space campaigns never pool incomparable
    workloads into one Pareto front.  The summary is a pure function of the
    outcome *set*: append order, worker count and resume history do not
    affect it.
    """
    metrics = tuple(metrics)
    if len(metrics) != 2:
        raise ValueError(f"campaign summaries use exactly two metrics, got {metrics}")
    materialised = list(outcomes)
    runs: Dict[Tuple[str, str, str], List[SearchOutcome]] = {}
    for outcome in materialised:
        key = (outcome.scenario.name, _outcome_space(outcome), outcome.label)
        runs.setdefault(key, []).append(outcome)

    cells: List[CampaignCell] = []
    for (scenario, search_space, strategy), group in sorted(runs.items()):
        pooled = SearchResult(
            [c for outcome in group for c in outcome.candidates], label=strategy
        )
        hypervolumes = [
            outcome.front_history.final_hypervolume
            for outcome in group
            if getattr(outcome, "front_history", None) is not None
            and len(outcome.front_history)
        ]
        cells.append(
            CampaignCell(
                scenario=scenario,
                search_space=search_space,
                strategy=strategy,
                seeds=tuple(sorted(
                    {outcome.request.seed for outcome in group},
                    key=lambda s: (s is None, s),
                )),
                num_runs=len(group),
                num_candidates=len(pooled),
                pareto_size=len(pooled.pareto_candidates(metrics)),
                best={m: pooled.best_by(m).metric(m) for m in metrics},
                wall_time_s=sum(outcome.wall_time_s for outcome in group),
                final_hypervolume=(
                    float(np.mean(hypervolumes)) if hypervolumes else None
                ),
            )
        )

    winners: List[ScenarioWinner] = []
    for (scenario, search_space), results in merged_results(materialised).items():
        shares, front_size = combined_front_shares(results, metrics)
        best_first = {
            cell.strategy: cell.best[metrics[0]]
            for cell in cells
            if cell.scenario == scenario and cell.search_space == search_space
        }
        winner = min(
            shares,
            key=lambda strategy: (
                -shares[strategy],
                best_first.get(strategy, float("inf")),
                strategy,
            ),
        )
        winners.append(
            ScenarioWinner(
                scenario=scenario,
                search_space=search_space,
                winner=winner,
                shares=shares,
                front_size=front_size,
            )
        )

    return CampaignSummary(
        metrics=metrics,  # type: ignore[arg-type]
        num_runs=len(materialised),
        cells=tuple(cells),
        winners=tuple(winners),
        health=summarize_health(
            getattr(outcome, "health", {}) or {} for outcome in materialised
        ),
    )
