"""``repro`` — command-line front end of the experiment API.

The subcommands mirror the library's layers (also reachable as
``python -m repro``):

* ``repro list`` — registries (scenarios, strategies, executors, devices,
  wireless, acquisitions) and, with ``--store``, the runs persisted in a
  store;
* ``repro run`` — execute one :class:`~repro.api.envelopes.SearchRequest`
  by scenario/strategy name, print its summary, optionally persist it;
* ``repro campaign`` — fan a scenario x search-space x strategy x seed grid
  out through a pluggable executor (``--executor serial | process-pool |
  pull-worker``) into a resumable run store;
* ``repro worker`` — join a distributed campaign by pulling cells from a
  shared store directory (the ``pull-worker`` protocol; start any
  number, on any machine sharing the filesystem);
* ``repro store`` — maintenance: ``compact`` (drop torn tails and
  superseded records), ``export`` (columnar per-candidate metrics),
  ``merge`` (consolidate stores by fingerprint) and ``fsck`` (verify
  per-record checksums; ``--repair`` quarantines damaged lines);
* ``repro report`` — aggregate a store into per-scenario winner and Pareto
  summaries (text, Markdown or JSON), including audit/error summaries;
* ``repro serve`` — replay a campaign-produced Pareto winner against a
  synthetic multi-region client fleet through the vectorized serving layer
  (:mod:`repro.serving`) and print the service metrics.

Every command is plumbing around the public API — anything the CLI does can
be done in a few lines of Python (see ``docs/cli.md`` and
``docs/distributed.md`` for the mapping).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.reporting import ExperimentReport, summarize_campaign
from repro.analysis.runtime_eval import select_runtime_options
from repro.api.engine import default_engine
from repro.api.envelopes import SearchRequest, load_request
from repro.api.registry import (
    ACQUISITIONS,
    DEVICES,
    RegistryError,
    SEARCH_SPACES,
    WIRELESS_TECHNOLOGIES,
)
from repro.api.scenario import SCENARIOS
from repro.api.session import STRATEGIES, run_search
from repro.campaign import (
    EXECUTORS,
    CampaignPolicy,
    CampaignSpec,
    CircuitOpenError,
    DeadLetterQueue,
    RunStore,
    StoreError,
    export_metrics,
    fsck_store,
    merge_stores,
    open_store,
    run_campaign,
    run_worker,
    summarize_audit,
)
from repro.core.results import SearchResult
from repro.core.runtime import ThresholdAnalysis
from repro.nn.spaces import DEFAULT_SEARCH_SPACE
from repro.serving import FleetWorkload, ServingSession
from repro.serving.fleet import DECISION_METHODS
from repro.utils.serialization import dump_json, format_table, to_jsonable


def _parse_tags(pairs: Optional[Sequence[str]]) -> Dict[str, str]:
    tags: Dict[str, str] = {}
    for pair in pairs or ():
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise argparse.ArgumentTypeError(
                f"tags must look like key=value, got {pair!r}"
            )
        tags[key] = value
    return tags


def _add_budget_arguments(
    parser: argparse.ArgumentParser, *, deferred: bool = False
) -> None:
    """Attach the shared search-budget flags.

    ``deferred=True`` (the ``run`` command) leaves every default as ``None``
    so "flag given" is distinguishable from "default" — a flag then
    overrides the corresponding field of a ``--request`` file, and absent
    flags fall back to the :class:`SearchRequest` dataclass defaults.
    """
    group = parser.add_argument_group("search budgets")
    group.add_argument("--num-initial", type=int,
                       default=None if deferred else 10,
                       help="random-initialisation evaluations (default: 10)")
    group.add_argument("--num-iterations", type=int,
                       default=None if deferred else 50,
                       help="Bayesian-search iterations (default: 50)")
    group.add_argument("--pool-size", type=int,
                       default=None if deferred else 128,
                       help="acquisition candidate-pool size (default: 128)")
    if deferred:
        group.add_argument("--acquisition", default=None,
                           help=f"acquisition strategy {ACQUISITIONS.names()} "
                                "(default: ts)")
    else:
        # campaigns: repeatable, to declare an ablation axis over acquisitions
        group.add_argument("--acquisition", action="append", default=None,
                           metavar="NAME",
                           help=f"acquisition strategy {ACQUISITIONS.names()} "
                                "(default: ts); repeat to grid over several")
    group.add_argument("--batch-size", type=int,
                       default=None if deferred else 1,
                       help="candidates proposed per BO iteration "
                            "(q-batch selection, default: 1)")
    group.add_argument("--predictor-samples", type=int,
                       default=None if deferred else 200,
                       help="profiling samples per layer type (default: 200)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LENS reproduction: run and aggregate search experiments.",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    list_parser = commands.add_parser(
        "list",
        help="show registries and stored runs",
        description="Show registered scenarios, strategies, search spaces, "
                    "devices, wireless technologies and acquisitions; with "
                    "--store, also the runs persisted in a store.",
    )
    list_parser.add_argument("--store", metavar="DIR",
                             help="also list the runs stored under DIR")

    run_parser = commands.add_parser(
        "run",
        help="execute one search request",
        description="Run one search by scenario/strategy name and print its "
                    "summary. --request loads a serialized SearchRequest "
                    "instead; explicit flags override its fields.",
    )
    run_parser.add_argument("--scenario", default=None,
                            help="scenario name (see: repro list; "
                                 "default: wifi-3mbps/jetson-tx2-gpu)")
    run_parser.add_argument("--strategy", default=None,
                            help=f"strategy {STRATEGIES.names()} (default: lens)")
    run_parser.add_argument("--search-space", default=None,
                            help=f"search space {SEARCH_SPACES.names()} "
                                 f"(default: {DEFAULT_SEARCH_SPACE})")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="master seed (default: 0)")
    run_parser.add_argument("--request", metavar="FILE",
                            help="load a SearchRequest JSON file")
    run_parser.add_argument("--out", metavar="FILE",
                            help="write the full outcome as JSON")
    run_parser.add_argument("--store", metavar="DIR",
                            help="append the outcome to the run store under DIR")
    run_parser.add_argument("--tag", action="append", metavar="KEY=VALUE",
                            help="attach metadata to the request (repeatable)")
    run_parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                            help="crash-safe mode: snapshot the evaluated "
                                 "history under DIR/<fingerprint>/ and resume "
                                 "a previously interrupted run bitwise-"
                                 "identically (see docs/robustness.md)")
    run_parser.add_argument("--checkpoint-every", type=int, default=10,
                            metavar="N",
                            help="evaluations between snapshots "
                                 "(with --checkpoint-dir; default: 10)")
    run_parser.add_argument("--fresh", action="store_true",
                            help="ignore an existing checkpoint and restart "
                                 "the search from evaluation zero")
    _add_budget_arguments(run_parser, deferred=True)

    campaign_parser = commands.add_parser(
        "campaign",
        help="run a scenario x space x strategy x seed grid into a run store",
        description="Expand a campaign grid and execute it into a resumable "
                    "store: cells whose fingerprint is already stored are "
                    "skipped, the rest fan out over --workers processes.",
    )
    campaign_parser.add_argument("--spec", metavar="FILE",
                                 help="CampaignSpec JSON file (flags below are "
                                      "ignored when given)")
    campaign_parser.add_argument("--scenario", action="append", default=None,
                                 metavar="NAME", help="grid scenario (repeatable)")
    campaign_parser.add_argument("--search-space", action="append", default=None,
                                 metavar="NAME",
                                 help="grid search space (repeatable; "
                                      f"default: {DEFAULT_SEARCH_SPACE})")
    campaign_parser.add_argument("--strategy", action="append", default=None,
                                 metavar="NAME", help="grid strategy (repeatable; "
                                 "default: lens)")
    campaign_parser.add_argument("--seed", action="append", type=int, default=None,
                                 metavar="N", help="grid seed (repeatable; default: 0)")
    campaign_parser.add_argument("--store", required=True, metavar="DIR",
                                 help="run-store directory (created if missing)")
    campaign_parser.add_argument("--workers", type=int, default=1, metavar="N",
                                 help="worker processes (default: 1 = in-process)")
    campaign_parser.add_argument("--executor", default=None,
                                 choices=EXECUTORS.names(), metavar="NAME",
                                 help=f"execution back-end {EXECUTORS.names()} "
                                      "(default: serial for --workers 1, "
                                      "process-pool otherwise)")
    campaign_parser.add_argument("--on-error", choices=("fail", "continue"),
                                 default="fail",
                                 help="stop on the first failed cell (fail, "
                                      "default) or record an error envelope "
                                      "and keep going (continue)")
    campaign_parser.add_argument("--ttl", type=float, default=30.0, metavar="S",
                                 help="pull-worker lease expiry window "
                                      "(default: 30s)")
    campaign_parser.add_argument("--poll", type=float, default=0.5, metavar="S",
                                 help="pull-worker idle poll interval "
                                      "(default: 0.5s)")
    campaign_parser.add_argument("--max-attempts", type=int, default=3,
                                 metavar="N",
                                 help="retry budget per cell for retryable "
                                      "failures (pull-worker; default: 3)")
    campaign_parser.add_argument("--backoff", type=float, default=0.5,
                                 metavar="S",
                                 help="exponential-backoff base between "
                                      "retries (pull-worker; default: 0.5s)")
    campaign_parser.add_argument("--max-backoff", type=float, default=60.0,
                                 metavar="S",
                                 help="cap on any single retry delay "
                                      "(pull-worker; default: 60s)")
    campaign_parser.add_argument("--cell-timeout", type=float, default=0.0,
                                 metavar="S",
                                 help="per-cell deadline: a cell still running "
                                      "after S seconds is killed and audited "
                                      "as E_TIMEOUT (0 = no deadline, the "
                                      "default)")
    campaign_parser.add_argument("--circuit-threshold", type=float, default=0.0,
                                 metavar="F",
                                 help="open the campaign circuit breaker when "
                                      "the failure rate over the last "
                                      "--circuit-window cells reaches F in "
                                      "(0, 1]; exits with code 4 "
                                      "(0 = disabled, the default)")
    campaign_parser.add_argument("--circuit-window", type=int, default=8,
                                 metavar="N",
                                 help="sliding window of recent cell results "
                                      "the failure rate is computed over "
                                      "(default: 8)")
    campaign_parser.add_argument("--circuit-cooldown", type=float, default=5.0,
                                 metavar="S",
                                 help="seconds an open circuit waits before "
                                      "half-opening to probe (default: 5s)")
    campaign_parser.add_argument("--circuit-probes", type=int, default=1,
                                 metavar="N",
                                 help="probe cells allowed through a "
                                      "half-open circuit (default: 1)")
    campaign_parser.add_argument("--retry-dead", action="store_true",
                                 help="re-admit every dead-lettered cell in "
                                      "--store with a fresh retry budget "
                                      "before (or without) running the grid")
    campaign_parser.add_argument("--checkpoint-every", type=int, default=0,
                                 metavar="N",
                                 help="crash-safe mid-search checkpointing "
                                      "every N evaluations (pull-worker; "
                                      "0 = off, the default): a reclaimed "
                                      "cell resumes instead of restarting")
    campaign_parser.add_argument("--no-resume", action="store_true",
                                 help="fail on already-stored cells instead of "
                                      "skipping them")
    campaign_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-cell progress lines")
    _add_budget_arguments(campaign_parser)

    worker_parser = commands.add_parser(
        "worker",
        help="pull and execute campaign cells from a shared store directory",
        description="Join a distributed campaign: claim unresolved cells from "
                    "the manifest published in --store via crash-safe lease "
                    "files, execute them, and append outcomes to the "
                    "store. Start any number of workers (on any machine "
                    "sharing the filesystem); each exits once every cell is "
                    "stored or permanently failed.",
    )
    worker_parser.add_argument("--store", required=True, metavar="DIR",
                               help="shared store directory holding "
                                    "manifest.json")
    worker_parser.add_argument("--worker-id", default=None, metavar="ID",
                               help="identity recorded in leases and audit "
                                    "logs (default: <host>-<pid>)")
    worker_parser.add_argument("--max-cycles", type=int, default=None,
                               metavar="N",
                               help="exit after N poll cycles even if cells "
                                    "remain (default: run to completion)")

    store_parser = commands.add_parser(
        "store",
        help="run-store maintenance: compact, export metrics, merge",
        description="Operate on run stores.",
    )
    store_commands = store_parser.add_subparsers(dest="store_command",
                                                 metavar="operation")
    compact_parser = store_commands.add_parser(
        "compact",
        help="rewrite shards dropping torn tails and superseded records",
        description="Rewrite every shard of a store keeping only the "
                    "latest intact record per fingerprint. Run only while no "
                    "workers are active.",
    )
    compact_parser.add_argument("--store", required=True, metavar="DIR")
    export_parser = store_commands.add_parser(
        "export",
        help="columnar per-candidate metrics (JSON)",
        description="Export per-candidate latency/energy/accuracy arrays "
                    "grouped by scenario x space x strategy x seed.",
    )
    export_parser.add_argument("--store", required=True, metavar="DIR")
    export_parser.add_argument("--out", metavar="FILE",
                               help="write the export to FILE instead of "
                                    "stdout")
    fsck_parser = store_commands.add_parser(
        "fsck",
        help="verify per-record checksums; --repair quarantines bad lines",
        description="Scan every line of a store's run files, verifying the "
                    "per-record CRC32 each append embeds. Without --repair, "
                    "report what was found and exit 1 if anything is damaged. "
                    "With --repair, move damaged lines to a quarantine "
                    "sidecar, rewrite the files keeping intact records "
                    "byte-identical, and rebuild the index. Run only while "
                    "no workers are active.",
    )
    fsck_parser.add_argument("--store", required=True, metavar="DIR")
    fsck_parser.add_argument("--repair", action="store_true",
                             help="quarantine damaged lines and rewrite the "
                                  "store (default: verify only)")
    merge_parser = store_commands.add_parser(
        "merge",
        help="copy missing records between stores by fingerprint",
        description="Merge one or more source stores into a destination; "
                    "records whose fingerprint the destination already holds "
                    "are skipped, so merging is idempotent.",
    )
    merge_parser.add_argument("sources", nargs="+", metavar="SRC",
                              help="source store directories")
    merge_parser.add_argument("--into", required=True, metavar="DIR",
                              help="destination store directory")

    report_parser = commands.add_parser(
        "report",
        help="aggregate a run store into winners and Pareto summaries",
        description="Summarise every run stored under --store: one row per "
                    "scenario x strategy cell, plus the strategy owning the "
                    "largest share of each scenario's combined Pareto front.",
    )
    report_parser.add_argument("--store", required=True, metavar="DIR",
                               help="run-store directory to aggregate")
    report_parser.add_argument("--metrics", default="error_percent,energy_j",
                               help="comma-separated metric pair "
                                    "(default: error_percent,energy_j)")
    report_parser.add_argument("--format", choices=("table", "markdown", "json"),
                               default="table", help="output format (default: table)")
    report_parser.add_argument("--out", metavar="FILE",
                               help="also write the report to FILE")

    serve_parser = commands.add_parser(
        "serve",
        help="replay a stored Pareto winner against a synthetic client fleet",
        description="Pick the stored runs' Pareto-optimal model for --metric, "
                    "rebuild its runtime threshold analysis, and replay a "
                    "synthetic multi-region fleet against it through the "
                    "vectorized serving layer, printing decisions/sec, switch "
                    "counts, decision-latency percentiles and SLA violations.",
    )
    serve_parser.add_argument("--store", required=True, metavar="DIR",
                              help="run store holding the campaign outcomes")
    serve_parser.add_argument("--scenario", default=None,
                              help="serve this scenario's runs (default: the "
                                   "store's only scenario)")
    serve_parser.add_argument("--search-space", default=None,
                              help="restrict to one search space (default: the "
                                   "matching runs' only space)")
    serve_parser.add_argument("--metric", choices=("energy", "latency"),
                              default="energy",
                              help="runtime metric optimised by the controller "
                                   "(default: energy)")
    serve_parser.add_argument("--clients", type=int, default=1000, metavar="N",
                              help="fleet size (default: 1000)")
    serve_parser.add_argument("--ticks", type=int, default=60, metavar="T",
                              help="replay length in ticks (default: 60)")
    serve_parser.add_argument("--sla-ms", type=float, default=None, metavar="X",
                              help="end-to-end latency SLA in milliseconds "
                                   "(default: no SLA accounting)")
    serve_parser.add_argument("--smoothing", type=float, default=1.0,
                              metavar="S",
                              help="EWMA smoothing coefficient in (0, 1] "
                                   "(default: 1.0 = last measurement wins)")
    serve_parser.add_argument("--regions", default=None, metavar="A,B,...",
                              help="comma-separated region names assigned "
                                   "round-robin (default: the paper's Table-I "
                                   "regions)")
    serve_parser.add_argument("--stall-probability", type=float, default=0.0,
                              metavar="P",
                              help="probability a client skips reporting on a "
                                   "tick (default: 0)")
    serve_parser.add_argument("--method", choices=DECISION_METHODS,
                              default="auto",
                              help="fleet decision method (default: auto)")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="workload synthesis seed (default: 0)")
    serve_parser.add_argument("--format", choices=("table", "markdown", "json"),
                              default="table",
                              help="output format (default: table)")
    serve_parser.add_argument("--out", metavar="FILE",
                              help="also write the report as JSON to FILE")
    return parser


# ---------------------------------------------------------------------- commands

def _warn_skipped_lines(command: str, store: RunStore) -> None:
    """One stderr line when the store scan skipped damaged records."""
    skipped = store.skipped_lines()
    if any(skipped.values()):
        print(f"repro {command}: {store.directory} has "
              f"{skipped['corrupt_lines']} corrupt line(s) and "
              f"{skipped['crc_mismatches']} checksum mismatch(es), skipped "
              f"and never served; run 'repro store fsck --store "
              f"{store.directory} --repair' to quarantine them",
              file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    print(f"scenarios ({len(SCENARIOS)}):")
    for scenario in SCENARIOS.scenarios():
        print(f"  {scenario.name:<42} {scenario.wireless_technology:<5} "
              f"{scenario.uplink_mbps:6.2f} Mbps  {scenario.device_name}")
    print(f"strategies: {', '.join(STRATEGIES.names())}")
    print(f"search spaces: {', '.join(SEARCH_SPACES.names())}")
    print(f"campaign executors: {', '.join(EXECUTORS.names())}")
    print(f"devices: {', '.join(DEVICES.names())}")
    print(f"wireless technologies: {', '.join(WIRELESS_TECHNOLOGIES.names())}")
    print(f"acquisitions: {', '.join(ACQUISITIONS.names())}")
    if args.store:
        store = open_store(args.store)
        _warn_skipped_lines("list", store)
        overview = store.summary()
        print(f"\nstore {overview['directory']}: {overview['num_runs']} runs "
              f"in {overview['num_shards']} shards, "
              f"{overview['total_wall_time_s']:.1f}s total search time")
        rows = [
            [fp, r["scenario"], r["search_space"], r["strategy"],
             "-" if r["seed"] is None else r["seed"], r["num_candidates"]]
            for fp, r in sorted(store.records().items())
        ]
        if rows:
            print(format_table(
                rows,
                ["fingerprint", "scenario", "space", "strategy", "seed",
                 "candidates"],
            ))
    return 0


def _request_from_args(args: argparse.Namespace) -> SearchRequest:
    """Build the request: ``--request`` file fields, overridden by given flags."""
    overrides: Dict[str, Any] = {}
    for flag, field in (
        ("scenario", "scenario"),
        ("strategy", "strategy"),
        ("search_space", "search_space"),
        ("seed", "seed"),
        ("num_initial", "num_initial"),
        ("num_iterations", "num_iterations"),
        ("pool_size", "candidate_pool_size"),
        ("acquisition", "acquisition"),
        ("batch_size", "batch_size"),
        ("predictor_samples", "predictor_samples_per_type"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    if args.tag:
        overrides["tags"] = _parse_tags(args.tag)
    if args.request:
        request = load_request(args.request)
        return request.replace(**overrides) if overrides else request
    # absent flags fall back to the SearchRequest dataclass defaults
    return SearchRequest(**overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    outcome = run_search(
        request,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=not args.fresh,
    )
    front = outcome.pareto_candidates()
    print(f"scenario:    {outcome.scenario.name}")
    print(f"strategy:    {outcome.label}")
    print(f"space:       {request.search_space}")
    print(f"fingerprint: {request.fingerprint()}")
    print(f"candidates:  {len(outcome)} explored, {len(front)} Pareto-optimal "
          f"(error, energy)")
    print(f"wall time:   {outcome.wall_time_s:.2f}s")
    degradations = {
        code: count for code, count in outcome.health.items()
        if code not in ("H_CHECKPOINT_SAVED", "H_RESUMED")
    }
    if degradations:
        events = ", ".join(f"{c}={n}" for c, n in sorted(degradations.items()))
        print(f"health:      degraded [{events}] — see docs/robustness.md")
    elif outcome.health.get("H_RESUMED"):
        print("health:      resumed from checkpoint")
    rows = []
    for label, metric in (("lowest error", "error_percent"),
                          ("lowest energy", "energy_j"),
                          ("lowest latency", "latency_s")):
        best = outcome.best_by(metric)
        rows.append([label, best.architecture_name, round(best.error_percent, 2),
                     round(best.energy_mj, 1), round(best.latency_ms, 1),
                     best.best_energy_option.label])
    print(format_table(
        rows, ["selection", "model", "error %", "energy mJ", "latency ms", "deployment"]
    ))
    if args.out:
        path = dump_json(outcome.to_dict(), args.out)
        print(f"outcome written to {path}")
    if args.store:
        store = open_store(args.store)
        fingerprint = request.fingerprint()
        if fingerprint in store:
            print(f"store {store.directory}: fingerprint already present, not appended")
        else:
            store.append(outcome, fingerprint=fingerprint)
            print(f"outcome stored in {store.directory} as {fingerprint}")
    return 0


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec:
        return CampaignSpec.load(args.spec)
    if not args.scenario:
        raise argparse.ArgumentTypeError(
            "campaign needs --spec FILE or at least one --scenario"
        )
    # one --acquisition sets the shared budget; several declare an ablation axis
    acquisitions = tuple(args.acquisition or ())
    return CampaignSpec(
        scenarios=tuple(args.scenario),
        search_spaces=tuple(args.search_space or (DEFAULT_SEARCH_SPACE,)),
        strategies=tuple(args.strategy or ("lens",)),
        seeds=tuple(args.seed if args.seed is not None else (0,)),
        acquisitions=acquisitions if len(acquisitions) > 1 else (),
        num_initial=args.num_initial,
        num_iterations=args.num_iterations,
        candidate_pool_size=args.pool_size,
        acquisition=acquisitions[0] if len(acquisitions) == 1 else "ts",
        batch_size=args.batch_size,
        predictor_samples_per_type=args.predictor_samples,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.retry_dead:
        readmitted = DeadLetterQueue(args.store).readmit_all()
        print(f"retry-dead: {len(readmitted)} dead-lettered cell(s) "
              f"re-admitted with a fresh retry budget")
        if not args.spec and not args.scenario:
            return 0  # re-admit only; a later campaign/worker picks them up
    spec = _spec_from_args(args)
    store = open_store(args.store)
    stored = store.records()  # one snapshot for labelling every skipped cell

    def progress(done: int, total: int, fingerprint: str, outcome) -> None:
        if args.quiet:
            return
        if outcome is None:
            record = stored.get(fingerprint, {})
            what = (f"{record.get('scenario', '?')} x {record.get('strategy', '?')} "
                    "(already stored)")
        else:
            what = (f"{outcome.scenario.name} x {outcome.request.search_space} "
                    f"x {outcome.label} seed={outcome.request.seed} "
                    f"({outcome.wall_time_s:.2f}s)")
        print(f"[{done}/{total}] {fingerprint}  {what}")

    policy = CampaignPolicy(
        ttl_s=args.ttl,
        poll_s=args.poll,
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff,
        max_backoff_s=args.max_backoff,
        cell_timeout_s=args.cell_timeout,
        on_error=args.on_error,
        checkpoint_every=args.checkpoint_every,
        circuit_window=args.circuit_window,
        circuit_threshold=args.circuit_threshold,
        circuit_cooldown_s=args.circuit_cooldown,
        circuit_probes=args.circuit_probes,
    )
    result = run_campaign(
        spec, store,
        workers=args.workers,
        resume=not args.no_resume,
        executor=args.executor,
        policy=policy,
        on_error=args.on_error,
        progress=progress,
    )
    summary = result.summary()
    print(f"campaign done: {summary['executed']} executed, "
          f"{summary['skipped']} skipped, {summary['total_cells']} cells, "
          f"workers={summary['workers']}, {summary['wall_time_s']:.2f}s")
    if summary["failed"]:
        print(f"failed cells: {summary['failed']} "
              f"({', '.join(summary['failed_cells'][:5])}) — "
              f"see the store's audit log; 'repro campaign' again retries them")
    if summary.get("timeout_kills"):
        print(f"deadlines: {summary['timeout_kills']} cell(s) killed at the "
              f"{policy.cell_timeout_s:g}s deadline (E_TIMEOUT)")
    if summary.get("dead_lettered"):
        print(f"dead-letter: {summary['dead_lettered']} poison cell(s) "
              f"buried — 'repro campaign --store {args.store} --retry-dead' "
              f"re-admits them")
    if summary.get("circuit_state") not in (None, "disabled", "closed"):
        print(f"circuit breaker: {summary['circuit_state']} "
              f"({len(summary.get('circuit_transitions', []))} transition(s))")
    print(f"store: {store.directory} ({len(store)} runs total)")
    return 1 if summary["failed"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    store = open_store(args.store)
    _warn_skipped_lines("report", store)
    if len(store) == 0:
        print(f"store {store.directory} holds no runs", file=sys.stderr)
        return 1
    summary = summarize_campaign(store.outcomes(), metrics=metrics)
    # stream the audit log: one envelope in memory at a time, however many
    # retries a long campaign accumulated
    audit = summarize_audit(store.iter_audit_records())

    if args.format == "json":
        payload = summary.to_dict()
        if audit["num_records"]:
            payload = dict(payload, audit=audit)
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif args.format == "markdown":
        report = ExperimentReport(title=f"Campaign report — {store.directory}")
        report.add_campaign_summary(summary)
        if summary.health:
            report.add_health_summary(summary.health)
        if audit["num_records"]:
            report.add_audit_summary(audit)
        text = report.render_markdown()
    else:
        # wall time is excluded so identical stores render identical reports
        cell_headers, cell_rows = summary.cell_table(include_wall_time=False)
        winner_headers, winner_rows = summary.winner_table()
        text = (
            f"{summary.num_runs} runs, metrics: {' / '.join(metrics)}\n"
            + format_table(cell_rows, cell_headers)
            + "\n\nwinners (largest combined-frontier share):\n"
            + format_table(winner_rows, winner_headers)
        )
        hv_headers, hv_rows = summary.hypervolume_table()
        if hv_rows:  # only runs stored with front telemetry (schema v3+)
            text += (
                "\n\nfinal hypervolume (per-run reference boxes):\n"
                + format_table(hv_rows, hv_headers)
            )
        if summary.health:
            health_headers, health_rows = summary.health_table()
            text += (
                "\n\nresilience health (H_* codes, docs/robustness.md):\n"
                + format_table(health_rows, health_headers)
            )
        if audit["num_records"]:
            codes = ", ".join(
                f"{code}={count}" for code, count in audit["by_code"].items()
            )
            text += (
                f"\n\naudit: {audit['num_records']} failure record(s) "
                f"[{codes}], {len(audit['failed_cells'])} cell(s) "
                f"permanently failed, {audit['retries']} retries"
            )
            if audit.get("dead_lettered"):
                text += (
                    f"\ndead-letter: {len(audit['dead_lettered'])} poison cell(s) "
                    f"buried (repro campaign --retry-dead re-admits them)"
                )
    print(text)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {path}", file=sys.stderr)
    return 0


def _select_served_model(args: argparse.Namespace, outcomes):
    """Pick the Pareto winner to serve; raises/None-returns map to exit codes."""
    if args.scenario is not None and args.scenario not in {
        o.scenario.name for o in outcomes
    }:
        SCENARIOS.get(args.scenario)  # unknown name -> RegistryError (exit 2)
    if args.search_space is not None:
        SEARCH_SPACES.get(args.search_space)  # unknown -> RegistryError
    selected = [
        o for o in outcomes
        if (args.scenario is None or o.scenario.name == args.scenario)
        and (args.search_space is None
             or o.request.search_space == args.search_space)
    ]
    if not selected:
        return None
    scenarios = {o.scenario.name for o in selected}
    if len(scenarios) > 1:
        raise ValueError(
            f"store holds runs for scenarios {sorted(scenarios)}; "
            "pick one with --scenario"
        )
    spaces = {o.request.search_space for o in selected}
    if len(spaces) > 1:
        raise ValueError(
            f"matching runs span search spaces {sorted(spaces)}; "
            "pick one with --search-space"
        )
    metric_key = "energy_j" if args.metric == "energy" else "latency_s"
    pool = [c for o in selected for c in o.candidates]
    front = SearchResult(pool, label="serving-pool").pareto_candidates(
        ("error_percent", metric_key)
    )
    if not front:
        return None
    model = min(front, key=lambda c: c.metric(metric_key))
    return selected[0], next(iter(spaces)), model


def _cmd_serve(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    selection = _select_served_model(args, list(store.outcomes()))
    if selection is None:
        print(f"repro serve: store {store.directory} yields no Pareto "
              f"candidates for the requested scenario/space", file=sys.stderr)
        return 1
    reference, space_name, model = selection
    scenario = reference.scenario
    request = reference.request
    architecture = SEARCH_SPACES.create(space_name).decode_for_performance(
        model.genotype
    )
    channel = scenario.build_channel()
    predictor = default_engine().predictor_for(
        scenario.resolve_device(),
        noise_std=request.predictor_noise_std,
        samples_per_type=request.predictor_samples_per_type,
        seed=request.seed,
    )
    options = select_runtime_options(
        architecture, predictor, channel, args.metric,
        include_all_cloud=True, include_all_edge=True,
    )
    analysis = ThresholdAnalysis(
        options=options,
        power_model=channel.power_model,
        round_trip_s=channel.round_trip_s,
        metric=args.metric,
    )
    regions = (
        [name.strip() for name in args.regions.split(",") if name.strip()]
        if args.regions else None
    )
    workload = FleetWorkload.synthesize(
        args.clients, args.ticks,
        regions=regions,
        stall_probability=args.stall_probability,
        seed=args.seed,
        name=f"{scenario.name} fleet",
    )
    report = ServingSession(
        analysis, workload,
        smoothing=args.smoothing,
        latency_sla_s=None if args.sla_ms is None else args.sla_ms / 1e3,
        method=args.method,
    ).run()

    context = {
        "scenario": scenario.name,
        "search_space": space_name,
        "model": model.architecture_name,
        "model_error_percent": model.error_percent,
        "deployment_options": list(report.option_labels),
        "switching_thresholds_mbps": {
            f"{a} vs {b}": threshold
            for (a, b), threshold in analysis.thresholds().items()
        },
    }
    payload = dict(report.to_dict(), **context)
    if args.format == "json":
        text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True)
    elif args.format == "markdown":
        markdown = ExperimentReport(
            title=f"Serving report — {scenario.name}"
        )
        markdown.add_serving_report(report)
        text = markdown.render_markdown()
    else:
        headers, rows = report.summary_rows()
        region_headers, region_rows = report.region_rows()
        text = (
            f"serving {model.architecture_name} "
            f"(error {model.error_percent:.2f}%) from {scenario.name}\n"
            f"deployment options: {', '.join(report.option_labels)}\n"
            + format_table(rows, headers)
            + "\n\nper region:\n"
            + format_table(region_rows, region_headers)
        )
    print(text)
    if args.out:
        path = dump_json(to_jsonable(payload), args.out)
        print(f"serving report written to {path}", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    report = run_worker(
        args.store,
        worker_id=args.worker_id,
        max_cycles=args.max_cycles,
        progress=lambda worker, event, fp: print(
            f"[{worker}] {event} {fp}".rstrip(), file=sys.stderr
        ),
    )
    summary = report.summary()
    print(f"worker {summary['worker']} done: {summary['executed']} executed, "
          f"{summary['skipped']} skipped, {summary['failed']} failed, "
          f"{summary['reclaimed']} leases reclaimed, "
          f"{summary['wall_time_s']:.2f}s")
    if summary.get("timeout_kills"):
        print(f"deadlines: {summary['timeout_kills']} cell(s) killed at the "
              f"deadline (E_TIMEOUT)")
    if summary.get("dead_lettered"):
        print(f"dead-letter: {summary['dead_lettered']} poison cell(s) buried "
              f"(repro campaign --retry-dead re-admits them)")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command is None:
        print("repro store: choose an operation: compact, export, merge "
              "or fsck",
              file=sys.stderr)
        return 2
    if args.store_command == "fsck":
        report = fsck_store(args.store, repair=args.repair)
        damaged = (report["crc_mismatch"] + report["corrupt"]
                   + report["torn_bytes"])
        print(f"fsck {report['directory']}: {report['intact']} intact, "
              f"{report['legacy']} legacy (pre-checksum), "
              f"{report['crc_mismatch']} checksum mismatch(es), "
              f"{report['corrupt']} corrupt line(s), "
              f"{report['torn_bytes']} torn byte(s)")
        if report["repaired"]:
            print(f"repaired: {report['quarantined_lines']} damaged line(s) "
                  f"quarantined under {report['quarantine_dir']}, files "
                  f"rewritten, index rebuilt")
            return 0
        if not report["clean"]:
            print("store is damaged; re-run with --repair to quarantine the "
                  "bad lines and rebuild the index", file=sys.stderr)
            return 1
        return 0
    if args.store_command == "compact":
        stats = open_store(args.store).compact()
        print(f"compacted {stats['shards']} shard(s): {stats['kept']} records "
              f"kept, {stats['dropped_superseded']} superseded and "
              f"{stats['dropped_corrupt_lines']} corrupt line(s) dropped, "
              f"{stats['dropped_torn_bytes']} torn byte(s) trimmed")
        return 0
    if args.store_command == "export":
        store = open_store(args.store)
        payload = export_metrics(store)
        if args.out:
            path = dump_json(payload, args.out)
            print(f"exported {payload['num_candidates']} candidate(s) in "
                  f"{payload['num_groups']} group(s) to {path}")
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    # merge
    dest = open_store(args.into)
    sources = [open_store(source) for source in args.sources]
    stats = merge_stores(sources, dest)
    print(f"merged {stats['merged']} record(s) into {dest.directory} "
          f"({stats['skipped']} already present)")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "worker": _cmd_worker,
    "store": _cmd_store,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return _COMMANDS[args.command](args)
    except (RegistryError, StoreError, argparse.ArgumentTypeError, ValueError) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    except CircuitOpenError as error:
        # checked before RuntimeError (its base class): the campaign circuit
        # breaker tripped — stored cells are safe, the grid is resumable once
        # the underlying fault is fixed
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 4
    except RuntimeError as error:
        # a campaign stopped by on_error="fail" — finished cells are stored
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer (head, a pager) closed the pipe — not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
