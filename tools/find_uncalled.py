#!/usr/bin/env python
"""List the public names under ``src/repro`` that no code outside ``tests/`` uses.

A name is a public (no leading underscore) top-level function or class of
a module under ``src/repro``, or a public method of such a class.  It is
used when a ``.py`` file under :data:`CALLER_TREES` holds it as an
identifier anywhere but in its own ``def`` or ``class`` statement: a bare
name, an attribute or an imported name.  Strings and comments do not
count, and neither do the imports of an ``__init__.py``, which only
re-export.

The tool is a floor, not a proof.  It matches names, not objects, so a
method named ``clear`` counts as used wherever any ``clear`` is, and it
does not look at parameters.

:data:`ALLOWED` holds the names kept on purpose, each with a one-line
reason.  The tool exits 1 if it lists any other name, or if an allowed
name is now used or gone, so the allowlist cannot go stale.  Run from
anywhere::

    python tools/find_uncalled.py

``tests/test_find_uncalled.py`` runs it on the repository in the tier-1
suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose code counts as a caller (``tests/`` does not).
CALLER_TREES = ("src", "benchmarks", "examples", "tools", "perfbench")

#: Caller-less names kept on purpose, with the reason.
ALLOWED: Dict[str, str] = {
    # documented APIs
    "repro.accuracy.trainer.TrainedAccuracyEvaluator":
        "docs/architecture.md offers it as the trained accuracy model",
    "repro.analysis.reporting.CampaignSummary.winner_for":
        "docs/cli.md reads a campaign's winner with it from Python",
    "repro.api.engine.EvaluationEngine.evaluate_partitions":
        "the engine's documented pool-of-one call (docs/architecture.md)",
    "repro.api.envelopes.load_outcome":
        "docs/api.md reads saved outcome envelopes with it",
    "repro.api.registry.register_device":
        "docs/api.md and docs/scenarios.md register devices with it",
    "repro.api.scenario.Scenario.with_uplink":
        "docs/scenarios.md derives what-if scenarios with it",
    "repro.hardware.device.device_by_name":
        "docs/api.md looks devices up with it",
    "repro.nn.spaces.EncodedSearchSpace.candidate_name":
        "public space method docs/api.md forbids subclasses to override",
    # the batch sampler and the scalar serving reference (ROADMAP items 3, 8)
    "repro.nn.spaces.EncodedSearchSpace.sample_batch":
        "the batch sampler ROADMAP item 3 builds on",
    "repro.wireless.tracker.ThroughputTracker.reset":
        "part of the scalar serving reference ROADMAP item 8 moves to tests/",
    # tests build inputs or check other behaviour with these
    "repro.api.registry.Registry.unregister":
        "tests drop what they register, so registries stay clean",
    "repro.hardware.predictors.LayerPerformancePredictor.supported_families":
        "the predictor oracle and its parity tests branch on it",
    "repro.hardware.simulator.LayerCostSimulator.measure_architecture":
        "simulator tests check whole-model totals with it",
    "repro.nn.architecture.Architecture.count_layers":
        "space and reference-model tests count layer families with it",
    "repro.nn.encoding.EncodingScheme.cardinalities":
        "pool and space tests build out-of-range genotypes from it",
    "repro.nn.encoding.EncodingScheme.indices_from_values":
        "space and end-to-end tests build genotypes from gene values",
    "repro.nn.encoding.EncodingScheme.from_unit":
        "encoding tests round-trip to_unit through it",
    "repro.nn.graph.PartitionGraph.legal_cut_indices":
        "graph and space tests compare cut sets with it",
    "repro.nn.spaces.EncodedSearchSpace.genotype_digest":
        "a property test pins candidate names to the scalar-fold oracle",
    "repro.nn.vgg.build_vgg16":
        "reference model the layer-table and pool tests cost and summarize",
    "repro.partition.partitioner.PartitionEvaluation.split_options":
        "partitioner and graph tests check the split options with it",
    "repro.serving.fleet.FleetController.last_option_indices":
        "serving tests check that an anomaly holds the decision",
    "repro.serving.workload.FleetWorkload.from_traces":
        "serving and golden-trace tests build trace fleets with it",
    "repro.wireless.channel.WirelessChannel.with_uplink":
        "engine and partitioner tests vary the uplink with it",
    "repro.wireless.channel.WirelessChannel.communication_latency_s":
        "partitioner tests check Algorithm 1's transfer latency with it",
    "repro.wireless.channel.WirelessChannel.communication_energy_j":
        "partitioner tests check Algorithm 1's transfer energy with it",
    "repro.wireless.channel.WirelessChannel.cost":
        "the scalar costing oracle tests/oracles/partition.py calls it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(root: Path = REPO_ROOT) -> Iterator[Tuple[str, str]]:
    """``(dotted name, "path:line")`` of every public name under ``src/repro``."""
    source = root / "src"
    for path in sorted((source / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(source).with_suffix("").parts)
        where = path.relative_to(root).as_posix()
        for node in _parse(path).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        yield (
                            f"{module}.{node.name}.{member.name}",
                            f"{where}:{member.lineno}",
                        )


def used_identifiers(root: Path = REPO_ROOT) -> Set[str]:
    """Every identifier the caller trees use, re-exports left out."""
    used: Set[str] = set()
    for tree in CALLER_TREES:
        for path in (root / tree).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    used.add(node.name.rsplit(".", 1)[-1])
    return used


def uncalled(root: Path = REPO_ROOT) -> List[Tuple[str, str]]:
    """``(dotted name, "path:line")`` of every public name nothing uses."""
    used = used_identifiers(root)
    return [
        (name, where)
        for name, where in definitions(root)
        if name.rsplit(".", 1)[-1] not in used
    ]


def main() -> int:
    found = uncalled()
    problems = [
        f"{where}: {name} has no caller outside tests/"
        for name, where in found
        if name not in ALLOWED
    ]
    problems += [
        f"ALLOWED lists {name}, which is now used or gone"
        for name in sorted(set(ALLOWED) - {name for name, _ in found})
    ]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"{len(problems)} problem(s); delete the code, or allow it in "
              "tools/find_uncalled.py with a reason", file=sys.stderr)
        return 1
    print(f"every public name under src/repro has a caller, apart from "
          f"{len(found)} allowed ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
