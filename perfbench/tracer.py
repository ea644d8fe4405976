"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public entry points of the program from the benchmark's own
files: it replaces class attributes (``PartitionAwareEvaluator.sample_fn``)
and, for functions another module imported by name, that module's attribute
(``repro.optim.mobo.acquisition_scores``).  Every call becomes a span of
``(pid, span id, parent span id, name, start ns, end ns, attribute)`` kept in
memory and written, tagged with the run id, to ``spans-<pid>.jsonl`` when the
run ends.

Campaign pool workers are forked, so they inherit the wrappers; they exit
without running ``atexit`` handlers, so a worker writes its spans whenever a
top-level ``campaign.cell`` span closes.  An entry point that no longer
exists is recorded in :attr:`Tracer.missing` and its metrics read zero; it
never stops the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A span: (pid, span id, parent span id or -1, name, start ns, end ns, attribute).
Span = Tuple[int, int, int, str, int, int, Any]

#: Spans whose close flushes a worker process's spans to disk.
FLUSH_SPANS = frozenset({"campaign.cell"})


def _result_len(args, kwargs, result):
    # neighbours returned, candidates scored (one score row each), or
    # genotypes evaluated (one output each)
    return len(result)


def _cell_fingerprint(args, kwargs, result):
    return result.request.fingerprint()


def _append_fingerprint(args, kwargs, result):
    return result


#: (span name, module, attribute path, span-attribute function).  The
#: ``nn.decode`` entry points are added per search-space class at install
#: time (see :meth:`Tracer.install`).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("nn.sample", "repro.core.evaluation", "PartitionAwareEvaluator.sample_fn", None),
    ("nn.neighbours", "repro.core.evaluation", "PartitionAwareEvaluator.neighbor_fn", _result_len),
    ("nn.features", "repro.core.evaluation", "PartitionAwareEvaluator.feature_fn", None),
    ("accuracy.error", "repro.accuracy.surrogate", "AccuracySurrogate.error_percent", None),
    ("optim.acquisition", "repro.optim.mobo", "acquisition_scores", _result_len),
    ("optim.gp_update", "repro.optim.gp_bank", "GPBank.update", None),
    ("optim.front_history", "repro.api.session", "compute_front_history", None),
    ("optim.archive", "repro.optim.pareto", "ParetoArchive.add", None),
    ("core.evaluate_pool", "repro.core.evaluation", "PartitionAwareEvaluator.evaluate_pool", _result_len),
    ("api.engine.evaluate_batch", "repro.api.engine", "EvaluationEngine.evaluate_batch", None),
    ("hardware.predict_pool", "repro.hardware.predictors", "LayerPerformancePredictor.predict_pool", None),
    ("partition.evaluate_batch", "repro.partition.partitioner", "PartitionAnalyzer.evaluate_batch", None),
    ("campaign.cell", "repro.campaign.executors", "run_search", _cell_fingerprint),
    ("campaign.store.append", "repro.campaign.store", "RunStore.append", _append_fingerprint),
    ("campaign.store.append", "repro.campaign.sharded", "ShardedRunStore.append", _append_fingerprint),
    ("serving.observe", "repro.serving.fleet", "FleetTracker.observe", None),
    ("serving.decide", "repro.serving.fleet", "FleetController.decide", None),
    ("serving.session", "repro.serving.session", "ServingSession.run", None),
)

#: Search-space methods traced as ``nn.decode`` on every registered space.
DECODE_METHODS = ("decode_for_accuracy", "decode_for_performance")


class Tracer:
    """In-memory span recorder with fork-aware flushing.

    ``directory`` receives one ``spans-<pid>.jsonl`` file per process.
    """

    def __init__(self, directory: Path, run_id: str):
        self.directory = Path(directory)
        self.run_id = run_id
        self.missing: List[str] = []
        self._patched: set = set()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    # ------------------------------------------------------------------ spans
    def _record(self, name: str, fn: Callable, attr: Optional[Callable], args, kwargs):
        span_id = self._next_id
        self._next_id = span_id + 1
        stack = self._stack
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
        value = None if attr is None else attr(args, kwargs, result)
        self.spans.append((self.pid, span_id, parent, name, start, end, value))
        if name in FLUSH_SPANS and not stack:
            self.flush()
        return result

    def wrap(self, name: str, fn: Callable, attr: Optional[Callable] = None) -> Callable:
        record = self._record

        def traced(*args, **kwargs):
            return record(name, fn, attr, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.spans.append((self.pid, span_id, parent, name, start, end, None))

    # ------------------------------------------------------------------ patching
    def _patch(self, owner: Any, attribute: str, name: str, attr: Optional[Callable],
               label: str) -> None:
        if isinstance(owner, type):
            # patch where the method is defined, once, so subclasses share it
            owner = next((k for k in owner.__mro__ if attribute in vars(k)), owner)
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{name}: {label}")
            return
        if (id(owner), attribute) in self._patched:
            return
        setattr(owner, attribute, self.wrap(name, original, attr))
        self._patched.add((id(owner), attribute))

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`ENTRY_POINTS` and ``nn.decode``."""
        for name, module_name, path, attr in ENTRY_POINTS:
            label = f"{module_name}.{path}"
            *owners, attribute = path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.missing.append(f"{name}: {label}")
                continue
            self._patch(owner, attribute, name, attr, label)
        try:
            from repro.api import SEARCH_SPACES

            space_types = {type(SEARCH_SPACES.create(n)) for n in SEARCH_SPACES.names()}
        except (ImportError, AttributeError, KeyError, TypeError) as error:
            self.missing.append(f"nn.decode: search-space registry ({error})")
            space_types = set()
        for space_type in sorted(space_types, key=lambda t: t.__name__):
            for method in DECODE_METHODS:
                label = f"{space_type.__module__}.{space_type.__name__}.{method}"
                self._patch(space_type, method, "nn.decode", None, label)
        return self

    # ------------------------------------------------------------------ output
    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        if not self.spans:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([self.run_id, *span]) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """Flush, then read back the spans of every process of this run."""
        self.flush()
        spans: List[Span] = []
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as handle:
                for line in handle:
                    run_id, *span = json.loads(line)
                    if run_id == self.run_id:
                        spans.append(tuple(span))
        return spans


# ---------------------------------------------------------------------- analysis


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the durations of its direct
    children (spans of the same process naming it as parent).
    """
    child_ns: Dict[Tuple[int, int], int] = defaultdict(int)
    for pid, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[(pid, parent)] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for pid, span_id, _, name, start, end, _ in spans:
        totals[name] += (end - start - child_ns[(pid, span_id)]) / 1e9
    return totals


def covered_s(spans: Iterable[Span], start_ns: int, end_ns: int) -> float:
    """Seconds of ``[start_ns, end_ns]`` covered by the union of top-level spans."""
    intervals = sorted(
        (max(s, start_ns), min(e, end_ns))
        for _, _, parent, _, s, e, _ in spans
        if parent < 0 and e > start_ns and s < end_ns
    )
    covered = 0
    current_start = current_end = None
    for s, e in intervals:
        if current_end is None or s > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = s, e
        else:
            current_end = max(current_end, e)
    if current_end is not None:
        covered += current_end - current_start
    return covered / 1e9


def by_name(spans: Iterable[Span], name: str) -> List[Span]:
    return [span for span in spans if span[3] == name]


#: Span names whose call counts are reported as ``<name>.calls``.
COUNTED = (
    "nn.sample", "nn.neighbours", "nn.features", "nn.decode", "accuracy.error",
    "optim.acquisition", "optim.gp_update", "core.evaluate_pool", "campaign.store.append",
)

#: Span names whose self times are reported as ``<name>.s``.
TIMED = (
    "nn.sample", "nn.neighbours", "nn.features", "nn.decode", "accuracy.error",
    "optim.acquisition", "optim.gp_update",
    "optim.front_history", "optim.archive", "core.evaluate_pool",
    "api.engine.evaluate_batch", "hardware.predict_pool", "partition.evaluate_batch",
    "campaign.store.append", "serving.observe", "serving.decide",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(spans: Sequence[Span], units: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per unit of work.

    ``units`` are the worker's unit records.  Only spans that start inside a
    unit's window count (the untimed checks call traced entry points too);
    the windows also bound the unattributed share and campaign queue waits.
    The units' ``counters`` hold what the outcomes and reports say (cache
    hits, health events, switches).  Setup metrics and the tracing overhead
    are added by ``run.py``.
    """
    count = len(units)
    spans = [
        s for s in spans if any(u["start_ns"] <= s[4] <= u["end_ns"] for u in units)
    ]
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[3]] += 1
    counters: Dict[str, float] = defaultdict(float)
    for unit in units:
        for key, value in unit["counters"].items():
            counters[key] += value

    metrics: Dict[str, float] = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = calls[name] / count
    for name in TIMED:
        metrics[f"{name}.s"] = selfs[name] / count

    produced = calls["nn.sample"] + sum(s[6] for s in by_name(spans, "nn.neighbours"))
    scored = sum(s[6] for s in by_name(spans, "optim.acquisition"))
    metrics["nn.pool.useful_ratio"] = _ratio(scored, produced)
    widths = [s[6] for s in by_name(spans, "core.evaluate_pool")]
    metrics["core.evaluate_pool.width"] = _ratio(sum(widths), len(widths))
    metrics["api.engine.layer_hit_ratio"] = _ratio(counters["layer_hits"], counters["layer_lookups"])
    metrics["api.engine.partition_hit_ratio"] = _ratio(
        counters["partition_hits"], counters["partition_lookups"]
    )
    metrics["optim.health_events"] = counters["health_events"] / count
    metrics["optim.front_join_ratio"] = _ratio(counters["front_joined"], counters["front_entries"])

    # campaign: cells run in pool workers, appends in the parent
    cells = by_name(spans, "campaign.cell")
    durations = [(s[5] - s[4]) / 1e9 for s in cells]
    metrics["campaign.cell_s.p50"] = _percentile(durations, 50)
    metrics["campaign.cell_s.max"] = max(durations, default=0.0)
    waits = []
    for cell in cells:
        for unit in units:
            if unit["start_ns"] <= cell[4] <= unit["end_ns"]:
                waits.append((cell[4] - unit["start_ns"]) / 1e9)
    metrics["campaign.queue_wait_s"] = _percentile(waits, 50)
    cell_end = {s[6]: s[5] for s in cells}
    handoffs = [
        (s[4] - cell_end[s[6]]) / 1e9
        for s in by_name(spans, "campaign.store.append")
        if s[6] in cell_end
    ]
    metrics["campaign.handoff_s"] = _percentile(handoffs, 50)
    metrics["campaign.cells_failed"] = counters["cells_failed"] / count
    metrics["campaign.store.bytes"] = counters["store_bytes"] / count
    metrics["campaign.store.read_s"] = selfs["campaign.store.read"] / count
    metrics["analysis.summarize_s"] = selfs["analysis.summarize"] / count

    # serving: one observe and one decide per tick, in order
    observes = sorted(by_name(spans, "serving.observe"), key=lambda s: s[4])
    decides = sorted(by_name(spans, "serving.decide"), key=lambda s: s[4])
    ticks_ms = [
        (o[5] - o[4] + d[5] - d[4]) / 1e6 for o, d in zip(observes, decides)
    ]
    metrics["serving.tick_p50_ms"] = _percentile(ticks_ms, 50)
    metrics["serving.tick_p99_ms"] = _percentile(ticks_ms, 99)
    metrics["serving.session_self_s"] = selfs["serving.session"] / count
    for key in ("switches", "held_ticks", "anomalies"):
        metrics[f"serving.{key}"] = counters[key] / count

    wall = sum((u["end_ns"] - u["start_ns"]) / 1e9 for u in units)
    covered = sum(covered_s(spans, u["start_ns"], u["end_ns"]) for u in units)
    metrics["trace.unattributed_share"] = _ratio(wall - covered, wall)
    return metrics
