"""Reference per-candidate pool evaluation: two decodes and one error per candidate.

:meth:`repro.core.evaluation.PartitionAwareEvaluator.evaluate_pool` validates
a pool once, builds each genotype's layer stack and name once
(:meth:`~repro.nn.spaces.EncodedSearchSpace.decode_pool`) and estimates the
errors of the whole pool at once
(:meth:`~repro.accuracy.surrogate.AccuracyModel.error_percent_pool`).  This
module keeps the per-candidate path it replaced, as the oracle the property
tests and ``benchmarks/bench_eval_batch.py`` compare it with:

* every genotype is decoded twice with :meth:`decode`, once per input shape;
* an :class:`~repro.accuracy.surrogate.AccuracySurrogate`'s error comes from
  the per-row statistics of :func:`oracles.architecture.surrogate_error`; any
  other accuracy model is asked ``error_percent`` once per candidate, in
  pool order;
* the performance architectures are costed as one batch, as
  ``evaluate_pool`` costs them: pools of different composition agree only to
  float round-off, so the oracle keeps the pool's grouping.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from oracles.architecture import summarize, surrogate_error
from repro.accuracy.surrogate import AccuracyModel, AccuracySurrogate
from repro.core.evaluation import PartitionAwareEvaluator
from repro.nn.architecture import Architecture


def error_percent(model: AccuracyModel, architecture: Architecture) -> float:
    """One candidate's error, computed on its own."""
    if isinstance(model, AccuracySurrogate):
        return surrogate_error(model, architecture)
    return model.error_percent(architecture)


def evaluate_pool(
    evaluator: PartitionAwareEvaluator, genotypes: Sequence[Sequence[int]]
) -> List[Tuple[np.ndarray, Dict]]:
    """``evaluator.evaluate_pool(genotypes)``, one candidate at a time."""
    space = evaluator.search_space
    accuracy = [space.decode(g, input_shape=space.accuracy_input_shape) for g in genotypes]
    performance = [
        space.decode(g, input_shape=space.performance_input_shape) for g in genotypes
    ]
    graphs = [space.partition_graph(architecture) for architecture in performance]
    if evaluator.engine is not None:
        rows = evaluator.engine.evaluate_batch(performance, evaluator.analyzer, graphs=graphs)
    else:
        rows = evaluator.analyzer.evaluate_batch(performance, graphs=graphs)
    return [
        evaluator._package(
            tuple(int(v) for v in np.asarray(genotype, dtype=int)),
            performance_arch.name,
            row[0],
            error_percent(evaluator.accuracy_model, accuracy_arch),
            sum(s.params for s in summarize(accuracy_arch)),
            sum(s.macs for s in summarize(performance_arch)),
        )
        for genotype, accuracy_arch, performance_arch, row in zip(
            genotypes, accuracy, performance, rows
        )
    ]
