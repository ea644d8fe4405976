"""repro — reproduction of LENS (DAC 2021).

LENS is a multi-objective Neural Architecture Search methodology for
edge-cloud hierarchies: candidate architectures are evaluated according to
their best layer-partitioning option under the *expected* wireless conditions,
so the search discovers models whose best deployment may be a split between
the edge device and the cloud.

The canonical way to define and run experiments is the unified experiment
API, :mod:`repro.api`: deployment contexts are named
:class:`~repro.api.scenario.Scenario` objects, runs are declared as
versioned :class:`~repro.api.envelopes.SearchRequest` envelopes (persist,
replay, compare), components are addressable by name through string-keyed
registries, and every run shares one caching
:class:`~repro.api.engine.EvaluationEngine`.

Quickstart::

    from repro.api import run_search

    outcome = run_search(
        strategy="lens",                          # or "traditional" / "random"
        scenario="wifi-3mbps/jetson-tx2-gpu",     # a registered scenario name
        num_initial=10, num_iterations=30, seed=0,
    )
    for candidate in outcome.pareto_candidates(("error_percent", "energy_j")):
        print(candidate.architecture_name, candidate.error_percent,
              candidate.energy_mj, candidate.best_energy_option.label)
    payload = outcome.to_dict()                   # JSON-ready round trip

``run_search`` is the only way to run a search.  The paper's Traditional
baseline partitions its Pareto set only after the search, which is a pure
function of the stored candidates::

    traditional = run_search(strategy="traditional", seed=0)
    partitioned = traditional.result.partitioned(("error_percent", "energy_j"))

Callers that need the resolved components (device, channel, predictor,
evaluator) use :func:`~repro.api.session.build_context` and
:func:`~repro.api.session.execute_strategy`.

Underneath, the library is organised by substrate:

* :mod:`repro.api` — scenarios, registries, request/outcome envelopes, the
  evaluation engine and ``run_search``;
* :mod:`repro.nn` — architecture IR, reference models, the VGG-derived search
  space;
* :mod:`repro.hardware` — edge-device profiles, the layer-cost simulator and
  the per-layer latency/power regression predictors;
* :mod:`repro.wireless` — radio power models, channel model, regional
  throughput catalogue, throughput traces and the online tracker;
* :mod:`repro.partition` — deployment options and the Algorithm 1
  partitioning engine;
* :mod:`repro.optim` — Gaussian processes, acquisitions, Pareto tools and the
  MOBO loop;
* :mod:`repro.accuracy` — numpy CNN training and the accuracy surrogate;
* :mod:`repro.core` — partition-aware evaluation, search results (with the
  Traditional baseline's post-hoc partitioning) and runtime adaptation;
* :mod:`repro.analysis` — figure/table-level analyses built on the above;
* :mod:`repro.campaign` — parallel, resumable campaign runs of the
  experiment API into persistent run stores (also scriptable as
  ``python -m repro``).
"""

from repro.api.engine import EvaluationEngine, default_engine
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.scenario import SCENARIOS, Scenario, ScenarioRegistry, scenario_by_name
from repro.api.session import run_search
from repro.campaign import CampaignSpec, RunStore, run_campaign
from repro.core.results import CandidateEvaluation, SearchResult
from repro.core.runtime import ThresholdAnalysis, simulate_runtime
from repro.hardware.device import jetson_tx2_cpu, jetson_tx2_gpu
from repro.hardware.predictors import LayerPerformancePredictor, OracleLayerPredictor
from repro.nn.alexnet import build_alexnet
from repro.api.registry import SEARCH_SPACES, register_search_space
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.search_space import LensSearchSpace, SeqConv1DSearchSpace
from repro.nn.spaces import EncodedSearchSpace
from repro.nn.vgg import build_vgg16
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel

__version__ = "0.4.0"

__all__ = [
    "EvaluationEngine",
    "default_engine",
    "SearchOutcome",
    "SearchRequest",
    "CampaignSpec",
    "RunStore",
    "run_campaign",
    "SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "scenario_by_name",
    "run_search",
    "CandidateEvaluation",
    "SearchResult",
    "ThresholdAnalysis",
    "simulate_runtime",
    "jetson_tx2_cpu",
    "jetson_tx2_gpu",
    "LayerPerformancePredictor",
    "OracleLayerPredictor",
    "build_alexnet",
    "LensSearchSpace",
    "ResNetSearchSpace",
    "SeqConv1DSearchSpace",
    "EncodedSearchSpace",
    "SEARCH_SPACES",
    "register_search_space",
    "build_vgg16",
    "PartitionAnalyzer",
    "WirelessChannel",
    "__version__",
]
