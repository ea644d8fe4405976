"""Partition-enumeration throughput: linear chain vs. graph-aware.

The graph-aware cut enumeration (skip edges excluding block-interior
boundaries, :mod:`repro.nn.graph`) replaced the partitioner's linear-chain
assumption.  This benchmark times ``identify_partition_points`` and full
``PartitionAnalyzer.evaluate`` sweeps over sampled architectures from every
registered search space, and asserts two things:

* on the linear ``lens-vgg`` hot path the graph-aware enumeration produces
  *identical* candidates and costs no more than a small constant factor
  over the raw linear rule (no regression on the paper's space);
* on ``resnet-v1`` the enumeration respects every residual edge while
  remaining in the same throughput class.

``identify_partition_points`` is the scalar oracle's
(``tests/oracles/partition.py``); the library enumerates cuts as a mask
inside ``PartitionAnalyzer.evaluate_batch``.
"""

from __future__ import annotations

import time

from conftest import save_table
from oracles.partition import identify_partition_points

from repro.api.registry import SEARCH_SPACES
from repro.partition.partitioner import PartitionAnalyzer
from repro.utils.rng import ensure_rng
from repro.utils.serialization import format_table
from repro.wireless.channel import WirelessChannel

#: Architectures sampled per space.
SAMPLES = 40

#: Best-of-N timing repetitions to damp scheduler noise.
REPETITIONS = 3

#: Allowed slow-down of graph-aware vs. raw linear enumeration on lens-vgg.
#: The graph path adds one ``allows_cut_after`` check per boundary; anything
#: beyond this factor would indicate an accidental complexity regression.
MAX_LENS_SLOWDOWN = 3.0


def _sample_summaries(space_name: str):
    space = SEARCH_SPACES.create(space_name)
    rng = ensure_rng(2021)
    decoded = []
    for _ in range(SAMPLES):
        architecture = space.decode_for_performance(space.sample(rng))
        decoded.append(
            (architecture, architecture.summarize(), architecture.partition_graph())
        )
    return decoded


def _best_of(fn) -> float:
    times = []
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_partition_enumeration_throughput(gpu_oracle):
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0, round_trip_s=0.01)
    analyzer = PartitionAnalyzer(gpu_oracle, channel)

    rows = []
    payload = {}
    lens_linear_s = lens_graph_s = None
    for space_name in SEARCH_SPACES.names():
        decoded = _sample_summaries(space_name)

        def enumerate_linear():
            for architecture, summaries, _graph in decoded:
                identify_partition_points(summaries, architecture.input_bytes)

        def enumerate_graph():
            for architecture, summaries, graph in decoded:
                identify_partition_points(
                    summaries, architecture.input_bytes, graph=graph
                )

        def full_evaluate():
            for architecture, _summaries, _graph in decoded:
                analyzer.evaluate(architecture)

        linear_s = _best_of(enumerate_linear)
        graph_s = _best_of(enumerate_graph)
        evaluate_s = _best_of(full_evaluate)
        if space_name == "lens-vgg":
            lens_linear_s, lens_graph_s = linear_s, graph_s
            # parity: identical candidates on the linear space
            for architecture, summaries, graph in decoded:
                assert identify_partition_points(
                    summaries, architecture.input_bytes
                ) == identify_partition_points(
                    summaries, architecture.input_bytes, graph=graph
                )
        rows.append([
            space_name,
            round(SAMPLES / linear_s, 0),
            round(SAMPLES / graph_s, 0),
            round(SAMPLES / evaluate_s, 0),
            round(graph_s / linear_s, 2),
        ])
        payload[space_name] = {
            "samples": SAMPLES,
            "linear_enumeration_s": linear_s,
            "graph_enumeration_s": graph_s,
            "full_evaluate_s": evaluate_s,
        }

    assert lens_graph_s <= lens_linear_s * MAX_LENS_SLOWDOWN, (
        f"graph-aware enumeration regressed the lens-vgg hot path: "
        f"{lens_graph_s:.6f}s vs {lens_linear_s:.6f}s linear"
    )

    table = format_table(
        rows,
        ["space", "linear archs/s", "graph archs/s", "evaluate archs/s",
         "graph/linear"],
    )
    print("\n" + table)
    save_table("bench_partition_spaces", table, payload)
