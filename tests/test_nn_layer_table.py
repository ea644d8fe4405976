"""The layer table: typed specs, append-only rows and their summary views.

Every table-backed result is compared with the per-layer oracle
(``tests/oracles/``): layer summaries field by field, the surrogate's error,
the per-layer predictions and the deployment costing bit for bit, for
decoded candidates and hand-built models.  A row keeps its id as rows are
added, a cold table (a fresh process) gives the records a warm one does,
an addition interrupted at any bytecode (as a cell deadline's
``CellTimeout`` interrupts one) leaves the table as it was, and threads
adding rows at once leave it as one thread would.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import architecture as oracle
from oracles import partition as partition_oracle
from oracles import predictor as predictor_oracle

from repro.accuracy.surrogate import AccuracySurrogate
from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.campaign.supervisor import CellTimeout, deadline
from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import OracleLayerPredictor
from repro.nn.alexnet import build_alexnet
from repro.nn.architecture import Architecture, LayerRows
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.table import LAYER_TABLE, LayerTable
from repro.nn.vgg import build_vgg16, build_vgg_like
from repro.partition.partitioner import PartitionAnalyzer
from repro.utils.rng import ensure_rng
from repro.wireless.channel import WirelessChannel

SPACES = {
    name: SEARCH_SPACES.create(name) for name in ("lens-vgg", "resnet-v1", "seq-conv1d")
}
SPACES["resnet-stride-projection"] = ResNetSearchSpace(
    downsample="stride", projection_shortcuts=True
)
SURROGATE = AccuracySurrogate()
REFERENCE = oracle.ReferenceSurrogate()
ANALYZER = PartitionAnalyzer(
    OracleLayerPredictor(jetson_tx2_gpu()), WirelessChannel.create("wifi", uplink_mbps=3.0)
)


def records(summaries):
    # reprs keep value types apart (64 and 64.0), which equality does not
    return [repr(dataclasses.astuple(summary)) for summary in summaries]


def assert_matches_oracle(architecture: Architecture) -> None:
    reference = oracle.UncachedArchitecture.copy_of(architecture)
    assert [repr(layer) for layer in architecture.layers] == [
        repr(layer) for layer in reference.layers
    ]
    assert records(architecture.summarize()) == records(reference.summarize())
    assert (
        SURROGATE.error_percent(architecture).hex()
        == REFERENCE.error_percent(reference).hex()
    )


def assert_costs_as_oracle(architecture: Architecture) -> None:
    reference = oracle.UncachedArchitecture.copy_of(architecture)
    predictor = ANALYZER.predictor
    predicted = predictor.predict_architecture(architecture)
    assert predicted.tobytes() == predictor_oracle.predict_architecture(
        predictor, reference
    ).tobytes()
    assert ANALYZER.evaluate(architecture) == partition_oracle.evaluate(
        ANALYZER, reference, predictions=predicted
    )


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_table_analysis_matches_the_oracle(name, seed):
    space = SPACES[name]
    genotype = space.sample(ensure_rng(seed))
    for decode in (space.decode_for_accuracy, space.decode_for_performance):
        cold = decode(genotype)
        assert_matches_oracle(cold)
        rows = LAYER_TABLE.size
        warm = decode(genotype)
        assert all(a is b for a, b in zip(cold.layers, warm.layers))
        assert warm.row_ids() == cold.row_ids()
        assert LAYER_TABLE.size == rows
        assert_matches_oracle(warm)
        assert warm.summarize() == cold.summarize()


@pytest.mark.parametrize(
    "build",
    [
        build_alexnet,
        build_vgg16,
        lambda: build_vgg_like(
            "vgg-tiny", (16, 32), (1, 2), (64,), input_shape=(3, 32, 32),
            kernel_size=5, batch_norm=True,
        ),
        lambda: Architecture.from_dict(build_vgg16().to_dict()),
    ],
    ids=["alexnet", "vgg16", "vgg-tiny", "vgg16-from-dict"],
)
def test_reference_models_match_the_oracle(build):
    for _ in range(2):
        architecture = build()
        assert_matches_oracle(architecture)
        assert_costs_as_oracle(architecture)


def test_summary_records_keep_their_own_index():
    # the same layer fed the same shape at positions 0 and 1
    layer = Dense(name="fc", units=8)
    alone = Architecture("alone", (8,), [layer])
    behind = Architecture("behind", (8,), [Dense(name="first", units=8), layer])
    assert alone.row_ids()[0] == behind.row_ids()[1]
    assert alone.summarize()[0].index == 0
    assert behind.summarize()[1].index == 1
    assert records(behind.summarize()) == records(oracle.summarize(behind))


def test_skip_edge_check_runs_for_every_architecture():
    layers = [
        Conv2D(name="conv1", out_channels=4),
        Conv2D(name="conv2", out_channels=8),
        Flatten(name="flatten"),
    ]
    Architecture("chain", (3, 8, 8), layers).summarize()
    # every row exists now; the mismatched edge must still raise
    bad = Architecture("bad-skip", (3, 8, 8), layers, skip_edges=((0, 1),))
    # every path that reads the architecture's rows refuses it, every time
    for read in (
        Architecture.summarize,
        Architecture.row_ids,
        lambda a: LayerRows.of([a]),
        ANALYZER.evaluate,
        lambda a: EvaluationEngine().evaluate_batch([a], ANALYZER),
        ANALYZER.predictor.predict_architecture,
        SURROGATE.error_percent,
    ):
        with pytest.raises(ValueError, match="incompatible shapes"):
            read(bad)


def test_table_specs_share_equal_values_and_keep_value_types_apart():
    first = LAYER_TABLE.spec(Dense, name="fc", units=10)
    assert LAYER_TABLE.spec(Dense, name="fc", units=10) is first
    assert LAYER_TABLE.spec(Dense, units=10, name="fc", activation="relu") is first
    assert LAYER_TABLE.spec_id(Dense(name="fc", units=10)) == LAYER_TABLE.spec_id(first)
    assert first == Dense(name="fc", units=10)
    flagged = LAYER_TABLE.spec(Conv2D, name="conv", batch_norm=True)
    assert LAYER_TABLE.spec(Conv2D, name="conv", batch_norm=1) is not flagged
    wide = LAYER_TABLE.spec(Dense, name="fc", units=10.0)
    assert wide is not first and LAYER_TABLE.spec_id(wide) != LAYER_TABLE.spec_id(first)
    with pytest.raises(ValueError, match="units"):
        LAYER_TABLE.spec(Dense, name="fc", units=0)


def test_a_failed_shape_inference_adds_no_row():
    rows = LAYER_TABLE.size
    with pytest.raises(ValueError, match="expects a"):
        Architecture("flat-conv", (8,), [Conv2D(name="conv-on-flat")]).summarize()
    assert LAYER_TABLE.size == rows


def test_row_ids_never_change_as_rows_are_added():
    architectures = [build_alexnet(), SPACES["resnet-v1"].decode_for_performance(
        SPACES["resnet-v1"].sample(0)
    )]
    before = [a.row_ids() for a in architectures]
    columns = {
        name: getattr(LAYER_TABLE, name)[list(before[0])].copy()
        for name in LAYER_TABLE.COLUMNS
    }
    features = LAYER_TABLE.features[:, list(before[0])].copy()
    capacity = len(LAYER_TABLE.type_code)
    # enough fresh rows to grow every column at least once
    for index in range(capacity - LAYER_TABLE.size + 8):
        Architecture("growth", (index + 1,), [Dense(name="growth", units=3)]).row_ids()
    assert len(LAYER_TABLE.type_code) > capacity and len(LAYER_TABLE.features[0]) > capacity
    again = [a.row_ids() for a in (build_alexnet(), architectures[1])]
    assert again == before
    for name, values in columns.items():
        assert np.array_equal(getattr(LAYER_TABLE, name)[list(before[0])], values)
    assert np.array_equal(LAYER_TABLE.features[:, list(before[0])], features)
    assert records(build_alexnet().summarize()) == records(
        oracle.summarize(build_alexnet())
    )


def _four_layer(tag, units):
    """The conv, flatten, hidden FC and classifier model of the typed-key check."""
    return Architecture(
        f"four-{tag}",
        (3, 32, 32),
        [
            Conv2D(name=f"conv-{tag}", out_channels=16),
            Flatten(name=f"flatten-{tag}"),
            Dense(name=f"fc-{tag}", units=units),
            Dense(name=f"classifier-{tag}", units=10, activation="softmax"),
        ],
    )


@pytest.mark.parametrize("first", ["int", "float"])
def test_equal_specs_of_other_value_types_keep_their_own_error(first):
    # fresh layer names per order, so each order starts without their rows
    models = {"int": _four_layer(first, 256), "float": _four_layer(first, 256.0)}
    order = [first, "float" if first == "int" else "int"]
    for kind in order:
        model = models[kind]
        assert (
            SURROGATE.error_percent(model).hex()
            == oracle.surrogate_error(REFERENCE, model).hex()
        )
        assert records(model.summarize()) == records(oracle.summarize(model))
    assert models["int"].row_ids() != models["float"].row_ids()


@pytest.mark.parametrize("where", ["to_dict", "_shape_id"])
def test_an_interrupted_addition_changes_no_later_result(monkeypatch, where):
    # A CellTimeout raised once inside the first model's additions: while
    # its new spec's noise key is computed, or while its second new row
    # stores its output shape.  Fresh layer names make every spec new.
    owner, raise_at = (Dense, 0) if where == "to_dict" else (LayerTable, 2)
    original, calls = getattr(owner, where), itertools.count()

    def interrupted(*args, **kwargs):
        if next(calls) == raise_at:
            raise CellTimeout("cell exceeded its deadline")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, where, interrupted)
    with pytest.raises(CellTimeout):
        _four_layer(f"cut-{where}", 96).row_ids()
    monkeypatch.undo()
    for tag in (f"cut-{where}", f"after-{where}", f"wider-{where}"):
        model = _four_layer(tag, 96 if tag.startswith("cut") else 160)
        assert records(model.summarize()) == records(oracle.summarize(model))
        assert (
            SURROGATE.error_percent(model).hex()
            == oracle.surrogate_error(REFERENCE, model).hex()
        )
        assert_costs_as_oracle(model)


def _table_additions(table: LayerTable) -> list:
    """Chains that add specs (one through ``spec``, one equal to it in
    value but not in type), shapes, layer types and rows, then featurize
    them; returns the chains."""
    dense = table.spec(Dense, name="fc", units=8)
    layers = [Conv2D(name="conv", out_channels=4), Flatten(name="flat"), dense]
    chains = [
        table.chain(table.spec_ids(layers), (3, 8, 8)),
        table.chain(table.spec_ids([Dense(name="fc", units=8.0)]), (256,)),
    ]
    table.features
    return chains


def _small_table() -> LayerTable:
    """A fresh table whose columns hold two rows, so the additions grow them."""
    table = LayerTable()
    for name in LayerTable.COLUMNS:
        setattr(table, name, getattr(table, name)[:2].copy())
    table._features = table._features[:, :2].copy()
    return table


def _table_state(table: LayerTable) -> tuple:
    """Everything a reader of ``table`` can see, in comparable form."""
    size = table.size
    published = len(table._shape_ids)
    return (
        size,
        [repr(dataclasses.astuple(record)) for record in table.records[1:]],
        table.noise_keys, table.row_specs, table._output_shape_ids,
        [repr(spec) for spec in table.specs[: len(table._spec_ids)]],
        table._spec_noise_keys[: len(table._spec_ids)], table._spec_ids,
        table._shapes[:published], table._shape_ids, table._rows[:published],
        table.layer_types,
        {name: getattr(table, name)[:size].tolist() for name in LayerTable.COLUMNS},
        table.features[:, :size].tolist(),
    )


#: The code of the table's methods that store (what they call computes
#: values and stores nothing, and their callers only read).
_STORING_METHODS = {
    method.__code__
    for method in (LayerTable.spec_id, LayerTable._shape_id, LayerTable._add_row)
} | {LayerTable.features.fget.__code__}


def _interrupt_at_opcode(k: int, call) -> bool:
    """Run ``call``, raising ``CellTimeout`` before the ``k``-th bytecode it
    runs in a storing table method (a signal handler's exception lands at
    such a boundary); returns whether it was raised."""
    count = itertools.count()

    def opcodes(frame, event, arg):
        if event == "opcode" and next(count) == k:
            raise CellTimeout("cell exceeded its deadline")  # also unsets the tracer
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code not in _STORING_METHODS:
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return opcodes

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        call()
    except CellTimeout:
        return True
    finally:
        sys.settrace(previous)
    return False


def test_an_addition_interrupted_at_any_bytecode_leaves_the_table_whole():
    reference = _small_table()
    expected_chains = _table_additions(reference)
    expected = _table_state(reference)
    # the reference itself matches the oracle, row by row
    for row in range(1, reference.size):
        record, spec = reference.records[row], reference.specs[reference.row_specs[row]]
        alone = Architecture("alone", record.input_shape, [spec])
        assert records([record]) == records(oracle.summarize(alone))
        assert reference.noise_keys[row] == repr(spec.to_dict())
    for k in itertools.count():
        table = _small_table()
        interrupted = _interrupt_at_opcode(k, lambda: _table_additions(table))
        assert _table_additions(table) == expected_chains, k
        assert _table_state(table) == expected, k
        if not interrupted:
            break
    assert k > 1000  # the additions ran that many bytecodes of the storing methods


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs the deadline's signal path")
# a signal delivered inside a gc callback (hypothesis installs one) raises
# there, and the interpreter reports it as unraisable: that run is not cut
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_additions_cut_by_real_cell_deadlines_leave_the_table_whole():
    # A campaign cell's deadline: a SIGALRM handler raises CellTimeout
    # wherever the interpreter delivers the signal.  Unlike the tracer
    # above, this also shows the lock is let go of at every such point.
    reference = _small_table()
    expected_chains = _table_additions(reference)
    expected = _table_state(reference)
    started = time.perf_counter()
    _table_additions(_small_table())
    span = time.perf_counter() - started  # deadlines fall inside the additions
    rng, cuts, handler = random.Random(0), 0, signal.getsignal(signal.SIGALRM)
    try:
        for _ in range(2000):
            table = _small_table()
            try:
                with deadline(rng.uniform(1e-6, span)):
                    _table_additions(table)
            except CellTimeout:
                cuts += 1
            assert not table._lock._is_owned()
            assert _table_additions(table) == expected_chains
            assert _table_state(table) == expected
    finally:
        signal.signal(signal.SIGALRM, handler)
    assert cuts > 200


def _thread_additions(table: LayerTable, tag: str) -> list:
    """Chains of layers that the other threads add too and of this thread's
    own, then the feature rows; returns each chain with its layers."""
    shared = [Conv2D(name="conv", out_channels=4), Flatten(name="flat")]
    chains = []
    for index in range(150):
        layers = [*shared, Dense(name=f"fc-{tag}-{index}", units=8 + index % 16)]
        chains.append((layers, table.chain(table.spec_ids(layers), (3, 8, 8 + index % 4))))
    table.features
    return chains


def _rows_by_key(table: LayerTable) -> dict:
    """Every row's stored fields, keyed by its spec and input shape."""
    features = table.features
    rows = {
        (repr(table.specs[table.row_specs[row]]), table.records[row].input_shape): (
            repr(dataclasses.astuple(table.records[row])),
            table.noise_keys[row],
            table.layer_types[table.type_code[row]],
            [getattr(table, name)[row].item() for name in LayerTable.COLUMNS if name != "type_code"],
            features[:, row].tolist(),
        )
        for row in range(1, table.size)
    }
    assert len(rows) == table.size - 1  # one row per key
    return rows


def test_threads_adding_rows_at_once_keep_the_table_whole():
    tags = "abcd"
    reference = _small_table()
    for tag in tags:
        _thread_additions(reference, tag)
    table, chains, errors = _small_table(), {}, []
    start = threading.Barrier(len(tags), timeout=60)

    def add(tag):
        try:
            start.wait()
            chains[tag] = _thread_additions(table, tag)
        except Exception as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=add, args=(tag,)) for tag in tags]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and sorted(chains) == list(tags)
    assert _rows_by_key(table) == _rows_by_key(reference)
    for layers, chain in itertools.chain.from_iterable(chains.values()):
        assert [table.records[row].name for row in chain] == [layer.name for layer in layers]
        assert [table.records[row].input_shape for row in chain[1:]] == [
            table.records[row].output_shape for row in chain[:-1]
        ]


#: Evaluates one seeded pool per space and prints objective hexes and record
#: JSON; run in a fresh interpreter, so against a cold table.
_POOL_SCRIPT = """
import json, sys
import numpy as np
from repro.accuracy.surrogate import AccuracySurrogate
from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.core.evaluation import PartitionAwareEvaluator
from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import LayerPerformancePredictor
from repro.nn.table import LAYER_TABLE
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel

predictor = LayerPerformancePredictor.train_for_device(jetson_tx2_gpu(), samples_per_type=40, seed=0)
analyzer = PartitionAnalyzer(predictor, WirelessChannel.create("wifi", uplink_mbps=3.0))
out = {"rows_before": LAYER_TABLE.size}
for name in ("lens-vgg", "resnet-v1", "seq-conv1d"):
    space = SEARCH_SPACES.create(name)
    rng = np.random.default_rng(7)
    genotypes = [space.sample(rng).tolist() for _ in range(24)]
    for engine in (None, EvaluationEngine()):
        evaluator = PartitionAwareEvaluator(space, AccuracySurrogate(), analyzer, engine=engine)
        out[f"{name}-{engine is None}"] = [
            [[float(v).hex() for v in objectives], json.dumps(meta["evaluation"].to_dict())]
            for objectives, meta in evaluator.evaluate_pool(genotypes)
        ]
out["rows_after"] = LAYER_TABLE.size
json.dump(out, sys.stdout)
"""


def _run_pool_script(src: str) -> dict:
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _POOL_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return json.loads(completed.stdout)


def test_cold_and_warm_tables_give_equal_records():
    src = str(Path(__file__).resolve().parent.parent / "src")
    cold = _run_pool_script(src)
    assert cold["rows_before"] == 1 < cold["rows_after"]
    # warm this process's table with other candidates first, then run the
    # same script's pools here
    for space in SPACES.values():
        rng = np.random.default_rng(11)
        for _ in range(8):
            space.decode_for_performance(space.sample(rng)).row_ids()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exec(compile(_POOL_SCRIPT, "<pool script>", "exec"), {})
    warm = json.loads(buffer.getvalue())
    assert warm["rows_before"] > 1
    for key, value in cold.items():
        if not key.startswith("rows_"):
            assert warm[key] == value, key


def test_layer_rows_of_a_pool_read_the_same_rows_as_its_architectures():
    space = SPACES["resnet-stride-projection"]
    genotypes = [space.sample(seed).tolist() for seed in range(6)]
    pool = space.decode_pool(genotypes + genotypes[:2])
    rebuilt = LayerRows.of(list(pool.performance))
    assert rebuilt.chains == pool.performance.chains
    assert rebuilt.keys() == pool.performance.keys()
    assert np.array_equal(rebuilt.ids, pool.performance.ids)
    assert pool.performance.sums("macs") == [a.total_macs for a in pool.performance]
    assert pool.accuracy.sums("params") == [a.total_params for a in pool.accuracy]
    # duplicate genotypes share keys, which is what the engine dedups on
    keys = pool.performance.keys()
    assert keys[6:] == keys[:2]
    sub = pool.performance.take([7, 0])
    assert sub.chains == [pool.performance.chains[7], pool.performance.chains[0]]
    assert [a.name for a in sub] == [pool.performance.names[7], pool.performance.names[0]]
    assert sub.lengths == [len(chain) for chain in sub.chains]
