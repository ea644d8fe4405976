"""The layer table: every analysed layer of the process, one row each.

Evaluation reads a handful of facts about each layer of a candidate: its
family, output shape, parameter and MAC counts, output and weight bytes,
whether its boundary may be cut, the convolution kernel, the prediction
features and the accuracy surrogate's noise-key text.  All of them depend
on the layer spec and its input shape alone, so :data:`LAYER_TABLE` holds
them once per distinct ``(layer spec, input shape)`` pair, as one *row*.
Candidates are read as rows of integer row ids
(:class:`~repro.nn.architecture.LayerRows`), and evaluation gathers the
columns it needs with those ids.

The table is append-only: a row, once added, keeps its id and its values
for the life of the process, so ids compare across runs, spaces and
hand-built models.  Keys are typed, so ``Dense(units=256)`` and
``Dense(units=256.0)`` are two specs with two rows, as are the input shapes
``(256,)`` and ``(256.0,)``.  Row 0 is a padding row, zero in every numeric
column, that fills the short rows of a padded id matrix.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence

import numpy as np

from repro.nn.layers import LayerSpec, Shape, element_count, shape_bytes

#: Width of the feature block: the widest family's feature row (conv).
FEATURE_WIDTH = 6


@dataclass(frozen=True)
class LayerSummary:
    """Static analysis record for one layer within a concrete architecture.

    Attributes
    ----------
    index:
        Zero-based position of the layer within the architecture.
    name:
        Layer name (unique within the architecture).
    layer_type:
        Layer family identifier (``conv``, ``pool``, ``fc``, ...).
    input_shape / output_shape:
        Channels-first activation shapes entering and leaving the layer.
    params:
        Trainable parameter count.
    macs:
        Multiply-accumulate operations per inference.
    output_bytes:
        Size of the layer's output activation in bytes (what would be
        transmitted if the model were split right after this layer).
    weight_bytes:
        Size of the layer's parameters in bytes (memory traffic lower bound
        for memory-bound layers such as large fully-connected layers).
    is_partition_candidate:
        Whether the layer boundary is structurally eligible as a split point.
    """

    index: int
    name: str
    layer_type: str
    input_shape: Shape
    output_shape: Shape
    params: int
    macs: int
    output_bytes: int
    weight_bytes: int
    is_partition_candidate: bool

    @property
    def flops(self) -> int:
        """Floating point operations (2 per MAC)."""
        return 2 * self.macs

    @cached_property
    def output_elements(self) -> int:
        """Number of scalars in the output activation (computed once)."""
        return element_count(self.output_shape)

    @cached_property
    def input_elements(self) -> int:
        """Number of scalars in the input activation (computed once)."""
        return element_count(self.input_shape)

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "name": self.name,
            "layer_type": self.layer_type,
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "params": self.params,
            "macs": self.macs,
            "output_bytes": self.output_bytes,
            "weight_bytes": self.weight_bytes,
            "is_partition_candidate": self.is_partition_candidate,
        }


def summarize_layer(index: int, layer: LayerSpec, input_shape: Shape) -> LayerSummary:
    """Static analysis of ``layer`` at position ``index`` fed ``input_shape``."""
    output_shape = layer.output_shape(input_shape)
    return LayerSummary(
        index=index,
        name=layer.name,
        layer_type=layer.layer_type,
        input_shape=input_shape,
        output_shape=output_shape,
        params=layer.param_count(input_shape),
        macs=layer.macs(input_shape),
        output_bytes=shape_bytes(output_shape),
        weight_bytes=layer.weight_bytes(input_shape),
        is_partition_candidate=layer.is_partition_candidate,
    )


def _typed(values: tuple) -> tuple:
    """A key that tells ``64``, ``64.0`` and ``True`` apart."""
    return values, tuple(map(type, values))


class LayerTable:
    """Append-only rows of analysed layers (see the module docstring).

    Specs are stored once per typed value, and rows once per stored spec
    and typed input shape.  The numeric columns (:attr:`COLUMNS` and the
    ``(FEATURE_WIDTH, capacity)`` :attr:`features` block, which holds a
    row's feature row in its first entries, as many as its family has)
    are arrays indexed by row id that grow by doubling, so read them
    through the attribute at each use.  ``records[row]`` is the row's
    :class:`LayerSummary` at index 0 and ``noise_keys[row]`` its spec's
    ``repr(spec.to_dict())``.

    An addition is all or nothing, even when an exception lands between
    two of its bytecodes, as a cell deadline's ``CellTimeout`` does (a
    signal handler raises it, and the campaign worker goes on to its next
    cell with the same table).  Each addition computes what it stores
    before it stores anything.  A spec or shape is written past the stored
    ones, then stored by one assignment of its id to its key; the next
    addition overwrites what an interrupted one wrote.  A row's appends are
    taken back unless its id is stored under its key too.  Growing the
    columns and filling feature rows can be redone but are never left half
    done.  A layer type is registered on its own, and a type that no row
    has changes no result.  Additions hold a lock, so threads add one at a
    time; reads take none, as they only follow ids that are stored.
    """

    #: Numeric columns and their dtypes.
    COLUMNS = dict(
        type_code=np.int64, out_channels=np.float64, kernel=np.float64, params=np.int64,
        macs=np.int64, output_bytes=np.int64, candidate=np.bool_,
    )

    def __init__(self) -> None:
        self.specs: List[LayerSpec] = []
        self._spec_ids: Dict[tuple, int] = {}
        self._stored: Dict[int, int] = {}  # id() of a stored spec -> its spec id
        self._spec_noise_keys: List[str] = []
        self._shape_ids: Dict[tuple, int] = {}
        self._shapes: List[Shape] = []
        self._rows: List[Dict[int, int]] = []  # per input shape id: spec id -> row
        self._featured = 1  # rows below it have their feature rows
        # per row, from the padding row 0 on
        self.records: List[LayerSummary] = [None]  # type: ignore[list-item]
        self.noise_keys, self.row_specs, self._output_shape_ids = [""], [-1], [-1]
        #: Layer types in order of first appearance (``type_code`` indexes them).
        self.layer_types = [""]
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.zeros(1024, dtype=dtype))
        self._features = np.zeros((FEATURE_WIDTH, 1024))
        self._lock = threading.RLock()  # held to add (reads take none)
        self.spec = lru_cache(maxsize=None, typed=True)(self._build_spec)

    # ------------------------------------------------------------------ specs
    def _build_spec(self, cls, /, **kwargs) -> LayerSpec:
        """``cls(**kwargs)`` as the stored spec of its value; :attr:`spec` memoises it.

        Search spaces build their layers through ``spec``, so construction
        and validation run once per distinct typed call, and equal layers
        of different candidates are one object.
        """
        return self.specs[self.spec_id(cls(**kwargs))]

    def spec_id(self, spec: LayerSpec) -> int:
        """Id of ``spec``'s typed value, storing the spec on first sight."""
        known = self._stored.get(id(spec))
        if known is None:
            values = tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
            key = (type(spec), *_typed(values))
            with self._lock:
                known = self._spec_ids.get(key)
                if known is None:  # all or nothing: see the class docstring
                    known = len(self._spec_ids)
                    self.specs[known:] = [spec]
                    self._spec_noise_keys[known:] = [repr(spec.to_dict())]
                    self._spec_ids[key] = known
                    self._stored[id(spec)] = known
        return known

    def spec_ids(self, layers: Sequence[LayerSpec]) -> List[int]:
        """:meth:`spec_id` of every layer of a stack."""
        stored = self._stored
        ids = [stored.get(id(layer), -1) for layer in layers]
        return ids if -1 not in ids else [self.spec_id(layer) for layer in layers]

    # ------------------------------------------------------------------ rows
    def _shape_id(self, shape: Shape) -> int:
        key = _typed(tuple(shape))
        with self._lock:
            known = self._shape_ids.get(key)
            if known is None:  # all or nothing: see the class docstring
                known = len(self._shape_ids)
                self._shapes[known:], self._rows[known:] = [key[0]], [{}]
                self._shape_ids[key] = known
        return known

    def chain(self, spec_ids: Sequence[int], input_shape: Shape) -> List[int]:
        """Row ids of a stack of stored specs fed ``input_shape``, adding missing rows.

        Each layer's input shape is its predecessor's output shape.  A shape
        error raises the layer's own ``ValueError`` and adds no row.
        """
        rows = self._rows
        output_shape_ids = self._output_shape_ids
        shape = self._shape_id(input_shape)
        chain: List[int] = []
        append = chain.append
        for spec in spec_ids:
            try:
                row = rows[shape][spec]
            except KeyError:  # another thread may add it first
                with self._lock:
                    row = rows[shape].get(spec) or self._add_row(spec, shape)
            append(row)
            shape = output_shape_ids[row]
        return chain

    @property
    def size(self) -> int:
        """Number of rows, the padding row included."""
        return len(self.records)

    def _add_row(self, spec_id: int, shape_id: int) -> int:
        spec = self.specs[spec_id]
        record = summarize_layer(0, spec, self._shapes[shape_id])
        output_shape_id = self._shape_id(record.output_shape)
        if record.layer_type not in self.layer_types:
            self.layer_types.append(record.layer_type)
        row = self.size
        if row == self._features.shape[1]:  # full: grow by doubling, the block last
            for name in self.COLUMNS:
                column = getattr(self, name)
                if row == len(column):  # else an interrupted growth grew it
                    setattr(self, name, np.concatenate([column, np.zeros_like(column)]))
            self._features = np.concatenate([self._features, np.zeros_like(self._features)], 1)
        code, kernel = self.layer_types.index(record.layer_type), getattr(spec, "kernel_size", 0)
        values = (code, record.output_shape[0], kernel, record.params, record.macs,
                  record.output_bytes, record.is_partition_candidate)  # in COLUMNS order
        for name, value in zip(self.COLUMNS, values):  # unread until the row is stored
            getattr(self, name)[row] = value
        per_row = (self.records, self.noise_keys, self.row_specs, self._output_shape_ids)
        values = (record, self._spec_noise_keys[spec_id], spec_id, output_shape_id)
        try:  # all or nothing: see the class docstring
            for column, value in zip(per_row, values):
                column.append(value)
            self._rows[shape_id][spec_id] = row
        except BaseException:
            for column in per_row:
                del column[row:]
            self._rows[shape_id].pop(spec_id, None)
            raise
        return row

    @property
    def features(self) -> np.ndarray:
        """The feature block, with every row's feature row filled in.

        Rows are featurized on the first read after they are added, one
        :func:`~repro.hardware.features.family_feature_matrix` call per
        prediction family.
        """
        with self._lock:
            size = self.size
            if self._featured < size:
                # hardware's feature definition reads nn's summaries, so it is
                # imported on use rather than when nn loads
                from repro.hardware.features import family_feature_matrix, prediction_family

                families: Dict[str, List[int]] = {}
                for row in range(self._featured, size):
                    family = prediction_family(self.records[row].layer_type)
                    families.setdefault(family, []).append(row)
                for family, rows in families.items():
                    matrix = family_feature_matrix(family, [self.records[row] for row in rows])
                    self._features[: matrix.shape[1], rows] = matrix.T
                self._featured = size
            return self._features


#: The process's layer table.
LAYER_TABLE = LayerTable()
