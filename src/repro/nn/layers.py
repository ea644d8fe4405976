"""Layer specifications for the neural-network intermediate representation.

The NAS never instantiates weight tensors while searching: it only needs, for
every layer of a candidate architecture, the *shape* of its output feature
map, its parameter count, its arithmetic cost (multiply-accumulate
operations), and the number of bytes its output occupies when shipped over a
wireless link.  The classes in this module capture exactly that information.

Shapes follow the channels-first convention used throughout the library:

* 2-D convolutional feature maps are ``(channels, height, width)`` tuples,
* 1-D sequence feature maps are ``(channels, length)`` tuples,
* flattened / fully-connected activations are ``(features,)`` tuples.

Activation and batch-normalisation operations are *fused* into their preceding
layer, mirroring the treatment in the paper's motivational example ("any
activation or normalization layers ... are fused with their preceding layers
as they incur relatively small latency, and the size of feature maps does not
change between them").
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, Tuple, Type, TypeVar, Union

from repro.utils.validation import require_in, require_positive

Shape = Tuple[int, ...]

#: Bytes used per activation element when feature maps are transmitted.
#: Single-precision floats, as produced by Caffe/PyTorch inference.
BYTES_PER_ELEMENT = 4

#: Padding modes understood by :class:`Conv2D`.
PADDING_MODES = ("same", "valid")

#: Activation functions the IR records (used by the numpy trainer).
ACTIVATIONS = ("relu", "softmax", "linear")

#: Bound of the per-layer memos (:func:`interned` and the surrogate's noise
#: key).  The three registered search spaces hold ~670 distinct layer specs.
LAYER_MEMO_SIZE = 4096


def element_count(shape: Shape) -> int:
    """Number of scalar elements in a feature map of the given shape."""
    count = 1
    for dim in shape:
        count *= int(dim)
    return count


def shape_bytes(shape: Shape, bytes_per_element: int = BYTES_PER_ELEMENT) -> int:
    """Size in bytes of a feature map of the given shape."""
    return element_count(shape) * bytes_per_element


@dataclass(frozen=True)
class LayerSpec:
    """Base class for all layer specifications.

    Sub-classes must implement :meth:`output_shape`, :meth:`param_count` and
    :meth:`macs`; the generic helpers (:meth:`flops`, :meth:`output_bytes`,
    :meth:`weight_bytes`) are derived from those.
    """

    name: str

    @property
    def layer_type(self) -> str:
        """Short lowercase identifier for the layer family (``conv``, ``fc`` ...)."""
        raise NotImplementedError

    @property
    def is_partition_candidate(self) -> bool:
        """Whether the layer's output boundary may serve as an edge/cloud split.

        Every layer that produces an activation tensor is a candidate; purely
        structural layers (e.g. :class:`Flatten`) are excluded because their
        output is byte-identical to their input.
        """
        return True

    def output_shape(self, input_shape: Shape) -> Shape:
        """Shape of the layer output given ``input_shape``."""
        raise NotImplementedError

    def param_count(self, input_shape: Shape) -> int:
        """Number of trainable parameters."""
        raise NotImplementedError

    def macs(self, input_shape: Shape) -> int:
        """Multiply-accumulate operations for a single input sample."""
        raise NotImplementedError

    def flops(self, input_shape: Shape) -> int:
        """Floating-point operations (2 per multiply-accumulate)."""
        return 2 * self.macs(input_shape)

    def output_bytes(self, input_shape: Shape) -> int:
        """Bytes occupied by the layer's output activation tensor."""
        return shape_bytes(self.output_shape(input_shape))

    def weight_bytes(self, input_shape: Shape) -> int:
        """Bytes occupied by the layer's parameters."""
        return self.param_count(input_shape) * BYTES_PER_ELEMENT

    def to_dict(self) -> Dict:
        """Serialisable description of the layer."""
        data = {"layer_type": self.layer_type}
        for fld in fields(self):
            data[fld.name] = getattr(self, fld.name)
        return data


@dataclass(frozen=True)
class Conv2D(LayerSpec):
    """2-D convolution with fused activation and optional batch norm.

    Parameters
    ----------
    out_channels:
        Number of output filters.
    kernel_size:
        Side length of the (square) kernel.
    stride:
        Spatial stride; 1 in the VGG-derived search space.
    padding:
        ``"same"`` keeps the spatial size (for stride 1), ``"valid"`` applies
        no padding, or an explicit integer number of padding pixels per side
        (needed by reference models such as AlexNet's conv1).
    activation:
        Fused activation function, ``"relu"`` by default.
    batch_norm:
        Whether a fused batch-normalisation follows the convolution (adds
        2 * out_channels parameters, negligible compute).
    """

    out_channels: int = 64
    kernel_size: int = 3
    stride: int = 1
    padding: Union[int, str] = "same"
    activation: str = "relu"
    batch_norm: bool = False

    def __post_init__(self) -> None:
        require_positive(self.out_channels, "out_channels")
        require_positive(self.kernel_size, "kernel_size")
        require_positive(self.stride, "stride")
        if isinstance(self.padding, str):
            require_in(self.padding, PADDING_MODES, "padding")
        elif isinstance(self.padding, (int,)) and not isinstance(self.padding, bool):
            if self.padding < 0:
                raise ValueError(f"padding must be >= 0, got {self.padding}")
        else:
            raise TypeError(
                f"padding must be 'same', 'valid' or a non-negative int, got {self.padding!r}"
            )
        require_in(self.activation, ACTIVATIONS, "activation")

    @property
    def layer_type(self) -> str:
        return "conv"

    @property
    def padding_pixels(self) -> int:
        """Explicit per-side padding implied by the padding setting.

        For ``"same"`` this is the padding that keeps the spatial size at
        stride 1 (``(kernel - 1) // 2``); for ``"valid"`` it is zero.
        """
        if isinstance(self.padding, str):
            return (self.kernel_size - 1) // 2 if self.padding == "same" else 0
        return int(self.padding)

    def _spatial_out(self, size: int) -> int:
        if self.padding == "same":
            return max(1, -(-size // self.stride))  # ceil division
        pad = self.padding_pixels
        out = (size + 2 * pad - self.kernel_size) // self.stride + 1
        if out < 1:
            raise ValueError(
                f"layer {self.name!r}: kernel {self.kernel_size} does not fit "
                f"input spatial size {size} with padding {pad}"
            )
        return out

    def output_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 3:
            raise ValueError(
                f"Conv2D {self.name!r} expects a (C, H, W) input, got {input_shape}"
            )
        _, height, width = input_shape
        return (self.out_channels, self._spatial_out(height), self._spatial_out(width))

    def param_count(self, input_shape: Shape) -> int:
        in_channels = input_shape[0]
        weights = self.out_channels * in_channels * self.kernel_size * self.kernel_size
        biases = self.out_channels
        bn = 2 * self.out_channels if self.batch_norm else 0
        return weights + biases + bn

    def macs(self, input_shape: Shape) -> int:
        in_channels = input_shape[0]
        out_c, out_h, out_w = self.output_shape(input_shape)
        return out_c * out_h * out_w * in_channels * self.kernel_size * self.kernel_size


@dataclass(frozen=True)
class MaxPool2D(LayerSpec):
    """Max-pooling layer.

    The search space uses 2x2 pooling with stride 2; AlexNet uses 3x3 with
    stride 2, both expressible here.
    """

    pool_size: int = 2
    stride: int = 0  # 0 means "same as pool_size"

    def __post_init__(self) -> None:
        require_positive(self.pool_size, "pool_size")
        if self.stride < 0:
            raise ValueError(f"stride must be >= 0, got {self.stride}")

    @property
    def layer_type(self) -> str:
        return "pool"

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride > 0 else self.pool_size

    def output_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 3:
            raise ValueError(
                f"MaxPool2D {self.name!r} expects a (C, H, W) input, got {input_shape}"
            )
        channels, height, width = input_shape
        stride = self.effective_stride
        out_h = (height - self.pool_size) // stride + 1
        out_w = (width - self.pool_size) // stride + 1
        if out_h < 1 or out_w < 1:
            # Degenerate pooling on tiny inputs collapses to a 1x1 map rather
            # than failing; the search space guards against this but reference
            # models on small inputs may legitimately hit it.
            out_h = max(1, out_h)
            out_w = max(1, out_w)
        return (channels, out_h, out_w)

    def param_count(self, input_shape: Shape) -> int:
        return 0

    def macs(self, input_shape: Shape) -> int:
        # Comparisons, not multiplies; counted as one op per output element
        # per window element so pooling is not free but remains negligible.
        out = self.output_shape(input_shape)
        return element_count(out) * self.pool_size * self.pool_size


@dataclass(frozen=True)
class Conv1D(LayerSpec):
    """1-D convolution over a channels-first sequence, fused like :class:`Conv2D`.

    Inputs are ``(channels, length)`` tuples — sensor streams, audio frames
    or token embeddings.  Cost accounting mirrors :class:`Conv2D` with one
    spatial dimension; the hardware predictors cost the family through the
    shared ``conv`` prediction models (see
    :func:`repro.hardware.features.prediction_family`).
    """

    out_channels: int = 64
    kernel_size: int = 3
    stride: int = 1
    padding: Union[int, str] = "same"
    activation: str = "relu"
    batch_norm: bool = False

    def __post_init__(self) -> None:
        require_positive(self.out_channels, "out_channels")
        require_positive(self.kernel_size, "kernel_size")
        require_positive(self.stride, "stride")
        if isinstance(self.padding, str):
            require_in(self.padding, PADDING_MODES, "padding")
        elif isinstance(self.padding, int) and not isinstance(self.padding, bool):
            if self.padding < 0:
                raise ValueError(f"padding must be >= 0, got {self.padding}")
        else:
            raise TypeError(
                f"padding must be 'same', 'valid' or a non-negative int, got {self.padding!r}"
            )
        require_in(self.activation, ACTIVATIONS, "activation")

    @property
    def layer_type(self) -> str:
        return "conv1d"

    @property
    def padding_elements(self) -> int:
        """Explicit per-side padding implied by the padding setting."""
        if isinstance(self.padding, str):
            return (self.kernel_size - 1) // 2 if self.padding == "same" else 0
        return int(self.padding)

    def _length_out(self, length: int) -> int:
        if self.padding == "same":
            return max(1, -(-length // self.stride))  # ceil division
        pad = self.padding_elements
        out = (length + 2 * pad - self.kernel_size) // self.stride + 1
        if out < 1:
            raise ValueError(
                f"layer {self.name!r}: kernel {self.kernel_size} does not fit "
                f"input length {length} with padding {pad}"
            )
        return out

    def output_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 2:
            raise ValueError(
                f"Conv1D {self.name!r} expects a (C, L) input, got {input_shape}"
            )
        _, length = input_shape
        return (self.out_channels, self._length_out(length))

    def param_count(self, input_shape: Shape) -> int:
        in_channels = input_shape[0]
        weights = self.out_channels * in_channels * self.kernel_size
        biases = self.out_channels
        bn = 2 * self.out_channels if self.batch_norm else 0
        return weights + biases + bn

    def macs(self, input_shape: Shape) -> int:
        in_channels = input_shape[0]
        out_c, out_l = self.output_shape(input_shape)
        return out_c * out_l * in_channels * self.kernel_size


@dataclass(frozen=True)
class MaxPool1D(LayerSpec):
    """Max-pooling over a channels-first sequence."""

    pool_size: int = 2
    stride: int = 0  # 0 means "same as pool_size"

    def __post_init__(self) -> None:
        require_positive(self.pool_size, "pool_size")
        if self.stride < 0:
            raise ValueError(f"stride must be >= 0, got {self.stride}")

    @property
    def layer_type(self) -> str:
        return "pool1d"

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride > 0 else self.pool_size

    def output_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 2:
            raise ValueError(
                f"MaxPool1D {self.name!r} expects a (C, L) input, got {input_shape}"
            )
        channels, length = input_shape
        out_l = (length - self.pool_size) // self.effective_stride + 1
        # Degenerate pooling on short sequences collapses to length 1 rather
        # than failing, matching the 2-D pooling behaviour on tiny inputs.
        return (channels, max(1, out_l))

    def param_count(self, input_shape: Shape) -> int:
        return 0

    def macs(self, input_shape: Shape) -> int:
        # One comparison per output element per window element, as in 2-D.
        return element_count(self.output_shape(input_shape)) * self.pool_size


@dataclass(frozen=True)
class Flatten(LayerSpec):
    """Reshape a (C, H, W) feature map into a flat feature vector."""

    @property
    def layer_type(self) -> str:
        return "flatten"

    @property
    def is_partition_candidate(self) -> bool:
        return False

    def output_shape(self, input_shape: Shape) -> Shape:
        return (element_count(input_shape),)

    def param_count(self, input_shape: Shape) -> int:
        return 0

    def macs(self, input_shape: Shape) -> int:
        return 0


@dataclass(frozen=True)
class Dense(LayerSpec):
    """Fully-connected layer with fused activation."""

    units: int = 4096
    activation: str = "relu"

    def __post_init__(self) -> None:
        require_positive(self.units, "units")
        require_in(self.activation, ACTIVATIONS, "activation")

    @property
    def layer_type(self) -> str:
        return "fc"

    def output_shape(self, input_shape: Shape) -> Shape:
        return (self.units,)

    def _in_features(self, input_shape: Shape) -> int:
        return element_count(input_shape)

    def param_count(self, input_shape: Shape) -> int:
        return self._in_features(input_shape) * self.units + self.units

    def macs(self, input_shape: Shape) -> int:
        return self._in_features(input_shape) * self.units


@dataclass(frozen=True)
class Dropout(LayerSpec):
    """Dropout regularisation layer (no inference-time cost or shape change)."""

    rate: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate < 1.0):
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")

    @property
    def layer_type(self) -> str:
        return "dropout"

    @property
    def is_partition_candidate(self) -> bool:
        return False

    def output_shape(self, input_shape: Shape) -> Shape:
        return tuple(input_shape)

    def param_count(self, input_shape: Shape) -> int:
        return 0

    def macs(self, input_shape: Shape) -> int:
        return 0


LayerT = TypeVar("LayerT", bound=LayerSpec)


@lru_cache(maxsize=LAYER_MEMO_SIZE, typed=True)
def interned(cls: Type[LayerT], /, **kwargs) -> LayerT:
    """The shared instance of ``cls(**kwargs)``.

    Search spaces build their layers through this constructor, so equal
    layers of different candidates are one object: construction and
    validation run once per distinct layer, and the value-keyed layer memos
    (:func:`repro.nn.architecture.layer_summary`, the accuracy surrogate's
    noise key) find their entries by identity.  ``typed`` keys keep ``64``
    and ``64.0`` apart.
    """
    return cls(**kwargs)


LAYER_CLASSES = {
    "conv": Conv2D,
    "conv1d": Conv1D,
    "pool": MaxPool2D,
    "pool1d": MaxPool1D,
    "flatten": Flatten,
    "fc": Dense,
    "dropout": Dropout,
}


def layer_from_dict(data: Dict) -> LayerSpec:
    """Reconstruct a layer spec from :meth:`LayerSpec.to_dict` output."""
    data = dict(data)
    layer_type = data.pop("layer_type", None)
    if layer_type not in LAYER_CLASSES:
        raise ValueError(f"unknown layer type {layer_type!r}")
    return LAYER_CLASSES[layer_type](**data)
