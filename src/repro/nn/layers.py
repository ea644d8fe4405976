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
from typing import Dict, Tuple, Union

from repro.utils.validation import require_in, require_positive

Shape = Tuple[int, ...]

#: Bytes used per activation element when feature maps are transmitted.
#: Single-precision floats, as produced by Caffe/PyTorch inference.
BYTES_PER_ELEMENT = 4

#: Padding modes understood by :class:`Conv2D`.
PADDING_MODES = ("same", "valid")

#: Activation functions the IR records (used by the numpy trainer).
ACTIVATIONS = ("relu", "softmax", "linear")


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


def _product(values) -> int:
    """Left-to-right product, as the cost formulas multiply."""
    result = values[0]
    for value in values[1:]:
        result = result * value
    return result


@dataclass(frozen=True)
class _Convolution(LayerSpec):
    """A convolution over ``spatial`` dimensions with fused activation and optional batch norm.

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

    #: Spatial dimensions, and the input layout error messages name.
    spatial = 2
    layout = "(C, H, W)"

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
        if len(input_shape) != self.spatial + 1:
            raise ValueError(
                f"{type(self).__name__} {self.name!r} expects a {self.layout} "
                f"input, got {input_shape}"
            )
        return (self.out_channels, *map(self._spatial_out, input_shape[1:]))

    def param_count(self, input_shape: Shape) -> int:
        kernel = (self.kernel_size,) * self.spatial
        weights = _product((self.out_channels, input_shape[0], *kernel))
        biases = self.out_channels
        bn = 2 * self.out_channels if self.batch_norm else 0
        return weights + biases + bn

    def macs(self, input_shape: Shape) -> int:
        kernel = (self.kernel_size,) * self.spatial
        return _product((*self.output_shape(input_shape), input_shape[0], *kernel))


class Conv2D(_Convolution):
    """2-D convolution with fused activation and optional batch norm."""

    @property
    def layer_type(self) -> str:
        return "conv"


class Conv1D(_Convolution):
    """1-D convolution over a channels-first sequence, fused like :class:`Conv2D`.

    Inputs are ``(channels, length)`` tuples — sensor streams, audio frames
    or token embeddings.  Cost accounting mirrors :class:`Conv2D` with one
    spatial dimension; the hardware predictors cost the family through the
    shared ``conv`` prediction models (see
    :func:`repro.hardware.features.prediction_family`).
    """

    spatial = 1
    layout = "(C, L)"

    @property
    def layer_type(self) -> str:
        return "conv1d"


@dataclass(frozen=True)
class _MaxPool(LayerSpec):
    """Max pooling over ``spatial`` dimensions.

    The search space uses 2x2 pooling with stride 2; AlexNet uses 3x3 with
    stride 2, both expressible here.
    """

    spatial = 2
    layout = "(C, H, W)"

    pool_size: int = 2
    stride: int = 0  # 0 means "same as pool_size"

    def __post_init__(self) -> None:
        require_positive(self.pool_size, "pool_size")
        if self.stride < 0:
            raise ValueError(f"stride must be >= 0, got {self.stride}")

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride > 0 else self.pool_size

    def output_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != self.spatial + 1:
            raise ValueError(
                f"{type(self).__name__} {self.name!r} expects a {self.layout} "
                f"input, got {input_shape}"
            )
        # Degenerate pooling on tiny inputs collapses to size 1 rather than
        # failing; the search spaces guard against this but reference models
        # on small inputs may legitimately hit it.
        stride = self.effective_stride
        return (
            input_shape[0],
            *(max(1, (size - self.pool_size) // stride + 1) for size in input_shape[1:]),
        )

    def param_count(self, input_shape: Shape) -> int:
        return 0

    def macs(self, input_shape: Shape) -> int:
        # Comparisons, not multiplies; counted as one op per output element
        # per window element so pooling is not free but remains negligible.
        window = (self.pool_size,) * self.spatial
        return _product((element_count(self.output_shape(input_shape)), *window))


class MaxPool2D(_MaxPool):
    """2-D max-pooling layer."""

    @property
    def layer_type(self) -> str:
        return "pool"


class MaxPool1D(_MaxPool):
    """Max-pooling over a channels-first sequence."""

    spatial = 1
    layout = "(C, L)"

    @property
    def layer_type(self) -> str:
        return "pool1d"


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
