"""Neural-network intermediate representation and search-space definitions."""

from repro.nn.alexnet import build_alexnet
from repro.nn.architecture import Architecture, LayerSummary
from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.graph import INPUT_NODE, PartitionGraph, SkipEdge, normalize_skip_edges
from repro.nn.layers import (
    BYTES_PER_ELEMENT,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LayerSpec,
    MaxPool1D,
    MaxPool2D,
    element_count,
    layer_from_dict,
    shape_bytes,
)
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.search_space import LensSearchSpace, SeqConv1DSearchSpace
from repro.nn.spaces import DEFAULT_SEARCH_SPACE, EncodedSearchSpace
from repro.nn.vgg import build_vgg16, build_vgg_like

__all__ = [
    "Architecture",
    "LayerSummary",
    "EncodingScheme",
    "Gene",
    "INPUT_NODE",
    "PartitionGraph",
    "SkipEdge",
    "normalize_skip_edges",
    "BYTES_PER_ELEMENT",
    "Conv1D",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "LayerSpec",
    "MaxPool1D",
    "MaxPool2D",
    "element_count",
    "layer_from_dict",
    "shape_bytes",
    "DEFAULT_SEARCH_SPACE",
    "EncodedSearchSpace",
    "LensSearchSpace",
    "ResNetSearchSpace",
    "SeqConv1DSearchSpace",
    "build_alexnet",
    "build_vgg16",
    "build_vgg_like",
]
