"""The paper's benchmark networks (Table III).

==============  =========  ==========  =============
Model           Batchsize  Footprint   Variant
==============  =========  ==========  =============
DenseNet 264    1536       526 GB      large
ResNet 200      2048       529 GB      large
VGG 416         256        520 GB      large
DenseNet 264    504        ~173 GB     small
ResNet 200      640        ~165 GB     small
VGG 116         320        ~175 GB     small
==============  =========  ==========  =============

Architectures follow the cited references: ResNet 200 is the [3, 24, 36, 3]
bottleneck network of He et al.; DenseNet 264 is the (6, 12, 64, 48) growth-32
bottleneck-compression network of Huang et al.; VGG 416 is vDNN's extension
of VGG-16 (the same five-stage layout with many more convolutions per
stage). Where the paper's Julia implementation details are unknowable (which
norm/activation outputs are materialised separately, how VGG's 416 layers
spread over the stages), we pick the option that reproduces the reported
footprint — the choices and measured footprints are listed in
EXPERIMENTS.md, and ``tests/nn/test_models.py`` pins them to Table III
within tolerance.

``conv_read_factor`` is the per-model traffic-calibration knob: VGG's
spatially-large, small-batch convolutions re-read their inputs more across
oneDNN's cache-blocked loops, making VGG kernels "more sensitive to read
bandwidth" (Section V-c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.nn.graph import GraphBuilder, TensorHandle
from repro.units import GB

__all__ = [
    "ModelSpec",
    "vgg",
    "resnet200",
    "densenet264",
    "MODEL_REGISTRY",
]

# VGG conv counts per stage (stages at 224/112/56/28/14 spatial resolution).
# Chosen so the Table III footprints come out right; total convs = the name.
VGG416_STAGES = (60, 110, 130, 80, 36)
VGG116_STAGES = (16, 28, 36, 26, 10)
VGG16_STAGES = (2, 2, 3, 3, 3)

_STAGE_CHANNELS = (64, 128, 256, 512, 512)


def vgg(
    stages: tuple[int, int, int, int, int],
    batch: int,
    *,
    name: str = "VGG",
    conv_read_factor: float = 4.0,
    read_sensitivity: float = 1.0,
) -> GraphBuilder:
    """A VGG-family network: per-stage conv stacks + pool, then FC head."""
    if len(stages) != 5 or any(s < 1 for s in stages):
        raise ConfigurationError(f"VGG needs five positive stage counts: {stages}")
    g = GraphBuilder(
        batch,
        name=name,
        conv_read_factor=conv_read_factor,
        read_sensitivity=read_sensitivity,
    )
    x = g.input
    for count, channels in zip(stages, _STAGE_CHANNELS):
        for _ in range(count):
            x = g.conv(x, channels, kernel=3)
        x = g.pool(x, 2)
    x = g.global_pool(x)
    x = g.linear(x, 4096)
    x = g.linear(x, 4096)
    g.classifier(x)
    return g


def resnet200(
    batch: int,
    *,
    name: str = "ResNet200",
    conv_read_factor: float = 1.0,
) -> GraphBuilder:
    """ResNet-200: bottleneck blocks [3, 24, 36, 3], expansion 4.

    Each bottleneck materialises its three conv outputs (conv+bn+relu fused,
    as oneDNN post-ops) plus the residual-add output, and the post-add
    activation is materialised separately — the combination that lands the
    529 GB Table III footprint at batch 2048.
    """
    g = GraphBuilder(batch, name=name, conv_read_factor=conv_read_factor)
    x = g.conv(g.input, 64, kernel=7, stride=2, padding=3)
    x = g.pool(x, 3, stride=2)

    def bottleneck(x: TensorHandle, mid: int, stride: int) -> TensorHandle:
        out_channels = mid * 4
        shortcut = x
        if stride != 1 or x.shape[1] != out_channels:
            shortcut = g.conv(x, out_channels, kernel=1, stride=stride)
        y = g.conv(x, mid, kernel=1)
        y = g.conv(y, mid, kernel=3, stride=stride)
        y = g.conv(y, out_channels, kernel=1)
        y = g.add(y, shortcut)
        return g.norm_act(y)

    for mid, blocks, first_stride in (
        (64, 3, 1),
        (128, 24, 2),
        (256, 36, 2),
        (512, 3, 2),
    ):
        for index in range(blocks):
            x = bottleneck(x, mid, first_stride if index == 0 else 1)
    x = g.global_pool(x)
    g.classifier(x)
    return g


def densenet264(
    batch: int,
    *,
    name: str = "DenseNet264",
    growth: int = 32,
    compression: float = 1.0,
    conv_read_factor: float = 1.0,
) -> GraphBuilder:
    """DenseNet-264: blocks (6, 12, 64, 48), growth 32.

    Dense layers are bottlenecked (1x1 to 4k channels, then 3x3 to k). The
    concatenated layer input is materialised per layer — the memory-naive
    implementation, which is what drives DenseNet's large footprint — with a
    separate norm-act output ahead of the bottleneck. Transitions do not
    compress channels (``compression=1.0``): that is the variant whose
    footprint matches Table III's 526 GB at batch 1536 (the DenseNet-BC
    compression of 0.5 lands near 330 GB, far from the paper's number).
    """
    if not 0.0 < compression <= 1.0:
        raise ConfigurationError(f"compression must be in (0, 1], got {compression}")
    g = GraphBuilder(batch, name=name, conv_read_factor=conv_read_factor)
    x = g.conv(g.input, 2 * growth, kernel=7, stride=2, padding=3)
    x = g.pool(x, 3, stride=2)
    for block_index, layers in enumerate((6, 12, 64, 48)):
        features = [x]
        for _ in range(layers):
            inp = g.concat(features) if len(features) > 1 else features[0]
            y = g.norm_act(inp)
            y = g.conv(y, 4 * growth, kernel=1)
            y = g.conv(y, growth, kernel=3)
            features.append(y)
        x = g.concat(features)
        if block_index < 3:  # transition: 1x1 conv and halve the spatial dims
            x = g.conv(x, max(growth, int(x.shape[1] * compression)), kernel=1)
            x = g.pool(x, 2)
    x = g.global_pool(x)
    g.classifier(x)
    return g


@dataclass(frozen=True)
class ModelSpec:
    """One Table III row: how to build the network and what the paper says."""

    key: str
    model: str
    batch: int
    builder: Callable[[], GraphBuilder]
    paper_footprint: int | None  # bytes; None where Table III gives no number
    size_class: str  # "large" | "small"


def _spec(
    key: str,
    model: str,
    batch: int,
    builder: Callable[[int], GraphBuilder],
    footprint_gb: float | None,
    size_class: str,
) -> ModelSpec:
    return ModelSpec(
        key=key,
        model=model,
        batch=batch,
        builder=lambda: builder(batch),
        paper_footprint=int(footprint_gb * GB) if footprint_gb else None,
        size_class=size_class,
    )


MODEL_REGISTRY: dict[str, ModelSpec] = {
    spec.key: spec
    for spec in (
        _spec(
            "densenet264-large", "DenseNet 264", 1536,
            lambda b: densenet264(b), 526, "large",
        ),
        _spec(
            "resnet200-large", "ResNet 200", 2048,
            lambda b: resnet200(b), 529, "large",
        ),
        _spec(
            "vgg416-large", "VGG 416", 256,
            lambda b: vgg(VGG416_STAGES, b, name="VGG416"), 520, "large",
        ),
        _spec(
            "densenet264-small", "DenseNet 264", 504,
            lambda b: densenet264(b), None, "small",
        ),
        _spec(
            "resnet200-small", "ResNet 200", 640,
            lambda b: resnet200(b), None, "small",
        ),
        _spec(
            "vgg116-small", "VGG 116", 320,
            lambda b: vgg(VGG116_STAGES, b, name="VGG116"), None, "small",
        ),
    )
}
