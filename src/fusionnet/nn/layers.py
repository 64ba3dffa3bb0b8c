"""Layer descriptions, shape/parameter inference, and forward dispatch.

A network is an ordered list of LayerSpec values. Inception blocks are a
single concat layer whose branches each hold a sub-list of LayerSpecs applied
to the same input. Parameter tensors live in a flat dict keyed by layer path
("L03.conv2d.w", "L00.br1.0.conv2d.b", ...), which is also the on-disk name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

LAYER_KINDS = ("conv2d", "relu", "maxpool2d", "dropout",
               "fully_connected", "concat", "view_maxpool")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    filter_count: int = 0
    filter_size: int = 0
    stride: int = 1
    padding: int = 0
    dropout_rate: float = 0.0
    output_units: int = 0
    branches: tuple[tuple["LayerSpec", ...], ...] = ()

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv2d", "maxpool2d") and self.filter_size < 1:
            raise ValueError(f"{self.kind} needs filter_size >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.kind == "concat" and not self.branches:
            raise ValueError("concat needs at least one branch")


def conv(filters: int, size: int, padding: int = 0, stride: int = 1) -> LayerSpec:
    return LayerSpec("conv2d", filter_count=filters, filter_size=size,
                     stride=stride, padding=padding)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def maxpool(size: int = 2) -> LayerSpec:
    return LayerSpec("maxpool2d", filter_size=size, stride=size)


def dropout(rate: float) -> LayerSpec:
    return LayerSpec("dropout", dropout_rate=rate)


def fc(units: int) -> LayerSpec:
    return LayerSpec("fully_connected", output_units=units)


def inception(*branches: tuple[LayerSpec, ...]) -> LayerSpec:
    return LayerSpec("concat", branches=tuple(tuple(b) for b in branches))


def view_maxpool() -> LayerSpec:
    return LayerSpec("view_maxpool")


def output_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of one sample after the layer (batch axis excluded)."""
    if spec.kind == "conv2d":
        _, h, w = in_shape
        return (spec.filter_count,
                *T._conv_geometry(h, w, spec.filter_size, spec.stride, spec.padding))
    if spec.kind == "maxpool2d":
        c, h, w = in_shape
        if h % spec.filter_size or w % spec.filter_size:
            raise ValueError(f"maxpool2d needs divisible dims, got {in_shape}")
        return (c, h // spec.filter_size, w // spec.filter_size)
    if spec.kind == "fully_connected":
        return (spec.output_units,)
    if spec.kind == "concat":
        outs = []
        for branch in spec.branches:
            shape = in_shape
            for sub in branch:
                shape = output_shape(sub, shape)
            outs.append(shape)
        ref = outs[0]
        if any(o[1:] != ref[1:] for o in outs):
            raise ValueError(f"concat branches disagree on spatial shape: {outs}")
        return (sum(o[0] for o in outs),) + ref[1:]
    return in_shape  # relu, dropout, view_maxpool


def param_shapes(spec: LayerSpec, in_shape: tuple[int, ...],
                 path: str) -> list[tuple[str, tuple[int, ...]]]:
    """Flat (name, shape) list for the layer's parameters, if any."""
    if spec.kind == "conv2d":
        c = in_shape[0]
        k = spec.filter_size
        return [(f"{path}.w", (spec.filter_count, c, k, k)),
                (f"{path}.b", (spec.filter_count,))]
    if spec.kind == "fully_connected":
        fan_in = int(np.prod(in_shape))
        return [(f"{path}.w", (spec.output_units, fan_in)),
                (f"{path}.b", (spec.output_units,))]
    if spec.kind == "concat":
        out = []
        for bi, branch in enumerate(spec.branches):
            shape = in_shape
            for si, sub in enumerate(branch):
                out.extend(param_shapes(sub, shape, f"{path}.br{bi}.{si}.{sub.kind}"))
                shape = output_shape(sub, shape)
        return out
    return []


def layer_path(index: int, spec: LayerSpec) -> str:
    return f"L{index:02d}.{spec.kind}"


def param_count(spec: LayerSpec, in_shape: tuple[int, ...]) -> int:
    return sum(int(np.prod(shape)) for _, shape in param_shapes(spec, in_shape, "x"))


def init_param(shape: tuple[int, ...], rng: np.random.Generator, dtype) -> np.ndarray:
    """He-normal weights over the fan-in shape[1:], zero biases (1-D shapes)."""
    if len(shape) == 1:
        return np.zeros(shape, dtype=dtype)
    std = np.sqrt(2.0 / int(np.prod(shape[1:])))
    return (rng.normal(0.0, std, size=shape)).astype(dtype)


def apply_layer(spec: LayerSpec, x: T.Tensor, params: dict[str, T.Tensor], path: str,
                training: bool, rng: np.random.Generator | None) -> T.Tensor:
    """Run one layer. view_maxpool is the identity here: the multi-view
    pooling point is handled by the network-level forward, which splits the
    layer list at that marker."""
    if spec.kind == "conv2d":
        return T.conv2d(x, params[f"{path}.w"], params[f"{path}.b"],
                        stride=spec.stride, padding=spec.padding)
    if spec.kind == "relu":
        return T.relu(x)
    if spec.kind == "maxpool2d":
        return T.maxpool2d(x, size=spec.filter_size)
    if spec.kind == "dropout":
        if not training or spec.dropout_rate == 0.0:
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = T.make_dropout_mask(rng, x.shape, spec.dropout_rate)
        return T.dropout(x, mask, spec.dropout_rate)
    if spec.kind == "fully_connected":
        return T.fully_connected(x, params[f"{path}.w"], params[f"{path}.b"])
    if spec.kind == "concat":
        parts = []
        for bi, branch in enumerate(spec.branches):
            y = x
            for si, sub in enumerate(branch):
                y = apply_layer(sub, y, params, f"{path}.br{bi}.{si}.{sub.kind}",
                                training, rng)
            parts.append(y)
        return T.concat(parts, axis=1)
    if spec.kind == "view_maxpool":
        return x
    raise ValueError(f"unknown layer kind {spec.kind!r}")
