"""The three classifiers: two volumetric CNNs and the multi-view image CNN.

Networks are declarative layer lists (see nn.layers). The volumetric nets
consume a 30-cell voxel grid as a 30-channel 2D image so the first
convolution correlates along the full depth axis. The view_maxpool layer is
a marker: per-sample training treats it as identity, while multi-view
evaluation splits the layer list there, pools the per-view features neuron
by neuron, and feeds the pooled vector to the remaining layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import layers as L
from .nn import tensor as T
from .nn.weights import WeightsError

VOXEL_INPUT_SHAPE = (30, 30, 30)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[L.LayerSpec, ...]
    class_count: int
    freeze_below: int | None = None

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        markers = sum(1 for s in self.layers if s.kind == "view_maxpool")
        if markers > 1:
            raise ValueError("at most one view_maxpool layer is allowed")
        shapes = self.output_shapes()  # raises on incompatible consecutive shapes
        if shapes[-1] != (self.class_count,):
            raise ValueError(
                f"final layer must output {self.class_count} units, got {shapes[-1]}")

    def output_shapes(self) -> list[tuple[int, ...]]:
        out = []
        shape: tuple[int, ...] = self.input_shape
        for spec in self.layers:
            shape = L.output_shape(spec, shape)
            out.append(shape)
        return out

    def param_entries(self) -> list[tuple[str, tuple[int, ...]]]:
        entries = []
        shape: tuple[int, ...] = self.input_shape
        for i, spec in enumerate(self.layers):
            entries.extend(L.param_shapes(spec, shape, L.layer_path(i, spec)))
            shape = L.output_shape(spec, shape)
        return entries

    def param_count(self) -> int:
        return sum(int(np.prod(s)) for _, s in self.param_entries())

    def layer_param_counts(self) -> list[int]:
        counts = []
        shape: tuple[int, ...] = self.input_shape
        for spec in self.layers:
            counts.append(L.param_count(spec, shape))
            shape = L.output_shape(spec, shape)
        return counts

    def pool_index(self) -> int | None:
        for i, spec in enumerate(self.layers):
            if spec.kind == "view_maxpool":
                return i
        return None


def build_vcnn1(class_count: int) -> NetworkSpec:
    """Plain volumetric net: two conv stages, one hidden fc, ~3.5M params."""
    return NetworkSpec(
        name="vcnn1",
        input_shape=VOXEL_INPUT_SHAPE,
        layers=(
            L.conv(64, 3),
            L.relu(),
            L.maxpool(2),
            L.conv(64, 3),
            L.relu(),
            L.conv(64, 3),
            L.maxpool(2),
            L.dropout(0.5),
            L.fc(2048),
            L.view_maxpool(),
            L.fc(class_count),
        ),
        class_count=class_count,
    )


def build_vcnn2(class_count: int) -> NetworkSpec:
    """Inception-style volumetric net with multi-scale filters, ~55M params."""
    return NetworkSpec(
        name="vcnn2",
        input_shape=VOXEL_INPUT_SHAPE,
        layers=(
            L.inception((L.conv(20, 1),),
                        (L.conv(20, 3, padding=1),),
                        (L.conv(20, 5, padding=2),)),
            L.relu(),
            L.dropout(0.2),
            L.inception((L.conv(30, 1),),
                        (L.conv(30, 3, padding=1),)),
            L.relu(),
            L.dropout(0.3),
            L.conv(30, 3, padding=1),
            L.relu(),
            L.dropout(0.5),
            L.fc(2048),
            L.view_maxpool(),
            L.fc(class_count),
        ),
        class_count=class_count,
    )


def build_mvnet(class_count: int, image_size: int = 64) -> NetworkSpec:
    """Small from-scratch image CNN with cross-view max pooling before the
    score layer; freeze_below targets the first fc for fine-tuning."""
    if image_size < 32:
        raise ValueError(f"image_size must be >= 32, got {image_size}")
    if image_size % 8:
        raise ValueError(f"image_size must be divisible by 8, got {image_size}")
    return NetworkSpec(
        name="mvnet",
        input_shape=(3, image_size, image_size),
        layers=(
            L.conv(16, 3, padding=1),
            L.relu(),
            L.maxpool(2),
            L.conv(32, 3, padding=1),
            L.relu(),
            L.maxpool(2),
            L.conv(64, 3, padding=1),
            L.relu(),
            L.maxpool(2),
            L.fc(512),
            L.view_maxpool(),
            L.fc(class_count),
        ),
        class_count=class_count,
    )


BUILDERS = {"vcnn1": build_vcnn1, "vcnn2": build_vcnn2, "mvnet": build_mvnet}


def _frozen_paths(spec: NetworkSpec) -> set[str]:
    if spec.freeze_below is None:
        return set()
    out = set()
    for name, _ in spec.param_entries():
        idx = int(name.split(".", 1)[0][1:])
        if idx < spec.freeze_below:
            out.add(name)
    return out


class Network:
    """A NetworkSpec bound to parameter tensors."""

    def __init__(self, spec: NetworkSpec, params: dict[str, T.Tensor]):
        self.spec = spec
        self.params = params
        expected = dict(spec.param_entries())
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params)) + sorted(set(params) - set(expected))
            raise WeightsError(f"parameter set mismatch, first offender {missing[0]!r}")
        for name, shape in expected.items():
            if tuple(params[name].shape) != shape:
                raise WeightsError(
                    f"layer {name}: expected shape {shape}, got {tuple(params[name].shape)}")
        for name in _frozen_paths(spec):
            params[name].requires_grad = False

    @classmethod
    def initialize(cls, spec: NetworkSpec, seed: int, dtype=np.float32) -> "Network":
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in spec.param_entries():
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else 1
            params[name] = T.Tensor(L.init_param(shape, fan_in, rng, dtype),
                                    requires_grad=True)
        return cls(spec, params)

    @classmethod
    def from_arrays(cls, spec: NetworkSpec, arrays: dict[str, np.ndarray],
                    dtype=np.float32) -> "Network":
        expected = dict(spec.param_entries())
        params = {}
        for name, shape in expected.items():
            if name not in arrays:
                raise WeightsError(f"layer {name}: missing from weights")
            arr = arrays[name]
            if tuple(arr.shape) != shape:
                raise WeightsError(
                    f"layer {name}: expected shape {shape}, got {tuple(arr.shape)}")
            # a copy: training updates parameters in place, never the caller's arrays
            params[name] = T.Tensor(np.array(arr, dtype=dtype), requires_grad=True)
        return cls(spec, params)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data, copy=True) for name, p in self.params.items()}

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> T.Tensor:
        """Per-sample scores (N, class_count); view_maxpool is skipped."""
        y = T.Tensor(x, requires_grad=False)
        for i, spec in enumerate(self.spec.layers):
            y = L.apply_layer(spec, y, self.params, L.layer_path(i, spec),
                              training, rng)
        return y

    def forward_views(self, views: np.ndarray) -> np.ndarray:
        """Class scores (class_count,) of one model from a (V, ...) stack of
        its views: run the shared trunk per view, max-pool features across
        views, finish with the remaining layers."""
        if len(views) == 0:
            raise ValueError("forward_views needs at least one view")
        pool = self.spec.pool_index()
        if pool is None:
            raise ValueError(f"{self.spec.name} has no view_maxpool layer")
        y = T.Tensor(np.asarray(views))
        for i, spec in enumerate(self.spec.layers[:pool]):
            y = L.apply_layer(spec, y, self.params, L.layer_path(i, spec),
                              training=False, rng=None)
        y = T.view_maxpool(y)
        for j, spec in enumerate(self.spec.layers[pool + 1:]):
            i = pool + 1 + j
            y = L.apply_layer(spec, y, self.params, L.layer_path(i, spec),
                              training=False, rng=None)
        return y.data.reshape(-1)


def _final_fc_index(spec: NetworkSpec) -> int:
    for i in range(len(spec.layers) - 1, -1, -1):
        if spec.layers[i].kind == "fully_connected":
            return i
    raise ValueError(f"{spec.name} has no fully connected layer")


def adapt_head(spec: NetworkSpec, arrays: dict[str, np.ndarray],
               new_class_count: int, seed: int,
               freeze_below: int | None = None,
               dtype=np.float32) -> tuple[NetworkSpec, dict[str, np.ndarray]]:
    """Reuse all trained weights below the score layer; reinitialize the
    score layer for a new class count."""
    head = _final_fc_index(spec)
    expected = dict(spec.param_entries())
    for name, shape in expected.items():
        if name not in arrays:
            raise WeightsError(f"layer {name}: missing from weights")
        if tuple(arrays[name].shape) != shape:
            raise WeightsError(
                f"layer {name}: expected shape {shape}, got {tuple(arrays[name].shape)}")
    new_layers = list(spec.layers)
    new_layers[head] = L.fc(new_class_count)
    new_spec = replace(spec, layers=tuple(new_layers), class_count=new_class_count,
                       freeze_below=freeze_below)
    head_prefix = L.layer_path(head, spec.layers[head])
    out = {name: np.array(arr, copy=True) for name, arr in arrays.items()
           if not name.startswith(head_prefix + ".")}
    rng = np.random.default_rng(seed)
    for name, shape in new_spec.param_entries():
        if name.startswith(head_prefix + "."):
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else 1
            out[name] = L.init_param(shape, fan_in, rng, dtype)
    return new_spec, out


def _format_layer(spec: L.LayerSpec) -> str:
    if spec.kind == "conv2d":
        return (f"conv2d filters={spec.filter_count} size={spec.filter_size} "
                f"stride={spec.stride} pad={spec.padding}")
    if spec.kind == "maxpool2d":
        return f"maxpool2d size={spec.filter_size}"
    if spec.kind == "dropout":
        return f"dropout rate={spec.dropout_rate:g}"
    if spec.kind == "fully_connected":
        return f"fully_connected units={spec.output_units}"
    return spec.kind


def spec_manifest(spec: NetworkSpec) -> str:
    """Human-readable architecture listing, stable for textual diffing."""
    lines = [f"network {spec.name}",
             f"input {'x'.join(str(d) for d in spec.input_shape)}",
             f"classes {spec.class_count}"]
    if spec.freeze_below is not None:
        lines.append(f"freeze_below {spec.freeze_below}")
    shape: tuple[int, ...] = spec.input_shape
    for i, layer in enumerate(spec.layers):
        out = L.output_shape(layer, shape)
        count = L.param_count(layer, shape)
        head = f"L{i:02d} {_format_layer(layer)}"
        tail = f" -> {'x'.join(str(d) for d in out)}"
        if count:
            tail += f" params={count}"
        lines.append(head + tail)
        if layer.kind == "concat":
            for bi, branch in enumerate(layer.branches):
                bshape = shape
                for si, sub in enumerate(branch):
                    bout = L.output_shape(sub, bshape)
                    bcount = L.param_count(sub, bshape)
                    line = f"  br{bi}.{si} {_format_layer(sub)} -> " \
                           f"{'x'.join(str(d) for d in bout)}"
                    if bcount:
                        line += f" params={bcount}"
                    lines.append(line)
                    bshape = bout
        shape = out
    lines.append(f"total_params {spec.param_count()}")
    return "\n".join(lines) + "\n"
