"""The three classifiers: two volumetric CNNs and the multi-view image CNN.

Networks are declarative layer lists (see nn.layers). The volumetric nets
consume a 30-cell voxel grid as a 30-channel 2D image so the first
convolution correlates along the full depth axis. The view_maxpool layer is
a marker: per-sample training treats it as identity, while multi-view
evaluation splits the layer list there, pools each model's per-view features
neuron by neuron, and feeds the pooled rows to the remaining layers.
"""

from __future__ import annotations

import math
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

    def _walk(self):
        """(layer, out_shape, param entries) of each layer, in order."""
        shape: tuple[int, ...] = self.input_shape
        for i, layer in enumerate(self.layers):
            shape, entries = L.describe(layer, shape, L.layer_path(i, layer))
            yield layer, shape, entries

    def output_shapes(self) -> list[tuple[int, ...]]:
        return [out for _, out, _ in self._walk()]

    def param_entries(self) -> list[tuple[str, tuple[int, ...]]]:
        return [entry for *_, entries in self._walk() for entry in entries]

    def param_count(self) -> int:
        return sum(self.layer_param_counts())

    def layer_param_counts(self) -> list[int]:
        return [sum(math.prod(shape) for _, shape in entries) for *_, entries in self._walk()]

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
    below = spec.freeze_below or 0
    return {name for i, (*_, entries) in enumerate(spec._walk()) if i < below
            for name, _ in entries}


def _check_params(spec: NetworkSpec, arrays: dict) -> None:
    """Raise WeightsError unless ``arrays`` holds each parameter the spec
    names, with the spec's shape, and nothing else."""
    expected = dict(spec.param_entries())
    extra = set(arrays) - set(expected)
    if extra:
        raise WeightsError(f"layer {min(extra)}: not in the spec")
    for name, shape in expected.items():
        if name not in arrays:
            raise WeightsError(f"layer {name}: missing from weights")
        if tuple(arrays[name].shape) != shape:
            raise WeightsError(
                f"layer {name}: expected shape {shape}, got {tuple(arrays[name].shape)}")


class Network:
    """A NetworkSpec bound to parameter tensors."""

    def __init__(self, spec: NetworkSpec, params: dict[str, T.Tensor]):
        _check_params(spec, params)
        self.spec = spec
        self.params = params
        for name in _frozen_paths(spec):
            params[name].requires_grad = False

    @classmethod
    def initialize(cls, spec: NetworkSpec, seed: int) -> "Network":
        rng = np.random.default_rng(seed)
        return cls(spec, {name: T.Tensor(L.init_param(shape, rng, np.float32),
                                         requires_grad=True)
                          for name, shape in spec.param_entries()})

    @classmethod
    def from_arrays(cls, spec: NetworkSpec, arrays: dict[str, np.ndarray]) -> "Network":
        _check_params(spec, arrays)
        # the one copy on load, C-ordered: training updates it in place
        # through flat views, and read_weights returns read-only views
        return cls(spec, {name: T.Tensor(np.array(arrays[name], dtype=np.float32, order="C"),
                                         requires_grad=True)
                          for name, _ in spec.param_entries()})

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data, copy=True) for name, p in self.params.items()}

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _run(self, y: T.Tensor, indices: range, params: dict[str, T.Tensor],
             training: bool, rng: np.random.Generator | None) -> T.Tensor:
        for i in indices:
            spec = self.spec.layers[i]
            y = L.apply_layer(spec, y, params, L.layer_path(i, spec), training, rng)
        return y

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> T.Tensor:
        """Per-sample scores (N, class_count); view_maxpool is skipped."""
        return self._run(T.Tensor(x), range(len(self.spec.layers)), self.params,
                         training, rng)

    def forward_views(self, views: np.ndarray, group: int) -> np.ndarray:
        """Class scores (models, class_count) from a stack of consecutive
        groups of ``group`` views, one group per model: run the shared trunk
        once on the stack, max-pool each group's features across its views,
        and finish with the remaining layers on the pooled rows."""
        if group < 1 or len(views) == 0 or len(views) % group:
            raise ValueError(f"forward_views needs a non-empty stack of whole groups, "
                             f"got {len(views)} views in groups of {group}")
        pool = self.spec.pool_index()
        if pool is None:
            raise ValueError(f"{self.spec.name} has no view_maxpool layer")
        # parameters without requires_grad: no op records a backward closure,
        # so each layer's buffers are freed as soon as the next layer runs
        params = {name: T.Tensor(p.data) for name, p in self.params.items()}
        feats = self._run(T.Tensor(np.asarray(views)), range(pool), params, False, None).data
        pooled = np.stack([T.view_maxpool(T.Tensor(feats[i:i + group])).data
                           for i in range(0, len(feats), group)])
        return self._run(T.Tensor(pooled), range(pool + 1, len(self.spec.layers)), params,
                         False, None).data


def adapt_head(spec: NetworkSpec, arrays: dict[str, np.ndarray],
               new_class_count: int, seed: int,
               freeze_below: int | None = None
               ) -> tuple[NetworkSpec, dict[str, np.ndarray]]:
    """Reuse all trained weights below the score layer; reinitialize the
    score layer (the last layer with parameters) for a new class count."""
    _check_params(spec, arrays)
    head = max(i for i, (*_, entries) in enumerate(spec._walk()) if entries)
    new_layers = list(spec.layers)
    new_layers[head] = L.fc(new_class_count)
    new_spec = replace(spec, layers=tuple(new_layers), class_count=new_class_count,
                       freeze_below=freeze_below)
    *_, head_entries = list(new_spec._walk())[head]
    out = {name: np.array(arr, copy=True) for name, arr in arrays.items()
           if name not in dict(head_entries)}
    rng = np.random.default_rng(seed)
    for name, shape in head_entries:
        out[name] = L.init_param(shape, rng, np.float32)
    return new_spec, out
