"""Central finite-difference verification of every layer's gradients.

Each case builds a small float64 graph with randomized parameters and inputs,
then compares analytic gradients against (f(x+h) - f(x-h)) / 2h coordinate by
coordinate. Cases rebuild the forward pass on every probe, so they exercise
the same op implementations training uses. The reduced-width network case
wires the full conv/pool/conv/conv/pool/fc/fc topology end to end.

Inputs are drawn away from kink points (relu zeros, pooling ties) so the
difference quotient stays a valid derivative estimate at step 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .layers import (LayerSpec, apply_layer, conv, describe, dropout, fc,
                     inception, init_param, layer_path, maxpool, relu, view_maxpool)

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


@dataclass
class CheckResult:
    case: str
    seed: int
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOLERANCE


def _project(out: T.Tensor, coeffs: np.ndarray) -> T.Tensor:
    """Scalar probe loss: sum(out * coeffs), so every output coordinate
    contributes to the gradient."""
    data = np.asarray((out.data * coeffs).sum(), dtype=out.dtype)

    def back(g: np.ndarray) -> None:
        T._accumulate(out, g * coeffs)

    return T._node(data, (out,), back)


def _spread(rng: np.random.Generator, shape: tuple[int, ...],
            gap: float = 0.05) -> np.ndarray:
    """Values with pairwise gaps well above the probe step, random order."""
    n = int(np.prod(shape))
    vals = (rng.permutation(n) - n / 2.0) * gap + rng.uniform(-gap / 4, gap / 4)
    return vals.reshape(shape)


def _case_conv2d(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=(4,)) * 0.1, requires_grad=True)
    coeffs = rng.normal(size=(2, 4, 4, 4))
    return [x, w, b], lambda: _project(T.conv2d(x, w, b), coeffs)


def _case_conv2d_padded(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 5, 5)) * 0.3, requires_grad=True)
    b = T.Tensor(rng.normal(size=(3,)) * 0.1, requires_grad=True)
    coeffs = rng.normal(size=(1, 3, 5, 5))
    return [x, w, b], lambda: _project(T.conv2d(x, w, b, padding=2), coeffs)


def _case_conv2d_strided(rng):
    x = T.Tensor(rng.normal(size=(2, 2, 7, 7)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=(3,)) * 0.1, requires_grad=True)
    coeffs = rng.normal(size=(2, 3, 3, 3))
    return [x, w, b], lambda: _project(T.conv2d(x, w, b, stride=2), coeffs)


def _case_relu(rng):
    data = rng.uniform(0.5, 1.5, size=(3, 4, 4)) * rng.choice([-1.0, 1.0], size=(3, 4, 4))
    x = T.Tensor(data, requires_grad=True)
    coeffs = rng.normal(size=(3, 4, 4))
    return [x], lambda: _project(T.relu(x), coeffs)


def _case_maxpool2d(rng):
    x = T.Tensor(_spread(rng, (2, 3, 6, 6)), requires_grad=True)
    coeffs = rng.normal(size=(2, 3, 3, 3))
    return [x], lambda: _project(T.maxpool2d(x), coeffs)


def _case_dropout(rng):
    x = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    mask = rng.random((4, 5)) >= 0.3
    coeffs = rng.normal(size=(4, 5))
    return [x], lambda: _project(T.dropout(x, mask, 0.3), coeffs)


def _case_fully_connected(rng):
    x = T.Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 8)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=(5,)) * 0.1, requires_grad=True)
    coeffs = rng.normal(size=(3, 5))
    return [x, w, b], lambda: _project(T.fully_connected(x, w, b), coeffs)


def _case_concat(rng):
    x = T.Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    w1 = T.Tensor(rng.normal(size=(2, 3, 1, 1)) * 0.5, requires_grad=True)
    b1 = T.Tensor(rng.normal(size=(2,)) * 0.1, requires_grad=True)
    w3 = T.Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.5, requires_grad=True)
    b3 = T.Tensor(rng.normal(size=(2,)) * 0.1, requires_grad=True)
    coeffs = rng.normal(size=(2, 4, 4, 4))

    def loss():
        a = T.conv2d(x, w1, b1)
        c = T.conv2d(x, w3, b3, padding=1)
        return _project(T.concat([a, c], axis=1), coeffs)

    return [x, w1, b1, w3, b3], loss


def _case_view_maxpool(rng):
    x = T.Tensor(_spread(rng, (5, 7)), requires_grad=True)
    coeffs = rng.normal(size=(7,))
    return [x], lambda: _project(T.view_maxpool(x), coeffs)


def _case_softmax_loss(rng):
    x = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=3)
    return [x], lambda: T.softmax_loss(x, labels)


def reduced_network_layers() -> list[LayerSpec]:
    """The deep network topology at toy width: conv, relu, pool, conv, relu,
    conv, pool, dropout, fc, view pool marker, fc."""
    return [conv(3, 3), relu(), maxpool(2), conv(3, 3), relu(), conv(3, 3),
            maxpool(2), dropout(0.5), fc(5), view_maxpool(), fc(2)]


def _init(entries: list[tuple[str, tuple[int, ...]]], rng) -> dict[str, T.Tensor]:
    """Float64 parameters for ``describe``'s (name, shape) entries, in order."""
    return {name: T.Tensor(init_param(shape, rng, np.float64), requires_grad=True)
            for name, shape in entries}


def _case_reduced_network(rng):
    layer_list = reduced_network_layers()
    in_shape = shape = (3, 14, 14)
    entries = []
    for i, spec in enumerate(layer_list):
        shape, layer_entries = describe(spec, shape, layer_path(i, spec))
        entries += layer_entries
    params = _init(entries, rng)
    x = T.Tensor(rng.normal(size=(1,) + in_shape), requires_grad=True)
    labels = rng.integers(0, 2, size=1)

    def loss():
        y = x
        for i, spec in enumerate(layer_list):
            # evaluation mode: the dropout draw would differ across FD probes
            y = apply_layer(spec, y, params, layer_path(i, spec),
                            training=False, rng=None)
        return T.softmax_loss(y, labels)

    return [x] + list(params.values()), loss


def _case_inception_block(rng):
    block = inception(
        (conv(2, 1),),
        (conv(2, 3, padding=1),),
        (conv(2, 5, padding=2),),
    )
    in_shape = (3, 6, 6)
    params = _init(describe(block, in_shape, "L00.concat")[1], rng)
    x = T.Tensor(rng.normal(size=(2,) + in_shape), requires_grad=True)
    coeffs = rng.normal(size=(2, 6, 6, 6))

    def loss():
        y = apply_layer(block, x, params, "L00.concat", training=False, rng=None)
        return _project(y, coeffs)

    return [x] + list(params.values()), loss


CASES: dict[str, Callable] = {
    "conv2d": _case_conv2d,
    "conv2d_padded": _case_conv2d_padded,
    "conv2d_strided": _case_conv2d_strided,
    "relu": _case_relu,
    "maxpool2d": _case_maxpool2d,
    "dropout": _case_dropout,
    "fully_connected": _case_fully_connected,
    "concat": _case_concat,
    "view_maxpool": _case_view_maxpool,
    "softmax_loss": _case_softmax_loss,
    "inception_block": _case_inception_block,
    "reduced_network": _case_reduced_network,
}


def run_case(name: str, seed: int, step: float = DEFAULT_STEP) -> CheckResult:
    """Compare analytic and central-difference gradients for one case."""
    rng = np.random.default_rng(seed)
    tensors, loss_fn = CASES[name](rng)

    loss = loss_fn()
    T.backward(loss)
    analytic = [np.array(t.grad, copy=True) for t in tensors]

    max_err = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(loss_fn().data)
            flat[i] = orig - step
            fm = float(loss_fn().data)
            flat[i] = orig
            fd = (fp - fm) / (2 * step)
            scale = max(abs(aflat[i]), abs(fd))
            # below 1e-7 both values are dominated by difference-quotient
            # round-off, so compare absolutely instead of relatively
            err = abs(aflat[i] - fd) if scale < 1e-7 else abs(aflat[i] - fd) / scale
            max_err = max(max_err, err)
    return CheckResult(case=name, seed=seed, max_rel_err=max_err)


def run_suite(seeds, cases: list[str] | None = None,
              step: float = DEFAULT_STEP) -> list[CheckResult]:
    names = list(CASES) if cases is None else cases
    return [run_case(name, seed, step) for name in names for seed in seeds]
