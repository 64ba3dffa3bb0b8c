"""SGD with momentum and weight decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class OptimizerConfig:
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


_BLOCK = 1 << 16  # elements per block: a 256 KB float32 scratch stays in cache


def sgd_step(params: dict[str, Tensor], state: dict[str, np.ndarray],
             cfg: OptimizerConfig) -> None:
    """v <- momentum*v - lr*(g + weight_decay*w); w <- w + v.

    Both updates happen in place: `p.data` and the velocity buffers in
    `state` are mutated, not replaced, so an array taken from a parameter
    before the step changes with it. Callers that need a snapshot use
    `Network.arrays()`. Blocks of `_BLOCK` elements pass through one scratch
    buffer, so no full-size temporary is made and the gradient is only read.
    The ops are the out-of-place formula's IEEE ops, in the same order, so
    the results are bit-identical. Arrays must be C-contiguous: the blocks
    are cut from flat views, and a flat copy would lose the update.

    Frozen parameters (requires_grad False) and parameters with no gradient
    are left untouched. `state` holds one velocity buffer per parameter and
    is created lazily so a fresh dict starts from zero velocity.
    """
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(p.data)
        if not all(a.flags.c_contiguous for a in (p.data, p.grad, v)):
            raise ValueError(f"sgd_step needs C-contiguous arrays; {name!r} is not")
        lr, m, wd = map(p.dtype.type, (cfg.learning_rate, cfg.momentum, cfg.weight_decay))
        w, g, v = p.data.reshape(-1), p.grad.reshape(-1), v.reshape(-1)
        t = np.empty(min(w.size, _BLOCK), dtype=p.dtype)
        for i in range(0, w.size, _BLOCK):
            w_s, g_s, v_s, t_s = w[i:i + _BLOCK], g[i:i + _BLOCK], v[i:i + _BLOCK], t[:w.size - i]
            gd = np.add(g_s, np.multiply(w_s, wd, out=t_s), out=t_s) if cfg.weight_decay else g_s
            np.multiply(gd, lr, out=t_s)
            v_s *= m
            v_s -= t_s
            w_s += v_s
