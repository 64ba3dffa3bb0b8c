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


def sgd_step(params: dict[str, Tensor], state: dict[str, np.ndarray],
             cfg: OptimizerConfig) -> None:
    """v <- momentum*v - lr*(g + weight_decay*w); w <- w + v.

    Both updates happen in place: `p.data` and the velocity buffers in
    `state` are mutated, not replaced, so an array taken from a parameter
    before the step changes with it. Callers that need a snapshot use
    `Network.arrays()`. The in-place ops are the same IEEE ops, in the same
    order, as the out-of-place formula, so the results are bit-identical.

    Frozen parameters (requires_grad False) and parameters with no gradient
    are left untouched. `state` holds one velocity buffer per parameter and
    is created lazily so a fresh dict starts from zero velocity.
    """
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        g = p.grad
        if cfg.weight_decay:
            g = g + p.dtype.type(cfg.weight_decay) * p.data
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(p.data)
        v *= p.dtype.type(cfg.momentum)
        v -= p.dtype.type(cfg.learning_rate) * g
        p.data += v
