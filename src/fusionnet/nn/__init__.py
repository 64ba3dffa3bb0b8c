"""Deterministic numpy tensor engine: autodiff ops, layers, SGD, weights I/O."""

from . import gradcheck, layers, optim, tensor, weights
from .layers import LayerSpec
from .optim import OptimizerConfig, sgd_step
from .tensor import Tensor, backward

__all__ = [
    "gradcheck",
    "layers",
    "optim",
    "tensor",
    "weights",
    "LayerSpec",
    "OptimizerConfig",
    "sgd_step",
    "Tensor",
    "backward",
]
