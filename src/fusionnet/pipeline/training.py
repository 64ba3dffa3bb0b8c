"""Deterministic training loop: shuffled minibatches, SGD with momentum and
per-epoch CSV logging. The caller writes the trained weights.

Every orientation or view is an independent training sample. The log's
train_metric column is the average per-class accuracy accumulated from the
batch predictions of that epoch (no extra forward pass). Wall-clock time
lives only in the CSV so metric artifacts stay byte-reproducible.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..models import Network
from ..nn import tensor as T
from ..nn.optim import OptimizerConfig, sgd_step
# unused here; perfbench/tracer.py patches this name until it reads the
# program's own run trace (ROADMAP item 1)
from ..nn.weights import write_weights  # noqa: F401
from ..orientations import derive_seed
from .evaluation import average_per_class_accuracy, confusion_matrix


@dataclass
class TrainingConfig:
    epochs: int
    optimizer: OptimizerConfig
    batch_size: int = 32
    seed: int = 0
    log_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_metric: float
    wall_seconds: float


def train(network: Network, x: np.ndarray, y: np.ndarray, cfg: TrainingConfig,
          to_input: Callable[[np.ndarray], np.ndarray], name: str = "net",
          after_epoch: Callable[[Network, int], None] | None = None
          ) -> list[EpochRecord]:
    """Train in place; returns the per-epoch log, with no gradients attached."""
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("training needs matching, non-empty sample and label arrays")
    k = network.spec.class_count
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"label out of range [0, {k})")

    order_rng = np.random.default_rng(derive_seed(cfg.seed, "order", name))
    dropout_rng = np.random.default_rng(derive_seed(cfg.seed, "dropout", name))
    state: dict[str, np.ndarray] = {}
    records: list[EpochRecord] = []

    log = None
    if cfg.log_path:
        os.makedirs(os.path.dirname(cfg.log_path) or ".", exist_ok=True)
        log = open(cfg.log_path, "w", encoding="ascii")
        log.write("epoch,loss,train_metric,wall_seconds\n")
    try:
        for epoch in range(cfg.epochs):
            t0 = time.monotonic()
            perm = order_rng.permutation(len(x))
            loss_sum = 0.0
            confusion = np.zeros((k, k), dtype=np.int64)
            for batch, start in enumerate(range(0, len(perm), cfg.batch_size)):
                idx = perm[start:start + cfg.batch_size]
                xb = to_input(x[idx])
                yb = y[idx]
                scores = network.forward(xb, training=True, rng=dropout_rng)
                loss = T.softmax_loss(scores, yb)
                batch_loss = float(loss.data)
                if not math.isfinite(batch_loss):
                    raise ValueError(f"{name}: non-finite loss {batch_loss} at epoch "
                                     f"{epoch}, batch {batch}; parameters not updated")
                network.zero_grads()
                T.backward(loss)
                sgd_step(network.params, state, cfg.optimizer)
                loss_sum += batch_loss * len(idx)
                confusion += confusion_matrix(yb, np.argmax(scores.data, axis=1), k)
                del scores, loss  # free this step's tape before the next forward
            rec = EpochRecord(epoch=epoch,
                              loss=loss_sum / len(perm),
                              train_metric=average_per_class_accuracy(confusion),
                              wall_seconds=time.monotonic() - t0)
            records.append(rec)
            if log:
                log.write(f"{rec.epoch},{rec.loss:.6f},{rec.train_metric:.6f},"
                          f"{rec.wall_seconds:.3f}\n")
                log.flush()
            if after_epoch is not None:
                after_epoch(network, epoch)
    finally:
        network.zero_grads()  # the last step's gradients are as large as the weights
        if log:
            log.close()
    return records
