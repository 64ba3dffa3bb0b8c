"""Model evaluation: view pooling over chunks of whole models, the average
per-class accuracy metric, and the score table that evaluation, fusion and
the CLI share.

A ScoreTable holds one network's pre-activation class scores on one split,
one row per model. Its JSON-lines form lets fusion consume scores without
re-running networks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..models import Network

# Samples per Network.forward_views call. Each call reads every weight once,
# so vcnn2's 221 MB fc is read per chunk, not per model; larger chunks made
# the view nets slower (one BLAS thread, medians of 3: vcnn1, 12 views, 17.7 ms
# a model at 32 samples, 19.4 at 64; mvnet, 20 views, 19.2 and 34.2). A model
# with a larger group gets a call of its own.
EVAL_CHUNK = 32


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     class_count: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have matching shapes")
    if len(y_true) and (min(y_true.min(), y_pred.min()) < 0
                        or max(y_true.max(), y_pred.max()) >= class_count):
        raise ValueError(f"label out of range [0, {class_count})")
    cm = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def average_per_class_accuracy(confusion: np.ndarray) -> float:
    """Mean over classes (with at least one sample) of per-class recall."""
    confusion = np.asarray(confusion)
    totals = confusion.sum(axis=1)
    present = totals > 0
    if not present.any():
        return 0.0
    recall = confusion.diagonal()[present] / totals[present]
    return float(recall.mean())


@dataclass
class ScoreTable:
    """Row i holds the float64 class scores and the label of model ids[i]."""
    network: str
    ids: list[str]
    labels: np.ndarray  # (models,) int64
    matrix: np.ndarray  # (models, classes) float64, pre-softmax

    def __post_init__(self):
        self.ids = list(self.ids)
        self.labels = np.array(self.labels, dtype=np.int64)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if (self.matrix.ndim != 2 or len(self.matrix) != len(self.ids)
                or self.labels.shape != (len(self.ids),)):
            raise ValueError("need one score row and one label per model id")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"duplicate model ids in {self.network} scores")
        bad = np.flatnonzero(~np.isfinite(self.matrix).all(axis=1))
        if len(bad):
            raise ValueError(f"non-finite scores for {self.ids[bad[0]]}")

    def _confusion(self) -> np.ndarray:
        return confusion_matrix(self.labels, np.argmax(self.matrix, axis=1),
                                self.matrix.shape[1])

    @property
    def metric(self) -> float:
        return average_per_class_accuracy(self._confusion())

    def per_class(self, classes: Sequence[str]) -> dict[str, float]:
        cm = self._confusion()
        totals = cm.sum(axis=1)
        return {c: (float(cm[i, i] / totals[i]) if totals[i] else float("nan"))
                for i, c in enumerate(classes)}

    def to_jsonl(self) -> str:
        return "".join(json.dumps({"label": int(y), "model_id": m, "network": self.network,
                                   "scores": [float(v) for v in row]}, sort_keys=True) + "\n"
                       for m, y, row in zip(self.ids, self.labels, self.matrix))

    @classmethod
    def from_jsonl(cls, text: str) -> "ScoreTable":
        recs = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not recs:
            raise ValueError("no score rows")
        networks = {r["network"] for r in recs}
        if len(networks) != 1:
            raise ValueError(f"score rows from several networks: {sorted(networks)}")
        return cls(recs[0]["network"], [r["model_id"] for r in recs],
                   [int(r["label"]) for r in recs], [r["scores"] for r in recs])


def evaluate_network(network: Network, x: np.ndarray, y: np.ndarray,
                     ids: Sequence[str], classes: Sequence[str],
                     to_input: Callable[[np.ndarray], np.ndarray]) -> ScoreTable:
    """Score every model from its grouped sample block.

    ``x`` holds ``len(ids)`` equal consecutive groups (orientations or views)
    and ``y`` one label per group element, constant within a group. Whole
    models go through ``forward_views`` in chunks of at most EVAL_CHUNK
    samples; each model's scores are the bytes it gets on its own.
    """
    k = len(classes)
    if network.spec.class_count != k:
        raise ValueError(f"network predicts {network.spec.class_count} classes, "
                         f"dataset has {k}")
    if len(ids) == 0 or len(x) % len(ids) != 0:
        raise ValueError("sample count is not a multiple of the model count")
    group = len(x) // len(ids)
    labels = y[::group]
    mixed = np.flatnonzero((y.reshape(len(ids), group) != labels[:, None]).any(axis=1))
    if len(mixed):
        raise ValueError(f"inconsistent labels within group for {ids[mixed[0]]!r}")
    step = max(1, EVAL_CHUNK // group)  # models per chunk
    matrix = np.empty((len(ids), k))
    for m in range(0, len(ids), step):
        matrix[m:m + step] = network.forward_views(to_input(x[m * group:(m + step) * group]),
                                                   group)
    return ScoreTable(network.spec.name, ids, labels, matrix)
