"""Score-level fusion: a weighted sum of per-network class scores, with the
weight vector picked by exhaustive search over a quantized simplex grid on a
held-out validation split.

Ties on validation metric go to the most uniform weight vector so single-seed
runs do not flap between equivalent optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from ..nn.tensor import softmax_probs
from .evaluation import ScoreTable, average_per_class_accuracy, confusion_matrix


@dataclass
class FusionWeights:
    components: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        self.weights = tuple(float(w) for w in self.weights)
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("need one weight per component")
        if len(set(self.components)) != len(self.components):
            raise ValueError("duplicate component names")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.components, self.weights))


def simplex_grid(n: int, step: float = 0.05) -> np.ndarray:
    """All length-n vectors with entries in {0, step, 2*step, ...} summing to 1.

    Includes the one-hot corners, so fusion can never do worse on the split
    it is fit on than the best single component.
    """
    if n < 1:
        raise ValueError("need at least one component")
    ticks = round(1.0 / step)
    if abs(ticks * step - 1.0) > 1e-9:
        raise ValueError(f"step {step!r} must divide 1 evenly")
    # Stars and bars: choose bar positions among ticks + n - 1 slots.
    rows = []
    for bars in combinations(range(ticks + n - 1), n - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(ticks + n - 2 - prev)
        rows.append(counts)
    grid = np.asarray(rows, dtype=np.float64) / ticks
    return grid


def _stack(tables: Sequence[ScoreTable]) -> tuple[np.ndarray, ScoreTable]:
    """Scores as (components, models, classes) in the first table's row order,
    with that table; every table must score the same models, labeled alike."""
    if not tables or not tables[0].ids:
        raise ValueError("need scores from at least one component")
    first = tables[0]
    order = {m: i for i, m in enumerate(first.ids)}
    mat = np.empty((len(tables),) + first.matrix.shape)
    for c, t in enumerate(tables):
        if t.matrix.shape[1] != first.matrix.shape[1]:
            raise ValueError(f"class count mismatch between components 0 and {c}")
        unknown = [m for m in t.ids if m not in order]
        if unknown:
            raise ValueError(f"component {c} scored unknown model {unknown[0]!r}")
        if len(t.ids) != len(first.ids):
            missing = sorted(set(first.ids) - set(t.ids))[:5]
            raise ValueError(f"component {c} is missing scores for {missing}")
        rows = [order[m] for m in t.ids]
        differ = np.flatnonzero(first.labels[rows] != t.labels)
        if len(differ):
            raise ValueError(f"components 0 and {c} disagree on the label of "
                             f"{t.ids[differ[0]]!r}")
        mat[c, rows] = t.matrix
    return mat, first


def fuse_scores(tables: Sequence[ScoreTable], fusion: FusionWeights,
                normalize: bool = False) -> ScoreTable:
    """Weighted sum of component scores per model. With ``normalize`` each
    component's scores pass through softmax first (comparison mode); the
    default fuses raw pre-softmax scores."""
    mat, first = _stack(tables)
    if mat.shape[0] != len(fusion.components):
        raise ValueError("component count does not match fusion weights")
    if normalize:
        mat = softmax_probs(mat)
    w = np.asarray(fusion.weights)
    return ScoreTable("fusion", first.ids, first.labels, np.tensordot(w, mat, axes=1))


def fit_fusion_weights(tables: Sequence[ScoreTable], components: Sequence[str],
                       step: float = 0.05, normalize: bool = False
                       ) -> tuple[FusionWeights, float]:
    """Pick simplex weights maximizing validation average per-class accuracy.

    Returns the weights and the achieved validation metric. Grid order is
    fixed; among metric ties the most uniform vector (smallest variance,
    then grid order) wins.
    """
    mat, first = _stack(tables)
    if mat.shape[0] != len(components):
        raise ValueError("component count does not match score sets")
    if normalize:
        mat = softmax_probs(mat)
    k = mat.shape[2]
    grid = simplex_grid(len(components), step=step)
    # (grid, models, classes) -> argmax class per candidate weight vector.
    fused = np.tensordot(grid, mat, axes=(1, 0))
    preds = np.argmax(fused, axis=2)
    best = None
    for g in range(len(grid)):
        cm = confusion_matrix(first.labels, preds[g], k)
        metric = average_per_class_accuracy(cm)
        key = (-metric, float(np.var(grid[g])), g)
        if best is None or key < best[0]:
            best = (key, g, metric)
    _, g, metric = best
    return FusionWeights(components=tuple(components),
                         weights=tuple(grid[g])), metric
