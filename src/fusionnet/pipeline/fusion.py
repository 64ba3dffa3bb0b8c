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
from .evaluation import ScoreTable, average_per_class_accuracy


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
    # Stars and bars: n - 1 bars among ticks + n - 1 slots; the gaps are the counts.
    rows = [np.diff((-1, *bars, ticks + n - 1)) - 1
            for bars in combinations(range(ticks + n - 1), n - 1)]
    return np.asarray(rows, dtype=np.float64) / ticks


def _stack(tables: Sequence[ScoreTable], count: int,
           normalize: bool) -> tuple[np.ndarray, ScoreTable]:
    """Scores as (count, models, classes) in the first table's row order,
    softmax-normalized per component with ``normalize``, and that table;
    every table must score the same models, labeled alike."""
    if not tables or not tables[0].ids:
        raise ValueError("need scores from at least one component")
    if len(tables) != count:
        raise ValueError(f"{len(tables)} score tables for {count} components")
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
    return (softmax_probs(mat) if normalize else mat), first


def fuse_scores(tables: Sequence[ScoreTable], fusion: FusionWeights,
                normalize: bool = False) -> ScoreTable:
    """Weighted sum of component scores per model. With ``normalize`` each
    component's scores pass through softmax first (comparison mode); the
    default fuses raw pre-softmax scores."""
    mat, first = _stack(tables, len(fusion.components), normalize)
    w = np.asarray(fusion.weights)
    return ScoreTable("fusion", first.ids, first.labels, np.tensordot(w, mat, axes=1))


def fit_fusion_weights(tables: Sequence[ScoreTable], components: Sequence[str],
                       step: float = 0.05, normalize: bool = False,
                       subsets: Sequence[np.ndarray] = ()
                       ) -> list[tuple[FusionWeights, float]]:
    """Pick simplex weights maximizing validation average per-class accuracy.

    Returns one (weights, validation metric) pair for all models, then one
    per boolean row mask in ``subsets`` (over the first table's rows). Every
    fit reads one argmax table of every grid vector's predictions. Grid
    order is fixed; among metric ties the most uniform vector (smallest
    variance, then grid order) wins.
    """
    mat, first = _stack(tables, len(components), normalize)
    k = mat.shape[2]
    labels = first.labels
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    grid = simplex_grid(len(components), step=step)
    # the (grid, models) table of predictions, fused 64 grid rows at a time:
    # 40 MB at 1,968 models x 40 classes, where all 1,771 rows of 4
    # components would be 1.1 GB. Then grid row g counts into bins g*k*k on.
    preds = np.empty((len(grid), len(labels)), dtype=np.int64)
    for g in range(0, len(grid), 64):
        block = grid[g:g + 64]
        preds[g:g + len(block)] = np.argmax(np.tensordot(block, mat, axes=(1, 0)), axis=2)
    preds += np.arange(len(grid))[:, None] * (k * k)
    variance = [float(np.var(w)) for w in grid]
    fits = []
    for mask in [np.ones(len(labels), dtype=bool), *subsets]:
        y = labels[mask]
        if not len(y):
            raise ValueError("need scores from at least one model")
        bins = preds[:, mask]
        bins += y * k
        cms = np.bincount(bins.ravel(), minlength=len(grid) * k * k).reshape(len(grid), k, k)
        metrics = [average_per_class_accuracy(cm) for cm in cms]
        best = min(range(len(grid)), key=lambda r: (-metrics[r], variance[r]))
        fits.append((FusionWeights(components=tuple(components), weights=tuple(grid[best])),
                     metrics[best]))
    return fits
