#!/usr/bin/env python3
"""Why fusing classifier scores can beat every individual classifier.

Builds two synthetic components that are each strong on one half of a toy
validation set and weak on the other, then searches the simplex grid for the
weight vector maximizing average per-class accuracy. The mixed optimum beats
both one-hot corners, which is exactly the situation score fusion exploits.

Usage: python3 fusion_walkthrough.py
"""

import numpy as np

from fusionnet.pipeline import ScoreTable, fit_fusion_weights, fuse_scores, simplex_grid

RNG = np.random.default_rng(5)


def component(name: str, strong_on: set[int], labels: dict[str, int]) -> ScoreTable:
    """Confident and right on `strong_on` classes; mildly wrong elsewhere."""
    rows = []
    for label in labels.values():
        scores = RNG.normal(0.0, 0.3, size=2)
        if label in strong_on:
            scores[label] += 3.0  # big, reliable margin
        else:
            scores[1 - label] += 0.8  # small systematic mistake
        rows.append(scores)
    return ScoreTable(name, list(labels), list(labels.values()), rows)


def main() -> int:
    labels = {f"m{i:02d}": i % 2 for i in range(40)}
    a = component("even_expert", {0}, labels)
    b = component("odd_expert", {1}, labels)

    grid = simplex_grid(2, step=0.05)
    print(f"searching {len(grid)} weight vectors on the 2-simplex "
          f"(step 0.05, corners included)")

    [(fw, val)] = fit_fusion_weights([a, b], ["even_expert", "odd_expert"])
    print(f"best weights: {fw.as_dict()}  validation metric {val:.4f}")

    for table in (a, b):
        print(f"  {table.network} alone: {table.metric:.4f}")
    fused = fuse_scores([a, b], fw).metric
    print(f"  fused:             {fused:.4f}")

    assert fused > max(a.metric, b.metric), "expected the mix to beat both corners"
    print("the mixed weights beat both single-component corners")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
