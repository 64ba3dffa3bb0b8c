#!/usr/bin/env python3
"""End-to-end walkthrough at toy scale: synthesize a two-class dataset,
build voxel caches, train the plain volumetric network for a few epochs, and
evaluate with cross-orientation max pooling.

Runs in a few seconds on one CPU core. Every stage is seeded, so the
printed numbers are reproducible.

Usage: python3 voxelize_and_train.py [work_dir]
"""

import os
import sys

from fusionnet.models import BUILDERS, Network
from fusionnet.nn.optim import OptimizerConfig
from fusionnet.orientations import derive_seed
from fusionnet.pipeline import (CacheSettings, TrainingConfig,
                                evaluate_network, load_voxel_dataset,
                                make_synthetic_dataset, prepare_caches, train,
                                voxels_to_input)

SEED = 11


def main() -> int:
    work = sys.argv[1] if len(sys.argv) > 1 else "toy_run"

    print("== dataset ==")
    manifest = make_synthetic_dataset(["box", "sphere"], per_class=8,
                                      seed=SEED, out_dir=os.path.join(work, "data"))
    for split in ("train", "test"):
        n = len(manifest.split_entries(split))
        print(f"  {split}: {n} models")

    print("== caches ==")
    # 6 orientations per model; each becomes an independent training sample.
    settings = CacheSettings(orientation_count=6, resolution=30, seed=SEED)
    cache_dir = os.path.join(work, "cache")
    report = prepare_caches(manifest, cache_dir, settings, include_views=False)
    print(f"  wrote {report.written}, skipped {report.skipped} existing")

    print("== training ==")
    spec = BUILDERS["vcnn1"](len(manifest.classes))
    network = Network.initialize(spec, seed=derive_seed(SEED, "init", "vcnn1"))
    print(f"  {spec.name}: {spec.param_count():,} parameters")
    x, y, _ = load_voxel_dataset(manifest, cache_dir, settings,
                                 manifest.split_entries("train"))
    cfg = TrainingConfig(epochs=3,
                         optimizer=OptimizerConfig(learning_rate=0.001,
                                                   momentum=0.9),
                         batch_size=16, seed=SEED)
    for rec in train(network, x, y, cfg, voxels_to_input, name="vcnn1"):
        print(f"  epoch {rec.epoch}: loss {rec.loss:.4f}, "
              f"train metric {rec.train_metric:.4f}")

    print("== evaluation ==")
    # One score vector per model: the network runs on each orientation and
    # features are max-pooled across orientations before the score layer.
    xt, yt, ids = load_voxel_dataset(manifest, cache_dir, settings,
                                     manifest.split_entries("test"))
    result = evaluate_network(network, xt, yt, ids, manifest.classes,
                              voxels_to_input)
    for cls in manifest.classes:
        print(f"  {cls:>8s}: {result.per_class(manifest.classes)[cls]:.4f}")
    print(f"  average per-class accuracy: {result.metric:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
