"""End-to-end orchestration: dataset -> caches -> component training ->
evaluation -> score fusion -> deterministic report artifacts.

A run writes everything under one output directory:

    dataset/        generated meshes + manifest (synthetic runs only)
    cache/          voxel/view/orientation caches (unless redirected)
    logs/           per-component training CSV
    checkpoints/    rolling per-epoch checkpoint per component
    weights/        final weights per component
    scores/         per-split class scores per component + fused test scores
    report.txt      comparison table (network, views used, metric)
    metrics.json    machine-readable metrics, byte-stable across reruns

Fusion weights are fit on a stratified 20% carve-out of the training models
(never test). Robustness across fits is probed by refitting on subsamples of
that validation split and counting how often the fused test metric beats
every component.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ..models import BUILDERS, Network
from ..nn.optim import OptimizerConfig
from ..nn.weights import write_weights
from ..orientations import derive_seed
from ..render import VIEW_COUNT
from .caches import (CacheSettings, load_view_dataset, load_voxel_dataset,
                     prepare_caches, views_to_input, voxels_to_input)
from .data import DatasetManifest, ManifestEntry, ingest_modelnet, make_synthetic_dataset
from .evaluation import EvalResult, evaluate_network, write_scores
from .fusion import FusionWeights, fit_fusion_weights, fuse_scores
from .report import ReportRow, render_report
from .training import TrainingConfig, train


@dataclass(frozen=True)
class ComponentInfo:
    builder: str  # key into models.BUILDERS
    source: str  # "voxel" | "view"
    jitter: bool = False  # train on original + jittered voxel caches


COMPONENTS = {
    "vcnn1": ComponentInfo("vcnn1", "voxel"),
    "vcnn1_jit": ComponentInfo("vcnn1", "voxel", jitter=True),
    "vcnn2": ComponentInfo("vcnn2", "voxel"),
    "mvnet": ComponentInfo("mvnet", "view"),
}
DEFAULT_COMPONENTS = ("vcnn1", "vcnn1_jit", "vcnn2", "mvnet")


@dataclass
class RunConfig:
    out_dir: str
    data_root: str | None = None
    synthetic_classes: tuple[str, ...] = ()
    synthetic_per_class: int = 0
    components: tuple[str, ...] = DEFAULT_COMPONENTS
    orientation_count: int = 60
    resolution: int = 30
    image_size: int = 64
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_step_epochs: int = 20
    lr_decay: float = 0.1
    jitter_sigma: float = 5.0
    seed: int = 0
    jobs: int = 1
    cache_dir: str | None = None
    fusion_step: float = 0.05
    fusion_seeds: int = 10
    softmax_fusion: bool = False

    def __post_init__(self):
        self.components = tuple(self.components)
        self.synthetic_classes = tuple(self.synthetic_classes)
        unknown = [c for c in self.components if c not in COMPONENTS]
        if unknown:
            raise ValueError(f"unknown components {unknown}; choose from "
                             f"{sorted(COMPONENTS)}")
        if not self.components:
            raise ValueError("need at least one component")
        has_synth = bool(self.synthetic_classes)
        if has_synth == (self.data_root is not None):
            raise ValueError("provide exactly one of data_root or a synthetic spec")


def split_fusion_validation(manifest: DatasetManifest, seed: int
                            ) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Carve a stratified 20% of training models per class for fusion weight
    fitting; the remainder trains the components. Deterministic in ``seed``."""
    core: list[ManifestEntry] = []
    val: list[ManifestEntry] = []
    train_entries = manifest.split_entries("train")
    for cls in manifest.classes:
        group = [e for e in train_entries if e.class_label == cls]
        n_val = min(max(int(round(len(group) * 0.2)), 1), len(group) - 1)
        if n_val < 1:
            raise ValueError(f"class {cls!r} needs >= 2 training models to "
                             "carve a fusion validation split")
        rng = np.random.default_rng(derive_seed(seed, "fusionval", cls))
        picked = set(rng.permutation(len(group))[:n_val].tolist())
        for i, e in enumerate(group):
            (val if i in picked else core).append(e)
    return core, val


def _subsample_validation(val_scores: dict[str, list], labels: dict[str, int],
                          seed: int) -> list[str]:
    """Stratified ~75% subset of validation model ids (>= 1 per class)."""
    by_class: dict[int, list[str]] = {}
    first = next(iter(val_scores.values()))
    for s in first:
        by_class.setdefault(labels[s.model_id], []).append(s.model_id)
    keep: list[str] = []
    for cls in sorted(by_class):
        ids = by_class[cls]
        n = max(1, math.ceil(len(ids) * 0.75))
        rng = np.random.default_rng(derive_seed(seed, "fusionboot", str(cls)))
        picked = rng.permutation(len(ids))[:n]
        keep.extend(ids[i] for i in sorted(picked.tolist()))
    return keep


def _metric_from_scores(scores, labels: dict[str, int], class_count: int) -> float:
    from .evaluation import average_per_class_accuracy, confusion_matrix
    y_true = np.asarray([labels[s.model_id] for s in scores], dtype=np.int64)
    y_pred = np.asarray([int(np.argmax(s.scores)) for s in scores], dtype=np.int64)
    return average_per_class_accuracy(confusion_matrix(y_true, y_pred, class_count))


def _resolve_manifest(cfg: RunConfig) -> DatasetManifest:
    if cfg.data_root is not None:
        return ingest_modelnet(cfg.data_root)
    dataset_dir = os.path.join(cfg.out_dir, "dataset")
    manifest_path = os.path.join(dataset_dir, "manifest.jsonl")
    if os.path.exists(manifest_path):
        return DatasetManifest.read(manifest_path)
    return make_synthetic_dataset(list(cfg.synthetic_classes),
                                  cfg.synthetic_per_class, cfg.seed, dataset_dir)


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the full pipeline; returns the metrics dict that is also
    written to ``out_dir/metrics.json``."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    for sub in ("logs", "checkpoints", "weights", "scores"):
        os.makedirs(os.path.join(cfg.out_dir, sub), exist_ok=True)
    manifest = _resolve_manifest(cfg)
    classes = manifest.classes
    k = len(classes)

    cache_dir = cfg.cache_dir or os.path.join(cfg.out_dir, "cache")
    settings = CacheSettings(orientation_count=cfg.orientation_count,
                             resolution=cfg.resolution,
                             image_size=cfg.image_size,
                             seed=cfg.seed,
                             jitter_sigma=cfg.jitter_sigma)
    infos = {name: COMPONENTS[name] for name in cfg.components}
    report = prepare_caches(
        manifest, cache_dir, settings,
        include_voxels=any(i.source == "voxel" for i in infos.values()),
        include_views=any(i.source == "view" for i in infos.values()),
        include_jitter=any(i.jitter for i in infos.values()),
        jobs=cfg.jobs)
    if report.failures:
        raise RuntimeError("cache preparation failed for: "
                           + "; ".join(report.failures[:20]))

    core, val = split_fusion_validation(manifest, cfg.seed)
    test = manifest.split_entries("test")

    def load(source: str, entries, jit: bool = False):
        if source == "voxel":
            return load_voxel_dataset(manifest, cache_dir, "train", settings,
                                      jit=jit, entries=entries)
        return load_view_dataset(manifest, cache_dir, "train", settings,
                                 entries=entries)

    component_rows: list[ReportRow] = []
    metrics: dict = {
        "dataset": {"classes": list(classes),
                    "train": len(core), "val": len(val), "test": len(test)},
        "settings": {"orientations": cfg.orientation_count,
                     "resolution": cfg.resolution,
                     "image_size": cfg.image_size,
                     "epochs": cfg.epochs, "batch_size": cfg.batch_size,
                     "learning_rate": cfg.learning_rate,
                     "momentum": cfg.momentum,
                     "weight_decay": cfg.weight_decay,
                     "seed": cfg.seed},
        "components": {},
    }
    val_scores: dict[str, list] = {}
    test_scores: dict[str, list] = {}
    val_labels: dict[str, int] = {}
    test_labels: dict[str, int] = {}

    for name in cfg.components:
        info = infos[name]
        if info.source == "view":
            spec = BUILDERS[info.builder](k, cfg.image_size)
        else:
            spec = BUILDERS[info.builder](k)
        network = Network.initialize(spec, seed=derive_seed(cfg.seed, "init", name))
        x, y, _ = load(info.source, core)
        if info.jitter:
            xj, yj, _ = load(info.source, core, jit=True)
            x = np.concatenate([x, xj], axis=0)
            y = np.concatenate([y, yj], axis=0)
        to_input = voxels_to_input if info.source == "voxel" else views_to_input
        tcfg = TrainingConfig(
            epochs=cfg.epochs,
            optimizer=OptimizerConfig(learning_rate=cfg.learning_rate,
                                      momentum=cfg.momentum,
                                      weight_decay=cfg.weight_decay,
                                      seed=cfg.seed),
            batch_size=cfg.batch_size,
            lr_step_epochs=cfg.lr_step_epochs,
            lr_decay=cfg.lr_decay,
            seed=cfg.seed,
            log_path=os.path.join(cfg.out_dir, "logs", f"{name}.csv"),
            checkpoint_path=os.path.join(cfg.out_dir, "checkpoints",
                                         f"{name}.fnw1"))
        records = train(network, x, y, tcfg, to_input, name=name)
        with open(os.path.join(cfg.out_dir, "weights", f"{name}.fnw1"), "wb") as fh:
            fh.write(write_weights({n: p.data for n, p in network.params.items()}))

        entry: dict = {"train_metric": records[-1].train_metric,
                       "final_loss": records[-1].loss}
        for split_name, entries in (("val", val), ("test", test)):
            if info.source == "voxel":
                xs, ys, ids = load_voxel_dataset(manifest, cache_dir, "train",
                                                 settings, entries=entries)
            else:
                xs, ys, ids = load_view_dataset(manifest, cache_dir, "train",
                                                settings, entries=entries)
            result: EvalResult = evaluate_network(network, xs, ys, ids, classes,
                                                  to_input)
            path = os.path.join(cfg.out_dir, "scores", f"{name}_{split_name}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(write_scores(result.scores, result.labels))
            entry[split_name] = result.metric
            entry[f"{split_name}_per_class"] = result.per_class
            if split_name == "val":
                val_scores[name] = result.scores
                val_labels.update(result.labels)
            else:
                test_scores[name] = result.scores
                test_labels.update(result.labels)
        views = cfg.orientation_count if info.source == "voxel" else VIEW_COUNT
        entry["views"] = views
        metrics["components"][name] = entry
        component_rows.append(ReportRow(network=name, views=views,
                                        metric=entry["test"]))

    names = list(cfg.components)
    fw, fused_val = fit_fusion_weights([val_scores[n] for n in names],
                                       val_labels, names, step=cfg.fusion_step,
                                       normalize=cfg.softmax_fusion)
    fused_test_scores = fuse_scores([test_scores[n] for n in names], fw,
                                    normalize=cfg.softmax_fusion)
    fused_test = _metric_from_scores(fused_test_scores, test_labels, k)
    with open(os.path.join(cfg.out_dir, "scores", "fusion_test.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(write_scores(fused_test_scores, test_labels))

    comp_test = [metrics["components"][n]["test"] for n in names]
    seed_metrics: list[float] = []
    wins = 0
    for s in range(cfg.fusion_seeds):
        keep = set(_subsample_validation(val_scores, val_labels,
                                         derive_seed(cfg.seed, "fusionfit", str(s))))
        sub = [[sc for sc in val_scores[n] if sc.model_id in keep] for n in names]
        fw_s, _ = fit_fusion_weights(sub, val_labels, names,
                                     step=cfg.fusion_step,
                                     normalize=cfg.softmax_fusion)
        fused_s = fuse_scores([test_scores[n] for n in names], fw_s,
                              normalize=cfg.softmax_fusion)
        m = _metric_from_scores(fused_s, test_labels, k)
        seed_metrics.append(m)
        wins += int(all(m >= c for c in comp_test))

    metrics["fusion"] = {"weights": fw.as_dict(), "val": fused_val,
                         "test": fused_test, "seed_metrics": seed_metrics,
                         "seed_wins": wins, "seed_count": cfg.fusion_seeds}

    dataset_line = (f"{'synthetic ' + ','.join(classes) if cfg.data_root is None else cfg.data_root}"
                    f" (train {len(core)} / val {len(val)} / test {len(test)} models)")
    text = render_report("3D shape classification", dataset_line,
                         {"orientations": cfg.orientation_count,
                          "resolution": cfg.resolution,
                          "image_size": cfg.image_size,
                          "epochs": cfg.epochs, "seed": cfg.seed},
                         component_rows, fw, fused_test)
    with open(os.path.join(cfg.out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(cfg.out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return metrics
