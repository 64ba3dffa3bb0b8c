"""End-to-end orchestration: dataset -> caches -> component training ->
evaluation -> score fusion -> deterministic report artifacts.

A run writes everything under one output directory:

    dataset/        generated meshes + manifest (synthetic runs only)
    cache/          voxel/view/orientation caches (unless redirected)
    logs/           per-component training CSV
    weights/        final weights per component
    scores/         per-split class scores per component + fused test scores
    report.txt      comparison table (network, views used, metric)
    metrics.json    machine-readable metrics, byte-stable across reruns

Fusion weights are fit on a stratified 20% carve-out of the training models
(never test). Robustness across fits is probed by refitting on subsamples of
that validation split and counting how often the fused test metric beats
every component. The fit and its refits are one call of fit_fusion_weights,
which scores every subsample from one table of grid predictions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ..models import BUILDERS, Network, NetworkSpec
from ..nn.optim import OptimizerConfig
from ..nn.weights import write_weights
from ..orientations import derive_seed
from ..render import VIEW_COUNT
from .caches import (CacheSettings, load_view_dataset, load_voxel_dataset,
                     prepare_caches, views_to_input, voxels_to_input)
from .data import DatasetManifest, ManifestEntry, ingest_modelnet, make_synthetic_dataset
from .evaluation import ScoreTable, evaluate_network
from .fusion import fit_fusion_weights, fuse_scores
from .report import report_text
from .training import EpochRecord, TrainingConfig, train


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
    jitter_sigma: float = 5.0
    seed: int = 0
    jobs: int = 1
    cache_dir: str | None = None
    fusion_seeds: int = 10

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


def component_spec(name: str, class_count: int, image_size: int) -> NetworkSpec:
    info = COMPONENTS[name]
    if info.source == "view":
        return BUILDERS[info.builder](class_count, image_size)
    return BUILDERS[info.builder](class_count)


def load_component(name: str, manifest: DatasetManifest, cache_dir: str,
                   settings: CacheSettings, entries: list[ManifestEntry],
                   training: bool = False):
    """(x, y, ids, to_input) of a component's cached samples for ``entries``;
    a jitter component trains on the jittered copy appended to the plain one."""
    if COMPONENTS[name].source == "view":
        return (*load_view_dataset(manifest, cache_dir, settings, entries), views_to_input)
    x, y, ids = load_voxel_dataset(manifest, cache_dir, settings, entries)
    if training and COMPONENTS[name].jitter:
        xj, yj, _ = load_voxel_dataset(manifest, cache_dir, settings, entries, jit=True)
        x = np.concatenate([x, xj], axis=0)
        y = np.concatenate([y, yj], axis=0)
    return x, y, ids, voxels_to_input


def train_component(name: str, manifest: DatasetManifest, cache_dir: str,
                    settings: CacheSettings, entries: list[ManifestEntry],
                    tcfg: TrainingConfig, weights_path: str
                    ) -> tuple[Network, list[EpochRecord]]:
    """Initialize, train on ``entries`` and write the final weights."""
    spec = component_spec(name, len(manifest.classes), settings.image_size)
    network = Network.initialize(spec, seed=derive_seed(tcfg.seed, "init", name))
    x, y, _, to_input = load_component(name, manifest, cache_dir, settings, entries,
                                       training=True)
    records = train(network, x, y, tcfg, to_input, name=name)
    with open(weights_path, "wb") as fh:
        fh.write(write_weights({n: p.data for n, p in network.params.items()}))
    return network, records


def score_component(name: str, network: Network, manifest: DatasetManifest,
                    cache_dir: str, settings: CacheSettings,
                    entries: list[ManifestEntry]) -> ScoreTable:
    """Score ``entries`` in a table named after the component, not its spec."""
    x, y, ids, to_input = load_component(name, manifest, cache_dir, settings, entries)
    table = evaluate_network(network, x, y, ids, manifest.classes, to_input)
    table.network = name
    return table


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


def _subsample_validation(labels: np.ndarray, seed: int) -> np.ndarray:
    """Row mask of a stratified ~75% subset of validation models (>= 1 per class)."""
    keep = np.zeros(len(labels), dtype=bool)
    for cls in np.unique(labels).tolist():
        rows = np.flatnonzero(labels == cls)
        n = max(1, math.ceil(len(rows) * 0.75))
        rng = np.random.default_rng(derive_seed(seed, "fusionboot", str(cls)))
        keep[rows[rng.permutation(len(rows))[:n]]] = True
    return keep


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
    for sub in ("logs", "weights", "scores"):
        os.makedirs(os.path.join(cfg.out_dir, sub), exist_ok=True)
    manifest = _resolve_manifest(cfg)
    classes = manifest.classes

    cache_dir = cfg.cache_dir or os.path.join(cfg.out_dir, "cache")
    settings = CacheSettings(orientation_count=cfg.orientation_count,
                             resolution=cfg.resolution,
                             image_size=cfg.image_size,
                             seed=cfg.seed,
                             jitter_sigma=cfg.jitter_sigma)
    infos = [COMPONENTS[name] for name in cfg.components]
    report = prepare_caches(
        manifest, cache_dir, settings,
        include_voxels=any(i.source == "voxel" for i in infos),
        include_views=any(i.source == "view" for i in infos),
        include_jitter=any(i.jitter for i in infos),
        jobs=cfg.jobs)
    if report.failures:
        raise RuntimeError("cache preparation failed for: "
                           + "; ".join(report.failures[:20]))

    core, val = split_fusion_validation(manifest, cfg.seed)
    test = manifest.split_entries("test")

    label = "synthetic " + ",".join(classes) if cfg.data_root is None else cfg.data_root
    metrics: dict = {
        "dataset": {"classes": list(classes), "label": label,
                    "train": len(core), "val": len(val), "test": len(test)},
        "settings": {"components": list(cfg.components),
                     "orientations": cfg.orientation_count,
                     "resolution": cfg.resolution,
                     "image_size": cfg.image_size,
                     "epochs": cfg.epochs, "batch_size": cfg.batch_size,
                     "learning_rate": cfg.learning_rate,
                     "momentum": cfg.momentum,
                     "weight_decay": cfg.weight_decay,
                     "seed": cfg.seed},
        "components": {},
    }
    tcfg = TrainingConfig(
        epochs=cfg.epochs,
        optimizer=OptimizerConfig(learning_rate=cfg.learning_rate,
                                  momentum=cfg.momentum,
                                  weight_decay=cfg.weight_decay),
        batch_size=cfg.batch_size,
        seed=cfg.seed)
    tables: dict[str, list[ScoreTable]] = {"val": [], "test": []}
    for name in cfg.components:
        network, records = train_component(
            name, manifest, cache_dir, settings, core,
            replace(tcfg, log_path=os.path.join(cfg.out_dir, "logs", f"{name}.csv")),
            os.path.join(cfg.out_dir, "weights", f"{name}.fnw1"))
        entry: dict = {"train_metric": records[-1].train_metric,
                       "final_loss": records[-1].loss}
        for split_name, entries in (("val", val), ("test", test)):
            table = score_component(name, network, manifest, cache_dir, settings, entries)
            path = os.path.join(cfg.out_dir, "scores", f"{name}_{split_name}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(table.to_jsonl())
            entry[split_name] = table.metric
            entry[f"{split_name}_per_class"] = table.per_class(classes)
            tables[split_name].append(table)
        entry["views"] = (cfg.orientation_count if COMPONENTS[name].source == "voxel"
                          else VIEW_COUNT)
        metrics["components"][name] = entry
        del network  # frees its parameters and gradients before the next one trains

    names = list(cfg.components)
    masks = [_subsample_validation(tables["val"][0].labels,
                                   derive_seed(cfg.seed, "fusionfit", str(s)))
             for s in range(cfg.fusion_seeds)]
    (fw, fused_val), *refits = fit_fusion_weights(tables["val"], names, subsets=masks)
    fused = fuse_scores(tables["test"], fw)
    with open(os.path.join(cfg.out_dir, "scores", "fusion_test.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(fused.to_jsonl())

    comp_test = [metrics["components"][n]["test"] for n in names]
    seed_metrics = [fuse_scores(tables["test"], fw_s).metric for fw_s, _ in refits]
    wins = sum(all(m >= c for c in comp_test) for m in seed_metrics)

    metrics["fusion"] = {"weights": fw.as_dict(), "val": fused_val,
                         "test": fused.metric, "seed_metrics": seed_metrics,
                         "seed_wins": wins, "seed_count": cfg.fusion_seeds}

    with open(os.path.join(cfg.out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report_text(metrics))
    with open(os.path.join(cfg.out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return metrics
