"""Dataset plumbing, cache orchestration, training/evaluation loops, the
average per-class accuracy metric, and score fusion."""

from .caches import (CacheReport, CacheSettings, load_view_dataset,
                     load_voxel_dataset, model_orientations, prepare_caches,
                     views_to_input, voxels_to_input)
from .data import (SHAPE_KINDS, DatasetManifest, ManifestEntry, ingest_modelnet,
                   make_icosphere, make_synthetic_dataset)
from .evaluation import (ScoreTable, average_per_class_accuracy,
                         confusion_matrix, evaluate_network)
from .fusion import FusionWeights, fit_fusion_weights, fuse_scores, simplex_grid
from .report import report_text
from .run import (COMPONENTS, DEFAULT_COMPONENTS, RunConfig, run_pipeline,
                  split_fusion_validation)
from .training import EpochRecord, TrainingConfig, train

__all__ = [
    "CacheReport", "CacheSettings", "load_view_dataset", "load_voxel_dataset",
    "model_orientations", "prepare_caches", "views_to_input", "voxels_to_input",
    "SHAPE_KINDS", "DatasetManifest", "ManifestEntry", "ingest_modelnet",
    "make_icosphere", "make_synthetic_dataset",
    "ScoreTable", "average_per_class_accuracy", "confusion_matrix",
    "evaluate_network",
    "FusionWeights", "fit_fusion_weights", "fuse_scores", "simplex_grid",
    "report_text",
    "COMPONENTS", "DEFAULT_COMPONENTS", "RunConfig", "run_pipeline",
    "split_fusion_validation",
    "EpochRecord", "TrainingConfig", "train",
]
