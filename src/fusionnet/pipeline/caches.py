"""Voxel and view cache orchestration.

Layout under the cache directory:
    voxels/<id>_o<k>.voxb        occupancy per orientation k
    voxels_jit/<id>_o<k>.voxb    same, from the jittered mesh copy
    views/<id>_v<k>.pgm          rendered grayscale view k
    orientations/<id>.txt        the (theta, phi) list used for this model
    cache_manifest.jsonl         settings line + sha256 per produced file

Preparation is idempotent: files that exist and pass their header check are
skipped; corrupt or wrong-shape files are regenerated in place. When the
manifest's settings line differs from the current settings, every file is
stale and is regenerated; with no manifest (an interrupted first
preparation) the header check alone decides, so a resume keeps its work.
All writes go through a temp file + rename. Model ids may contain '/'
(ModelNet); path separators are flattened to '__' in file names.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..mesh import JitterConfig, jitter_mesh, normalize_mesh, parse_off
from ..orientations import (OrientationSet, apply_rotation, derive_seed,
                            orientations_to_text, sample_orientations)
from ..render import make_camera_rig, read_pgm, render_view, write_pgm
from ..voxel import read_voxel_cache, voxelize_surface, write_voxel_cache
from .data import DatasetManifest, ManifestEntry


@dataclass(frozen=True)
class CacheSettings:
    orientation_count: int = 60
    resolution: int = 30
    image_size: int = 64
    seed: int = 0
    jitter_sigma: float = 5.0


@dataclass
class CacheReport:
    written: int = 0
    skipped: int = 0
    regenerated: int = 0
    failures: list[str] = field(default_factory=list)

    def merge(self, other: "CacheReport") -> None:
        self.written += other.written
        self.skipped += other.skipped
        self.regenerated += other.regenerated
        self.failures.extend(other.failures)


def safe_id(model_id: str) -> str:
    return model_id.replace("/", "__")


def voxel_rel(model_id: str, orient: int, jit: bool = False) -> str:
    d = "voxels_jit" if jit else "voxels"
    return os.path.join(d, f"{safe_id(model_id)}_o{orient}.voxb")


def view_rel(model_id: str, view: int) -> str:
    return os.path.join("views", f"{safe_id(model_id)}_v{view}.pgm")


def orient_rel(model_id: str) -> str:
    return os.path.join("orientations", f"{safe_id(model_id)}.txt")


def _write_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _valid_voxel_file(path: str, resolution: int) -> bool:
    try:
        with open(path, "rb") as fh:
            grid = read_voxel_cache(fh.read())
        return grid.resolution == resolution
    except (OSError, ValueError):
        return False


def _valid_view_file(path: str, image_size: int) -> bool:
    try:
        with open(path, "rb") as fh:
            img = read_pgm(fh.read())
        return img.shape == (image_size, image_size)
    except (OSError, ValueError):
        return False


def _replace_file(path: str, data: bytes, report: CacheReport) -> None:
    existed = os.path.exists(path)
    _write_atomic(path, data)
    if existed:
        report.regenerated += 1
    else:
        report.written += 1


def model_orientations(model_id: str, settings: CacheSettings) -> OrientationSet:
    return sample_orientations(settings.orientation_count,
                               seed=derive_seed(settings.seed, "orient", model_id))


def _prepare_model(mesh_path: str, model_id: str, cache_dir: str,
                   settings: CacheSettings, include_voxels: bool,
                   include_views: bool, include_jitter: bool,
                   stale: bool) -> CacheReport:
    """Write the model's cache files; with stale set, no existing file is kept."""
    report = CacheReport()
    try:
        with open(mesh_path, "rb") as fh:
            raw = parse_off(fh.read(), source_path=mesh_path)
        oset = model_orientations(model_id, settings)

        opath = os.path.join(cache_dir, orient_rel(model_id))
        otext = orientations_to_text(oset).encode("ascii")
        if not stale and os.path.exists(opath) and open(opath, "rb").read() == otext:
            report.skipped += 1
        else:
            _replace_file(opath, otext, report)

        flavors = []
        if include_voxels:
            flavors.append((False, raw))
        if include_jitter:
            jit_cfg = JitterConfig(sigma=settings.jitter_sigma,
                                   seed=derive_seed(settings.seed, "jitter", model_id))
            flavors.append((True, jitter_mesh(raw, jit_cfg)))
        for jit, mesh in flavors:
            for k, o in enumerate(oset.orientations):
                path = os.path.join(cache_dir, voxel_rel(model_id, k, jit))
                if not stale and _valid_voxel_file(path, settings.resolution):
                    report.skipped += 1
                    continue
                turned = normalize_mesh(apply_rotation(mesh, o))
                grid = voxelize_surface(turned, resolution=settings.resolution)
                _replace_file(path, write_voxel_cache(grid), report)

        if include_views:
            rig = make_camera_rig(settings.image_size)
            normalized = normalize_mesh(raw)
            for v in range(len(rig.positions)):
                path = os.path.join(cache_dir, view_rel(model_id, v))
                if not stale and _valid_view_file(path, settings.image_size):
                    report.skipped += 1
                    continue
                img = render_view(normalized, rig, v)
                _replace_file(path, write_pgm(img), report)
    except (ValueError, OSError) as exc:
        report.failures.append(f"{model_id}: {exc}")
    return report


def _expected_files(manifest: DatasetManifest, settings: CacheSettings,
                    include_voxels: bool, include_views: bool,
                    include_jitter: bool) -> list[str]:
    rels = []
    for e in manifest.entries:
        rels.append(orient_rel(e.model_id))
        if include_voxels:
            rels += [voxel_rel(e.model_id, k) for k in range(settings.orientation_count)]
        if include_jitter:
            rels += [voxel_rel(e.model_id, k, jit=True)
                     for k in range(settings.orientation_count)]
        if include_views:
            rels += [view_rel(e.model_id, v) for v in range(20)]
    return rels


def prepare_caches(manifest: DatasetManifest, cache_dir: str,
                   settings: CacheSettings, include_voxels: bool = True,
                   include_views: bool = True, include_jitter: bool = False,
                   jobs: int = 1) -> CacheReport:
    """Build every cache file the manifest implies, skipping valid ones made
    under the same settings, then rewrite the content-hash manifest if
    anything changed."""
    for sub in ("voxels", "views", "orientations") + (("voxels_jit",) if include_jitter else ()):
        os.makedirs(os.path.join(cache_dir, sub), exist_ok=True)

    settings_line = json.dumps({"kind": "settings",
                                "orientation_count": settings.orientation_count,
                                "resolution": settings.resolution,
                                "image_size": settings.image_size,
                                "seed": settings.seed,
                                "jitter_sigma": settings.jitter_sigma}, sort_keys=True)
    mpath = os.path.join(cache_dir, "cache_manifest.jsonl")
    try:
        with open(mpath, "rb") as fh:
            stale = fh.readline() != (settings_line + "\n").encode("ascii")
    except FileNotFoundError:
        stale = False

    tasks = [(manifest.mesh_path(e), e.model_id, cache_dir, settings,
              include_voxels, include_views, include_jitter, stale)
             for e in manifest.entries]
    report = CacheReport()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for sub in pool.map(_prepare_model_star, tasks, chunksize=4):
                report.merge(sub)
    else:
        for task in tasks:
            report.merge(_prepare_model(*task))

    if stale and report.failures:
        # a failed model may keep files of the old settings: leave the old
        # settings line so that the next preparation regenerates them
        return report
    lines = [settings_line]
    for rel in sorted(_expected_files(manifest, settings, include_voxels,
                                      include_views, include_jitter)):
        path = os.path.join(cache_dir, rel)
        if not os.path.exists(path):
            continue  # the per-model failure is already in the report
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        lines.append(json.dumps({"path": rel.replace(os.sep, "/"), "sha256": digest},
                                sort_keys=True))
    blob = ("\n".join(lines) + "\n").encode("ascii")
    if not (os.path.exists(mpath) and open(mpath, "rb").read() == blob):
        _write_atomic(mpath, blob)
    return report


def _prepare_model_star(task) -> CacheReport:
    return _prepare_model(*task)


def load_voxel_dataset(manifest: DatasetManifest, cache_dir: str, split: str,
                       settings: CacheSettings, jit: bool = False,
                       entries: list[ManifestEntry] | None = None
                       ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack (samples, res, res, res) uint8 occupancy with integer labels.
    Samples are grouped per model in manifest order, orientation-major, so
    rows [m*N, (m+1)*N) are the N views of model m."""
    chosen = entries if entries is not None else manifest.split_entries(split)
    res = settings.resolution
    n = settings.orientation_count
    x = np.empty((len(chosen) * n, res, res, res), dtype=np.uint8)
    y = np.empty(len(chosen) * n, dtype=np.int64)
    ids = []
    for mi, e in enumerate(chosen):
        ids.append(e.model_id)
        label = manifest.label_index(e.class_label)
        for k in range(n):
            with open(os.path.join(cache_dir, voxel_rel(e.model_id, k, jit)), "rb") as fh:
                grid = read_voxel_cache(fh.read())
            x[mi * n + k] = grid.occupancy
            y[mi * n + k] = label
    return x, y, ids


def load_view_dataset(manifest: DatasetManifest, cache_dir: str, split: str,
                      settings: CacheSettings,
                      entries: list[ManifestEntry] | None = None
                      ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack (samples, size, size) uint8 grayscale with integer labels,
    grouped per model, view-major (20 views per model)."""
    chosen = entries if entries is not None else manifest.split_entries(split)
    s = settings.image_size
    x = np.empty((len(chosen) * 20, s, s), dtype=np.uint8)
    y = np.empty(len(chosen) * 20, dtype=np.int64)
    ids = []
    for mi, e in enumerate(chosen):
        ids.append(e.model_id)
        label = manifest.label_index(e.class_label)
        for v in range(20):
            with open(os.path.join(cache_dir, view_rel(e.model_id, v)), "rb") as fh:
                x[mi * 20 + v] = read_pgm(fh.read())
            y[mi * 20 + v] = label
    return x, y, ids


def voxels_to_input(batch: np.ndarray) -> np.ndarray:
    """uint8 occupancy (B, res, res, res) -> float32 network input."""
    return batch.astype(np.float32)


def views_to_input(batch: np.ndarray) -> np.ndarray:
    """uint8 grayscale (B, S, S) -> float32 3-channel input in [0, 1]."""
    scaled = batch.astype(np.float32) / np.float32(255.0)
    return np.repeat(scaled[:, None, :, :], 3, axis=1)
