"""Voxel and view cache orchestration.

Layout under the cache directory:
    voxels/<id>_o<k>.voxb        occupancy per orientation k
    voxels_jit/<id>_o<k>.voxb    same, from the jittered mesh copy
    views/<id>_v<k>.pgm          rendered grayscale view k
    orientations/<id>.txt        the (theta, phi) list used for this model
    cache_manifest.jsonl         one line: the settings the files were made under

Preparation is idempotent. A file is kept only when the manifest's settings
line matches the current settings and the file's bytes decode to what those
settings expect (voxel resolution, image size, the exact orientation text);
any other file is regenerated in place. When the settings line differs,
every file is stale and is regenerated, and voxel files of orientations past
the current count are removed; with no manifest (an interrupted first
preparation) the decode check alone decides, so a resume keeps its work.
All writes go through a temp file + rename. Model ids may contain '/'
(ModelNet); path separators are flattened to '__' in file names.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

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


def _kept(path: str, stale: bool, decode: Callable[[bytes], object], want: object,
          report: CacheReport) -> bool:
    """Keep (and count as skipped) a file that is not ``stale`` and whose
    bytes decode to ``want``; a missing or corrupt file is not kept."""
    if stale:
        return False
    try:
        with open(path, "rb") as fh:
            if decode(fh.read()) != want:
                return False
    except (OSError, ValueError):
        return False
    report.skipped += 1
    return True


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
        if not _kept(opath, stale, bytes, otext, report):
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
                if _kept(path, stale, lambda b: read_voxel_cache(b).resolution,
                         settings.resolution, report):
                    continue
                turned = normalize_mesh(apply_rotation(mesh, o))
                grid = voxelize_surface(turned, resolution=settings.resolution)
                _replace_file(path, write_voxel_cache(grid), report)
        if stale:  # orientations past the current count are no longer named
            for jit in (False, True):
                k = settings.orientation_count
                while os.path.exists(path := os.path.join(cache_dir, voxel_rel(model_id, k, jit))):
                    os.remove(path)
                    k += 1

        if include_views:
            rig = make_camera_rig(settings.image_size)
            normalized = normalize_mesh(raw)
            for v in range(len(rig.positions)):
                path = os.path.join(cache_dir, view_rel(model_id, v))
                if _kept(path, stale, lambda b: read_pgm(b).shape,
                         (settings.image_size,) * 2, report):
                    continue
                img = render_view(normalized, rig, v)
                _replace_file(path, write_pgm(img), report)
    except (ValueError, OSError) as exc:
        report.failures.append(f"{model_id}: {exc}")
    return report


def prepare_caches(manifest: DatasetManifest, cache_dir: str,
                   settings: CacheSettings, include_voxels: bool = True,
                   include_views: bool = True, include_jitter: bool = False,
                   jobs: int = 1) -> CacheReport:
    """Build every cache file the manifest implies, skipping valid ones made
    under the same settings, then stamp the manifest with those settings."""
    for sub in ("voxels", "views", "orientations") + (("voxels_jit",) if include_jitter else ()):
        os.makedirs(os.path.join(cache_dir, sub), exist_ok=True)

    stamp = (json.dumps({"kind": "settings", **asdict(settings)}, sort_keys=True)
             + "\n").encode("ascii")
    mpath = os.path.join(cache_dir, "cache_manifest.jsonl")
    try:
        with open(mpath, "rb") as fh:
            old = fh.read()
    except FileNotFoundError:
        old = None
    # a manifest of older layout (per-file lines after the stamp) is not stale
    stale = old is not None and not old.startswith(stamp)

    prep = partial(_prepare_model, cache_dir=cache_dir, settings=settings,
                   include_voxels=include_voxels, include_views=include_views,
                   include_jitter=include_jitter, stale=stale)
    columns = ([manifest.mesh_path(e) for e in manifest.entries],
               [e.model_id for e in manifest.entries])
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subs = list(pool.map(prep, *columns, chunksize=4))
    else:
        subs = map(prep, *columns)
    report = CacheReport()
    for sub in subs:
        report.merge(sub)

    if stale and report.failures:
        # a failed model may keep files of the old settings: leave the old
        # settings line so that the next preparation regenerates them
        return report
    if old != stamp:
        _write_atomic(mpath, stamp)
    return report


def load_voxel_dataset(manifest: DatasetManifest, cache_dir: str,
                       settings: CacheSettings, entries: list[ManifestEntry],
                       jit: bool = False) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack (samples, res, res, res) uint8 occupancy with integer labels.
    Samples are grouped per model in ``entries`` order, orientation-major, so
    rows [m*N, (m+1)*N) are the N views of model m."""
    res = settings.resolution
    n = settings.orientation_count
    x = np.empty((len(entries) * n, res, res, res), dtype=np.uint8)
    y = np.empty(len(entries) * n, dtype=np.int64)
    ids = [e.model_id for e in entries]
    for mi, e in enumerate(entries):
        label = manifest.label_index(e.class_label)
        for k in range(n):
            with open(os.path.join(cache_dir, voxel_rel(e.model_id, k, jit)), "rb") as fh:
                grid = read_voxel_cache(fh.read())
            x[mi * n + k] = grid.occupancy
            y[mi * n + k] = label
    return x, y, ids


def load_view_dataset(manifest: DatasetManifest, cache_dir: str,
                      settings: CacheSettings, entries: list[ManifestEntry]
                      ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack (samples, size, size) uint8 grayscale with integer labels,
    grouped per model, view-major (20 views per model)."""
    s = settings.image_size
    x = np.empty((len(entries) * 20, s, s), dtype=np.uint8)
    y = np.empty(len(entries) * 20, dtype=np.int64)
    ids = [e.model_id for e in entries]
    for mi, e in enumerate(entries):
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
