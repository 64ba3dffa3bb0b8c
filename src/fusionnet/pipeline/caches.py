"""Voxel and view cache orchestration.

Layout under the cache directory:
    voxels/<id>_o<k>.voxb        occupancy per orientation k
    voxels_jit/<id>_o<k>.voxb    same, from the jittered mesh copy
    views/<id>_v<k>.pgm          rendered grayscale view k
    stamps/<id>.json             one line: the cache format, the settings and
                                 the mesh sha256 this model's files were made under

Preparation is idempotent, and each model's stamp is its cache key. When the
stamp matches the cache format, the current settings and the mesh bytes, a
file is kept if its bytes decode to what those settings expect (voxel
resolution, image size); a missing or corrupt file is regenerated in place.
When the stamp is missing or differs, the model is stale: its stamp is
removed first, every requested file is rebuilt, the files this pass does not
rebuild (orientations past the count, flavors not asked for) are removed,
and the stamp is written last, only if nothing failed. An interrupted pass
therefore never leaves a stamp over files of other settings. All writes go
through a temp file + rename.
Model ids may contain '/' (ModelNet); path separators are flattened to '__'
in file names.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..mesh import JitterConfig, jitter_mesh, normalize_mesh, parse_off
from ..orientations import OrientationSet, apply_rotation, derive_seed, sample_orientations
from ..render import VIEW_COUNT, make_camera_rig, read_pgm, render_view, write_pgm
from ..voxel import read_voxel_cache, voxelize_surface, write_voxel_cache
from .data import DatasetManifest, ManifestEntry

# bump when the VOXB or PGM bytes, or the voxelizer's or renderer's output,
# change: every stamp of another format is stale
CACHE_FORMAT = 1


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


def stamp_rel(model_id: str) -> str:
    return os.path.join("stamps", f"{safe_id(model_id)}.json")


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
                   include_views: bool, include_jitter: bool) -> CacheReport:
    """Write the model's cache files; with a missing or different stamp, no
    existing file is kept."""
    report = CacheReport()
    try:
        with open(mesh_path, "rb") as fh:
            data = fh.read()
        raw = parse_off(data, source_path=mesh_path)
        oset = model_orientations(model_id, settings)

        spath = os.path.join(cache_dir, stamp_rel(model_id))
        stamp = (json.dumps({**asdict(settings), "format": CACHE_FORMAT,
                             "mesh_sha256": hashlib.sha256(data).hexdigest()},
                            sort_keys=True) + "\n").encode("ascii")
        stale = not _kept(spath, False, bytes, stamp, report)
        if stale and os.path.exists(spath):
            os.remove(spath)  # before any file of this model is rewritten

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

        if stale:  # files this pass did not rebuild were made under other settings
            n = settings.orientation_count
            for rel, k in ((lambda k: voxel_rel(model_id, k), n * include_voxels),
                           (lambda k: voxel_rel(model_id, k, True), n * include_jitter),
                           (lambda k: view_rel(model_id, k), VIEW_COUNT * include_views)):
                while os.path.exists(path := os.path.join(cache_dir, rel(k))):
                    os.remove(path)
                    k += 1
            _replace_file(spath, stamp, report)
    except (ValueError, OSError) as exc:
        report.failures.append(f"{model_id}: {exc}")
    return report


def prepare_caches(manifest: DatasetManifest, cache_dir: str,
                   settings: CacheSettings, include_voxels: bool = True,
                   include_views: bool = True, include_jitter: bool = False,
                   jobs: int = 1) -> CacheReport:
    """Build every cache file the manifest implies, keeping valid files of
    models whose stamp matches the current settings and mesh bytes."""
    for sub in ("voxels", "views", "stamps") + (("voxels_jit",) if include_jitter else ()):
        os.makedirs(os.path.join(cache_dir, sub), exist_ok=True)

    prep = partial(_prepare_model, cache_dir=cache_dir, settings=settings,
                   include_voxels=include_voxels, include_views=include_views,
                   include_jitter=include_jitter)
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
    return report


def _stack(manifest: DatasetManifest, cache_dir: str, entries: list[ManifestEntry],
           per_model: int, rel: Callable[[str, int], str],
           decode: Callable[[bytes], np.ndarray], shape: tuple[int, ...]
           ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Decode file rel(id, k) of each model into row m*per_model + k of a uint8
    stack, next to the model's integer label."""
    x = np.empty((len(entries) * per_model, *shape), dtype=np.uint8)
    y = np.empty(len(entries) * per_model, dtype=np.int64)
    for mi, e in enumerate(entries):
        y[mi * per_model:(mi + 1) * per_model] = manifest.label_index(e.class_label)
        for k in range(per_model):
            with open(os.path.join(cache_dir, rel(e.model_id, k)), "rb") as fh:
                x[mi * per_model + k] = decode(fh.read())
    return x, y, [e.model_id for e in entries]


def load_voxel_dataset(manifest: DatasetManifest, cache_dir: str,
                       settings: CacheSettings, entries: list[ManifestEntry],
                       jit: bool = False) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack (samples, res, res, res) uint8 occupancy with integer labels.
    Samples are grouped per model in ``entries`` order, orientation-major, so
    rows [m*N, (m+1)*N) are the N views of model m."""
    return _stack(manifest, cache_dir, entries, settings.orientation_count,
                  lambda model_id, k: voxel_rel(model_id, k, jit),
                  lambda b: read_voxel_cache(b).occupancy, (settings.resolution,) * 3)


def load_view_dataset(manifest: DatasetManifest, cache_dir: str,
                      settings: CacheSettings, entries: list[ManifestEntry]
                      ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack (samples, size, size) uint8 grayscale with integer labels,
    grouped per model, view-major (VIEW_COUNT views per model)."""
    return _stack(manifest, cache_dir, entries, VIEW_COUNT, view_rel, read_pgm,
                  (settings.image_size,) * 2)


def voxels_to_input(batch: np.ndarray) -> np.ndarray:
    """uint8 occupancy (B, res, res, res) -> float32 network input."""
    return batch.astype(np.float32)


def views_to_input(batch: np.ndarray) -> np.ndarray:
    """uint8 grayscale (B, S, S) -> float32 3-channel input in [0, 1]."""
    scaled = batch.astype(np.float32) / np.float32(255.0)
    return np.repeat(scaled[:, None, :, :], 3, axis=1)
