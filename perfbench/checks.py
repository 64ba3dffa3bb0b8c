"""Correctness checks that do not trust the program's own verdicts.

Every check returns a list of problems; an empty list means it passed.
Cache files are decoded here with readers of the benchmark's own, voxel
grids are compared against an exhaustive per-(triangle, voxel) box-overlap
test, and accuracies are recomputed from the score files and the labels
the generator wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

VOXB_HEADER = struct.Struct("<4sB3H5x")
VIEW_COUNT = 20

# the 8 corners of a unit box, as offsets from its center in half-widths
_CORNERS = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                     for z in (-1.0, 1.0)])


def decode_voxb(data: bytes) -> np.ndarray:
    """Occupancy (z, y, x) from a VOXB file: 16-byte header, then one bit
    per voxel, x fastest, least significant bit first."""
    magic, version, nx, ny, nz = VOXB_HEADER.unpack_from(data)
    if magic != b"VOXB" or version != 1 or not nx == ny == nz:
        raise ValueError(f"not a cubic VOXB v1 file: {magic!r} v{version} {nx}x{ny}x{nz}")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, offset=VOXB_HEADER.size),
                         bitorder="little")
    return bits[:nx ** 3].astype(bool).reshape(nz, ny, nx)


def decode_pgm(data: bytes) -> np.ndarray:
    magic, dims, maxval, raw = data.split(b"\n", 3)
    w, h = map(int, dims.split())
    if magic != b"P5" or maxval != b"255" or len(raw) != w * h:
        raise ValueError("not a maxval-255 binary PGM")
    return np.frombuffer(raw, np.uint8).reshape(h, w)


# exact separations this close to zero are below what float64 geometry on
# unit-cube coordinates resolves; either verdict is accepted there
TIE_DISTANCE = 1e-12


def box_separation(triangles: np.ndarray, resolution: int) -> np.ndarray:
    """Exhaustive surface test: for every voxel of the [-0.5, 0.5]^3 grid,
    the smallest over triangles of the widest gap along the 13 separating
    axes, with the box projected through its 8 corners. A voxel is occupied
    when this is <= 0 (closed boxes: touching counts as overlap)."""
    h = 1.0 / resolution
    idx = (np.arange(resolution) + 0.5) * h - 0.5
    zc, yc, xc = np.meshgrid(idx, idx, idx, indexing="ij")
    centers = np.stack([xc.ravel(), yc.ravel(), zc.ravel()], axis=1)
    corners = centers[:, None, :] + (h / 2.0) * _CORNERS[None]  # (N, 8, 3)
    nearest = np.full(len(centers), np.inf)
    for tri in triangles:
        edges = (tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2])
        axes = [np.eye(3)[a] for a in range(3)] + [np.cross(edges[0], edges[1])]
        axes += [np.cross(np.eye(3)[a], e) for e in edges for a in range(3)]
        gap = np.full(len(centers), -np.inf)
        for axis in axes:
            norm = np.linalg.norm(axis)
            if norm == 0.0:  # degenerate axis: separates nothing
                continue
            t = tri @ axis
            b = corners @ axis
            gap = np.maximum(gap, np.maximum(b.min(axis=1) - t.max(), t.min() - b.max(axis=1))
                             / norm)
        nearest = np.minimum(nearest, gap)
    return nearest.reshape((resolution,) * 3)


def check_grid_against_oracle(grid: np.ndarray, triangles: np.ndarray, label: str) -> list[str]:
    sep = box_separation(triangles, grid.shape[0])
    wrong = (grid != (sep <= 0.0)) & (np.abs(sep) > TIE_DISTANCE)
    if not wrong.any():
        return []
    return [f"{label}: {int(wrong.sum())} voxels differ from the exhaustive overlap test "
            f"({int(grid.sum())} cached vs {int((sep <= 0.0).sum())} expected)"]


def check_vertex_voxels(grid: np.ndarray, vertices: np.ndarray, label: str) -> list[str]:
    """The voxel holding each vertex of the mesh must be occupied."""
    res = grid.shape[0]
    ijk = np.clip(np.floor((vertices + 0.5) * res).astype(np.int64), 0, res - 1)
    empty = ~grid[ijk[:, 2], ijk[:, 1], ijk[:, 0]]
    if empty.any():
        return [f"{label}: {int(empty.sum())} of {len(vertices)} vertices fall in empty voxels"]
    return []


def check_view(img: np.ndarray, label: str) -> list[str]:
    """A rendered view has a black border (background) and some lit pixels."""
    border = np.concatenate([img[0], img[-1], img[:, 0], img[:, -1]])
    out = []
    if border.any():
        out.append(f"{label}: background is not zero on the border")
    if not img.any():
        out.append(f"{label}: no lit pixels")
    return out


def expected_cache_files(models: int, orientations: int, include_voxels: bool,
                         include_views: bool, include_jitter: bool) -> int:
    """Files one prepare_caches call produces: a sidecar per model, a grid
    per orientation and flavor, and the views."""
    per_model = (1 + orientations * (int(include_voxels) + int(include_jitter))
                 + VIEW_COUNT * int(include_views))
    return models * per_model


def check_cold_report(report, expected: int) -> list[str]:
    out = []
    if report.failures:
        out.append(f"cold prep failures: {report.failures[:3]}")
    if (report.written, report.skipped, report.regenerated) != (expected, 0, 0):
        out.append(f"cold prep wrote/skipped/regenerated {report.written}/{report.skipped}/"
                   f"{report.regenerated}, expected {expected}/0/0")
    return out


def check_warm_report(report, expected: int) -> list[str]:
    out = []
    if report.failures:
        out.append(f"warm prep failures: {report.failures[:3]}")
    if (report.written, report.skipped, report.regenerated) != (0, expected, 0):
        out.append(f"warm prep wrote/skipped/regenerated {report.written}/{report.skipped}/"
                   f"{report.regenerated}, expected 0/{expected}/0")
    return out


def hash_tree(root: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_unchanged(before: dict[str, str], after: dict[str, str]) -> list[str]:
    changed = sorted(set(before) ^ set(after)
                     | {p for p in set(before) & set(after) if before[p] != after[p]})
    if changed:
        return [f"warm prep changed {len(changed)} cache files, first {changed[0]}"]
    return []


def generator_labels(manifest_path: str) -> tuple[dict[str, int], int]:
    """Class index per model id from the generator's manifest lines."""
    with open(manifest_path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    classes = sorted({r["label"] for r in rows})
    return {r["model_id"]: classes.index(r["label"]) for r in rows}, len(classes)


def average_per_class_accuracy(scores_path: str, labels: dict[str, int], k: int) -> float:
    correct = np.zeros(k)
    total = np.zeros(k)
    with open(scores_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                y = labels[row["model_id"]]
                total[y] += 1
                correct[y] += int(np.argmax(row["scores"])) == y
    present = total > 0
    return float((correct[present] / total[present]).mean())


def check_run_outputs(out_dir: str, components: tuple[str, ...],
                      floors: dict[str, float], falling_loss: bool) -> list[str]:
    """Recompute each component's test metric, then check the fusion result
    and the training logs of one finished run_pipeline output directory."""
    labels, k = generator_labels(os.path.join(out_dir, "dataset", "manifest.jsonl"))
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)
    out = []
    for name in components:
        got = average_per_class_accuracy(
            os.path.join(out_dir, "scores", f"{name}_test.jsonl"), labels, k)
        claimed = metrics["components"][name]["test"]
        if abs(got - claimed) > 1e-12:
            out.append(f"{name}: test metric recomputed from scores is {got}, "
                       f"metrics.json says {claimed}")
        if got < floors.get(name, 0.0):
            out.append(f"{name}: test metric {got:.3f} is below the floor {floors[name]}")
        out += check_loss_log(os.path.join(out_dir, "logs", f"{name}.csv"), falling_loss)
    best = max(metrics["components"][n]["val"] for n in components)
    if metrics["fusion"]["val"] < best - 1e-12:
        out.append(f"fused validation metric {metrics['fusion']['val']} is below "
                   f"the best component's {best}")
    weights = list(metrics["fusion"]["weights"].values())
    if min(weights) < 0 or abs(sum(weights) - 1.0) > 1e-9:
        out.append(f"fusion weights {weights} are not a convex combination")
    return out


def check_loss_log(path: str, falling: bool) -> list[str]:
    with open(path, encoding="ascii") as fh:
        losses = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
    if not losses or not all(math.isfinite(v) for v in losses):
        return [f"{path}: loss is missing or not finite: {losses}"]
    if falling and not losses[-1] < losses[0]:
        return [f"{path}: loss did not fall from the first epoch to the last: {losses}"]
    return []


def check_count(name: str, got: float, expected: int) -> list[str]:
    if got != expected:
        return [f"{name} is {got}, expected {expected} from the workload's sizes"]
    return []
