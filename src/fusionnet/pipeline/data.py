"""Dataset manifests: ModelNet ingestion and the synthetic shape corpus.

The synthetic generator produces five gravity-aligned shape families with
randomized proportions, tessellation, azimuth spin, and raw scale (tens of
model units, like CAD exports), so normalization and jitter behave as they
would on real data. Everything is deterministic given the dataset seed.

Manifest file format: JSON lines, one object per model with keys
model_id, label, split, path (relative to the manifest's directory).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ..mesh import TriangleMesh, parse_off, write_off
from ..orientations import derive_seed

SHAPE_KINDS = ("box", "sphere", "pyramid", "cylinder", "torus")


@dataclass(frozen=True)
class ManifestEntry:
    model_id: str
    class_label: str
    split: str  # train | test
    path: str  # mesh file, relative to the manifest root


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    classes: list[str]
    root: str  # directory paths are relative to

    def __post_init__(self):
        ids = [e.model_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate model_id in manifest")
        for cls in self.classes:
            for split in ("train", "test"):
                if not any(e.class_label == cls and e.split == split for e in self.entries):
                    raise ValueError(f"class {cls!r} has no {split} entries")

    def label_index(self, label: str) -> int:
        return self.classes.index(label)

    def split_entries(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def mesh_path(self, entry: ManifestEntry) -> str:
        return os.path.join(self.root, entry.path)

    def subset(self, classes: list[str]) -> "DatasetManifest":
        keep = [e for e in self.entries if e.class_label in classes]
        return DatasetManifest(entries=keep, classes=sorted(classes), root=self.root)

    def write(self, path: str) -> None:
        lines = [json.dumps({"model_id": e.model_id, "label": e.class_label,
                             "split": e.split, "path": e.path}, sort_keys=True)
                 for e in self.entries]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path: str) -> "DatasetManifest":
        entries = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                entries.append(ManifestEntry(model_id=obj["model_id"],
                                             class_label=obj["label"],
                                             split=obj["split"],
                                             path=obj["path"]))
        classes = sorted({e.class_label for e in entries})
        return cls(entries=entries, classes=classes, root=os.path.dirname(os.path.abspath(path)))


def _spin_z(vertices: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return vertices @ rz.T


def make_box(rng: np.random.Generator) -> TriangleMesh:
    hx, hy, hz = rng.uniform(0.4, 1.2, size=3)
    v = np.array([[sx * hx, sy * hy, sz * hz]
                  for sz in (-1, 1) for sy in (-1, 1) for sx in (-1, 1)], dtype=np.float64)
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return TriangleMesh(v, np.array(faces, dtype=np.int64))


def make_icosphere(subdivisions: int, radius: float = 1.0) -> TriangleMesh:
    """Icosahedron refined by midpoint subdivision, projected to the sphere."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
             (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
             (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1)]
    verts = [np.array(v, dtype=np.float64) / np.linalg.norm(v) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt
    return TriangleMesh(np.array(verts) * radius, np.array(faces, dtype=np.int64))


def make_sphere(rng: np.random.Generator) -> TriangleMesh:
    mesh = make_icosphere(2, radius=float(rng.uniform(0.8, 1.2)))
    stretch = rng.uniform(0.9, 1.1, size=3)
    return TriangleMesh(mesh.vertices * stretch, mesh.faces)


def make_pyramid(rng: np.random.Generator) -> TriangleMesh:
    b = float(rng.uniform(0.6, 1.2))
    h = float(rng.uniform(0.8, 1.6))
    v = np.array([[-b, -b, 0], [b, -b, 0], [b, b, 0], [-b, b, 0], [0, 0, h]],
                 dtype=np.float64)
    faces = np.array([(0, 2, 1), (0, 3, 2),
                      (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)], dtype=np.int64)
    return TriangleMesh(v, faces)


def make_cylinder(rng: np.random.Generator) -> TriangleMesh:
    r = float(rng.uniform(0.5, 1.0))
    h = float(rng.uniform(1.0, 2.0))
    n = int(rng.integers(16, 29))
    ang = 2.0 * math.pi * np.arange(n) / n
    rim_lo = np.stack([r * np.cos(ang), r * np.sin(ang), np.full(n, -h / 2)], axis=1)
    rim_hi = rim_lo + np.array([0.0, 0.0, h])
    v = np.vstack([rim_lo, rim_hi, [[0, 0, -h / 2]], [[0, 0, h / 2]]])
    lo, hi, clo, chi = 0, n, 2 * n, 2 * n + 1
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces += [(lo + i, lo + j, hi + i), (lo + j, hi + j, hi + i)]  # wall
        faces += [(clo, lo + j, lo + i), (chi, hi + i, hi + j)]  # caps
    return TriangleMesh(v, np.array(faces, dtype=np.int64))


def make_torus(rng: np.random.Generator) -> TriangleMesh:
    minor = float(rng.uniform(0.25, 0.45))
    rings, sides = 18, 10
    u = 2.0 * math.pi * np.arange(rings) / rings
    w = 2.0 * math.pi * np.arange(sides) / sides
    uu, ww = np.meshgrid(u, w, indexing="ij")
    x = (1.0 + minor * np.cos(ww)) * np.cos(uu)
    y = (1.0 + minor * np.cos(ww)) * np.sin(uu)
    z = minor * np.sin(ww)
    v = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    faces = []
    for i in range(rings):
        for j in range(sides):
            a = i * sides + j
            b = ((i + 1) % rings) * sides + j
            c = ((i + 1) % rings) * sides + (j + 1) % sides
            d = i * sides + (j + 1) % sides
            faces += [(a, b, c), (a, c, d)]
    return TriangleMesh(v, np.array(faces, dtype=np.int64))


_GENERATORS = {"box": make_box, "sphere": make_sphere, "pyramid": make_pyramid,
               "cylinder": make_cylinder, "torus": make_torus}


def make_synthetic_dataset(classes: list[str], per_class: int, seed: int,
                           out_dir: str) -> DatasetManifest:
    """Generate OFF files plus a manifest with an 80/20 train/test split."""
    unknown = sorted(set(classes) - set(SHAPE_KINDS))
    if unknown:
        raise ValueError(f"unknown shape kinds {unknown}; choose from {list(SHAPE_KINDS)}")
    if per_class < 2:
        raise ValueError(f"per_class must be >= 2, got {per_class}")
    mesh_dir = os.path.join(out_dir, "meshes")
    os.makedirs(mesh_dir, exist_ok=True)
    train_n = min(max(int(round(per_class * 0.8)), 1), per_class - 1)
    entries = []
    for cls in sorted(classes):
        for idx in range(per_class):
            model_id = f"{cls}_{idx:04d}"
            rng = np.random.default_rng(derive_seed(seed, "synth", model_id))
            mesh = _GENERATORS[cls](rng)
            spun = _spin_z(mesh.vertices, float(rng.uniform(0.0, 2.0 * math.pi)))
            scale = float(rng.uniform(40.0, 120.0))
            mesh = TriangleMesh(spun * scale, mesh.faces)
            rel = os.path.join("meshes", f"{model_id}.off")
            with open(os.path.join(out_dir, rel), "wb") as fh:
                fh.write(write_off(mesh))
            entries.append(ManifestEntry(model_id=model_id, class_label=cls,
                                         split="train" if idx < train_n else "test",
                                         path=rel))
    manifest = DatasetManifest(entries=entries, classes=sorted(classes),
                               root=os.path.abspath(out_dir))
    manifest.write(os.path.join(out_dir, "manifest.jsonl"))
    return manifest


def ingest_modelnet(root: str) -> DatasetManifest:
    """Build a manifest from a ModelNet-layout tree (class/{train,test}/*.off),
    preserving the dataset's own split. Unparseable files fail the ingest
    with every offender listed."""
    if not os.path.isdir(root):
        raise ValueError(f"dataset root {root!r} is not a directory")
    classes = sorted(
        d for d in os.listdir(root)
        if os.path.isdir(os.path.join(root, d, "train"))
        and os.path.isdir(os.path.join(root, d, "test")))
    if not classes:
        raise ValueError("no classes found")
    entries = []
    bad: list[str] = []
    for cls in classes:
        for split in ("train", "test"):
            sub = os.path.join(root, cls, split)
            for fname in sorted(os.listdir(sub)):
                if not fname.lower().endswith(".off"):
                    continue
                rel = os.path.join(cls, split, fname)
                try:
                    with open(os.path.join(root, rel), "rb") as fh:
                        parse_off(fh.read(), source_path=rel)
                except ValueError as exc:
                    bad.append(f"{rel}: {exc}")
                    continue
                entries.append(ManifestEntry(model_id=f"{cls}/{os.path.splitext(fname)[0]}",
                                             class_label=cls, split=split, path=rel))
    if bad:
        shown = "\n  ".join(bad[:20])
        more = f"\n  ... and {len(bad) - 20} more" if len(bad) > 20 else ""
        raise ValueError(f"{len(bad)} unparseable OFF files:\n  {shown}{more}")
    return DatasetManifest(entries=entries, classes=classes, root=os.path.abspath(root))
