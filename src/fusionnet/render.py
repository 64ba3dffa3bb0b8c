"""Orthographic grayscale renders of meshes from 20 fixed viewpoints.

Cameras sit on the 20 vertices of a regular dodecahedron (equivalently the
face centers of a regular icosahedron) and look at the origin. Shading is
flat per-face Phong with a single directional light co-located with the
camera; face normals are flipped toward the viewer so triangle soups with
inconsistent winding render double-sided. Background pixels are exactly 0.

Pinned shading constants: ambient 0.1, diffuse 0.6, specular 0.3,
shininess 32. A normalized mesh fills 90% of the frame in its worst-case
orientation (the unit cube's bounding sphere maps to 90% of the half-width).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product

import numpy as np

from .mesh import TriangleMesh

AMBIENT = 0.1
DIFFUSE = 0.6
SPECULAR = 0.3
SHININESS = 32
FRAME_FILL = 0.9
ORTHO_HALF_EXTENT = math.sqrt(3.0) / 2.0 / FRAME_FILL

VIEW_COUNT = 20

_PGM_DIMS = re.compile(rb"([1-9][0-9]{0,8}) ([1-9][0-9]{0,8})")


class PgmError(ValueError):
    """Malformed PGM bytes."""


@dataclass(frozen=True)
class CameraRig:
    positions: np.ndarray  # (20, 3) unit directions toward the cameras
    up_hint: np.ndarray  # gravity axis
    image_size: int
    ortho_half_extent: float = ORTHO_HALF_EXTENT


def make_camera_rig(image_size: int) -> CameraRig:
    """The 20 dodecahedron vertices in a fixed, gravity-consistent order."""
    if image_size < 16:
        raise ValueError(f"image_size must be >= 16, got {image_size}")
    g = (1.0 + math.sqrt(5.0)) / 2.0
    pts = [(sx, sy, sz) for sx, sy, sz in product((-1.0, 1.0), repeat=3)]
    pts += [(0.0, s1 / g, s2 * g) for s1, s2 in product((-1.0, 1.0), repeat=2)]
    pts += [(s1 / g, s2 * g, 0.0) for s1, s2 in product((-1.0, 1.0), repeat=2)]
    pts += [(s1 * g, 0.0, s2 / g) for s1, s2 in product((-1.0, 1.0), repeat=2)]
    arr = np.array(sorted(pts, key=lambda p: (-p[2], -p[1], -p[0]))) / math.sqrt(3.0)
    return CameraRig(positions=arr, up_hint=np.array([0.0, 0.0, 1.0]), image_size=image_size)


def camera_basis(rig: CameraRig, view_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed (right, up, forward) frame; forward points at the origin."""
    p = rig.positions[view_index]
    f = -p / np.linalg.norm(p)
    r = np.cross(rig.up_hint, f)
    rn = np.linalg.norm(r)
    if rn < 1e-12:
        # camera on the gravity axis: fall back to x as the in-plane reference
        r = np.cross(np.array([1.0, 0.0, 0.0]), f)
        rn = np.linalg.norm(r)
    r = r / rn
    u = np.cross(f, r)
    return r, u, f


def _phong_face_shades(normals: np.ndarray, to_camera: np.ndarray) -> np.ndarray:
    """Flat shade per face, normals already flipped toward the viewer."""
    cos = normals @ to_camera
    refl = 2.0 * cos * cos - 1.0  # dot(reflect(L, n), V) with L == V
    shade = AMBIENT + DIFFUSE * cos + SPECULAR * np.maximum(refl, 0.0) ** SHININESS
    return np.clip(shade, 0.0, 1.0)


def render_view(mesh: TriangleMesh, rig: CameraRig, view_index: int) -> np.ndarray:
    """Rasterize one orthographic view with depth buffering: (size, size)
    float64 intensities in [0, 1], row 0 at the top."""
    if not 0 <= view_index < len(rig.positions):
        raise ValueError(f"view_index {view_index} out of range")
    if len(mesh.faces) == 0:
        raise ValueError("cannot render an empty mesh")

    size = rig.image_size
    extent = rig.ortho_half_extent
    r, u, f = camera_basis(rig, view_index)

    xs = mesh.vertices @ r
    ys = mesh.vertices @ u
    ds = mesh.vertices @ f  # smaller = closer to the camera

    fb = np.zeros((size, size), dtype=np.float64)

    tri_x = xs[mesh.faces]  # (F, 3)
    tri_y = ys[mesh.faces]
    tri_d = ds[mesh.faces]

    # world-space flat normals, flipped toward the viewer
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    n = np.cross(b - a, c - a)
    nlen = np.linalg.norm(n, axis=1)
    to_cam = -f
    ok = nlen > 1e-300
    n = np.where(ok[:, None], n / np.where(ok, nlen, 1.0)[:, None], 0.0)
    flip = (n @ to_cam) < 0.0
    n[flip] = -n[flip]
    shades = _phong_face_shades(n, to_cam)

    # signed area of the screen-space triangles; edge-on faces rasterize nothing
    area = ((tri_x[:, 1] - tri_x[:, 0]) * (tri_y[:, 2] - tri_y[:, 0])
            - (tri_y[:, 1] - tri_y[:, 0]) * (tri_x[:, 2] - tri_x[:, 0]))
    live = ok & (area != 0.0)

    # pixel-space bounding boxes (pixel centers sample the continuous plane)
    px_per_unit = size / (2.0 * extent)
    col_lo = np.ceil((tri_x.min(axis=1) + extent) * px_per_unit - 0.5).astype(np.int64)
    col_hi = np.floor((tri_x.max(axis=1) + extent) * px_per_unit - 0.5).astype(np.int64)
    row_lo = np.ceil((extent - tri_y.max(axis=1)) * px_per_unit - 0.5).astype(np.int64)
    row_hi = np.floor((extent - tri_y.min(axis=1)) * px_per_unit - 0.5).astype(np.int64)
    np.clip(col_lo, 0, size - 1, out=col_lo)
    np.clip(col_hi, 0, size - 1, out=col_hi)
    np.clip(row_lo, 0, size - 1, out=row_lo)
    np.clip(row_hi, 0, size - 1, out=row_hi)

    ncols = np.maximum(col_hi - col_lo + 1, 0)
    nrows = np.maximum(row_hi - row_lo + 1, 0)
    counts = np.where(live, ncols * nrows, 0)
    total = int(counts.sum())
    if total == 0:
        return fb

    face_idx = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(total) - np.repeat(np.concatenate([[0], np.cumsum(counts)])[:-1], counts)
    col = col_lo[face_idx] + rank % ncols[face_idx]
    row = row_lo[face_idx] + rank // ncols[face_idx]

    px = -extent + (col + 0.5) / px_per_unit
    py = extent - (row + 0.5) / px_per_unit

    x0, x1, x2 = tri_x[face_idx, 0], tri_x[face_idx, 1], tri_x[face_idx, 2]
    y0, y1, y2 = tri_y[face_idx, 0], tri_y[face_idx, 1], tri_y[face_idx, 2]
    w0 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    w1 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)
    w2 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
    ar = area[face_idx]
    inside = ((w0 * ar >= 0.0) & (w1 * ar >= 0.0) & (w2 * ar >= 0.0))
    if not inside.any():
        return fb

    face_idx = face_idx[inside]
    pix = row[inside] * size + col[inside]
    depth = (w0[inside] * tri_d[face_idx, 0] + w1[inside] * tri_d[face_idx, 1]
             + w2[inside] * tri_d[face_idx, 2]) / area[face_idx]

    # nearest fragment wins; ties resolve to the earliest fragment emitted
    order = np.lexsort((np.arange(len(pix)), depth, pix))
    pix_sorted = pix[order]
    first = np.ones(len(pix_sorted), dtype=bool)
    first[1:] = pix_sorted[1:] != pix_sorted[:-1]
    winners = order[first]
    fb.ravel()[pix[winners]] = shades[face_idx[winners]]
    return fb


def write_pgm(img: np.ndarray) -> bytes:
    """Binary PGM (P5), maxval 255; intensity quantized by round-half-to-even."""
    gray = np.rint(img * 255.0).astype(np.uint8)
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Parse binary PGM produced by write_pgm; returns uint8 (H, W)."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise PgmError("not a maxval-255 binary PGM")
    dims = _PGM_DIMS.fullmatch(parts[1])
    if dims is None:
        raise PgmError(f"bad PGM dims line {parts[1][:32]!r}")
    w, h = int(dims[1]), int(dims[2])
    raw = parts[3]
    if len(raw) != w * h:
        raise PgmError(f"PGM payload is {len(raw)} bytes, expected {w * h}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w)
