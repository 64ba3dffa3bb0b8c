"""Surface voxelization of normalized meshes into binary occupancy grids.

A voxel is occupied iff at least one triangle intersects its closed
axis-aligned box, decided by the 13-axis separating-axis test of
Akenine-Moller (2001). Triangle-side projections onto the 10 non-trivial
axes are tabulated once per face, so the per-pair cost is the box-center
projection plus interval comparisons.

Candidate (triangle, voxel) pairs come from the triangle's bounding box,
padded by one voxel, and are pruned in the manner of Schwarz & Seidel
(2010) before the exact test:

- columns: the box is walked as columns along the dominant axis w of the
  face normal; a column is dropped when the box test along the other two
  axes separates it, or when one of the three edge axes cross(e_w, edge)
  does (their w component is 0, so they depend on the column alone);
- slab: in a kept column only the voxels whose centers can satisfy the
  plane-axis condition are kept, solved for the w coordinate. A face with
  a zero normal keeps its whole column.

Every pruning comparison is loosened by _SLACK, far above the rounding
error of these projections (all operands are below 4 in magnitude), so
pruning only drops pairs the exact test rejects. The survivors get the
same exact test, the same float operations on the same values, so the
grids are bit-identical to testing every pair of the padded box.

Grid layout: ``occupancy[z, y, x]``; ``occupancy.ravel()`` is therefore
x-fastest row-major, the order used by the cache format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh

GRID_LO = -0.5  # normalized meshes live in [-0.5, 0.5]^3
_MAGIC = b"VOXB"
_VERSION = 1
_HEADER = struct.Struct("<4sB3H5x")  # magic, version, dims (x, y, z), reserved
_PAIR_CHUNK = 1 << 21  # cap on simultaneously tested (triangle, voxel) pairs
_SLACK = 1e-9  # outward margin of every pruning comparison, in projection units


class VoxelCacheError(ValueError):
    """Structurally invalid voxel cache bytes."""


@dataclass
class VoxelGrid:
    resolution: int
    occupancy: np.ndarray  # bool, shape (res, res, res), axes (z, y, x)

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.occupancy.shape != (self.resolution,) * 3:
            raise ValueError(f"occupancy shape {self.occupancy.shape} does not match "
                             f"resolution {self.resolution}")

    @property
    def bits(self) -> np.ndarray:
        """Flat occupancy, x-fastest row-major."""
        return self.occupancy.ravel()

    def count(self) -> int:
        return int(self.occupancy.sum())


def _face_sat_tables(tri: np.ndarray, half: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-face tables for the non-trivial SAT axes: the plane normal plus
    the 9 edge/box-axis cross products (the 3 box face normals reduce to the
    triangle AABB test and are handled separately).

    Returns (axes (F, 10, 3), box radius (F, 10), projection min/max of the
    triangle vertices (F, 10)); per pair only the box-center projection
    remains to compute.
    """
    e0 = tri[:, 1] - tri[:, 0]
    e1 = tri[:, 2] - tri[:, 1]
    e2 = tri[:, 0] - tri[:, 2]
    count = len(tri)
    axes = np.empty((count, 10, 3))
    axes[:, 0] = np.cross(e0, e1)
    zeros = np.zeros(count)
    for ei, e in enumerate((e0, e1, e2)):
        b = 1 + 3 * ei
        # cross(x_axis, e), cross(y_axis, e), cross(z_axis, e)
        axes[:, b + 0, 0] = zeros
        axes[:, b + 0, 1] = -e[:, 2]
        axes[:, b + 0, 2] = e[:, 1]
        axes[:, b + 1, 0] = e[:, 2]
        axes[:, b + 1, 1] = zeros
        axes[:, b + 1, 2] = -e[:, 0]
        axes[:, b + 2, 0] = -e[:, 1]
        axes[:, b + 2, 1] = e[:, 0]
        axes[:, b + 2, 2] = zeros
    rad = half * np.abs(axes).sum(axis=2)
    proj = np.einsum("fai,fvi->fav", axes, tri)  # (F, 10, 3 verts)
    return axes, rad, proj.min(axis=2), proj.max(axis=2)


def _slab_candidates(faces: np.ndarray, lo_idx: np.ndarray, hi_idx: np.ndarray,
                     tmin: np.ndarray, tmax: np.ndarray, tables: tuple, h: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The (triangle, voxel) pairs of the given faces' padded boxes that
    survive the column cull and the plane slab (see module docstring).

    Returns the face of each pair (P,) and its voxel index (P, 3) in (x, y, z).
    """
    axes, rad, vpmin, vpmax = tables
    half = h / 2.0
    w = np.abs(axes[faces, 0]).argmax(axis=1)  # dominant axis of the normal
    u, v = (w + 1) % 3, (w + 2) % 3
    span_u = hi_idx[faces, u] - lo_idx[faces, u] + 1
    span_v = hi_idx[faces, v] - lo_idx[faces, v] + 1
    ncol = span_u * span_v
    col = np.repeat(np.arange(len(faces)), ncol)
    rank = np.arange(int(ncol.sum())) - np.repeat(np.cumsum(ncol) - ncol, ncol)
    f, u, v, w = faces[col], u[col], v[col], w[col]
    iu = lo_idx[f, u] + rank % span_u[col]
    iv = lo_idx[f, v] + rank // span_u[col]
    cu = GRID_LO + (iu + 0.5) * h
    cv = GRID_LO + (iv + 0.5) * h

    # columns: the exact box test along u and v (the same float operations),
    # then the edge axes cross(e_w, edge), whose w component is 0
    keep = ~((tmin[f, u] - cu > half) | (tmax[f, u] - cu < -half)
             | (tmin[f, v] - cv > half) | (tmax[f, v] - cv < -half))
    for e in range(3):
        a = 1 + 3 * e + w
        cp = axes[f, a, u] * cu + axes[f, a, v] * cv
        keep &= ((vpmin[f, a] - cp <= rad[f, a] + _SLACK)
                 & (vpmax[f, a] - cp >= -rad[f, a] - _SLACK))
    kept = np.flatnonzero(keep)
    f, u, v, w, iu, iv, cu, cv = (x[kept] for x in (f, u, v, w, iu, iv, cu, cv))

    # slab: vpmin0 - rad0 <= n.c <= vpmax0 + rad0 solved for c_w; a zero
    # normal divides by zero and keeps its whole column
    n = axes[f, 0]
    r = np.arange(len(f))
    s = n[r, u] * cu + n[r, v] * cv
    with np.errstate(divide="ignore", over="ignore"):
        b0 = (vpmin[f, 0] - rad[f, 0] - _SLACK - s) / n[r, w]
        b1 = (vpmax[f, 0] + rad[f, 0] + _SLACK - s) / n[r, w]
    # c_w = GRID_LO + (k + 0.5) h, clipped to the padded box
    lo_w, hi_w = lo_idx[f, w], hi_idx[f, w]
    k_lo = np.clip(np.ceil((np.minimum(b0, b1) - GRID_LO) / h - 0.5), lo_w, hi_w + 1)
    k_hi = np.clip(np.floor((np.maximum(b0, b1) - GRID_LO) / h - 0.5), lo_w - 1, hi_w)
    k_lo = k_lo.astype(np.int64)
    depth = k_hi.astype(np.int64) - k_lo + 1

    pair = np.repeat(r, depth)
    p = np.arange(len(pair))
    ijk = np.empty((len(pair), 3), dtype=np.int64)
    ijk[p, u[pair]] = iu[pair]
    ijk[p, v[pair]] = iv[pair]
    ijk[p, w[pair]] = k_lo[pair] + p - np.repeat(np.cumsum(depth) - depth, depth)
    return f[pair], ijk


def voxelize_surface(mesh: TriangleMesh, resolution: int = 30) -> VoxelGrid:
    """Rasterize the triangle surface into a resolution^3 occupancy grid.

    The mesh must already be normalized into [-0.5, 0.5]^3.
    """
    mesh.validate()
    if len(mesh.faces) == 0:
        raise ValueError("mesh has no triangles")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if np.abs(mesh.vertices).max() > 0.5 + 1e-9:
        raise ValueError("mesh extends outside the unit cube; normalize it first")

    h = 1.0 / resolution
    half = h / 2.0
    tri = mesh.vertices[mesh.faces]  # (F, 3, 3)
    tmin = tri.min(axis=1)
    tmax = tri.max(axis=1)
    tables = _face_sat_tables(tri, half)
    axes, rad, vpmin, vpmax = tables

    # inclusive candidate index ranges per triangle, padded one voxel
    lo_idx = np.floor((tmin - GRID_LO) / h).astype(np.int64) - 1
    hi_idx = np.floor((tmax - GRID_LO) / h).astype(np.int64) + 1
    np.clip(lo_idx, 0, resolution - 1, out=lo_idx)
    np.clip(hi_idx, 0, resolution - 1, out=hi_idx)

    # a face's padded box bounds both its columns and its pairs
    counts = (hi_idx - lo_idx + 1).prod(axis=1)
    total = int(counts.sum())

    occ = np.zeros((resolution,) * 3, dtype=bool)
    flat = occ.ravel()

    chunk_faces: list[np.ndarray] = []
    face_order = np.argsort(counts)[::-1] if total > _PAIR_CHUNK else np.arange(len(counts))
    # greedy chunking keeps peak pair count under _PAIR_CHUNK
    acc, acc_n = [], 0
    for f in face_order:
        if acc_n + counts[f] > _PAIR_CHUNK and acc:
            chunk_faces.append(np.array(acc))
            acc, acc_n = [], 0
        acc.append(f)
        acc_n += int(counts[f])
    if acc:
        chunk_faces.append(np.array(acc))

    for faces in chunk_faces:
        gf, ijk = _slab_candidates(faces, lo_idx, hi_idx, tmin, tmax, tables, h)
        centers = GRID_LO + (ijk + 0.5) * h
        # box face normals: triangle AABB vs box, closed (touch overlaps)
        sep = ((tmin[gf] - centers > half).any(axis=1)
               | (tmax[gf] - centers < -half).any(axis=1))
        live = np.flatnonzero(~sep)
        gf = gf[live]
        cen = centers[live]
        sep = np.zeros(len(live), dtype=bool)
        for a in range(10):
            ax = axes[gf, a]
            cp = np.einsum("pi,pi->p", ax, cen)
            sep |= ((vpmin[gf, a] - cp > rad[gf, a])
                    | (vpmax[gf, a] - cp < -rad[gf, a]))
        i, j, k = ijk[live[~sep]].T
        flat[i + resolution * (j + resolution * k)] = True

    return VoxelGrid(resolution, occ)


def write_voxel_cache(grid: VoxelGrid) -> bytes:
    """Serialize to the bit-exact cache format (see module docstring)."""
    if grid.count() == 0:
        raise ValueError("refusing to cache an empty occupancy grid")
    if grid.resolution > 0xFFFF:
        raise ValueError(f"resolution {grid.resolution} overflows 16-bit dims")
    header = _HEADER.pack(_MAGIC, _VERSION, grid.resolution, grid.resolution, grid.resolution)
    payload = np.packbits(grid.bits, bitorder="little").tobytes()
    return header + payload


def read_voxel_cache(data: bytes) -> VoxelGrid:
    if len(data) < _HEADER.size:
        raise VoxelCacheError(f"truncated header: {len(data)} bytes")
    magic, version, nx, ny, nz = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise VoxelCacheError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise VoxelCacheError(f"unsupported version {version}")
    if not (nx == ny == nz) or nx == 0:
        raise VoxelCacheError(f"unsupported dims {(nx, ny, nz)}")
    n_bits = nx * ny * nz
    n_bytes = (n_bits + 7) // 8
    payload = data[_HEADER.size:]
    if len(payload) != n_bytes:
        raise VoxelCacheError(f"payload is {len(payload)} bytes, expected {n_bytes}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    if bits[n_bits:].any():
        raise VoxelCacheError("nonzero padding bits in final byte")
    occ = bits[:n_bits].astype(bool).reshape(nz, ny, nx)
    return VoxelGrid(nx, occ)
