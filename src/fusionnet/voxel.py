"""Surface voxelization of normalized meshes into binary occupancy grids.

A voxel is occupied iff at least one triangle intersects its closed
axis-aligned box, decided by the 13-axis separating-axis test of
Akenine-Moller (2001). Triangle-side projections onto the 10 non-trivial
axes are tabulated once per face, so the per-pair cost is the box-center
projection plus interval comparisons.

Candidate (triangle, voxel) pairs come from the triangle's bounding box,
padded by one voxel, and are pruned in the manner of Schwarz & Seidel
(2010) before the exact test. With w the dominant axis of the face normal
and (u, v, w) in cyclic order:

- rows: each v index of the box is a row along u, and only the columns in
  its range of u centers are built. The box test along u and the three edge
  axes cross(e_w, edge) bound it: their w component is 0, so along a row
  each bounds c_u alone, and a zero u coefficient keeps all or none of it.
- slab: in a column only the voxels whose centers can satisfy the
  plane-axis condition are kept, solved for the w coordinate. A face with
  a zero normal keeps its whole column.

Every pruning bound is loosened by _SLACK, far above the rounding error of
these projections (all operands are below 4 in magnitude), so pruning only
drops pairs the exact test rejects. The exact test runs first on one pair
per distinct voxel, then on the other pairs of voxels still empty. A tested
pair gets the same float operations on the same values as in the test of
every pair of the padded box, and a voxel is set iff some pair hits it, so
the grids are bit-identical to that full test.

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
    """Per-face tables of the 10 non-trivial SAT axes, the plane normal and
    the 9 cross(box axis, edge) (the 3 box normals are the AABB test): axes
    (F, 10, 3), box radius (F, 10) and the vertices' projection min and max
    (F, 10), so per pair only the box-center projection remains to compute.
    """
    e = tri[:, [1, 2, 0]] - tri  # edges e0, e1, e2
    axes = np.zeros((len(tri), 10, 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # the normal cross(e0, e1), with np.cross's multiplies and subtracts
        axes[:, 0, i] = e[:, 0, j] * e[:, 1, k] - e[:, 0, k] * e[:, 1, j]
        axes[:, 1 + i:10:3, j] = -e[:, :, k]  # cross(box axis i, each edge)
        axes[:, 1 + i:10:3, k] = e[:, :, j]
    rad = half * np.abs(axes).sum(axis=2)
    proj = np.einsum("fai,fvi->fav", axes, tri)  # (F, 10, 3 verts)
    return axes, rad, proj.min(axis=2), proj.max(axis=2)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of counts[r] elements laid end to end: the run of each element
    and its offset within the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _index_range(lo: np.ndarray, hi: np.ndarray, first: np.ndarray, last: np.ndarray,
                 h: float) -> tuple[np.ndarray, np.ndarray]:
    """The voxel indices k in [first, last] whose center GRID_LO + (k + 0.5) h
    lies in [lo, hi]: their first index and their count (0 when none)."""
    k_lo = np.clip(np.ceil((lo - GRID_LO) / h - 0.5), first, last + 1).astype(np.int64)
    k_hi = np.clip(np.floor((hi - GRID_LO) / h - 0.5), first - 1, last).astype(np.int64)
    return k_lo, np.maximum(k_hi - k_lo + 1, 0)


def _slab_candidates(faces: np.ndarray, lo_idx: np.ndarray, hi_idx: np.ndarray,
                     tmin: np.ndarray, tmax: np.ndarray, table: np.ndarray, h: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of the faces' padded boxes that survive the row ranges and
    the plane slab: the face (P,) and the voxel index (P, 3) in (x, y, z)."""
    t = table[faces]
    axes, rad, vpmin, vpmax = t[..., :3], t[..., 3], t[..., 4], t[..., 5]
    fi = np.arange(len(faces))
    w = np.abs(axes[:, 0]).argmax(axis=1)  # dominant axis of the normal
    u, v = (w + 1) % 3, (w + 2) % 3
    lo, hi = lo_idx[faces], hi_idx[faces]

    # rows: one per face and v index of its padded box
    rf, off = _runs(hi[fi, v] - lo[fi, v] + 1)
    iv = lo[rf, v[rf]] + off
    cv = GRID_LO + (iv + 0.5) * h
    # each row keeps the u centers that the box test along u and the edge
    # axes a = cross(e_w, edge) allow; a_w = 0, so a.c bounds c_u alone. A
    # zero a_u divides into +-inf (all of the row or none of it) or into
    # 0/0 = nan, which fmax and fmin skip.
    c_lo = (tmin[faces, u] - h / 2.0 - _SLACK)[rf]
    c_hi = (tmax[faces, u] + h / 2.0 + _SLACK)[rf]
    for a in (1 + w, 4 + w, 7 + w):
        a_u, a_v = axes[fi, a, u][rf], axes[fi, a, v][rf] * cv
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q0 = ((vpmin[fi, a] - rad[fi, a] - _SLACK)[rf] - a_v) / a_u
            q1 = ((vpmax[fi, a] + rad[fi, a] + _SLACK)[rf] - a_v) / a_u
        flip = np.signbit(a_u)
        c_lo = np.fmax(c_lo, np.where(flip, q1, q0))
        c_hi = np.fmin(c_hi, np.where(flip, q0, q1))
    ku, width = _index_range(c_lo, c_hi, lo[rf, u[rf]], hi[rf, u[rf]], h)

    # columns: each row's range; slab: vpmin0 - rad0 <= n.c <= vpmax0 + rad0
    # solved for c_w. A zero normal divides by zero and keeps its whole column.
    row, off = _runs(width)
    iu, iv, cf = ku[row] + off, iv[row], rf[row]
    s = axes[fi, 0, u][cf] * (GRID_LO + (iu + 0.5) * h) + axes[fi, 0, v][cf] * cv[row]
    with np.errstate(divide="ignore", over="ignore"):
        b0 = ((vpmin[:, 0] - rad[:, 0] - _SLACK)[cf] - s) / axes[fi, 0, w][cf]
        b1 = ((vpmax[:, 0] + rad[:, 0] + _SLACK)[cf] - s) / axes[fi, 0, w][cf]
    kw, depth = _index_range(np.minimum(b0, b1), np.maximum(b0, b1),
                             lo[fi, w][cf], hi[fi, w][cf], h)

    col, off = _runs(depth)
    pf, p = cf[col], np.arange(len(col))
    ijk = np.empty((len(col), 3), dtype=np.int64)
    ijk[p, u[pf]], ijk[p, v[pf]], ijk[p, w[pf]] = iu[col], iv[col], kw[col] + off
    return faces[pf], ijk


def _exact_hits(gf: np.ndarray, ijk: np.ndarray, table: np.ndarray,
                tmin: np.ndarray, tmax: np.ndarray, h: float) -> np.ndarray:
    """Indices of the pairs whose triangle meets the voxel box; table holds
    each face's (axis, rad, vpmin, vpmax) rows, (F, 10, 6)."""
    half = h / 2.0
    centers = GRID_LO + (ijk + 0.5) * h
    # box face normals: triangle AABB vs box, closed (touch overlaps)
    live = np.flatnonzero(~((tmin[gf] - centers > half).any(axis=1)
                            | (tmax[gf] - centers < -half).any(axis=1)))
    t, cen = table[gf[live]], centers[live]  # one gather per pass
    sep = np.zeros(len(live), dtype=bool)
    for a in range(10):
        cp = np.einsum("pi,pi->p", t[:, a, :3], cen)
        sep |= (t[:, a, 4] - cp > t[:, a, 3]) | (t[:, a, 5] - cp < -t[:, a, 3])
    return live[~sep]


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
    tri = mesh.vertices[mesh.faces]  # (F, 3, 3)
    tmin, tmax = tri.min(axis=1), tri.max(axis=1)
    table = np.dstack(_face_sat_tables(tri, h / 2.0))  # (F, 10, 6)

    # inclusive candidate index ranges per triangle, padded one voxel
    lo_idx = np.clip(np.floor((tmin - GRID_LO) / h).astype(np.int64) - 1, 0, resolution - 1)
    hi_idx = np.clip(np.floor((tmax - GRID_LO) / h).astype(np.int64) + 1, 0, resolution - 1)

    # a face's padded box bounds its pairs; greedy chunking keeps the peak
    # pair count under _PAIR_CHUNK
    counts = (hi_idx - lo_idx + 1).prod(axis=1)
    chunk_faces = [np.arange(len(counts))]
    if counts.sum() > _PAIR_CHUNK:
        chunk_faces, acc, acc_n = [], [], 0
        for f in np.argsort(counts)[::-1]:
            if acc_n + counts[f] > _PAIR_CHUNK and acc:
                chunk_faces.append(np.array(acc))
                acc, acc_n = [], 0
            acc.append(f)
            acc_n += int(counts[f])
        chunk_faces.append(np.array(acc))

    occ = np.zeros((resolution,) * 3, dtype=bool)
    flat = occ.ravel()
    slot = np.empty(resolution ** 3, dtype=np.int32)
    for faces in chunk_faces:
        gf, ijk = _slab_candidates(faces, lo_idx, hi_idx, tmin, tmax, table, h)
        vid = ijk[:, 0] + resolution * (ijk[:, 1] + resolution * ijk[:, 2])
        pid = np.arange(len(vid), dtype=np.int32)
        slot[vid] = pid
        first = slot[vid] == pid  # one representative pair per distinct voxel
        # representatives first, then the other pairs of the voxels still
        # empty; a voxel set before needs no further test
        for pick in (first, ~first):
            idx = np.flatnonzero(pick & ~flat[vid])
            hit = _exact_hits(gf[idx], ijk[idx], table, tmin, tmax, h)
            flat[vid[idx[hit]]] = True

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
