"""Voxelizer and cache-format tests.

Two references pin the voxelizer. The exhaustive corner-projection oracle
in sat_oracle.py must agree with it exactly as a set of voxels. The
bounding-box voxelizer below, which sends every (triangle, voxel) pair of
the padded box to the exact test, must agree with it bit for bit: the
row ranges and the plane slab may only drop pairs that the exact test
rejects, and the two-pass exact test may only skip pairs of voxels already
set, so no grid may change.
"""

import numpy as np
import pytest

from fusionnet import voxel
from fusionnet.mesh import (JitterConfig, TriangleMesh, jitter_mesh, normalize_mesh,
                            parse_off)
from fusionnet.orientations import apply_rotation, derive_seed, sample_orientations
from fusionnet.pipeline.caches import CacheSettings, model_orientations
from fusionnet.pipeline.data import _GENERATORS, make_synthetic_dataset
from fusionnet.voxel import (GRID_LO, VoxelCacheError, VoxelGrid, read_voxel_cache,
                             voxelize_surface, write_voxel_cache)

from sat_oracle import voxelize_reference

CUBE_OFF = b"""OFF
8 12 0
-1 -1 -1
1 -1 -1
1 1 -1
-1 1 -1
-1 -1 1
1 -1 1
1 1 1
-1 1 1
3 0 1 2
3 0 2 3
3 4 6 5
3 4 7 6
3 0 4 5
3 0 5 1
3 1 5 6
3 1 6 2
3 2 6 7
3 2 7 3
3 3 7 4
3 3 4 0
"""


def random_soup(rng: np.random.Generator, faces: int) -> TriangleMesh:
    """Triangle soup with vertices in the normalized cube; generic position,
    so separating-axis borderline ties cannot occur."""
    v = rng.uniform(-0.5, 0.5, size=(faces * 3, 3))
    f = np.arange(faces * 3).reshape(faces, 3)
    return TriangleMesh(v, f)


class TestVoxelizeSurface:
    def test_cube_becomes_hollow_shell(self):
        """An axis-aligned cube surface occupies exactly the boundary cells
        of the padded 28^3 block inside a 30^3 grid."""
        mesh = normalize_mesh(parse_off(CUBE_OFF))
        grid = voxelize_surface(mesh, resolution=30)
        filled = np.stack(np.nonzero(grid.occupancy), axis=1)
        assert filled.min() == 1 and filled.max() == 28
        on_shell = (filled.min(axis=1) == 1) | (filled.max(axis=1) == 28)
        assert on_shell.all()
        # closed 28^3 shell: 28^3 - 26^3 cells
        assert grid.count() == 28 ** 3 - 26 ** 3

    def test_surface_only_interior_empty(self):
        mesh = normalize_mesh(parse_off(CUBE_OFF))
        grid = voxelize_surface(mesh, resolution=30)
        assert not grid.occupancy[2:-2, 2:-2, 2:-2].any()

    def test_single_small_triangle(self):
        v = np.array([[0.01, 0.01, 0.01], [0.02, 0.01, 0.01], [0.01, 0.02, 0.01]])
        mesh = TriangleMesh(v, np.array([[0, 1, 2]]))
        grid = voxelize_surface(mesh, resolution=10)
        # tiny triangle strictly inside one cell
        assert grid.count() == 1
        assert grid.occupancy[5, 5, 5]

    def test_axis_layout_is_z_y_x(self):
        # a triangle near x=+0.45, centered in y and z
        v = np.array([[0.45, -0.01, -0.01], [0.45, 0.01, -0.01], [0.45, 0.0, 0.01]])
        mesh = TriangleMesh(v, np.array([[0, 1, 2]]))
        grid = voxelize_surface(mesh, resolution=10)
        zz, yy, xx = np.nonzero(grid.occupancy)
        assert set(xx) == {9}
        assert 4 in set(yy) and 4 in set(zz)

    def test_rejects_unnormalized_mesh(self):
        v = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        mesh = TriangleMesh(v, np.array([[0, 1, 2]]))
        with pytest.raises(ValueError):
            voxelize_surface(mesh, resolution=8)

    def test_empty_mesh_rejected(self):
        mesh = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            voxelize_surface(mesh)


class TestOracleAgreement:
    """Dual-route check: pruned + tabulated implementation vs exhaustive
    corner-projection reference. Exact set equality, no tolerance."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_soups_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        mesh = random_soup(rng, faces=24)
        fast = voxelize_surface(mesh, resolution=12)
        slow = voxelize_reference(mesh, resolution=12)
        np.testing.assert_array_equal(fast.occupancy, slow.occupancy)

    def test_cube_matches_reference(self):
        mesh = normalize_mesh(parse_off(CUBE_OFF))
        fast = voxelize_surface(mesh, resolution=12)
        slow = voxelize_reference(mesh, resolution=12)
        np.testing.assert_array_equal(fast.occupancy, slow.occupancy)

    def test_pruning_never_drops_grazing_contact(self):
        # long sliver triangles stress the bbox padding
        rng = np.random.default_rng(9)
        base = rng.uniform(-0.45, 0.45, size=(8, 3))
        v = []
        for p in base:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            v += [p, p + 0.3 * d, p + 0.3 * d + 1e-4 * rng.normal(size=3)]
        v = np.clip(np.asarray(v), -0.5, 0.5)
        mesh = TriangleMesh(v, np.arange(24).reshape(8, 3))
        fast = voxelize_surface(mesh, resolution=12)
        slow = voxelize_reference(mesh, resolution=12)
        np.testing.assert_array_equal(fast.occupancy, slow.occupancy)


def voxelize_bbox_reference(mesh: TriangleMesh, resolution: int) -> VoxelGrid:
    """The voxelizer before the column cull and the plane slab: every voxel
    of a triangle's bounding box, padded by one, goes to the exact test."""
    h = 1.0 / resolution
    half = h / 2.0
    tri = mesh.vertices[mesh.faces]
    tmin = tri.min(axis=1)
    tmax = tri.max(axis=1)
    axes, rad, vpmin, vpmax = voxel._face_sat_tables(tri, half)
    lo_idx = np.floor((tmin - GRID_LO) / h).astype(np.int64) - 1
    hi_idx = np.floor((tmax - GRID_LO) / h).astype(np.int64) + 1
    np.clip(lo_idx, 0, resolution - 1, out=lo_idx)
    np.clip(hi_idx, 0, resolution - 1, out=hi_idx)
    spans = hi_idx - lo_idx + 1
    c = spans.prod(axis=1)
    pair_face = np.repeat(np.arange(len(c)), c)
    rank = np.arange(int(c.sum())) - np.repeat(np.concatenate([[0], np.cumsum(c)])[:-1], c)
    sp = spans[pair_face]
    lo = lo_idx[pair_face]
    i = lo[:, 0] + rank % sp[:, 0]
    j = lo[:, 1] + (rank // sp[:, 0]) % sp[:, 1]
    k = lo[:, 2] + rank // (sp[:, 0] * sp[:, 1])
    centers = GRID_LO + (np.stack([i, j, k], axis=1) + 0.5) * h
    gf = pair_face
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
    hit = live[~sep]
    occ = np.zeros((resolution,) * 3, dtype=bool)
    occ.ravel()[i[hit] + resolution * (j[hit] + resolution * k[hit])] = True
    return VoxelGrid(resolution, occ)


def assert_same_grid(mesh: TriangleMesh, resolution: int) -> None:
    got = voxelize_surface(mesh, resolution).occupancy
    want = voxelize_bbox_reference(mesh, resolution).occupancy
    assert np.array_equal(got, want), f"{int((got != want).sum())} voxels differ"


def soup(points) -> TriangleMesh:
    v = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return TriangleMesh(v, np.arange(len(v)).reshape(-1, 3))


class TestSlabPruningBitIdentical:
    """The pruned voxelizer against the bounding-box reference, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    @pytest.mark.parametrize("jit", [False, True])
    def test_synthetic_kinds_under_orientations(self, kind, jit):
        rng = np.random.default_rng(7)
        raw = _GENERATORS[kind](rng)
        mesh = jitter_mesh(raw, JitterConfig(sigma=5.0, seed=7)) if jit else raw
        for pose in sample_orientations(4, seed=7).orientations:
            assert_same_grid(normalize_mesh(apply_rotation(mesh, pose)), 30)

    @pytest.mark.parametrize("resolution", [1, 2, 7, 12, 30, 64])
    @pytest.mark.parametrize("padding", [0.0, 0.05, 0.25])
    def test_unit_cube(self, resolution, padding):
        assert_same_grid(normalize_mesh(parse_off(CUBE_OFF), padding=padding), resolution)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("resolution", [5, 16, 33])
    def test_random_soups(self, seed, resolution):
        assert_same_grid(random_soup(np.random.default_rng(seed), faces=40), resolution)

    @pytest.mark.parametrize("resolution", [4, 8, 12])
    def test_degenerate_faces(self, resolution):
        """Collinear, zero-area and single-point faces; the last two have a
        normal of exactly 0 and keep their whole column."""
        mesh = soup([
            [-0.3, -0.2, 0.1], [0.0, 0.05, 0.1], [0.3, 0.3, 0.1],     # collinear
            [-0.25, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.0],     # collinear, on planes
            [0.1, 0.2, -0.3], [0.1, 0.2, -0.3], [0.3, -0.1, 0.2],     # two coincident
            [0.2, 0.2, 0.2], [0.2, 0.2, 0.2], [0.2, 0.2, 0.2],        # a single point
            [0.0, -0.25, 0.25], [0.0, -0.25, 0.25], [0.0, -0.25, 0.25],  # a point on corners
        ])
        assert_same_grid(mesh, resolution)

    @pytest.mark.parametrize("resolution", [2, 4, 8, 20])
    def test_faces_on_voxel_boundaries(self, resolution):
        """Axis-aligned faces in the planes between voxels, with vertices on
        voxel corners, plus tilted faces through those corners."""
        g = GRID_LO + np.arange(resolution + 1) / resolution  # voxel boundaries
        a, b, c = g[0], g[resolution // 2], g[-1]
        pts = []
        for w in range(3):
            for plane in (a, b, c):
                for tri in (((a, a), (c, a), (a, c)), ((b, a), (c, b), (b, c))):
                    for p, q in tri:
                        pt = [0.0, 0.0, 0.0]
                        pt[w], pt[(w + 1) % 3], pt[(w + 2) % 3] = plane, p, q
                        pts.append(pt)
        pts += [[a, a, a], [c, c, a], [b, b, c], [a, b, b], [b, c, a], [c, a, b]]
        assert_same_grid(soup(pts), resolution)

    @pytest.mark.parametrize("resolution", [8, 30, 64])
    def test_slivers(self, resolution):
        """Faces 1e-7 thin, along and across the grid axes and at random."""
        rng = np.random.default_rng(11)
        pts = []
        for _ in range(12):
            p = rng.uniform(-0.4, 0.4, size=3)
            d = rng.normal(size=3)
            pts += [p, p + 0.3 * d / np.linalg.norm(d), p + 1e-7 * rng.normal(size=3)]
        for w in range(3):
            e = np.eye(3)[w]
            pts += [-0.3 * e, 0.3 * e, -0.3 * e + 1e-7 * np.eye(3)[(w + 1) % 3]]
        assert_same_grid(soup(np.clip(pts, -0.5, 0.5)), resolution)

    def test_chunked_pairs(self, monkeypatch):
        """A pair cap far below one face's box splits the work into chunks."""
        mesh = normalize_mesh(_GENERATORS["torus"](np.random.default_rng(3)))
        monkeypatch.setattr(voxel, "_PAIR_CHUNK", 64)
        assert_same_grid(mesh, 30)


class TestRowRangesAndTwoPasses:
    """The row ranges and the two-pass exact test against the bounding-box
    reference, bit for bit, on the cases they handle apart."""

    def test_failed_representative_with_another_face_hitting(self, monkeypatch):
        """Face a's plane crosses voxel (2, 2, 2) of a 4^3 grid without its
        triangle touching it, and the small face b lies inside that voxel.
        The voxel's representative pair is one face's, so in one of the two
        face orders it is a's failing pair and only the second pass sets it."""
        a = [[0.07, -0.18, 0.15], [-0.27, 0.4, -0.12], [-0.36, 0.12, 0.38]]
        b = [[0.1, 0.1, 0.1], [0.15, 0.1, 0.12], [0.1, 0.15, 0.14]]
        calls = []

        def spy(gf, ijk, *args):
            hits = exact_hits(gf, ijk, *args)
            calls.append((gf, ijk, hits))
            return hits

        exact_hits = voxel._exact_hits
        monkeypatch.setattr(voxel, "_exact_hits", spy)
        second_pass_sets = []
        for order in ((a, b), (b, a)):
            calls.clear()
            assert_same_grid(soup(order[0] + order[1]), 4)
            (rep_f, rep_ijk, rep_hits), (f, ijk, hits) = calls
            face_a = 0 if order[0] is a else 1
            missed = np.setdiff1d(np.arange(len(rep_f)), rep_hits)
            a_missed = {tuple(x) for x in rep_ijk[missed[rep_f[missed] == face_a]]}
            b_hit = {tuple(x) for x in ijk[hits[f[hits] != face_a]]}
            second_pass_sets.append((2, 2, 2) in a_missed & b_hit)
        assert any(second_pass_sets)

    def test_later_chunk_meets_voxels_already_set(self, monkeypatch):
        """A pair cap below one face's box gives each face its own chunk; the
        same faces twice, and a fan of faces around one point, make later
        chunks meet voxels that earlier chunks set."""
        rng = np.random.default_rng(5)
        tris = rng.uniform(-0.45, 0.45, size=(6, 3, 3))
        fan = [[[0.0, 0.0, 0.0], list(p), list(q)]
               for p, q in zip(rng.uniform(-0.4, 0.4, size=(6, 3)),
                               rng.uniform(-0.4, 0.4, size=(6, 3)))]
        mesh = soup(np.concatenate([tris, tris, fan]))
        chunks = []

        def spy(*args):
            chunks.append(slab_candidates(*args))
            return chunks[-1]

        slab_candidates = voxel._slab_candidates
        monkeypatch.setattr(voxel, "_slab_candidates", spy)
        monkeypatch.setattr(voxel, "_PAIR_CHUNK", 8)
        want = voxelize_bbox_reference(mesh, 16).occupancy
        got = voxelize_surface(mesh, 16).occupancy
        assert np.array_equal(got, want), f"{int((got != want).sum())} voxels differ"
        assert len(chunks) == len(mesh.faces)
        seen, met = set(), 0
        for _, ijk in chunks:
            here = {tuple(x) for x in ijk if want[x[2], x[1], x[0]]}
            met += len(here & seen)
            seen |= here
        assert met > 0

    @pytest.mark.parametrize("resolution", [3, 8, 13, 30])
    def test_edge_axes_with_a_zero_u_coefficient(self, resolution):
        """An edge along u gives its axis cross(e_w, edge) a u coefficient of
        -0.0 (the edge's v difference is +0.0): that axis keeps rows whole or
        drops them whole. Faces of every dominant axis w, with
        edges along +u and -u, tilted and flat, on and off voxel boundaries."""
        pts = []
        for w in range(3):
            u, v = (w + 1) % 3, (w + 2) % 3
            for lo_u, hi_u, c_v, apex_v, tilt in ((-0.4, 0.3, -0.3, 0.35, 0.0),
                                                  (0.25, -0.35, 0.1, -0.4, 0.1),
                                                  (-0.2, 0.4, 0.0, 0.45, -0.2),
                                                  (0.4, -0.45, 0.25, 0.05, 0.3)):
                tri = np.zeros((3, 3))
                tri[0, u], tri[1, u], tri[2, u] = lo_u, hi_u, 0.5 * (lo_u + hi_u)
                tri[:2, v], tri[2, v] = c_v, apex_v
                tri[:, w] = 0.05 + tilt * tri[:, v]
                pts += list(tri)
        mesh = soup(pts)
        tables = voxel._face_sat_tables(mesh.vertices[mesh.faces], 0.5 / resolution)
        w = np.abs(tables[0][:, 0]).argmax(axis=1)
        edge_u = tables[0][np.arange(len(w)), 1 + w, (w + 1) % 3]  # edge e0's axis
        assert (edge_u == 0).all()
        assert_same_grid(mesh, resolution)


@pytest.mark.slow
def test_benchmark_prep_grids_match_bbox_reference(tmp_path):
    """Every grid of the benchmark's cold prep (the first model of each of the
    5 synthetic kinds, plain and jittered, at 60 orientations), seed 7."""
    settings = CacheSettings(seed=7)
    manifest = make_synthetic_dataset(sorted(_GENERATORS), 2, settings.seed, str(tmp_path))
    for entry in manifest.entries:
        if not entry.model_id.endswith("_0000"):
            continue
        with open(manifest.mesh_path(entry), "rb") as fh:
            raw = parse_off(fh.read())
        jit = JitterConfig(sigma=settings.jitter_sigma,
                           seed=derive_seed(settings.seed, "jitter", entry.model_id))
        for mesh in (raw, jitter_mesh(raw, jit)):
            for pose in model_orientations(entry.model_id, settings).orientations:
                assert_same_grid(normalize_mesh(apply_rotation(mesh, pose)),
                                 settings.resolution)


class TestCacheFormat:
    def _grid(self, seed=3, res=30):
        rng = np.random.default_rng(seed)
        occ = rng.random((res, res, res)) < 0.2
        occ[0, 0, 0] = True  # never empty
        return VoxelGrid(res, occ)

    def test_roundtrip_bitexact(self):
        grid = self._grid()
        back = read_voxel_cache(write_voxel_cache(grid))
        assert back.resolution == grid.resolution
        np.testing.assert_array_equal(back.occupancy, grid.occupancy)

    def test_serialized_size_30(self):
        # 16-byte header + ceil(27000 / 8) payload
        assert len(write_voxel_cache(self._grid())) == 16 + 3375

    def test_header_layout(self):
        blob = write_voxel_cache(self._grid(res=30))
        assert blob[:4] == b"VOXB"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:7], "little") == 30

    def test_bit_order_lsb_first_x_fastest(self):
        occ = np.zeros((8, 8, 8), dtype=bool)
        occ[0, 0, 0] = True  # first bit overall
        occ[0, 0, 3] = True  # x advances fastest
        blob = write_voxel_cache(VoxelGrid(8, occ))
        assert blob[16] == 0b00001001

    def test_identical_grids_identical_bytes(self):
        a = write_voxel_cache(self._grid(seed=5))
        b = write_voxel_cache(self._grid(seed=5))
        assert a == b

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:10],                            # truncated header
        lambda b: b"XOXB" + b[4:],                   # bad magic
        lambda b: b[:4] + b"\x02" + b[5:],           # unknown version
        lambda b: b[:-1],                            # short payload
        lambda b: b + b"\x00",                       # long payload
    ])
    def test_corrupt_bytes_rejected(self, mutate):
        blob = write_voxel_cache(self._grid())
        with pytest.raises(VoxelCacheError):
            read_voxel_cache(mutate(blob))

    def test_nonzero_padding_bits_rejected(self):
        occ = np.zeros((5, 5, 5), dtype=bool)
        occ[0, 0, 0] = True
        blob = bytearray(write_voxel_cache(VoxelGrid(5, occ)))
        blob[-1] |= 0x80  # 125 bits -> 5 pad bits in the last byte
        with pytest.raises(VoxelCacheError):
            read_voxel_cache(bytes(blob))

    def test_fuzzed_voxb_parses_or_raises_voxel_cache_error(self):
        mesh = normalize_mesh(parse_off(CUBE_OFF))
        blob = write_voxel_cache(voxelize_surface(mesh, resolution=12))
        rng = np.random.default_rng(4)
        cases = [blob[:n] for n in range(len(blob))]
        for _ in range(400):
            data = bytearray(blob)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
                data[pos] = int(rng.integers(0, 256))
            cases.append(bytes(data))
        for data in cases:
            try:
                grid = read_voxel_cache(data)
            except VoxelCacheError:
                continue
            assert grid.occupancy.shape == (grid.resolution,) * 3

    def test_empty_grid_refused(self):
        with pytest.raises(ValueError):
            write_voxel_cache(VoxelGrid(4, np.zeros((4, 4, 4), dtype=bool)))

    def test_occupancy_survives_via_file_bits(self):
        grid = self._grid(seed=11, res=16)
        bits = grid.bits
        assert bits.shape == (16 ** 3,)
        assert bits[0] == grid.occupancy[0, 0, 0]
        assert bits[1] == grid.occupancy[0, 0, 1]  # x fastest
        assert bits[16] == grid.occupancy[0, 1, 0]
