"""Camera rig geometry, rasterization, shading, and PGM format tests."""

import math

import numpy as np
import pytest

from fusionnet.mesh import TriangleMesh, normalize_mesh
from fusionnet.render import (AMBIENT, DIFFUSE, ORTHO_HALF_EXTENT, SHININESS,
                              SPECULAR, VIEW_COUNT, CameraRig, PgmError,
                              camera_basis, make_camera_rig, read_pgm,
                              render_view, write_pgm)


def phong_shade(cos_incidence):
    """Independent restatement of the flat shading curve: ambient plus
    Lambertian plus a co-located-light specular lobe."""
    c = cos_incidence
    refl = 2.0 * c * c - 1.0
    return min(1.0, AMBIENT + DIFFUSE * c + SPECULAR * max(refl, 0.0) ** SHININESS)


def soup_mesh(seed, tris=40):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=(tris * 3, 3))
    return normalize_mesh(TriangleMesh(v, np.arange(tris * 3).reshape(tris, 3)))


class TestCameraRig:
    def test_twenty_unit_positions(self):
        rig = make_camera_rig(64)
        assert rig.positions.shape == (VIEW_COUNT, 3)
        np.testing.assert_allclose(np.linalg.norm(rig.positions, axis=1),
                                   1.0, atol=1e-12)

    def test_dodecahedron_adjacency(self):
        """Nearest neighbors of a regular dodecahedron vertex sit at
        cos = sqrt(5)/3, and every vertex has exactly three of them."""
        rig = make_camera_rig(64)
        dots = rig.positions @ rig.positions.T
        np.fill_diagonal(dots, -1.0)
        expected = math.sqrt(5.0) / 3.0
        assert abs(dots.max() - expected) < 1e-12
        neighbor_counts = (np.abs(dots - expected) < 1e-9).sum(axis=1)
        np.testing.assert_array_equal(neighbor_counts, 3)

    def test_centroid_at_origin(self):
        rig = make_camera_rig(64)
        np.testing.assert_allclose(rig.positions.sum(axis=0), 0.0, atol=1e-12)

    def test_order_is_top_down(self):
        rig = make_camera_rig(64)
        z = rig.positions[:, 2]
        assert (np.diff(z) <= 1e-12).all()
        assert z[0] == z.max()

    def test_default_extent(self):
        rig = make_camera_rig(64)
        assert rig.ortho_half_extent == ORTHO_HALF_EXTENT
        assert abs(ORTHO_HALF_EXTENT - math.sqrt(3.0) / 2.0 / 0.9) < 1e-15

    def test_tiny_image_rejected(self):
        with pytest.raises(ValueError):
            make_camera_rig(8)


class TestCameraBasis:
    def test_orthonormal_right_handed(self):
        rig = make_camera_rig(64)
        for i in range(VIEW_COUNT):
            r, u, f = camera_basis(rig, i)
            m = np.stack([r, u, f])
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.cross(r, u), f, atol=1e-12)

    def test_forward_points_at_origin(self):
        rig = make_camera_rig(64)
        for i in range(VIEW_COUNT):
            r, u, f = camera_basis(rig, i)
            np.testing.assert_allclose(f, -rig.positions[i], atol=1e-12)

    def test_pole_fallback(self):
        rig = CameraRig(positions=np.array([[0.0, 0.0, 1.0]]),
                        up_hint=np.array([0.0, 0.0, 1.0]), image_size=32)
        r, u, f = camera_basis(rig, 0)
        m = np.stack([r, u, f])
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(f, [0.0, 0.0, -1.0], atol=1e-15)


class TestRenderView:
    def facing_triangle(self, rig, view_index, tilt, span=0.25):
        """Triangle covering the image center well inside its edges, whose
        normal makes the given tilt angle with the view direction."""
        r, u, f = camera_basis(rig, view_index)
        e1 = r
        e2 = math.cos(tilt) * u + math.sin(tilt) * f
        v = np.stack([-span * e1 - span * e2,
                      3.0 * span * e1 - span * e2,
                      -span * e1 + 3.0 * span * e2])
        return TriangleMesh(v, np.array([[0, 1, 2]]))

    def test_background_exactly_zero(self):
        rig = make_camera_rig(64)
        img = render_view(self.facing_triangle(rig, 0, 0.0, span=0.1), rig, 0)
        assert img[0, 0] == 0.0
        covered = img > 0
        assert 0 < covered.sum() < 64 * 64
        assert (img[~covered] == 0.0).all()

    @pytest.mark.parametrize("tilt", [0.0, math.radians(30), math.radians(60),
                                      math.radians(80)])
    def test_flat_shade_matches_formula(self, tilt):
        rig = make_camera_rig(64)
        img = render_view(self.facing_triangle(rig, 3, tilt), rig, 3)
        center = img[32, 32]
        assert center > 0.0
        assert abs(center - phong_shade(math.cos(tilt))) < 1e-9

    def test_aligned_face_saturates(self):
        # ambient + diffuse + specular = 1.0 at zero incidence
        rig = make_camera_rig(64)
        img = render_view(self.facing_triangle(rig, 0, 0.0), rig, 0)
        assert abs(img[32, 32] - 1.0) < 1e-12

    def test_double_sided_winding(self):
        rig = make_camera_rig(64)
        mesh = self.facing_triangle(rig, 0, 0.0)
        flipped = TriangleMesh(mesh.vertices, mesh.faces[:, ::-1])
        a = render_view(mesh, rig, 0)
        b = render_view(flipped, rig, 0)
        np.testing.assert_array_equal(a > 0, b > 0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_depth_buffer_prefers_near(self):
        rig = make_camera_rig(64)
        r, u, f = camera_basis(rig, 0)
        near = self.facing_triangle(rig, 0, math.radians(45), span=0.2)
        far = self.facing_triangle(rig, 0, 0.0, span=0.45)
        # push each along the view axis; larger f component = farther
        near_v = near.vertices - 0.3 * f
        far_v = far.vertices + 0.3 * f
        both = TriangleMesh(np.vstack([near_v, far_v]),
                            np.array([[0, 1, 2], [3, 4, 5]]))
        img = render_view(both, rig, 0)
        assert abs(img[32, 32] - phong_shade(math.cos(math.radians(45)))) < 1e-9
        # swapping the offsets exposes the flat face instead
        both_swapped = TriangleMesh(np.vstack([near_v + 0.6 * f, far_v - 0.6 * f]),
                                    np.array([[0, 1, 2], [3, 4, 5]]))
        img2 = render_view(both_swapped, rig, 0)
        assert img2[32, 32] == 1.0

    def test_translation_along_view_axis_is_invisible(self):
        """Orthographic projection: sliding the model toward or away from
        the camera leaves the image unchanged up to rounding of the
        re-derived flat normals."""
        rig = make_camera_rig(64)
        mesh = soup_mesh(7)
        base = render_view(mesh, rig, 5)
        _, _, f = camera_basis(rig, 5)
        moved = TriangleMesh(mesh.vertices - 0.7 * f, mesh.faces)
        again = render_view(moved, rig, 5)
        np.testing.assert_array_equal(base > 0, again > 0)
        np.testing.assert_allclose(base, again, atol=1e-12)

    def test_half_turn_symmetry_bit_identical(self):
        """The rig maps onto itself under a half turn about the gravity
        axis. Negating x and y (an exact float operation) and switching to
        the mirrored camera must reproduce the image bit for bit."""
        rig = make_camera_rig(64)
        mesh = soup_mesh(11)
        mirrored = TriangleMesh(mesh.vertices * np.array([-1.0, -1.0, 1.0]),
                                mesh.faces)
        for i in range(VIEW_COUNT):
            p = rig.positions[i]
            target = p * np.array([-1.0, -1.0, 1.0])
            j = int(np.flatnonzero((rig.positions == target).all(axis=1))[0])
            a = render_view(mesh, rig, i)
            b = render_view(mirrored, rig, j)
            assert np.array_equal(a, b), (i, j)

    def test_normalized_mesh_stays_inside_frame(self):
        rig = make_camera_rig(64)
        mesh = soup_mesh(3)
        for i in range(VIEW_COUNT):
            img = render_view(mesh, rig, i)
            border = np.concatenate([img[0], img[-1],
                                     img[:, 0], img[:, -1]])
            assert (border == 0.0).all()

    def test_view_index_out_of_range(self):
        rig = make_camera_rig(64)
        with pytest.raises(ValueError):
            render_view(soup_mesh(0), rig, 20)

    def test_empty_mesh_rejected(self):
        rig = make_camera_rig(64)
        mesh = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            render_view(mesh, rig, 0)

    def test_determinism(self):
        rig = make_camera_rig(64)
        mesh = soup_mesh(19)
        a = render_view(mesh, rig, 9)
        b = render_view(mesh, rig, 9)
        np.testing.assert_array_equal(a, b)


class TestImageHelpers:
    def test_pgm_roundtrip(self):
        rng = np.random.default_rng(0)
        pixels = rng.random((48, 48))
        back = read_pgm(write_pgm(pixels))
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, np.rint(pixels * 255.0).astype(np.uint8))

    def test_pgm_header(self):
        data = write_pgm(np.zeros((32, 48)))
        assert data.startswith(b"P5\n48 32\n255\n")
        assert len(data) == len(b"P5\n48 32\n255\n") + 32 * 48

    def test_pgm_rejects_other_formats(self):
        with pytest.raises(ValueError):
            read_pgm(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError):
            read_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_pgm_rejects_truncated_payload(self):
        data = write_pgm(np.zeros((16, 16)))
        with pytest.raises(ValueError):
            read_pgm(data[:-5])

    @pytest.mark.parametrize("data", [
        b"P5\n2 x\n255\n" + bytes(4),            # non-numeric dim
        b"P5\n2 2 2\n255\n" + bytes(4),          # extra dim
        b"P5\n2\n255\n" + bytes(4),              # missing dim
        b"P5\n-2 -2\n255\n" + bytes(4),          # negative dims
        b"P5\n0 0\n255\n",                      # empty image
        b"P5\n+2 2\n255\n" + bytes(4),           # signed dim
        b"P5\n 2 2\n255\n" + bytes(4),           # stray space
        b"P5\n2 " + b"9" * 5000 + b"\n255\n",     # dim beyond int parsing limits
    ], ids=["non-numeric", "extra", "missing", "negative", "zero", "signed", "space", "huge"])
    def test_pgm_bad_dims_raise_pgm_error(self, data):
        with pytest.raises(PgmError):
            read_pgm(data)

    def test_fuzzed_pgm_parses_or_raises_pgm_error(self):
        mesh = normalize_mesh(TriangleMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])))
        blob = write_pgm(render_view(mesh, make_camera_rig(16), 0))
        rng = np.random.default_rng(5)
        cases = [blob[:n] for n in range(len(blob))]
        for _ in range(400):
            data = bytearray(blob)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
                data[pos] = int(rng.integers(0, 256))
            cases.append(bytes(data))
        for data in cases:
            try:
                img = read_pgm(data)
            except PgmError:
                continue
            assert img.dtype == np.uint8 and img.size == len(data.split(b"\n", 3)[3])
