"""Rotation sampling, seed derivation, and pose validation tests."""

import math

import numpy as np
import pytest

from fusionnet.orientations import (Orientation, apply_rotation, derive_seed,
                                    rotation_matrix, sample_orientations)


class TestRotationMatrix:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(rotation_matrix(Orientation(0.0, 0.0)),
                                   np.eye(3), atol=1e-15)

    def test_composition_order_x_after_z(self):
        """The matrix is the x-axis rotation applied to an already
        z-rotated frame: R = Rx(theta) @ Rz(phi)."""
        theta, phi = 0.7, 5.1
        ct, st = math.cos(theta), math.sin(theta)
        cp, sp = math.cos(phi), math.sin(phi)
        rx = np.array([[1, 0, 0], [0, ct, -st], [0, st, ct]])
        rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
        np.testing.assert_allclose(rotation_matrix(Orientation(theta, phi)),
                                   rx @ rz, atol=1e-15)

    def test_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            o = Orientation(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            r = rotation_matrix(o)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_z_axis_rotation_only_when_theta_zero(self):
        r = rotation_matrix(Orientation(0.0, math.pi / 2))
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(r @ [0, 0, 1], [0, 0, 1], atol=1e-15)


class TestApplyRotation:
    def test_rotates_vertices_only(self):
        from fusionnet.mesh import TriangleMesh

        mesh = TriangleMesh(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]),
                            np.array([[0, 1, 2]]))
        out = apply_rotation(mesh, Orientation(0.0, math.pi / 2))
        np.testing.assert_allclose(out.vertices[0], [0, 1, 0], atol=1e-15)
        np.testing.assert_array_equal(out.faces, mesh.faces)
        # input untouched
        np.testing.assert_allclose(mesh.vertices[0], [1, 0, 0])

    def test_preserves_pairwise_distances(self):
        from fusionnet.mesh import TriangleMesh

        rng = np.random.default_rng(4)
        v = rng.normal(size=(20, 3))
        mesh = TriangleMesh(v, np.arange(18).reshape(6, 3))
        out = apply_rotation(mesh, Orientation(1.1, 2.2))
        d_in = np.linalg.norm(v[:, None] - v[None], axis=-1)
        w = out.vertices
        d_out = np.linalg.norm(w[:, None] - w[None], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-12)


class TestDeriveSeed:
    def test_stable_known_value(self):
        # pinned: changing the derivation silently invalidates every cache
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(1, "x")
        assert derive_seed(0, "x") != derive_seed(0, "y")

    def test_order_sensitive(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_no_concatenation_collision(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_range(self):
        for s in range(20):
            v = derive_seed(s, "model", str(s))
            assert 0 <= v < 2 ** 64


class TestSampleOrientations:
    def test_count_and_determinism(self):
        a = sample_orientations(60, seed=123)
        b = sample_orientations(60, seed=123)
        assert len(a.orientations) == 60
        for x, y in zip(a.orientations, b.orientations):
            assert x.theta == y.theta and x.phi == y.phi

    def test_seed_changes_angles(self):
        a = sample_orientations(10, seed=0)
        b = sample_orientations(10, seed=1)
        assert any(x.theta != y.theta for x, y in zip(a.orientations, b.orientations))

    def test_angle_ranges(self):
        s = sample_orientations(500, seed=5)
        thetas = np.array([o.theta for o in s.orientations])
        phis = np.array([o.phi for o in s.orientations])
        assert thetas.min() >= 0.0 and thetas.max() <= math.pi
        assert phis.min() >= 0.0 and phis.max() < 2 * math.pi
        # uniform draws should cover both ranges reasonably
        assert thetas.max() - thetas.min() > math.pi / 2
        assert phis.max() - phis.min() > math.pi

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            sample_orientations(0, seed=0)


class TestOrientation:
    def test_out_of_range_angle_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            Orientation(9.99, 0.0)
        with pytest.raises(ValueError, match="phi"):
            Orientation(0.0, 2.0 * math.pi)
