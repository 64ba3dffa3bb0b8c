"""OFF parsing/serialization, jitter, and normalization tests."""

import numpy as np
import pytest

from fusionnet.mesh import (JitterConfig, OffParseError, TriangleMesh,
                            jitter_mesh, normalize_mesh, parse_off, write_off)
from fusionnet.pipeline.data import make_box

TETRA_OFF = b"""OFF
4 4 6
0 0 0
10 0 0
0 10 0
0 0 10
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


class TestParseOff:
    def test_basic_counts(self):
        mesh = parse_off(TETRA_OFF)
        assert mesh.vertices.shape == (4, 3)
        assert mesh.faces.shape == (4, 3)
        assert mesh.vertices.dtype == np.float64

    def test_header_and_counts_on_same_line(self):
        mesh = parse_off(b"OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert len(mesh.faces) == 1

    def test_comments_and_blank_lines_ignored(self):
        data = b"OFF\n# a comment\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2\n"
        mesh = parse_off(data)
        assert len(mesh.vertices) == 3

    def test_quad_fan_triangulated(self):
        data = b"OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        mesh = parse_off(data)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_accepts_str_input(self):
        mesh = parse_off(TETRA_OFF.decode())
        assert len(mesh.vertices) == 4

    @pytest.mark.parametrize("data", [
        b"FFO\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",       # bad magic
        b"OFF\n3 1 0\n0 0 0\n1 0 0\n3 0 1 2\n",              # missing vertex
        b"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",       # missing face
        b"OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n",       # junk coordinate
        b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n",       # index out of range
        b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n",         # degenerate face
        b"",                                                  # empty input
        b"OFF\n-3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",      # negative vertex count
        b"OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n",              # negative face count
    ])
    def test_malformed_inputs_raise(self, data):
        with pytest.raises(OffParseError):
            parse_off(data)

    def test_fuzzed_off_parses_or_raises_off_parse_error(self):
        rng = np.random.default_rng(3)
        blob = write_off(make_box(rng))
        cases = [blob[:n] for n in range(len(blob))]
        for _ in range(400):
            data = bytearray(blob)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
                data[pos] = int(rng.integers(0, 256))
            cases.append(bytes(data))
        for data in cases:
            try:
                mesh = parse_off(data)
            except OffParseError:
                continue
            mesh.validate()

    def test_error_mentions_source_path(self):
        with pytest.raises(OffParseError, match="thing.off"):
            parse_off(b"NOPE\n", source_path="thing.off")


class TestWriteOff:
    def test_roundtrip_geometry(self):
        rng = np.random.default_rng(0)
        mesh = TriangleMesh(rng.normal(size=(9, 3)) * 37.0,
                            np.arange(9).reshape(3, 3))
        back = parse_off(write_off(mesh))
        np.testing.assert_allclose(back.vertices, mesh.vertices, rtol=1e-8)
        np.testing.assert_array_equal(back.faces, mesh.faces)

    def test_deterministic_bytes(self):
        mesh = parse_off(TETRA_OFF)
        assert write_off(mesh) == write_off(mesh)


class TestJitter:
    def test_same_seed_same_offsets(self):
        mesh = parse_off(TETRA_OFF)
        a = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=42))
        b = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=42))
        np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_different_seed_different_offsets(self):
        mesh = parse_off(TETRA_OFF)
        a = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=1))
        b = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=2))
        assert np.abs(a.vertices - b.vertices).max() > 1e-6

    def test_offsets_scale_with_sigma(self):
        """Displacements are applied in raw model units before any
        normalization, so sigma rescales them exactly linearly."""
        mesh = parse_off(TETRA_OFF)
        d1 = jitter_mesh(mesh, JitterConfig(sigma=1.0, seed=7)).vertices - mesh.vertices
        d5 = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=7)).vertices - mesh.vertices
        np.testing.assert_allclose(d5, 5.0 * d1, rtol=1e-12)

    def test_sample_std_plausible(self):
        rng = np.random.default_rng(3)
        mesh = TriangleMesh(rng.normal(size=(3000, 3)) * 100,
                            np.arange(3000).reshape(1000, 3))
        d = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=0)).vertices - mesh.vertices
        assert abs(d.std() - 5.0) < 0.15

    def test_faces_untouched(self):
        mesh = parse_off(TETRA_OFF)
        out = jitter_mesh(mesh, JitterConfig(sigma=5.0, seed=0))
        np.testing.assert_array_equal(out.faces, mesh.faces)


class TestNormalize:
    def test_fits_padded_cube(self):
        rng = np.random.default_rng(1)
        mesh = TriangleMesh(rng.uniform(-300, 900, size=(30, 3)),
                            np.arange(30).reshape(10, 3))
        out = normalize_mesh(mesh)
        lo, hi = out.bounds()
        assert np.abs(out.vertices).max() <= 0.45 + 1e-12
        # longest axis exactly fills the padded extent
        assert abs(max(hi - lo) - 0.9) < 1e-12

    def test_centered(self):
        rng = np.random.default_rng(2)
        mesh = TriangleMesh(rng.uniform(10, 20, size=(12, 3)),
                            np.arange(12).reshape(4, 3))
        out = normalize_mesh(mesh)
        lo, hi = out.bounds()
        np.testing.assert_allclose((lo + hi) / 2.0, 0.0, atol=1e-12)

    def test_uniform_scale_preserves_aspect(self):
        v = np.array([[0, 0, 0], [8, 0, 0], [0, 4, 0], [0, 0, 2]], dtype=float)
        mesh = TriangleMesh(v, np.array([[0, 1, 2], [0, 1, 3]]))
        out = normalize_mesh(mesh)
        lo, hi = out.bounds()
        ext = hi - lo
        np.testing.assert_allclose(ext, [0.9, 0.45, 0.225], atol=1e-12)

    def test_padding_zero_touches_faces(self):
        mesh = parse_off(TETRA_OFF)
        out = normalize_mesh(mesh, padding=0.0)
        lo, hi = out.bounds()
        assert abs(max(hi - lo) - 1.0) < 1e-12

    def test_degenerate_extent_rejected(self):
        v = np.zeros((3, 3))
        mesh = TriangleMesh(v, np.array([[0, 1, 2]]))
        with pytest.raises(ValueError):
            normalize_mesh(mesh)

    def test_idempotent_on_normalized(self):
        mesh = normalize_mesh(parse_off(TETRA_OFF))
        again = normalize_mesh(mesh)
        np.testing.assert_allclose(again.vertices, mesh.vertices, atol=1e-15)


class TestTriangleMesh:
    def test_validate_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]])).validate()

    def test_validate_rejects_nonfinite(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]])
        with pytest.raises(ValueError):
            TriangleMesh(v, np.array([[0, 1, 2]])).validate()

    def test_bounds(self):
        mesh = parse_off(TETRA_OFF)
        lo, hi = mesh.bounds()
        np.testing.assert_array_equal(lo, [0, 0, 0])
        np.testing.assert_array_equal(hi, [10, 10, 10])
