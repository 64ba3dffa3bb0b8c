"""Triangle meshes stored as OFF text: parsing, writing, jitter, normalization.

Meshes are plain vertex/face soups. Faces with more than three vertices are
fan-triangulated from their first vertex, so every mesh in the rest of the
pipeline is a pure triangle list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class OffParseError(ValueError):
    """Malformed OFF input. The message always names the offending 1-based line."""


@dataclass
class TriangleMesh:
    """Vertex positions (V, 3) float64 and triangle indices (F, 3) int64."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)

    def validate(self) -> None:
        """Raise ValueError if the mesh invariants do not hold."""
        if len(self.vertices) < 3:
            raise ValueError(f"mesh needs >= 3 vertices, got {len(self.vertices)}")
        if not np.isfinite(self.vertices).all():
            raise ValueError("non-finite vertex coordinate")
        if len(self.faces) < 1:
            raise ValueError("mesh needs >= 1 face")
        if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
            raise ValueError("face index out of range")
        a, b, c = self.faces[:, 0], self.faces[:, 1], self.faces[:, 2]
        if np.any((a == b) | (b == c) | (a == c)):
            raise ValueError("face repeats a vertex index")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass
class JitterConfig:
    """Gaussian vertex displacement; sigma is in raw model units."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def parse_off(data: bytes | str, source_path: str | None = None) -> TriangleMesh:
    """Parse OFF text into a TriangleMesh, fan-triangulating k-gons.

    Accepts both a standalone "OFF" header line and the header fused with the
    counts line ("OFF 3 1 0"), as found in the wild. Blank lines and lines
    starting with '#' are skipped. When source_path is given it prefixes every
    parse error message.
    """
    try:
        return _parse_off(data)
    except OffParseError as err:
        if source_path is not None:
            raise OffParseError(f"{source_path}: {err}") from None
        raise


def _parse_off(data: bytes | str) -> TriangleMesh:
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")

    # (line_number, tokens) for every meaningful line
    rows: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(data.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((ln, stripped.split()))

    if not rows:
        raise OffParseError("line 1: empty OFF file")

    pos = 0
    ln, toks = rows[pos]
    if toks[0].upper() == "OFF":
        if len(toks) == 1:
            pos += 1
        elif len(toks) == 4:
            # fused header: "OFF V F E"
            rows[pos] = (ln, toks[1:])
        else:
            raise OffParseError(f"line {ln}: malformed OFF header {' '.join(toks)!r}")
    if pos >= len(rows):
        raise OffParseError(f"line {ln}: truncated file, counts line missing")

    ln, toks = rows[pos]
    if len(toks) != 3:
        raise OffParseError(f"line {ln}: counts line must be 'V F E', got {' '.join(toks)!r}")
    try:
        n_verts, n_faces, _ = (int(t) for t in toks)
    except ValueError:
        raise OffParseError(f"line {ln}: non-numeric token in counts line") from None
    if n_verts < 0 or n_faces < 0:
        raise OffParseError(f"line {ln}: negative count in counts line")
    pos += 1

    if len(rows) - pos < n_verts:
        raise OffParseError(f"line {rows[-1][0]}: truncated file, expected {n_verts} vertex lines")
    vertices = np.empty((n_verts, 3), dtype=np.float64)
    for i in range(n_verts):
        ln, toks = rows[pos + i]
        if len(toks) != 3:
            raise OffParseError(f"line {ln}: vertex line must have 3 coordinates")
        try:
            vertices[i] = [float(t) for t in toks]
        except ValueError:
            raise OffParseError(f"line {ln}: non-numeric vertex coordinate") from None
    pos += n_verts

    if len(rows) - pos < n_faces:
        raise OffParseError(f"line {rows[-1][0]}: truncated file, expected {n_faces} face lines")
    tris: list[tuple[int, int, int]] = []
    for i in range(n_faces):
        ln, toks = rows[pos + i]
        try:
            k = int(toks[0])
        except ValueError:
            raise OffParseError(f"line {ln}: non-numeric face vertex count") from None
        if k < 3:
            raise OffParseError(f"line {ln}: face needs >= 3 vertices, got {k}")
        if len(toks) != k + 1:
            raise OffParseError(f"line {ln}: face line has {len(toks) - 1} indices, expected {k}")
        try:
            idx = [int(t) for t in toks[1:]]
        except ValueError:
            raise OffParseError(f"line {ln}: non-numeric face index") from None
        for j in idx:
            if j < 0 or j >= n_verts:
                raise OffParseError(f"line {ln}: face index {j} out of range for {n_verts} vertices")
        # fan triangulation from the first polygon vertex
        for j in range(1, k - 1):
            tris.append((idx[0], idx[j], idx[j + 1]))

    mesh = TriangleMesh(vertices, np.array(tris, dtype=np.int64))
    try:
        mesh.validate()
    except ValueError as err:
        raise OffParseError(str(err)) from None
    return mesh


def write_off(mesh: TriangleMesh) -> bytes:
    """Serialize to OFF text; coordinates carry 9 significant digits."""
    mesh.validate()
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    return ("\n".join(lines) + "\n").encode("ascii")


def jitter_mesh(mesh: TriangleMesh, cfg: JitterConfig) -> TriangleMesh:
    """Displace every vertex coordinate by an independent N(0, sigma) draw.

    Deterministic given cfg.seed; the face list is shared bit-identically.
    """
    rng = np.random.default_rng(cfg.seed)
    noise = rng.normal(0.0, cfg.sigma, size=mesh.vertices.shape)
    return replace(mesh, vertices=mesh.vertices + noise)


def normalize_mesh(mesh: TriangleMesh, padding: float = 0.05) -> TriangleMesh:
    """Center the bounding box at the origin and scale uniformly.

    The longest bounding-box axis ends up spanning (1 - 2*padding) inside the
    unit cube [-0.5, 0.5]^3; aspect ratio is preserved. Idempotent.
    """
    if not 0.0 <= padding < 0.5:
        raise ValueError(f"padding must be in [0, 0.5), got {padding}")
    lo, hi = mesh.bounds()
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise ValueError("zero-extent mesh: all vertices coincident")
    center = (lo + hi) / 2.0
    scale = (1.0 - 2.0 * padding) / extent
    return replace(mesh, vertices=(mesh.vertices - center) * scale)
