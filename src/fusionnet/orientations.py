"""Rotation poses for augmentation: (polar, azimuth) sampling and rigid rotation.

The azimuth spins the model about the gravity (z) axis, the polar angle then
tilts it away from that axis. The rotation convention is pinned as
R = Rx(theta) @ Rz(phi) and is relied on by the voxel and view caches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriangleMesh


@dataclass(frozen=True)
class Orientation:
    theta: float  # polar angle, [0, pi]
    phi: float  # azimuth angle, [0, 2*pi)

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta out of [0, pi]: {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi out of [0, 2*pi): {self.phi}")


@dataclass(frozen=True)
class OrientationSet:
    orientations: tuple[Orientation, ...]


def sample_orientations(count: int, seed: int) -> OrientationSet:
    """Draw `count` independent poses, theta ~ U[0, pi], phi ~ U[0, 2*pi)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    u = rng.random((count, 2))
    pairs = tuple(Orientation(float(t) * math.pi, float(p) * 2.0 * math.pi) for t, p in u)
    return OrientationSet(pairs)


def derive_seed(global_seed: int, *labels: str) -> int:
    """Stable 63-bit sub-seed from a global seed and string labels.

    Uses SHA-256 so results do not depend on interpreter hash randomization.
    """
    h = hashlib.sha256(str(global_seed).encode())
    for label in labels:
        h.update(b"\x00")
        h.update(label.encode())
    return int.from_bytes(h.digest()[:8], "little") >> 1


def rotation_matrix(o: Orientation) -> np.ndarray:
    """3x3 matrix R = Rx(theta) @ Rz(phi); right-handed, det +1."""
    ct, st = math.cos(o.theta), math.sin(o.theta)
    cp, sp = math.cos(o.phi), math.sin(o.phi)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ct, -st], [0.0, st, ct]])
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return rx @ rz


def apply_rotation(mesh: TriangleMesh, o: Orientation) -> TriangleMesh:
    """Rotate every vertex by rotation_matrix(o); faces are untouched."""
    r = rotation_matrix(o)
    return TriangleMesh(mesh.vertices @ r.T, mesh.faces)

