"""Volumetric + multi-view CNN shape classification with score fusion."""

from .mesh import (
    JitterConfig,
    OffParseError,
    TriangleMesh,
    jitter_mesh,
    normalize_mesh,
    parse_off,
    write_off,
)
from .orientations import (
    Orientation,
    OrientationSet,
    apply_rotation,
    derive_seed,
    rotation_matrix,
    sample_orientations,
)
from .render import (
    CameraRig,
    PgmError,
    make_camera_rig,
    read_pgm,
    render_view,
    write_pgm,
)
from .voxel import (
    VoxelCacheError,
    VoxelGrid,
    read_voxel_cache,
    voxelize_surface,
    write_voxel_cache,
)

__version__ = "0.1.0"

__all__ = [
    "JitterConfig",
    "OffParseError",
    "TriangleMesh",
    "jitter_mesh",
    "normalize_mesh",
    "parse_off",
    "write_off",
    "Orientation",
    "OrientationSet",
    "apply_rotation",
    "derive_seed",
    "rotation_matrix",
    "sample_orientations",
    "CameraRig",
    "PgmError",
    "make_camera_rig",
    "read_pgm",
    "render_view",
    "write_pgm",
    "VoxelCacheError",
    "VoxelGrid",
    "read_voxel_cache",
    "voxelize_surface",
    "write_voxel_cache",
    "__version__",
]
