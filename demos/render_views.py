#!/usr/bin/env python3
"""Walk through the multi-view renderer on a single mesh.

Generates an icosphere (or loads an OFF file given as the first argument),
normalizes it, renders the 20 dodecahedron-vertex views, and writes them as
PGM images. Prints the camera geometry along the way.

Usage: python3 render_views.py [mesh.off] [out_dir]
"""

import os
import sys

import numpy as np

from fusionnet.mesh import normalize_mesh, parse_off
from fusionnet.pipeline.data import make_icosphere
from fusionnet.render import camera_basis, make_camera_rig, render_view, write_pgm


def main() -> int:
    mesh_path = sys.argv[1] if len(sys.argv) > 1 else None
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "rendered_views"

    if mesh_path:
        with open(mesh_path, "rb") as fh:
            mesh = parse_off(fh.read(), source_path=mesh_path)
        print(f"loaded {mesh_path}: {len(mesh.vertices)} vertices, "
              f"{len(mesh.faces)} triangles")
    else:
        mesh = make_icosphere(subdivisions=3)
        print(f"generated icosphere: {len(mesh.vertices)} vertices, "
              f"{len(mesh.faces)} triangles")

    # Rendering expects the mesh inside the unit cube with a little padding.
    mesh = normalize_mesh(mesh)
    lo, hi = mesh.bounds()
    print(f"normalized bounds: [{lo.min():+.3f}, {hi.max():+.3f}]")

    # The 20 cameras sit at the vertices of a regular dodecahedron and all
    # look at the origin. Adjacent cameras are equidistant by construction.
    rig = make_camera_rig(image_size=128)
    d01 = float(np.dot(rig.positions[0], rig.positions[1]))
    print(f"{len(rig.positions)} cameras on the unit sphere; "
          f"cos(angle) between the first two: {d01:.4f}")

    os.makedirs(out_dir, exist_ok=True)
    for k in range(len(rig.positions)):
        right, up, forward = camera_basis(rig, k)
        view = render_view(mesh, rig, k)
        path = os.path.join(out_dir, f"demo_v{k}.pgm")
        with open(path, "wb") as fh:
            fh.write(write_pgm(view))
        lit = int((view > 0).sum())
        print(f"view {k:2d}: forward ({forward[0]:+.2f} {forward[1]:+.2f} "
              f"{forward[2]:+.2f}), {lit:5d} lit pixels -> {path}")

    print(f"done; images are plain P5 PGM, 8-bit grayscale, background 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
