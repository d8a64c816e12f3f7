"""Cut the cylinders fixture with an oblique plane, then animate the halves.

Shows that the two halves keep valid rigging: the seam vertices get
interpolated weights and both pieces still deform.
"""

import math
from pathlib import Path

import numpy as np

from mvskin.algebra import make_plane
from mvskin.animate import generate_keyframe, global_pose_at, skin_cga
from mvskin.cut import cut
from mvskin.quaternions import from_axis_angle
from mvskin.rig import Trs, compose_trs, export_obj, make_cylinders_model

OUT = Path("demo_out")


def mesh_area(mesh):
    p = mesh.vertices[mesh.faces]
    return float(0.5 * np.sum(np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)))


def main():
    model = make_cylinders_model()
    n = np.array([0.2, 0.1, 1.0])
    n /= np.linalg.norm(n)
    plane = make_plane(tuple(n), float(n @ np.array([0.0, 0.0, 9.0])))

    result = cut(model, plane)
    print("cut produced %d intersection points" % len(result.cut_points))
    print("seam polylines:", [len(chain) for chain in result.polylines])
    a0 = mesh_area(model.mesh)
    a1 = mesh_area(result.m1.mesh) + mesh_area(result.m2.mesh)
    print("area before %.6f, after %.6f, drift %.2e" % (a0, a1, abs(a1 - a0) / a0))
    for label, half in (("M1", result.m1), ("M2", result.m2)):
        print(
            "  %s: %d vertices, %d faces, %d seam vertices"
            % (
                label,
                len(half.mesh.vertices),
                len(half.mesh.faces),
                len(result.cut_points),
            )
        )

    # both halves still animate: bend and shrink the upper joint
    delta = Trs((13.0, 0.0, 0.0), tuple(from_axis_angle((0, 1, 1), 0.7)), 0.5)
    OUT.mkdir(exist_ok=True)
    for label, half in (("m1", result.m1), ("m2", result.m2)):
        posed = generate_keyframe(half, "bend", 1, compose_trs(half.bone(1).bind, delta), 1.0)
        frame = skin_cga(posed, global_pose_at(posed, "bend", 1.0))
        path = OUT / ("cut_%s_deformed.obj" % label)
        export_obj(half.mesh, path, frame.positions)
        print("wrote", path)


if __name__ == "__main__":
    main()
