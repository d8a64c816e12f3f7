"""Tear the cylinders fixture with a two-state scalpel stroke.

The scalpel pierces the wall at two angles; the stroke sweeps a plane
that crosses 17 wall edges between the anchors.  Those crossings are
inserted, duplicated, and pushed apart so the slit opens, and the torn
model keeps deforming.
"""

import math
from pathlib import Path

import numpy as np

from mvskin.animate import generate_keyframe, global_pose_at, skin_cga
from mvskin.quaternions import from_axis_angle
from mvskin.rig import Trs, compose_trs, export_obj, make_cylinders_model
from mvskin.tear import ScalpelState, tear

OUT = Path("demo_out")
STEP = 2.0 * math.pi / 62.0  # one wall face at the tear height


def radial(t, theta, z=10.0, r0=0.5, r1=3.0):
    c, s = math.cos(theta), math.sin(theta)
    return ScalpelState(t, (r0 * c, r0 * s, z), (r1 * c, r1 * s, z))


def main():
    model = make_cylinders_model()
    states = [radial(0.0, 3 * STEP), radial(1.0, 20 * STEP)]
    result = tear(model, states, delta=0.2)

    path = result.paths[0]
    print("tear crossed %d edges between the anchors" % len(path.points))
    print("duplicated vertices:", len(path.duplicates))
    print("scalpel drift from the tear plane: %.2e" % path.projection_distance)
    print(
        "vertices %d -> %d, faces %d -> %d"
        % (
            len(model.mesh.vertices),
            len(result.model.mesh.vertices),
            len(model.mesh.faces),
            len(result.model.mesh.faces),
        )
    )

    OUT.mkdir(exist_ok=True)
    torn_path = OUT / "torn.obj"
    export_obj(result.model.mesh, torn_path)
    print("wrote", torn_path)

    # the torn model is still a rigged model: bend it
    torn = result.model
    delta = Trs(rotation=tuple(from_axis_angle((0, 1, 1), 0.6)))
    posed = generate_keyframe(torn, "bend", 1, compose_trs(torn.bone(1).bind, delta), 1.0)
    frame = skin_cga(posed, global_pose_at(posed, "bend", 1.0))
    assert np.all(np.isfinite(frame.positions))
    bent_path = OUT / "torn_bent.obj"
    export_obj(torn.mesh, bent_path, frame.positions)
    print("wrote", bent_path)


if __name__ == "__main__":
    main()
