"""Skin the cylinders fixture with all four backends and compare.

Poses the middle joint with a rotation, a translation, and a uniform
dilation, then reports how far conformal-versor skinning lands from
the dual-quaternion and matrix references, and how far projecting the
summed conformal images (cga_sum) lands from projecting each term (cga).
"""

import math

from mvskin.animate import compare_backends, generate_keyframe, global_pose_at
from mvskin.quaternions import from_axis_angle
from mvskin.rig import Trs, compose_trs, make_cylinders_model


def pose_with(model, trs_delta):
    """One-key clip moving joint 1 relative to its bind transform."""
    posed = generate_keyframe(
        model, "demo", 1, compose_trs(model.bone(1).bind, trs_delta), 1.0
    )
    return posed, global_pose_at(posed, "demo", 1.0)


def main():
    model = make_cylinders_model()
    print(
        "cylinders fixture: %d vertices, %d faces, %d bones"
        % (len(model.mesh.vertices), len(model.mesh.faces), len(model.bones))
    )

    rot = Trs(rotation=tuple(from_axis_angle((0, 1, 1), 0.5)))
    tr = Trs(translation=(13.0, 0.0, 0.0))
    dil = Trs(scale=1.5)

    cases = [
        ("rotation 0.5 rad about (0,1,1)", rot, "dq"),
        ("translation (13,0,0)", tr, "dq"),
        ("dilation x1.5", dil, "lbs"),  # dual quaternions cannot scale
    ]
    for label, delta, reference in cases:
        posed, pose = pose_with(model, delta)
        out = compare_backends(posed, pose, reference=reference, test="cga")
        print(
            "%-32s versor vs %-3s  linf %.4f%%  mean %.6f%%"
            % (label, reference, 100 * out["linf_rel"], 100 * out["mean_rel"])
        )
        out = compare_backends(posed, pose, reference="cga", test="cga_sum")
        print("%-32s cga_sum vs cga  linf %.4f%%" % ("", 100 * out["linf_rel"]))

    # bind pose must be a fixed point of every backend
    from mvskin.animate import SKIN_BACKENDS
    import numpy as np

    pose0 = global_pose_at(model, None, 0.0)
    for name, skinner in SKIN_BACKENDS.items():
        drift = float(np.max(np.abs(skinner(model, pose0).positions - model.mesh.vertices)))
        print("bind-pose drift (%s): %.2e" % (name, drift))


if __name__ == "__main__":
    main()
