"""Conformal geometric algebra kernel and versor-based character deformation.

The package animates skinned triangle meshes with conformal versors
(rotors, translators, dilators and their products), cuts them with planes
and tears them along scalpel paths, keeping every output deformable.
"""

from . import algebra, animate, cli, cut, errors, quaternions, rig, section, tear, weights
from .algebra import (
    Multivector,
    down,
    make_dilator,
    make_plane,
    make_rotor,
    make_translator,
    plane_distances,
    up,
    up_points,
    versor_inverse,
)
from .animate import (
    SKIN_BACKENDS,
    Pose,
    SkinnedFrame,
    compare_backends,
    generate_keyframe,
    global_pose_at,
    skin_cga,
    skin_cga_sum,
    skin_dq,
    skin_lbs,
)
from .cut import CutResult, cut as cut_model
from .errors import MvskinError
from .rig import (
    Bone,
    Mesh,
    RiggedModel,
    Trs,
    export_obj,
    load_rig,
    make_arm_model,
    make_cylinders_model,
    save_rig,
    validate_model,
)
from .tear import ScalpelState, TearResult, open_tear, scalpel_hit, tear as tear_model

__version__ = "0.1.0"

__all__ = [
    "Multivector",
    "down",
    "make_dilator",
    "make_plane",
    "make_rotor",
    "make_translator",
    "plane_distances",
    "up",
    "up_points",
    "versor_inverse",
    "SKIN_BACKENDS",
    "Pose",
    "SkinnedFrame",
    "compare_backends",
    "generate_keyframe",
    "global_pose_at",
    "skin_cga",
    "skin_cga_sum",
    "skin_dq",
    "skin_lbs",
    "CutResult",
    "cut_model",
    "MvskinError",
    "Bone",
    "Mesh",
    "RiggedModel",
    "Trs",
    "export_obj",
    "load_rig",
    "make_arm_model",
    "make_cylinders_model",
    "save_rig",
    "validate_model",
    "ScalpelState",
    "TearResult",
    "open_tear",
    "scalpel_hit",
    "tear_model",
    "algebra",
    "animate",
    "cli",
    "cut",
    "errors",
    "quaternions",
    "rig",
    "section",
    "tear",
    "weights",
]
