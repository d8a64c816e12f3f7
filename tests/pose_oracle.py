"""The per-bone pose path, the reference of the package's stacked pose passes.

`local_transform_at` interpolates one bone's keys with bisect and a
one-quaternion `nlerp`, exactly as `mvskin.animate.global_pose_at` once
did for each bone.  `trs_versor` and
`trs_matrix` build one bone's leaf from the scalar versor constructors
and 1-D products, `chain` composes it onto its parent's global transform
one bone at a time, and the `SKIN` backends read one bone's deform
transform and one `sandwich_block` per weight group.  Versors are (32,)
coefficient arrays; their products and sandwich blocks gather the dense
table of `cga_oracle`.  Each is a copy, not an import of the package's
passes, so that a change to those passes shows up against it.
"""

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from mvskin import quaternions as quat
from mvskin.algebra import down_block, make_dilator, make_translator, rotor_from_quaternion
from mvskin.animate import SkinnedFrame
from mvskin.errors import DegenerateBlend, NumericalFailure, SingularVersor
from mvskin.rig import Trs, parent_first

from cga_oracle import BASIS, GP, argmax_gather
from quaternion_oracle import multiply, rotate

# x -> a x as a (j, k) matrix, and y -> y w as one
_LEFT = argmax_gather(GP, 0)
_RIGHT = argmax_gather(GP, 1)
_G1_LEFT = tuple(np.ascontiguousarray(x[1:6]) for x in _LEFT)
_G1_RIGHT = tuple(np.ascontiguousarray(x[:, 1:6]) for x in _RIGHT)
_REVERSE = np.array([(-1.0) ** (len(t) * (len(t) - 1) // 2) for t in BASIS])


def gathered(gather, x) -> np.ndarray:
    index, sign = gather
    return x[index] * sign + 0.0


def product(a, b) -> np.ndarray:
    """Geometric product ab of two coefficient arrays."""
    return b @ gathered(_LEFT, a)


def sandwich_block(V) -> np.ndarray:
    """The (5, 5) grade-1 block of X -> V X V^-1, with V^-1 = reverse(V) / <V reverse(V)>_0."""
    rev = V * _REVERSE
    norm = float(product(V, rev)[0])
    if abs(norm) < 1e-14:
        raise SingularVersor(f"scalar norm {norm:.3e} is below {1e-14:g}")
    return gathered(_G1_LEFT, V) @ gathered(_G1_RIGHT, rev / norm)


def to_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def nlerp(a, b, t: float) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if float(np.dot(a, b)) < 0.0:
        b = -b
    out = (1.0 - t) * a + t * b
    n = float(np.linalg.norm(out))
    if n < 1e-12:
        raise DegenerateBlend("quaternion blend collapsed to zero")
    return out / n


def interpolate_keys(keys, time: float) -> Trs:
    times = [k.time for k in keys]
    i = bisect.bisect_left(times, time)
    if i < len(keys) and keys[i].time == time:
        return keys[i].trs
    if i == 0:
        return keys[0].trs
    if i == len(keys):
        return keys[-1].trs
    k0, k1 = keys[i - 1], keys[i]
    a = (time - k0.time) / (k1.time - k0.time)
    t = (1.0 - a) * np.asarray(k0.translation) + a * np.asarray(k1.translation)
    q = nlerp(k0.rotation, k1.rotation, a)
    s = (1.0 - a) * k0.scale + a * k1.scale
    return Trs(tuple(float(x) for x in t), tuple(float(x) for x in q), float(s))


def local_transform_at(model, clip, bone_id: int, time: float) -> Trs:
    """One bone's keys at a time, or its bind transform when the clip has no track for it."""
    tracks = model.clips.get(clip, {}) if clip is not None else {}
    keys = tracks.get(bone_id)
    if not keys:
        return model.bone(bone_id).bind
    return interpolate_keys(keys, time)


def trs_versor(trs: Trs) -> np.ndarray:
    t = make_translator(trs.translation).coeffs
    r = rotor_from_quaternion(quat.normalize(trs.rotation)).coeffs
    d = make_dilator(trs.scale).coeffs
    return product(product(t, r), d)


def trs_matrix(trs: Trs) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = trs.scale * to_matrix(quat.normalize(trs.rotation))
    m[:3, 3] = trs.translation
    return m


def chain(pairs, leaf, compose) -> dict:
    """Bone id -> global transform over (bone, local Trs) pairs given parents first."""
    out: dict = {}
    for bone, local in pairs:
        g = leaf(local)
        out[bone.id] = g if bone.parent is None else compose(out[bone.parent], g)
    return out


@dataclass(frozen=True)
class OraclePose:
    time: float
    local: tuple  # of (Bone, Trs) pairs, parents first

    @functools.cached_property
    def versors(self) -> dict:
        return chain(self.local, trs_versor, product)

    @functools.cached_property
    def matrices(self) -> dict:
        return chain(self.local, trs_matrix, np.matmul)


def pose_at(model, clip, time: float) -> OraclePose:
    bones = parent_first(model.bones)
    return OraclePose(float(time), tuple((b, local_transform_at(model, clip, b.id, time)) for b in bones))


def blend(model, width: int, image) -> np.ndarray:
    out = np.zeros((len(model.mesh.vertices), width))
    with np.errstate(all="ignore"):
        for bone_id, rows, weights in model.weights.bone_groups:
            out[rows] += weights[:, None] * image(bone_id, rows)
    return out


def sandwich_images(model, pose):
    """image(bone, rows): the rows' grade-1 images under the bone's deform versor, one sandwich_block each."""
    lifted = model.mesh.lifted_vertices

    def image(bone_id, rows):
        deform = product(pose.versors[bone_id], trs_versor(model.bone(bone_id).offset))
        return lifted[rows] @ sandwich_block(deform)

    return image


def skin_cga(model, pose):
    sandwich = sandwich_images(model, pose)
    out = blend(model, 3, lambda bone_id, rows: down_block(sandwich(bone_id, rows), rows))
    return SkinnedFrame(out, "cga", pose.time)


def skin_cga_sum(model, pose):
    acc = blend(model, 5, sandwich_images(model, pose))
    with np.errstate(all="ignore"):
        out = down_block(acc)
    return SkinnedFrame(out, "cga_sum", pose.time)


def deform_matrix(model, pose, bone):
    return pose.matrices[bone.id] @ trs_matrix(bone.offset)


def skin_lbs(model, pose):
    def image(bone_id, rows):
        m = pose.matrices[bone_id] @ trs_matrix(model.bone(bone_id).offset)
        return model.mesh.vertices[rows] @ m[:3, :3].T + m[:3, 3]

    return SkinnedFrame(blend(model, 3, image), "lbs", pose.time)


def skin_dq(model, pose):
    bones = model.bones
    slot = {b.id: i for i, b in enumerate(bones)}
    with np.errstate(all="ignore"):
        m = np.array([deform_matrix(model, pose, b) for b in bones]).reshape(-1, 4, 4)
        det = np.linalg.det(m[:, :3, :3])
        ok = (0.0 < det) & (det < np.inf)
        if not ok.all():
            b = int(np.argmin(ok))
            raise NumericalFailure(f"dq skinning: bone {bones[b].id} has no finite positive scale (det {det[b]:.3e})")
        scale = np.array([d ** (1.0 / 3.0) for d in det.tolist()])
        real = quat.from_matrix(m[:, :3, :3] / scale[:, None, None])
        dual = 0.5 * multiply(np.concatenate([np.zeros((len(bones), 1)), m[:, :3, 3]], axis=1), real)
        parts = np.column_stack([real, dual, scale])

    pivots, pivot_of_row = model.weights.pivot_bones
    pivot_real = np.array([real[slot[p]] if p in slot else np.zeros(4) for p in pivots.tolist()])

    def image(bone_id, rows):
        part = parts[slot[bone_id]]
        sgn = np.where(pivot_real[pivot_of_row[rows]] @ part[:4] < 0.0, -1.0, 1.0)
        return np.column_stack([sgn[:, None] * part[:8], np.full(len(rows), part[8])])

    acc = blend(model, 9, image)
    norm = np.linalg.norm(acc[:, :4], axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        qr, qd = acc[:, :4] / norm, acc[:, 4:8] / norm
        trans = 2.0 * multiply(qd, quat.conjugate(qr))[:, 1:]
        out = rotate(qr, acc[:, 8:] * model.mesh.vertices) + trans
    return SkinnedFrame(out, "dq", pose.time)


SKIN = {"cga": skin_cga, "cga_sum": skin_cga_sum, "lbs": skin_lbs, "dq": skin_dq}
