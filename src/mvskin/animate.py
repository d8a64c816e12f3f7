"""Keyframe interpolation, pose propagation, and four skinning backends.

A Pose stores each bone's local transform at a sample time, parents
first, and derives a global chain on first read: conformal versors for
cga and cga_sum, homogeneous 4x4 matrices for lbs and dq.  Skinning
composes the pose with each bone's offset (inverse global bind) into a
versor S_n or a matrix M_n; every backend blends over a vertex's
influences (n, w_n) in one loop on the model's weights, the packed
(n, 4) SkinWeights table that is their only stored form:

  cga      sum_n w_n down(S_n up(v) ~S_n), projected per term: lbs to rounding,
  cga_sum  down(sum_n w_n S_n up(v) ~S_n), the README equation; it departs
           from cga only where a dilation skews the conformal weights,
  lbs      sum_n w_n M_n v,
  dq       normalized linear blend of unit dual quaternions; uniform scale
           is factored out of each bone matrix and applied to the input
           point first, since dual quaternions only cover rigid motion.

The conformal backends read only grade 1.  A sandwich preserves grade, so
a vertex lifts to its five e1..e5 coefficients (up_block) and each bone
applies the 5x5 grade-1 block of its sandwich matrix (sandwich_block),
not the full 32x32 map; the products behind that block gather the one
Cayley-table term of each slot rather than contracting the table.  Every
backend walks the model's cached bone groups (bone, rows, weights), so a
frame does no per-bone search of the influence table; the lifted rest
vertices and each vertex's dq pivot bone are cached per model the same
way.

Sample times outside a track's key range clamp to the nearest key; a
missing track holds the bone's local bind transform.  Tracks, if any,
on the root bone are honored by the chains; the shipped fixtures
never animate the root, so its pose entry stays the identity.
"""

from __future__ import annotations

import bisect
import functools
import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import quaternions as quat
from .algebra import down_block, geometric_product, sandwich_block
from .errors import NumericalFailure, SchemaError
from .rig import (
    RiggedModel,
    Trs,
    TrsKey,
    bbox_diagonal,
    chain,
    parent_first,
    trs_matrix,
    trs_versor,
)

__all__ = [
    "Pose",
    "SkinnedFrame",
    "local_transform_at",
    "global_pose_at",
    "skin_cga",
    "skin_cga_sum",
    "skin_lbs",
    "skin_dq",
    "SKIN_BACKENDS",
    "compare_backends",
    "generate_keyframe",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Pose:
    """Each bone's local transform at one sample time, parents first.

    versors and matrices (bone id -> global Versor or (4, 4) ndarray) are
    each built on first read.
    """

    time: float
    local: tuple  # of (Bone, Trs) pairs, every parent before its children

    @functools.cached_property
    def versors(self) -> dict:
        return chain(self.local, trs_versor, geometric_product)

    @functools.cached_property
    def matrices(self) -> dict:
        return chain(self.local, trs_matrix, np.matmul)


@dataclass(frozen=True)
class SkinnedFrame:
    """Deformed vertex positions produced by one skinning backend, all finite."""

    positions: np.ndarray  # (n, 3)
    backend: str
    time: float

    def __post_init__(self):
        if not np.isfinite(self.positions).all():  # name the first bad vertex only on failure
            bad = np.flatnonzero(~np.all(np.isfinite(self.positions), axis=1))
            raise NumericalFailure(
                f"{self.backend} skinning produced a non-finite position at vertex {int(bad[0])}"
            )


# ---------------------------------------------------------------------------
# keyframe interpolation


def _interpolate_keys(keys, time: float) -> Trs:
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
    q = quat.nlerp(k0.rotation, k1.rotation, a)
    s = (1.0 - a) * k0.scale + a * k1.scale
    return Trs(tuple(float(x) for x in t), tuple(float(x) for x in q), float(s))


def local_transform_at(
    model: RiggedModel, clip: Optional[str], bone_id: int, time: float
) -> Trs:
    """Interpolated local transform of one bone.

    Lands exactly on key values at key times, clamps outside the key
    range, and falls back to the bone's bind transform when the clip has
    no track for the bone (or clip is None).
    """
    tracks = model.clips.get(clip, {}) if clip is not None else {}
    keys = tracks.get(bone_id)
    if not keys:
        return model.bone(bone_id).bind
    return _interpolate_keys(keys, time)


def global_pose_at(model: RiggedModel, clip: Optional[str], time: float) -> Pose:
    """Every bone's interpolated local transform at a time, parents first."""
    bones = parent_first(model.bones)
    return Pose(float(time), tuple((b, local_transform_at(model, clip, b.id, time)) for b in bones))


# ---------------------------------------------------------------------------
# skinning backends


def _blend(model: RiggedModel, width: int, image) -> np.ndarray:
    """Per-vertex sum of w * image(bone, rows) over the model's weights.

    The terms come from the model's cached bone groups: bones in
    first-use order, each bone's rows ascending, so every backend adds
    the same terms in the same order.  The output has a row per mesh
    vertex.
    """
    out = np.zeros((len(model.mesh.vertices), width))
    with np.errstate(all="ignore"):
        for bone_id, rows, weights in model.weights.bone_groups:
            out[rows] += weights[:, None] * image(bone_id, rows)
    return out


def _sandwich_images(model: RiggedModel, pose: Pose):
    """image(bone, rows): grade-1 sandwich images (k, 5), on e1..e5, of the lifted rows."""
    lifted = model.mesh.lifted_vertices

    def image(bone_id, rows):
        deform = geometric_product(pose.versors[bone_id], model.bone(bone_id).offset_versor)
        return lifted[rows] @ sandwich_block(deform)

    return image


def skin_cga(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Conformal skinning, projecting each term: sum_n w_n down(S_n up(v))."""
    sandwich = _sandwich_images(model, pose)
    out = _blend(model, 3, lambda bone_id, rows: down_block(sandwich(bone_id, rows), rows))
    return SkinnedFrame(out, "cga", pose.time)


def skin_cga_sum(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Conformal skinning, projecting once: down(sum_n w_n S_n up(v))."""
    acc = _blend(model, 5, _sandwich_images(model, pose))
    with np.errstate(all="ignore"):
        out = down_block(acc)
    return SkinnedFrame(out, "cga_sum", pose.time)


def skin_lbs(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Linear blend skinning with homogeneous matrices: sum_n w_n M_n v."""

    def image(bone_id, rows):
        m = pose.matrices[bone_id] @ model.bone(bone_id).offset_matrix
        return model.mesh.vertices[rows] @ m[:3, :3].T + m[:3, 3]

    return SkinnedFrame(_blend(model, 3, image), "lbs", pose.time)


def skin_dq(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Dual-quaternion skinning with per-bone uniform scale factored out.

    Each deformation matrix splits into rigid * scale; the blended scale
    multiplies the rest position first, then the hemisphere-corrected
    normalized dual-quaternion blend applies the rigid part.  One stacked
    pass over the bone matrices (one det, one from_matrix, one multiply)
    gives every bone's part.  Hemisphere correction pivots on each vertex's
    largest-weight influence (ties go to the lower bone id).  The first
    bone matrix in model.bones without a finite positive determinant, as
    an overflowing pose gives, raises NumericalFailure.
    """
    bones = model.bones
    slot = {b.id: i for i, b in enumerate(bones)}  # the last of equal ids wins
    with np.errstate(all="ignore"):  # an overflowing pose fails below, or in SkinnedFrame
        m = np.array([pose.matrices[b.id] @ b.offset_matrix for b in bones]).reshape(-1, 4, 4)
        det = np.linalg.det(m[:, :3, :3])
        ok = (0.0 < det) & (det < np.inf)
        if not ok.all():
            b = int(np.argmin(ok))
            raise NumericalFailure(f"dq skinning: bone {bones[b].id} has no finite positive scale (det {det[b]:.3e})")
        scale = np.array([d ** (1.0 / 3.0) for d in det.tolist()])  # Python's pow, as numpy's ** rounds apart
        real = quat.from_matrix(m[:, :3, :3] / scale[:, None, None])
        dual = 0.5 * quat.multiply(np.concatenate([np.zeros((len(bones), 1)), m[:, :3, 3]], axis=1), real)
        parts = np.column_stack([real, dual, scale])

    # the real part of each distinct pivot bone, by slot; a row with no pivot bone reads zeros
    pivots, pivot_of_row = model.weights.pivot_bones
    pivot_real = np.array([real[slot[p]] if p in slot else np.zeros(4) for p in pivots.tolist()])

    def image(bone_id, rows):
        part = parts[slot[bone_id]]
        sgn = np.where(pivot_real[pivot_of_row[rows]] @ part[:4] < 0.0, -1.0, 1.0)
        return np.column_stack([sgn[:, None] * part[:8], np.full(len(rows), part[8])])

    acc = _blend(model, 9, image)
    norm = np.linalg.norm(acc[:, :4], axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        qr, qd = acc[:, :4] / norm, acc[:, 4:8] / norm
        trans = 2.0 * quat.multiply(qd, quat.conjugate(qr))[:, 1:]
        out = quat.rotate(qr, acc[:, 8:] * model.mesh.vertices) + trans
    return SkinnedFrame(out, "dq", pose.time)


SKIN_BACKENDS = {"cga": skin_cga, "cga_sum": skin_cga_sum, "lbs": skin_lbs, "dq": skin_dq}


def compare_backends(
    model: RiggedModel, pose: Pose, reference: str = "dq", test: str = "cga"
) -> dict:
    """Deviation of one backend from another on a pose.

    Errors are relative to the rest mesh's bounding-box diagonal:
    linf_rel is the largest absolute coordinate difference, mean_rel the
    mean per-vertex Euclidean distance.
    """
    for name in (reference, test):
        if name not in SKIN_BACKENDS:
            raise SchemaError(f"unknown skinning backend {name!r}")
    ref = SKIN_BACKENDS[reference](model, pose).positions
    new = SKIN_BACKENDS[test](model, pose).positions
    diff = new - ref
    diag = bbox_diagonal(model.mesh)
    denom = diag if diag > 0.0 else 1.0
    with np.errstate(over="ignore"):
        per_vertex = np.linalg.norm(diff, axis=1) if len(diff) else np.zeros(0)
    # rows whose squared norm overflowed (a difference beyond ~1.3e154): rescaled
    far = np.isinf(per_vertex) & np.isfinite(diff).all(axis=1)
    top = np.abs(diff[far]).max(axis=1)
    per_vertex[far] = top * np.linalg.norm(diff[far] / top[:, None], axis=1)
    linf = float(np.max(np.abs(diff))) if len(diff) else 0.0
    return {
        "reference": reference,
        "test": test,
        "time": pose.time,
        "linf_abs": linf,
        "linf_rel": linf / denom,
        "mean_abs": float(per_vertex.mean()) if len(diff) else 0.0,
        "mean_rel": (float(per_vertex.mean()) / denom) if len(diff) else 0.0,
    }


# ---------------------------------------------------------------------------
# keyframe editing


def generate_keyframe(
    model: RiggedModel, clip: str, bone_id: int, trs: Trs, time: float
) -> RiggedModel:
    """New model with a key inserted (or overwritten, with a notice) in a clip."""
    model.bone(bone_id)  # KeyError on unknown bone
    key = TrsKey(float(time), tuple(trs.translation), tuple(trs.rotation), float(trs.scale))
    tracks = dict(model.clips.get(clip, {}))
    keys = list(tracks.get(bone_id, ()))
    existing = [i for i, k in enumerate(keys) if k.time == key.time]
    if existing:
        log.info("clip %r bone %d: overwriting key at t=%g", clip, bone_id, key.time)
        keys[existing[0]] = key
    else:
        bisect.insort(keys, key, key=lambda k: k.time)
    tracks[bone_id] = tuple(keys)
    clips = dict(model.clips)
    clips[clip] = tracks
    return replace(model, clips=clips)
