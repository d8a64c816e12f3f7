"""Keyframe interpolation, pose propagation, and four skinning backends.

A frame's pose work runs in stacked array passes over the bones, not
one bone at a time.  global_pose_at interpolates every bone at once
from a key table stacked on a clip's first frame and kept by the model,
whose clips are frozen at construction; the bisect, exact-key and clamp
rules apply per row, and the table keeps which keys each row reads for
every place a sample time has fallen in among the key times, so frames
between the same two key times gather their keys with one take.  The
skeleton and the stacked offsets are built once per bones tuple
(rig.RiggedModel.skeleton).  A Pose holds the local transforms as
rows, parents first, and derives one stacked global chain on first
read: conformal versors (B, 32) for cga and cga_sum, homogeneous 4x4
matrices (B, 4, 4) for lbs and dq.  The leaves of all bones come from
one pass (rig.trs_versors, rig.trs_matrices), the chain composes one
stacked product per depth level, and skinning composes the pose with
every bone's offset (inverse global bind) in one more stacked product,
into versors S_n or matrices M_n.

Each pass keeps the bytes of the per-bone path it replaced, by two
rules.  Every (32, 32), (5, 32) or (4, 4) slice that matmul reads is
C-contiguous: a strided slice takes another BLAS path, which rounds
differently.  Norms and dots use np.vecdot, which rounds as np.dot and
np.linalg.norm do; np.einsum does not.

cga, cga_sum and lbs write every bone group's images into one term
buffer, weight it once, and add it in at most four slot passes: slot s
holds each vertex's s-th term in group order (SkinWeights.blend_terms),
so every vertex sums its terms in the order a loop over the groups did.
dq keeps its own loop over the groups.  The backends compute:

  cga      sum_n w_n down(S_n up(v) ~S_n), projected per term: lbs to rounding,
  cga_sum  down(sum_n w_n S_n up(v) ~S_n), the README equation; it departs
           from cga only where a dilation skews the conformal weights,
  lbs      sum_n w_n M_n v,
  dq       normalize(sum_n w_n s_n q_n) applied to (sum_n w_n c_n) v, the
           linearly blended scale applied to the rest point first: q_n the
           unit dual quaternion of M_n's rigid part, c_n its uniform scale,
           which dual quaternions do not cover, and s_n = sign(q_p . q_n)
           for the vertex's pivot bone p, folded into the weight.

The conformal backends read only grade 1.  A sandwich preserves grade, so
a vertex lifts to its five e1..e5 coefficients (up_block) and each bone
applies the 5x5 grade-1 block of its sandwich matrix, not the full 32x32
map; one stacked pass (sandwich_blocks) gives the blocks of all weighted
bones, and the products behind them gather the one Cayley-table term of
each entry rather than contracting the table.  The bone groups, the term
table, the lifted rest vertices and the dq pivot bones are cached per
model, so a frame does no per-bone search of the influence table.

Sample times outside a track's key range clamp to the nearest key; a
missing track holds the bone's local bind transform.  Tracks, if any,
on the root bone are honored by the chains; the shipped fixtures
never animate the root, so its pose entry stays the identity.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import quaternions as quat
from .algebra import down_block, geometric_products, sandwich_blocks
from .errors import NumericalFailure, SchemaError
from .rig import (
    RiggedModel,
    Skeleton,
    Trs,
    TrsKey,
    bbox_diagonal,
    chain,
    trs_matrices,
    trs_rows,
    trs_versors,
)

__all__ = [
    "Pose",
    "SkinnedFrame",
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Pose:
    """Each bone's local transform at one sample time, one row per bone.

    Row i is skeleton.order[i], every parent before its children:
    translations (B, 3), rotations (B, 4) and scales (B,), read-only.
    global_versors (B, 32) and global_matrices (B, 4, 4), in the same row
    order, are each built on first read, from one stacked leaf pass and
    one stacked product per depth level; they are the pose's only global
    transforms.  Bone id b is row skeleton.rows[b].
    """

    time: float
    skeleton: Skeleton
    translations: np.ndarray
    rotations: np.ndarray
    scales: np.ndarray

    @functools.cached_property
    def global_versors(self) -> np.ndarray:
        leaves = trs_versors(self.translations, self.rotations, self.scales)
        return _read_only(chain(self.skeleton, leaves, geometric_products))

    @functools.cached_property
    def global_matrices(self) -> np.ndarray:
        leaves = trs_matrices(self.translations, self.rotations, self.scales)
        return _read_only(chain(self.skeleton, leaves, np.matmul))


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


def _key_table(model: RiggedModel, clip: Optional[str]) -> tuple:
    """(times, keys, last, bounds, places): each bone's keys stacked, one row per skeleton row.

    times[i, k] is the time of key k of skeleton row i, and keys[i * K + k]
    the key as (time, translation, rotation, scale), 9 floats; last[i] is
    the index of row i's last key.  A bone without a track holds its bind
    transform as its one key.  Rows are padded to the longest track, K
    keys, with time +inf.  bounds lists the keys' times, NaN left out, as
    sorted Python floats, and places starts empty for _interpolate.  A
    model's clips are frozen, so each clip is stacked once per model.
    """
    table = model.pose_cache.get(("keys", clip))
    if table is not None:
        return table
    tracks = model.clips.get(clip, {}) if clip is not None else {}
    order = model.skeleton.order
    given = [tracks.get(b.id) for b in order]
    tracks = [track or (bone.bind,) for bone, track in zip(order, given)]
    keys = np.zeros((len(order), max(map(len, tracks), default=1), 9))
    keys[:, :, 0] = np.inf
    for i, (track, keyed) in enumerate(zip(tracks, given)):
        n = len(track)
        keys[i, :n, 0] = [key.time for key in track] if keyed else 0.0
        keys[i, :n, 1:4], keys[i, :n, 4:8], keys[i, :n, 8] = trs_rows(track)
    last = np.array([len(track) - 1 for track in tracks], dtype=np.int64)
    times = keys[:, :, 0].copy()
    bounds = sorted({t for t in times[np.arange(times.shape[1]) <= last[:, None]].tolist() if t == t})
    table = (*map(_read_only, (times, keys.reshape(-1, 9), last)), bounds, {})
    model.pose_cache["keys", clip] = table
    return table


def _interpolate(table: tuple, time: float) -> tuple:
    """(translations, rotations, scales) of every row of a key table at a time.

    Per row, as bisect_left over the row's key times: a key at the time
    itself is returned as stored, a time outside the keys clamps to the
    nearest key, and a time between two keys blends them: lerp for
    translation and scale, quat.nlerp for rotation.

    Which keys a row reads depends only on where the time falls among the
    table's bounds: on one of them, or strictly between two (or beyond
    them all; NaN goes below them, as no key time is less than it).  Each
    such place is worked out at its first time and kept in places: the key
    each row lands on, the rows that blend and the key before each.
    """
    times, keys, last, bounds, places = table
    j = bisect.bisect_left(bounds, time)
    place = (j, j < len(bounds) and bounds[j] == time)
    if place not in places:
        i = (times < time).sum(axis=1)
        first = np.arange(len(i)) * times.shape[1]  # each row's first key in keys
        at = np.minimum(i, last)  # the key at or after the time, or the last one
        blend = np.flatnonzero((0 < i) & (i <= last) & (keys[first + at, 0] != time))
        places[place] = (first + at, blend, first[blend] + i[blend] - 1)
    pick, blend, before = places[place]
    out = keys[pick]
    if blend.size:
        k0, k1 = keys[before], out[blend]
        with np.errstate(all="ignore"):  # the per-bone ratio and scale lerp were Python floats, which never warn
            a = (time - k0[:, 0]) / (k1[:, 0] - k0[:, 0])
            mixed = (1.0 - a)[:, None] * k0 + a[:, None] * k1
        mixed[:, 4:8] = quat.nlerp(k0[:, 4:8], k1[:, 4:8], a)
        out[blend] = mixed
    out = _read_only(out)
    return out[:, 1:4], out[:, 4:8], out[:, 8]


def global_pose_at(model: RiggedModel, clip: Optional[str], time: float) -> Pose:
    """Every bone's local transform at a time, in one pass over the bones.

    A bone keyed in the clip lands exactly on a key at its time, clamps to
    the nearest key outside the key range and blends the two keys around
    the time otherwise.  A bone the clip has no track for (or every bone,
    when clip is None) holds its bind transform.
    """
    return Pose(float(time), model.skeleton, *_interpolate(_key_table(model, clip), time))


# ---------------------------------------------------------------------------
# skinning backends


def _group_bones(model: RiggedModel, skeleton: Skeleton) -> tuple:
    """(pose rows, bone indices, missing) of the model's bone groups, kept per skeleton.

    Group g's bone is row pose_rows[g] of a pose on skeleton (the last of
    equal ids) and model.bones[bone_indices[g]] (the first); missing maps
    a group whose bone id names no bone to that id, and its entries read 0.
    """
    cached = model.pose_cache.get("groups")
    if cached is not None and cached[0] is skeleton:
        return cached[1]
    ids = [bone_id for bone_id, _, _ in model.weights.bone_groups]
    missing = {g: bone_id for g, bone_id in enumerate(ids) if bone_id not in skeleton.rows}
    pose_rows = np.array([skeleton.rows.get(bone_id, 0) for bone_id in ids], dtype=np.int64)
    indices = np.array([model.bone_index.get(bone_id, 0) for bone_id in ids], dtype=np.int64)
    model.pose_cache["groups"] = (skeleton, (pose_rows, indices, missing))
    return pose_rows, indices, missing


def _blend(model: RiggedModel, skeleton: Skeleton, rejected, build, singular, source, mats, shifts=None, project=None):
    """Each vertex's sum of w * project(source[rows] @ mats[g] + shifts[g]) over its bone groups g.

    The groups write their images, group-major, into one term buffer
    (SkinWeights.blend_terms) up to the first that fails, which raises after
    project: a KeyError for a bone id skeleton lacks, else the error of an
    offset that build rejects, else singular[g].  One pass per slot then
    adds the weighted terms from zeros, each vertex's in group order; a
    vertex without one reads 0.
    """
    _, bounds, _, weights, slots, verts = model.weights.blend_terms
    _, indices, missing = _group_bones(model, skeleton)
    unbuilt = np.flatnonzero(np.isin(indices, list(rejected))).tolist() if rejected else ()
    stop = min([*missing, *unbuilt, *singular], default=len(indices))
    terms = np.empty((bounds[stop], mats.shape[2]))
    for g, (_, rows, _) in enumerate(model.weights.bone_groups[:stop]):
        np.matmul(source[rows], mats[g], out=terms[bounds[g] : bounds[g + 1]])
        if shifts is not None:
            terms[bounds[g] : bounds[g + 1]] += shifts[g]
    terms = terms if project is None else project(terms)
    if stop in missing:
        raise KeyError(missing[stop])
    if stop in unbuilt:
        build(*trs_rows([model.bones[indices[stop]].offset]))
    if stop in singular:
        raise singular[stop]
    terms *= weights
    acc = np.zeros((len(verts), terms.shape[1]))
    for index in slots:
        acc[: len(index)] += terms.take(index, axis=0)
    out = np.zeros((len(model.mesh.vertices), terms.shape[1]))
    out[verts] = acc
    return out


def _sandwich_blend(model: RiggedModel, pose: Pose, project=None) -> np.ndarray:
    """_blend of the lifted rows' grade-1 images (T, 5) under each group's deform versor global * offset."""
    blocks, singular, rejected = np.empty((0, 5, 5)), {}, ()
    if model.weights.bone_groups:  # a rig without weights reads no pose and no offset
        pose_rows, indices, _ = _group_bones(model, pose.skeleton)
        offsets, rejected = model.skeleton.offset_versors
        blocks, singular = sandwich_blocks(geometric_products(pose.global_versors[pose_rows], offsets[indices]))
    return _blend(model, pose.skeleton, rejected, trs_versors, singular, model.mesh.lifted_vertices, blocks, None, project)


def skin_cga(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Conformal skinning, projecting each term: sum_n w_n down(S_n up(v))."""
    with np.errstate(all="ignore"):
        out = _sandwich_blend(model, pose, lambda images: down_block(images, model.weights.blend_terms[2]))
    return SkinnedFrame(out, "cga", pose.time)


def skin_cga_sum(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Conformal skinning, projecting once: down(sum_n w_n S_n up(v))."""
    with np.errstate(all="ignore"):
        out = down_block(_sandwich_blend(model, pose))
    return SkinnedFrame(out, "cga_sum", pose.time)


def _deform_matrices(model: RiggedModel, pose: Pose) -> tuple:
    """(deform, rejected): global @ offset of every bone, (B, 4, 4) in bones order, from one stacked product.

    Bone j pairs its own offset with the pose's global of its id.  rejected
    holds the bones whose offset trs_matrices rejects; their rows are garbage.
    """
    offsets, rejected = model.skeleton.offset_matrices
    rows = [pose.skeleton.rows[b.id] for b in model.bones]
    return np.matmul(pose.global_matrices[rows], offsets), rejected


def skin_lbs(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Linear blend skinning with homogeneous matrices: sum_n w_n M_n v, as v @ R_n.T + t_n."""
    mats, shifts, rejected = np.empty((0, 3, 3)), None, ()
    with np.errstate(all="ignore"):
        if model.weights.bone_groups:
            deform, rejected = _deform_matrices(model, pose)
            m = deform[_group_bones(model, pose.skeleton)[1]]
            mats, shifts = m[:, :3, :3].transpose(0, 2, 1), m[:, :3, 3]
        out = _blend(model, pose.skeleton, rejected, trs_matrices, {}, model.mesh.vertices, mats, shifts)
    return SkinnedFrame(out, "lbs", pose.time)


def skin_dq(model: RiggedModel, pose: Pose) -> SkinnedFrame:
    """Dual-quaternion skinning with per-bone uniform scale factored out.

    Each bone matrix splits into a unit dual quaternion q_n = (r_n, d_n)
    and a scale c_n, all bones in one stacked pass.  The rest point is
    scaled by sum_n w_n c_n, then moved by the normalized sum_n w_n s_n q_n,
    s_n = sign(r_p . r_n) folded into the weight (exactly), p the vertex's
    largest-weight influence (ties go to the lower bone id).  The tail runs
    on (9, n) planes in quat.multiply's and quat.rotate's operation order.
    The first bone in model.bones whose offset trs_matrices rejects raises
    its error; the first bone matrix without a finite positive determinant,
    as an overflowing pose gives, raises NumericalFailure.
    """
    bones = model.bones
    with np.errstate(all="ignore"):  # an overflowing pose fails below, or in SkinnedFrame
        m, rejected = _deform_matrices(model, pose)
        if rejected:
            trs_matrices(*trs_rows([bones[min(rejected)].offset]))
        det = np.linalg.det(m[:, :3, :3])
        ok = (0.0 < det) & (det < np.inf)
        if not ok.all():
            b = int(np.argmin(ok))
            raise NumericalFailure(f"dq skinning: bone {bones[b].id} has no finite positive scale (det {det[b]:.3e})")
        scale = np.array([d ** (1.0 / 3.0) for d in det.tolist()])  # Python's pow, as numpy's ** rounds apart
        real = quat.from_matrix(m[:, :3, :3] / scale[:, None, None])
        dual = 0.5 * quat.multiply(np.concatenate([np.zeros((len(bones), 1)), m[:, :3, 3]], axis=1), real)
        parts = np.column_stack([real, dual, scale])

        # kept per model: each group's slot in bones (the last of equal ids;
        # a KeyError for a bone id with no bone) and its rows' pivot slots,
        # len(bones) for a pivot that names no bone
        cached = model.pose_cache.get("dq")
        if cached is None:
            slot = {b.id: i for i, b in enumerate(bones)}
            pivot_ids, pivot_of_row = model.weights.pivot_bones
            pivot_slots = np.array([slot.get(p, len(bones)) for p in pivot_ids.tolist()], dtype=np.int64)
            groups = model.weights.bone_groups
            cached = model.pose_cache["dq"] = [(slot[b], pivot_slots[pivot_of_row[rows]]) for b, rows, _ in groups]
        pivot_real = np.concatenate([real, np.zeros((1, 4))])
        acc = np.zeros((len(model.mesh.vertices), 9))
        for (_, rows, weights), (s, pivot) in zip(model.weights.bone_groups, cached):
            part = parts[s]
            term = np.where(np.take(pivot_real, pivot, axis=0) @ part[:4] < 0.0, -weights, weights)[:, None] * part
            term[:, 8] = weights * part[8]  # the scale column takes the unsigned weight
            acc[rows] += term
        acc = acc.T.copy()  # (9, n) planes, each coefficient one contiguous row; worked in place
        acc[:8] /= np.sqrt(acc[0] * acc[0] + acc[1] * acc[1] + acc[2] * acc[2] + acc[3] * acc[3])
        trans = quat.multiply(acc[4:8], quat.conjugate(acc[:4].T).T, axis=0)[1:]
        trans *= 2.0
        out = quat.rotate(acc[:4], acc[8] * model.mesh.vertices.T, axis=0)
        out += trans
    return SkinnedFrame(np.ascontiguousarray(out.T), "dq", pose.time)


SKIN_BACKENDS = {"cga": skin_cga, "cga_sum": skin_cga_sum, "lbs": skin_lbs, "dq": skin_dq}


def compare_backends(
    model: RiggedModel, pose: Pose, reference: str = "dq", test: str = "cga"
) -> dict:
    """Deviation of one backend from another on a pose.

    Errors are relative to the rest mesh's bounding-box diagonal:
    linf_rel is the largest absolute coordinate difference, mean_rel the
    mean per-vertex Euclidean distance.  A diagonal beyond the float range
    is measured on the halved vertices, and the errors halved with it.
    """
    for name in (reference, test):
        if name not in SKIN_BACKENDS:
            raise SchemaError(f"unknown skinning backend {name!r}")
    ref = SKIN_BACKENDS[reference](model, pose).positions
    new = SKIN_BACKENDS[test](model, pose).positions
    diff = new - ref
    diag, shrink = bbox_diagonal(model.mesh), 1.0
    if diag == math.inf and np.isfinite(model.mesh.vertices).all():
        diag, shrink = bbox_diagonal(0.5 * model.mesh.vertices), 0.5
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
        "linf_rel": shrink * linf / denom,
        "mean_abs": float(per_vertex.mean()) if len(diff) else 0.0,
        "mean_rel": (shrink * float(per_vertex.mean()) / denom) if len(diff) else 0.0,
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
