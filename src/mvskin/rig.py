"""Rigged model data: mesh, skeleton, skin weights, keyframe clips.

A rig file is a JSON document:

    {
      "rig_version": 1,
      "vertices": [[x, y, z], ...],
      "faces": [[a, b, c], ...],
      "bones": [
        {"id": 0, "parent": null,
         "offset_trs": {"translation": [0,0,0], "rotation_quat": [1,0,0,0], "scale": 1.0},
         "bind_trs":   {...}},
        {"id": 1, "parent": 0, "offset_matrix": [[...4x4...]], "bind_trs": {...}}
      ],
      "weights": [[[bone, w], ...], ...],
      "clips": {"name": [{"bone": 1, "keys": [{"t": 0.0, "translation": [...],
                 "rotation_quat": [...], "scale": 1.0}, ...]}, ...]}
    }

Unknown fields are rejected.  TRS dictionaries may omit fields, which then
default to the identity component; a key's "t" is required.  "offset_trs" and
"offset_matrix" are mutually exclusive; a matrix offset must be a conformal
rigid-plus-uniform-scale transform or loading fails.

Conventions baked in here:
  * quaternions are (w, x, y, z) and must be unit to 1e-6,
  * bone transforms compose translation * rotation * uniform scale,
  * the root bone binds at the identity and its offset is the identity,
  * every bone's offset must invert its global bind transform to 1e-6,
  * meshes are triangle soups that form an orientable manifold with
    boundary: no directed edge may appear twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import quaternions as quat
from .algebra import (
    Versor,
    geometric_product,
    make_dilator,
    make_translator,
    rotor_from_quaternion,
)
from .errors import (
    HierarchyError,
    MeshError,
    NonConformalMatrix,
    OffsetError,
    SchemaError,
    WeightSumError,
)

__all__ = [
    "Trs",
    "TrsKey",
    "Bone",
    "Mesh",
    "RiggedModel",
    "IDENTITY_TRS",
    "parent_first",
    "chain",
    "trs_versor",
    "trs_matrix",
    "compose_trs",
    "decompose_conformal_matrix",
    "validate_mesh",
    "validate_model",
    "load_rig",
    "save_rig",
    "model_from_dict",
    "dump_rig",
    "export_obj",
    "mesh_area",
    "bbox_diagonal",
    "make_cylinders_model",
    "make_arm_model",
]

_QUAT_TOL = 1e-6
_OFFSET_TOL = 1e-6
_ROOT_TOL = 1e-6
# export_obj rows per % and write: ~8 KiB of text, io.DEFAULT_BUFFER_SIZE.
# Formatting a whole mesh at once raised peak RSS by its ~100 KB temporaries.
_OBJ_BLOCK_ROWS = 128


# ---------------------------------------------------------------------------
# translation / rotation / uniform-scale transforms


@dataclass(frozen=True)
class Trs:
    """A translation * rotation * uniform-scale transform."""

    translation: tuple = (0.0, 0.0, 0.0)
    rotation: tuple = (1.0, 0.0, 0.0, 0.0)
    scale: float = 1.0


IDENTITY_TRS = Trs()


@dataclass(frozen=True)
class TrsKey:
    """One keyframe: a Trs tagged with a sample time."""

    time: float
    translation: tuple = (0.0, 0.0, 0.0)
    rotation: tuple = (1.0, 0.0, 0.0, 0.0)
    scale: float = 1.0

    @property
    def trs(self) -> Trs:
        return Trs(self.translation, self.rotation, self.scale)


def trs_versor(trs: Trs) -> Versor:
    """Conformal versor T * R * D of a Trs."""
    t = make_translator(trs.translation)
    r = rotor_from_quaternion(quat.normalize(trs.rotation))
    d = make_dilator(trs.scale)
    return geometric_product(geometric_product(t, r), d)


def trs_matrix(trs: Trs) -> np.ndarray:
    """Homogeneous 4x4 matrix of a Trs."""
    m = np.eye(4)
    m[:3, :3] = trs.scale * quat.to_matrix(quat.normalize(trs.rotation))
    m[:3, 3] = trs.translation
    return m


def compose_trs(a: Trs, b: Trs) -> Trs:
    """Trs of (a then b applied first): a.matrix @ b.matrix, still a Trs."""
    qa = quat.normalize(a.rotation)
    t = np.asarray(a.translation) + a.scale * quat.rotate(qa, b.translation)
    q = quat.normalize(quat.multiply(qa, b.rotation))
    return Trs(tuple(float(x) for x in t), tuple(float(x) for x in q), a.scale * b.scale)


# ---------------------------------------------------------------------------
# conformal 4x4 matrices


def decompose_conformal_matrix(m) -> Trs:
    """Split a 4x4 homogeneous matrix into Trs parts.

    Raises NonConformalMatrix when the linear block is not a positive
    uniform scale times a rotation (shear, non-uniform scale, reflection)
    or the bottom row is not [0, 0, 0, 1].
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (4, 4):
        raise NonConformalMatrix(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonConformalMatrix("matrix has non-finite entries")
    if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
        raise NonConformalMatrix(f"bottom row is {m[3].tolist()}, not [0, 0, 0, 1]")
    a = m[:3, :3]
    det = float(np.linalg.det(a))
    if det <= 0.0:
        raise NonConformalMatrix(f"linear block has determinant {det:g}; reflections "
                                 "and degenerate maps have no versor")
    s = det ** (1.0 / 3.0)
    r = a / s
    err = float(np.max(np.abs(r @ r.T - np.eye(3))))
    if err > 1e-6:
        raise NonConformalMatrix(
            f"linear block deviates from rotation*scale by {err:.3g}; "
            "shear or non-uniform scale has no versor"
        )
    q = quat.from_matrix(r)
    return Trs(tuple(float(x) for x in m[:3, 3]), tuple(float(x) for x in q), s)


# ---------------------------------------------------------------------------
# core data


@dataclass(frozen=True)
class Bone:
    """Skeleton node.

    bind is the local bind transform relative to the parent; offset is the
    inverse of the global bind transform (rest space -> bone space).
    """

    id: int
    parent: Optional[int]
    offset: Trs = IDENTITY_TRS
    bind: Trs = IDENTITY_TRS

    @functools.cached_property
    def offset_versor(self) -> Versor:
        """trs_versor(offset), built on first use."""
        return trs_versor(self.offset)

    @functools.cached_property
    def offset_matrix(self) -> np.ndarray:
        """trs_matrix(offset), built on first use; read-only."""
        m = trs_matrix(self.offset)
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh: float64 vertices (n, 3) and int64 faces (m, 3)."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64).reshape(-1, 3)
        f = np.array(self.faces, dtype=np.int64).reshape(-1, 3)
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices) and np.array_equal(
            self.faces, other.faces
        )


@dataclass(frozen=True, eq=False)
class RiggedModel:
    """Mesh + skeleton + per-vertex weights + keyframe clips."""

    mesh: Mesh
    bones: tuple  # of Bone, sorted by id
    weights: tuple  # per vertex: tuple of (bone_id, weight) pairs
    clips: Mapping[str, Mapping[int, tuple]] = field(default_factory=dict)

    def bone(self, bone_id: int) -> Bone:
        for b in self.bones:
            if b.id == bone_id:
                return b
        raise KeyError(f"no bone with id {bone_id}")

    @functools.cached_property
    def influences(self) -> tuple:
        """Packed weights, built on first use: (n, 4) bone ids (-1 if empty), (n, 4) weights."""
        ids = np.full((len(self.weights), 4), -1, dtype=np.int64)
        ws = np.zeros((len(self.weights), 4))
        for vi, entry in enumerate(self.weights):
            ids[vi, : len(entry)] = [bone_id for bone_id, _ in entry]
            ws[vi, : len(entry)] = [w for _, w in entry]
        ids.setflags(write=False)
        ws.setflags(write=False)
        return ids, ws

    def __eq__(self, other):
        if not isinstance(other, RiggedModel):
            return NotImplemented
        return (
            self.mesh == other.mesh
            and self.bones == other.bones
            and self.weights == other.weights
            and dict(self.clips) == dict(other.clips)
        )


def parent_first(bones) -> list:
    """The bones with every parent before its children, breadth-first from the roots.

    Raises HierarchyError on a parent id that names no bone, or on a bone
    that no root reaches (its ancestry loops).
    """
    ids = {b.id for b in bones}
    children: dict = {}  # parent id (None for roots) -> [Bone]
    for b in bones:
        if b.parent is not None and b.parent not in ids:
            raise HierarchyError(f"bone {b.id} has unknown parent {b.parent}")
        children.setdefault(b.parent, []).append(b)
    order = list(children.get(None, ()))
    for b in order:  # grows while it is walked
        order.extend(children.get(b.id, ()))
    placed = {b.id for b in order}
    for b in bones:
        if b.id not in placed:
            raise HierarchyError(f"bone parentage cycle through bone {b.id}")
    return order


def chain(pairs, leaf, compose) -> dict:
    """Bone id -> global transform, over (bone, local Trs) pairs given parents first.

    A root gets leaf(local); a child gets compose(its parent's global, leaf(local)).
    """
    out: dict = {}
    for bone, local in pairs:
        g = leaf(local)
        out[bone.id] = g if bone.parent is None else compose(out[bone.parent], g)
    return out


# ---------------------------------------------------------------------------
# mesh utilities


def mesh_area(mesh: Mesh) -> float:
    if len(mesh.faces) == 0:
        return 0.0
    p = mesh.vertices[mesh.faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))


def bbox_diagonal(mesh_or_vertices) -> float:
    v = mesh_or_vertices.vertices if isinstance(mesh_or_vertices, Mesh) else mesh_or_vertices
    v = np.asarray(v, dtype=np.float64)
    if len(v) == 0:
        return 0.0
    return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))


def validate_mesh(mesh: Mesh) -> None:
    """Check the triangle soup is an orientable manifold with boundary.

    Faces are checked in order; the first face that repeats a vertex or
    repeats an earlier directed edge is the one named.
    """
    v, f = mesh.vertices, mesh.faces
    n = len(v)
    if n and not np.all(np.isfinite(v)):
        raise MeshError("mesh has non-finite vertex coordinates")
    if len(f) == 0:
        return
    outside = (f < 0) | (f >= n)
    if outside.any():
        fi = int(np.argmax(outside.any(axis=1)))
        index = int(f[fi, np.argmax(outside[fi])])
        raise MeshError(
            f"face index out of range: mesh has {n} vertices "
            f"but face {fi} references {index}"
        )
    repeats = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
    first_repeat = int(np.argmax(repeats)) if repeats.any() else len(f)
    # directed edges (a, b), (b, c), (c, a) of the faces before it, in scan
    # order, each as head * n + tail
    before = f[:first_repeat]
    keys = (before * n + before[:, [1, 2, 0]]).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    seconds = order[1:][ranked[1:] == ranked[:-1]]
    if len(seconds):
        at = int(seconds.min())
        key = divmod(int(keys[at]), n)
        raise MeshError(
            f"directed edge {key} appears twice (face {at // 3}); mesh is "
            "non-manifold or inconsistently wound"
        )
    if first_repeat < len(f):
        face = tuple(f[first_repeat].tolist())
        raise MeshError(f"face {first_repeat} repeats a vertex: {face}")


def _versor_is_identity(v: Versor, tol: float) -> bool:
    c = v.coeffs.copy()
    c[0] -= 1.0
    return float(np.max(np.abs(c))) <= tol * max(1.0, float(np.max(np.abs(v.coeffs))))


def validate_model(model: RiggedModel) -> None:
    """Full structural validation; raises a typed RigError on failure."""
    validate_mesh(model.mesh)

    # hierarchy: unique ids, one root, parents exist, acyclic
    ids = [b.id for b in model.bones]
    known = set(ids)
    if len(model.bones) == 0:
        raise HierarchyError("skeleton has no bones")
    if len(known) != len(ids):
        raise HierarchyError(f"duplicate bone ids: {sorted(ids)}")
    if min(ids) < 0:
        raise HierarchyError(f"bone {min(ids)}: bone ids must be nonnegative")
    roots = [b for b in model.bones if b.parent is None]
    if len(roots) != 1:
        raise HierarchyError(f"skeleton must have exactly one root, found {len(roots)}")
    order = parent_first(model.bones)  # every parent exists and no ancestry loops
    # bone transforms are well formed before any versor is built from them
    for b in model.bones:
        _check_trs_fields(b.offset, f"bone {b.id} offset")
        _check_trs_fields(b.bind, f"bone {b.id} bind")
    if not _versor_is_identity(trs_versor(roots[0].bind), _ROOT_TOL):
        raise HierarchyError(f"root bone {roots[0].id} must bind at the identity")

    # offsets must invert the global bind transforms, composed parents first
    global_bind = chain(((b, b.bind) for b in order), trs_versor, geometric_product)
    for b in model.bones:
        prod = geometric_product(b.offset_versor, global_bind[b.id])
        if not _versor_is_identity(prod, _OFFSET_TOL):
            raise OffsetError(
                f"bone {b.id}: offset does not invert the global bind transform"
            )

    # weights
    if len(model.weights) != len(model.mesh.vertices):
        raise WeightSumError(
            f"weights cover {len(model.weights)} vertices but the mesh has "
            f"{len(model.mesh.vertices)}"
        )
    for vi, entry in enumerate(model.weights):
        if len(entry) == 0:
            raise WeightSumError(f"vertex {vi} has no influences")
        if len(entry) > 4:
            raise WeightSumError(f"vertex {vi} has {len(entry)} influences (limit 4)")
        bones_seen = set()
        total = math.fsum(w for _, w in entry)
        for bone_id, w in entry:
            if bone_id not in known:
                raise WeightSumError(f"vertex {vi} references unknown bone {bone_id}")
            if bone_id in bones_seen:
                raise WeightSumError(f"vertex {vi} lists bone {bone_id} twice")
            bones_seen.add(bone_id)
            if not (math.isfinite(w) and w >= 0.0):
                raise WeightSumError(f"vertex {vi} has invalid weight {w!r} on bone {bone_id}")
        if abs(total - 1.0) > 1e-6:
            raise WeightSumError(f"vertex {vi} weights sum to {total!r}, not 1")

    # clips
    for name, tracks in model.clips.items():
        for bone_id, keys in tracks.items():
            if bone_id not in known:
                raise SchemaError(f"clip {name!r} animates unknown bone {bone_id}")
            if len(keys) == 0:
                raise SchemaError(f"clip {name!r}, bone {bone_id}: empty key list")
            prev = None
            for k in keys:
                if not math.isfinite(k.time):
                    raise SchemaError(f"clip {name!r}, bone {bone_id}: non-finite key time")
                if prev is not None and k.time <= prev:
                    raise SchemaError(
                        f"clip {name!r}, bone {bone_id}: key times must strictly increase"
                    )
                prev = k.time
                _check_trs_fields(k.trs, f"clip {name!r}, bone {bone_id}")


def _check_trs_fields(trs: Trs, where: str) -> None:
    t = np.asarray(trs.translation, dtype=np.float64)
    q = np.asarray(trs.rotation, dtype=np.float64)
    if t.shape != (3,) or not np.all(np.isfinite(t)):
        raise SchemaError(f"{where}: bad translation {trs.translation!r}")
    if q.shape != (4,) or not np.all(np.isfinite(q)):
        raise SchemaError(f"{where}: bad rotation_quat {trs.rotation!r}")
    if abs(float(np.linalg.norm(q)) - 1.0) > _QUAT_TOL:
        raise SchemaError(f"{where}: rotation_quat is not unit length")
    if not (math.isfinite(trs.scale) and trs.scale > 0.0):
        raise SchemaError(f"{where}: scale must be a positive number, got {trs.scale!r}")


# ---------------------------------------------------------------------------
# JSON serialization


def _reject_unknown(obj: Mapping, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise SchemaError(f"{where}: unknown field(s) {sorted(extra)}")


def _parse_trs(obj, where: str, allow_time: bool = False):
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    allowed = {"translation", "rotation_quat", "scale"} | ({"t"} if allow_time else set())
    _reject_unknown(obj, allowed, where)
    t = obj.get("translation", (0.0, 0.0, 0.0))
    q = obj.get("rotation_quat", (1.0, 0.0, 0.0, 0.0))
    s = obj.get("scale", 1.0)
    try:
        t = tuple(float(x) for x in t)
        q = tuple(float(x) for x in q)
        s = float(s)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: malformed TRS ({exc})") from None
    if len(t) != 3:
        raise SchemaError(f"{where}: translation needs 3 components, got {len(t)}")
    if len(q) != 4:
        raise SchemaError(f"{where}: rotation_quat needs 4 components, got {len(q)}")
    return t, q, s


def _parse_rows(rows, key: str, kinds: set, dtype) -> np.ndarray:
    """(k, 3) array of a list of 3-element rows whose entries' types are in kinds."""
    try:
        # exact types: bool is an int subclass but no coordinate or index
        ok = (
            isinstance(rows, Sequence)
            and not isinstance(rows, str)
            and set(map(len, rows)) <= {3}
            and set(map(type, itertools.chain.from_iterable(rows))) <= kinds
        )
    except TypeError:  # a row without a length
        ok = False
    if not ok:
        what = " or ".join(sorted(t.__name__ for t in kinds))
        raise SchemaError(f"rig: malformed {key} (expected a list of 3-element rows of {what})")
    try:
        return np.array(rows, dtype=dtype).reshape(-1, 3)
    except OverflowError as exc:
        raise SchemaError(f"rig: malformed {key} ({exc})") from None


def model_from_dict(doc: Mapping) -> RiggedModel:
    """Build and validate a RiggedModel from a parsed rig document."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"rig document must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, {"rig_version", "vertices", "faces", "bones", "weights", "clips"}, "rig")
    version = doc.get("rig_version")
    if version != 1:
        raise SchemaError(f"unsupported rig_version {version!r} (expected 1)")
    for key in ("vertices", "faces", "bones", "weights"):
        if key not in doc:
            raise SchemaError(f"rig: missing required field {key!r}")

    vertices = _parse_rows(doc["vertices"], "vertices", {float, int}, np.float64)
    faces = _parse_rows(doc["faces"], "faces", {int}, np.int64)

    bones = []
    if not isinstance(doc["bones"], Sequence):
        raise SchemaError("rig: bones must be a list")
    for bi, entry in enumerate(doc["bones"]):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"bone #{bi}: expected an object")
        _reject_unknown(
            entry, {"id", "parent", "offset_trs", "offset_matrix", "bind_trs"}, f"bone #{bi}"
        )
        try:
            bone_id = int(entry["id"])
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"bone #{bi}: missing or malformed id") from None
        parent = entry.get("parent")
        if parent is not None:
            try:
                parent = int(parent)
            except (TypeError, ValueError):
                raise SchemaError(f"bone {bone_id}: malformed parent") from None
        if "offset_trs" in entry and "offset_matrix" in entry:
            raise SchemaError(f"bone {bone_id}: offset_trs and offset_matrix are exclusive")
        if "offset_trs" in entry:
            t, q, s = _parse_trs(entry["offset_trs"], f"bone {bone_id} offset_trs")
            offset = Trs(t, q, s)
        elif "offset_matrix" in entry:
            try:
                m = np.array(entry["offset_matrix"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"bone {bone_id}: malformed offset_matrix ({exc})") from None
            try:
                offset = decompose_conformal_matrix(m)
            except NonConformalMatrix as exc:
                raise NonConformalMatrix(f"bone {bone_id} offset_matrix: {exc}") from None
        else:
            offset = IDENTITY_TRS
        if "bind_trs" in entry:
            t, q, s = _parse_trs(entry["bind_trs"], f"bone {bone_id} bind_trs")
            bind = Trs(t, q, s)
        else:
            bind = IDENTITY_TRS
        bones.append(Bone(bone_id, parent, offset, bind))
    bones.sort(key=lambda b: b.id)

    if not isinstance(doc["weights"], Sequence):
        raise SchemaError("rig: weights must be a list")
    weights = []
    for vi, entry in enumerate(doc["weights"]):
        if not isinstance(entry, Sequence):
            raise SchemaError(f"weights for vertex {vi}: expected a list of [bone, w] pairs")
        pairs = []
        for item in entry:
            if not isinstance(item, Sequence) or len(item) != 2:
                raise SchemaError(f"weights for vertex {vi}: expected [bone, w] pairs")
            try:
                pairs.append((int(item[0]), float(item[1])))
            except (TypeError, ValueError):
                raise SchemaError(f"weights for vertex {vi}: malformed pair {item!r}") from None
        weights.append(tuple(pairs))

    clips: dict = {}
    raw_clips = doc.get("clips", {})
    if not isinstance(raw_clips, Mapping):
        raise SchemaError("rig: clips must be an object")
    for name, tracks in raw_clips.items():
        if not isinstance(tracks, Sequence):
            raise SchemaError(f"clip {name!r}: expected a list of tracks")
        clip: dict = {}
        for ti, track in enumerate(tracks):
            if not isinstance(track, Mapping):
                raise SchemaError(f"clip {name!r} track #{ti}: expected an object")
            _reject_unknown(track, {"bone", "keys"}, f"clip {name!r} track #{ti}")
            try:
                bone_id = int(track["bone"])
            except (KeyError, TypeError, ValueError):
                raise SchemaError(f"clip {name!r} track #{ti}: missing or malformed bone") from None
            if bone_id in clip:
                raise SchemaError(f"clip {name!r}: duplicate track for bone {bone_id}")
            raw_keys = track.get("keys")
            if not isinstance(raw_keys, Sequence) or len(raw_keys) == 0:
                raise SchemaError(f"clip {name!r}, bone {bone_id}: keys must be a nonempty list")
            keys = []
            for key in raw_keys:
                if not isinstance(key, Mapping) or "t" not in key:
                    raise SchemaError(f"clip {name!r}, bone {bone_id}: every key needs a time 't'")
                t, q, s = _parse_trs(key, f"clip {name!r}, bone {bone_id} key", allow_time=True)
                try:
                    keys.append(TrsKey(float(key["t"]), t, q, s))
                except (TypeError, ValueError):
                    raise SchemaError(f"clip {name!r}, bone {bone_id}: malformed key time") from None
            clip[bone_id] = tuple(keys)
        clips[name] = clip

    model = RiggedModel(Mesh(vertices, faces), tuple(bones), tuple(weights), clips)
    validate_model(model)
    return model


def load_rig(path) -> RiggedModel:
    """Load and validate a rig JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    return model_from_dict(doc)


def _trs_to_dict(trs: Trs) -> dict:
    return {
        "translation": list(trs.translation),
        "rotation_quat": list(trs.rotation),
        "scale": trs.scale,
    }


def dump_rig(model: RiggedModel) -> dict:
    """Rig document (plain dict) of a model; inverse of model_from_dict."""
    doc = {
        "rig_version": 1,
        "vertices": [[float(x) for x in v] for v in model.mesh.vertices],
        "faces": [[int(i) for i in f] for f in model.mesh.faces],
        "bones": [
            {
                "id": b.id,
                "parent": b.parent,
                "offset_trs": _trs_to_dict(b.offset),
                "bind_trs": _trs_to_dict(b.bind),
            }
            for b in model.bones
        ],
        "weights": [[[int(b), float(w)] for b, w in entry] for entry in model.weights],
        "clips": {
            name: [
                {
                    "bone": bone_id,
                    "keys": [
                        {
                            "t": k.time,
                            "translation": list(k.translation),
                            "rotation_quat": list(k.rotation),
                            "scale": k.scale,
                        }
                        for k in keys
                    ],
                }
                for bone_id, keys in sorted(tracks.items())
            ]
            for name, tracks in model.clips.items()
        },
    }
    return doc


def save_rig(model: RiggedModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dump_rig(model), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# OBJ export


def export_obj(mesh: Mesh, path) -> None:
    """Write a minimal OBJ file: v lines at full precision, 1-based faces.

    Rows are formatted and written in blocks of at most _OBJ_BLOCK_ROWS,
    one % and one write per block; the bytes are those of one
    "v %.17g %.17g %.17g" or "f %d %d %d" line per row.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line, rows in (
            ("v %.17g %.17g %.17g\n", mesh.vertices),
            ("f %d %d %d\n", mesh.faces + 1),
        ):
            for start in range(0, len(rows), _OBJ_BLOCK_ROWS):
                block = rows[start : start + _OBJ_BLOCK_ROWS]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# procedural test fixtures


def _band_faces(idx_a, phi_a, idx_b, phi_b) -> list:
    """Triangulate between two vertex rings by merging their angular orders.

    Rings may have different sizes; the band always has len(a) + len(b)
    triangles and consistent outward winding (a below b along +z).
    """
    p, q = len(idx_a), len(idx_b)
    two_pi = 2.0 * math.pi
    # first b vertex at or after a[0]'s angle (no exact ties by construction)
    i0 = math.ceil(phi_a * q / p - phi_b)
    ja, ib = 0, i0
    faces = []
    for _ in range(p + q):
        a_next = (ja + 1 + phi_a) * two_pi / p
        b_next = (ib + 1 + phi_b) * two_pi / q
        if ja < p and (a_next <= b_next or ib >= i0 + q):
            faces.append((idx_a[ja % p], idx_a[(ja + 1) % p], idx_b[ib % q]))
            ja += 1
        else:
            faces.append((idx_a[ja % p], idx_b[(ib + 1) % q], idx_b[ib % q]))
            ib += 1
    return faces


def _smoothstep(z: float, center: float, halfwidth: float) -> float:
    t = (z - (center - halfwidth)) / (2.0 * halfwidth)
    t = min(1.0, max(0.0, t))
    return t * t * (3.0 - 2.0 * t)


def _tube_model(ring_sizes, ring_z, radius, joint1_z, joint2_z, falloff) -> RiggedModel:
    """Open triangulated tube around +z with a three-bone chain down its axis."""
    vertices = []
    rings = []
    for k, (m, z) in enumerate(zip(ring_sizes, ring_z)):
        phi = 0.5 * (k % 2)
        start = len(vertices)
        for j in range(m):
            ang = (j + phi) * 2.0 * math.pi / m
            vertices.append((radius * math.cos(ang), radius * math.sin(ang), z))
        rings.append((list(range(start, start + m)), phi))
    faces = []
    for k in range(len(rings) - 1):
        (ia, pa), (ib, pb) = rings[k], rings[k + 1]
        faces.extend(_band_faces(ia, pa, ib, pb))

    # three bones: root at the base, then joints a third and two thirds up
    bones = (
        Bone(0, None, IDENTITY_TRS, IDENTITY_TRS),
        Bone(
            1,
            0,
            Trs(translation=(0.0, 0.0, -joint1_z)),
            Trs(translation=(0.0, 0.0, joint1_z)),
        ),
        Bone(
            2,
            1,
            Trs(translation=(0.0, 0.0, -joint2_z)),
            Trs(translation=(0.0, 0.0, joint2_z - joint1_z)),
        ),
    )

    weights = []
    for _, _, z in vertices:
        f1 = _smoothstep(z, joint1_z, falloff)
        f2 = _smoothstep(z, joint2_z, falloff)
        raw = ((0, 1.0 - f1), (1, f1 * (1.0 - f2)), (2, f1 * f2))
        kept = [(b, w) for b, w in raw if w > 1e-9]
        # pin the largest weight so each vertex sums to exactly 1.0
        kept = sorted(kept, key=lambda bw: (-bw[1], bw[0]))
        rest = [(b, w) for b, w in kept[1:]]
        head = (kept[0][0], 1.0 - math.fsum(w for _, w in rest))
        weights.append(tuple(sorted([head] + rest)))

    model = RiggedModel(
        Mesh(np.array(vertices), np.array(faces)),
        bones,
        tuple(weights),
        {"bind": {}},
    )
    validate_model(model)
    return model


def make_cylinders_model() -> RiggedModel:
    """Small open-tube fixture: 634 vertices, 758 faces, three bones."""
    length = 20.0
    return _tube_model(
        ring_sizes=[255, 31, 31, 31, 31, 255],
        ring_z=[length * k / 5.0 for k in range(6)],
        radius=2.0,
        joint1_z=length / 3.0,
        joint2_z=2.0 * length / 3.0,
        falloff=length / 3.0,
    )


def make_arm_model() -> RiggedModel:
    """Larger open-tube fixture: 3069 vertices, 5037 faces, three bones."""
    length = 40.0
    sizes = [550] + [48] * 41 + [551]
    return _tube_model(
        ring_sizes=sizes,
        ring_z=[length * k / 42.0 for k in range(43)],
        radius=4.0,
        joint1_z=length / 3.0,
        joint2_z=2.0 * length / 3.0,
        falloff=length / 3.0,
    )
