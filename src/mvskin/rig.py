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

Numbers must be JSON numbers and ids JSON integers, not strings or
booleans.  A model stores the weights as one packed SkinWeights table.

Unknown fields are rejected.  TRS dictionaries may omit fields, which then
default to the identity component; a key's "t" is required.  "offset_trs" and
"offset_matrix" are mutually exclusive; a matrix offset must be a conformal
rigid-plus-uniform-scale transform or loading fails.

Conventions baked in here:
  * quaternions are (w, x, y, z) and must be unit to 1e-6,
  * bone transforms compose translation * rotation * uniform scale,
  * the root bone binds at the identity and its offset is the identity,
  * every bone's offset must invert its global bind transform to 1e-6,
  * these bone checks pass once per bones tuple: cut halves, torn and
    keyed models keep their source's tuple and share that pass through
    its Skeleton,
  * meshes are triangle soups that form an orientable manifold with
    boundary: no directed edge may appear twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _objtext, quaternions as quat
from .algebra import (
    BLADE_INDEX,
    DIM,
    geometric_products,
    make_dilator,
    make_translator,
    rotor_from_quaternion,
    up_block,
)
from .errors import (
    HierarchyError,
    MeshError,
    NonConformalMatrix,
    OffsetError,
    SchemaError,
    WeightSumError,
)
from .weights import _SLOT_PAIRS, SkinWeights

__all__ = [
    "Trs",
    "TrsKey",
    "Bone",
    "Mesh",
    "RiggedModel",
    "Skeleton",
    "IDENTITY_TRS",
    "parent_first",
    "chain",
    "trs_rows",
    "trs_versors",
    "trs_matrices",
    "compose_trs",
    "decompose_conformal_matrix",
    "validate_mesh",
    "validate_model",
    "load_rig",
    "save_rig",
    "model_from_dict",
    "dump_rig",
    "export_obj",
    "bbox_diagonal",
    "make_cylinders_model",
    "make_arm_model",
]

_QUAT_TOL = 1e-6
_OFFSET_TOL = 1e-6
_ROOT_TOL = 1e-6
# the bone ids the lookup table of validate_model's weight screen covers; a
# row naming a bone past them goes to the exact checks
_ID_TABLE = 1 << 16


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


# leaf blade slots: translator e14, e24, e34 and e15, e25, e35; rotor e23, e13, e12; dilator e45
_T4 = [BLADE_INDEX[(i, 4)] for i in (1, 2, 3)]
_T5 = [BLADE_INDEX[(i, 5)] for i in (1, 2, 3)]
_E23, _E13, _E12 = BLADE_INDEX[(2, 3)], BLADE_INDEX[(1, 3)], BLADE_INDEX[(1, 2)]
_E45 = BLADE_INDEX[(4, 5)]
_UNIT_TOL = 1e-9  # rotor_from_quaternion's unit check


def trs_rows(transforms) -> tuple:
    """(translations (n, 3), rotations (n, 4), scales (n,)): float64 rows of Trs-like objects."""
    transforms = list(transforms)
    rows = []
    for name, width in (("translation", 3), ("rotation", 4)):
        values = [getattr(x, name) for x in transforms]
        arr = np.array(values, dtype=np.float64) if values else np.zeros((0, width))
        if arr.shape != (len(values), width):
            raise ValueError(f"every {name} needs {width} components")
        rows.append(arr)
    return (*rows, np.array([x.scale for x in transforms], dtype=np.float64))


def trs_versors(translations, rotations, scales) -> np.ndarray:
    """Conformal versors T * R * D, (n, 32), of n transforms given as trs_rows.

    Row i has the bytes of make_translator(t) * rotor_from_quaternion(
    normalize(q)) * make_dilator(s) of transform i: the leaves are set in
    one pass, with Python's math for each dilator as numpy's log, cosh and
    sinh may round apart, and the two products are stacked.  The first
    transform that one of those constructors rejects raises its error.
    """
    t, q, s = translations, rotations, scales
    with np.errstate(all="ignore"):  # a rejected row raises below
        norms = np.sqrt(np.vecdot(q, q))
        unit = q / norms[:, None]
        ok = (
            np.isfinite(t).all(axis=1)
            & (norms != 0.0)
            & np.isfinite(norms)
            & ~(np.abs(np.sqrt(np.vecdot(unit, unit)) - 1.0) > _UNIT_TOL)
            & (s > 0.0)
            & np.isfinite(s)
        )
    if not ok.all():
        i = int(np.argmin(ok))
        make_translator(t[i])
        rotor_from_quaternion(quat.normalize(q[i]))
        make_dilator(s[i])
        raise AssertionError(f"transform {i} passes every check")
    n = len(s)
    T, R, D = np.zeros((3, n, DIM))
    T[:, 0] = 1.0
    T[:, _T4] = T[:, _T5] = -0.5 * t
    R[:, 0] = unit[:, 0]
    R[:, _E23] = -unit[:, 1]
    R[:, _E13] = unit[:, 2]
    R[:, _E12] = -unit[:, 3]
    half_logs = [0.5 * math.log(x) for x in s.tolist()]
    D[:, 0] = [math.cosh(h) for h in half_logs]
    D[:, _E45] = [-math.sinh(h) for h in half_logs]
    return geometric_products(geometric_products(T, R), D)


def trs_matrices(translations, rotations, scales) -> np.ndarray:
    """Homogeneous 4x4 matrices, (n, 4, 4), of n transforms given as trs_rows.

    Row i is [s R | t] of transform i, R the quat.to_matrix of its
    quaternion over its norm.  The first quaternion that quat.normalize
    rejects raises its error.
    """
    t, q, s = translations, rotations, scales
    with np.errstate(all="ignore"):  # a rejected row raises below
        norms = np.sqrt(np.vecdot(q, q))
    ok = (norms != 0.0) & np.isfinite(norms)
    if not ok.all():
        quat.normalize(q[int(np.argmin(ok))])
        raise AssertionError("quaternion passes every check")
    m = np.zeros((len(s), 4, 4))
    m[:, :3, :3] = s[:, None, None] * quat.to_matrix(q / norms[:, None])
    m[:, :3, 3] = t
    m[:, 3, 3] = 1.0
    return m


def compose_trs(a: Trs, b: Trs) -> Trs:
    """Trs of (a then b applied first): a.matrix @ b.matrix, still a Trs.

    The translation is a.translation + a.scale * quat.rotate(qa, b's), qa
    a's rotation over its norm; an overflow gives inf or NaN, not a warning.
    """
    qa = quat.normalize(a.rotation)
    with np.errstate(all="ignore"):
        t = np.asarray(a.translation, dtype=np.float64) + a.scale * quat.rotate(qa, b.translation)
    q = quat.normalize(quat.multiply(qa, b.rotation))
    return Trs(tuple(t.tolist()), tuple(float(x) for x in q), a.scale * b.scale)


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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh: float64 vertices (n, 3) and int64 faces (m, 3).

    A mesh caches the OBJ text of its own rows, built once and only when
    an export reads it.  A mesh made by cut, tear or open_tear also
    carries a private row map onto the mesh its rows came from
    (_derived_mesh), and export_obj takes the rows that map names from
    that mesh's text.
    """

    vertices: np.ndarray
    faces: np.ndarray
    # (root mesh, root vertex row of each vertex, root face row of each
    # face), -1 for a new row; None for a mesh that is its own root
    _rows = None

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64).reshape(-1, 3)
        f = np.array(self.faces, dtype=np.int64).reshape(-1, 3)
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @functools.cached_property
    def _vertex_table(self) -> tuple:
        """(text, offsets) of the OBJ "v" lines of the vertices, built once: _line_table."""
        return _line_table(self.vertices, faces=False)

    @functools.cached_property
    def _face_table(self) -> tuple:
        """(text, offsets) of the OBJ "f" lines (1-based) of the faces, built once: _line_table."""
        return _line_table(self.faces, faces=True)

    @functools.cached_property
    def obj_face_block(self) -> bytes:
        """The bytes of the OBJ "f a b c" lines (1-based) of the faces, built on first read.

        Every frame export of this mesh writes them as they are.  For a
        mesh that is its own root they are the text of its face table.
        """
        return b"".join(_obj_lines(self, faces=True))

    @functools.cached_property
    def lifted_vertices(self) -> np.ndarray:
        """up_block(vertices), the vertices' e1..e5 coefficients; read-only."""
        with np.errstate(all="ignore"):
            lifted = up_block(self.vertices)
        lifted.setflags(write=False)
        return lifted

    @functools.cached_property
    def bbox_diagonal(self) -> float:
        """bbox_diagonal(vertices), computed once: the vertices are read-only."""
        return bbox_diagonal(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices) and np.array_equal(
            self.faces, other.faces
        )


@dataclass(frozen=True, eq=False)
class RiggedModel:
    """Mesh + skeleton + per-vertex weights + keyframe clips.

    Construction freezes clips as the mesh copies its arrays and the
    weights are packed: each clip becomes a read-only mapping of bone id
    to a tuple of keys, inside a read-only mapping of clip names.  Edits
    to the containers a model was built from change none of its frames;
    animate.generate_keyframe makes a new model with the new key.
    """

    mesh: Mesh
    bones: tuple  # of Bone, sorted by id
    weights: SkinWeights  # per-vertex tuples of (bone_id, weight) pairs are packed once
    clips: Mapping[str, Mapping[int, tuple]] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.weights, SkinWeights):
            object.__setattr__(self, "weights", SkinWeights.pack(self.weights))
        clips = {
            name: MappingProxyType({bone_id: tuple(keys) for bone_id, keys in tracks.items()})
            for name, tracks in self.clips.items()
        }
        object.__setattr__(self, "clips", MappingProxyType(clips))

    def bone(self, bone_id: int) -> Bone:
        try:
            return self.bones[self.bone_index[bone_id]]
        except (KeyError, TypeError):
            raise KeyError(f"no bone with id {bone_id}") from None

    @functools.cached_property
    def bone_index(self) -> dict:
        """Bone id -> its index in bones, the first of equal ids."""
        return {b.id: i for i, b in reversed(list(enumerate(self.bones)))}

    @functools.cached_property
    def skeleton(self) -> "Skeleton":
        """Skeleton(bones), built once per bones tuple.

        Cut halves, torn and keyed models keep their source's bones tuple,
        so they share its skeleton and with it its stacked offsets.
        """
        shared = _SKELETONS.get(id(self.bones))
        if shared is not None and shared.bones is self.bones:
            return shared
        skeleton = Skeleton(self.bones)
        if isinstance(self.bones, tuple):  # frozen bones in a tuple cannot change under it
            _SKELETONS[id(self.bones)] = skeleton
        return skeleton

    @functools.cached_property
    def pose_cache(self) -> dict:
        """What animate's pose passes derive from this model once: key tables, bone rows."""
        return {}

    def __eq__(self, other):
        if not isinstance(other, RiggedModel):
            return NotImplemented
        return (
            self.mesh == other.mesh
            and self.bones == other.bones
            and self.weights == other.weights
            and self.clips == other.clips
        )


def parent_first(bones) -> list:
    """The bones with every parent before its children, breadth-first from the roots.

    Raises HierarchyError on a parent id that names no bone, or on a bone
    that no root reaches (its ancestry loops).  The children of an id are
    placed once, after its first bone, so every bone appears once even
    where ids repeat, and a repeated id under itself ends the walk.
    """
    ids = {b.id for b in bones}
    children: dict = {}  # parent id (None for roots) -> [Bone]
    for b in bones:
        if b.parent is not None and b.parent not in ids:
            raise HierarchyError(f"bone {b.id} has unknown parent {b.parent}")
        children.setdefault(b.parent, []).append(b)
    order = list(children.get(None, ()))
    for b in order:  # grows while it is walked
        order.extend(children.pop(b.id, ()))
    placed = {b.id for b in order}
    for b in bones:
        if b.id not in placed:
            raise HierarchyError(f"bone parentage cycle through bone {b.id}")
    return order


class Skeleton:
    """The bones parents first, indexed for stacked passes over them.

    order is parent_first(bones); row i of a pose stack is order[i].
    levels holds, for each depth from 1 down, the rows at that depth and
    the rows of their parents (a child's parent row is the latest row
    before it with the parent's id), as slices for a lone row.  rows maps
    a bone id to its row, the last of equal ids.  On first use,
    offset_versors and offset_matrices stack their offsets in bones order.
    check() proves the bone transforms well formed; every model on one
    bones tuple shares its skeleton, so a pass is proved once for all of
    them, while a failure raises again on every call.
    """

    def __init__(self, bones):
        self.bones = bones
        self.order = tuple(parent_first(bones))
        self.rows: dict = {}  # bone id -> its latest row so far
        parents, depth = [], []
        for i, b in enumerate(self.order):
            p = -1 if b.parent is None else self.rows[b.parent]
            parents.append(p)
            depth.append(0 if p < 0 else depth[p] + 1)
            self.rows[b.id] = i
        parents, depth = np.array(parents, dtype=np.int64), np.array(depth, dtype=np.int64)
        levels = (np.flatnonzero(depth == d) for d in range(1, depth.max(initial=0) + 1))
        self.levels = tuple(_level(rows, parents[rows]) for rows in levels)
        self._passed = False

    def check(self) -> None:
        """Check the bone transforms; raises a typed RigError on failure.

        In bones order, each offset and then each bind has finite fields,
        a unit quaternion and a positive scale; the root (order[0], the one
        root once validate_model's hierarchy checks pass) binds at the
        identity; and each offset inverts its bone's global bind, composed
        parents first.  Only a pass is remembered: frozen bones in a tuple
        cannot change under it.
        """
        if not self._passed:
            for b in self.bones:  # well formed before any versor is built from them
                _check_trs_fields(b.offset, f"bone {b.id} offset")
                _check_trs_fields(b.bind, f"bone {b.id} bind")
            global_bind = chain(self, trs_versors(*trs_rows(b.bind for b in self.order)), geometric_products)
            if not _versors_are_identity(global_bind[:1], _ROOT_TOL)[0]:  # a root keeps its leaf
                raise HierarchyError(f"root bone {self.order[0].id} must bind at the identity")
            prod = geometric_products(self.offset_versors[0], global_bind[[self.rows[b.id] for b in self.bones]])
            inverted = _versors_are_identity(prod, _OFFSET_TOL)
            if not inverted.all():
                bad = self.bones[int(np.argmin(inverted))]
                raise OffsetError(f"bone {bad.id}: offset does not invert the global bind transform")
            self._passed = True

    @functools.cached_property
    def offset_versors(self) -> tuple:
        """_offsets(bones, trs_versors): (stack, rejected)."""
        return _offsets(self.bones, trs_versors)

    @functools.cached_property
    def offset_matrices(self) -> tuple:
        """_offsets(bones, trs_matrices): (stack, rejected)."""
        return _offsets(self.bones, trs_matrices)


_SKELETONS = weakref.WeakValueDictionary()  # id(bones) -> the live Skeleton of that tuple


def _level(rows: np.ndarray, parents: np.ndarray) -> tuple:
    """(rows, parent rows) of one depth; a lone row as slices, which index without copying."""
    if len(rows) == 1:
        i, p = int(rows[0]), int(parents[0])
        return slice(i, i + 1), slice(p, p + 1)
    return rows, parents


def chain(skeleton: Skeleton, leaves: np.ndarray, compose) -> np.ndarray:
    """Global transforms of local leaves stacked in skeleton order.

    A root keeps its leaf; a child gets compose(its parent's global, its
    leaf), one stacked compose per depth level, parents first.
    """
    out = leaves.copy()
    for rows, parents in skeleton.levels:
        out[rows] = compose(out[parents], leaves[rows])
    return out


def _offsets(bones, build) -> tuple:
    """(stack, rejected): build (trs_versors or trs_matrices) over the bones' offsets.

    The stack has a row per bone, in bones order.  rejected holds the rows
    whose offset build rejects; they read as the identity, and a caller
    that reaches one raises its error by building that offset alone.
    """
    rows = trs_rows(b.offset for b in bones)
    try:
        return build(*rows), frozenset()
    except ValueError:
        pass
    rejected = set()
    for i in range(len(bones)):
        try:
            build(*(r[i : i + 1] for r in rows))
        except ValueError:
            rejected.add(i)
    kept = trs_rows(IDENTITY_TRS if i in rejected else b.offset for i, b in enumerate(bones))
    return build(*kept), frozenset(rejected)


# ---------------------------------------------------------------------------
# mesh utilities


def bbox_diagonal(mesh_or_vertices) -> float:
    """Length of the bounding-box diagonal; a Mesh returns its cached value."""
    if isinstance(mesh_or_vertices, Mesh):
        return mesh_or_vertices.bbox_diagonal
    v = np.asarray(mesh_or_vertices, dtype=np.float64)
    if len(v) == 0:
        return 0.0
    with np.errstate(over="ignore"):
        extent = v.max(axis=0) - v.min(axis=0)
    if np.isinf(extent).any() and np.isfinite(v).all():
        # an extent beyond the float range: the diagonal, longer still, overflows
        return math.inf
    with np.errstate(over="ignore"):
        diag = float(np.linalg.norm(extent))
    if diag == math.inf and np.isfinite(extent).all():
        # the squared norm overflowed (extent beyond ~1.3e154): rescale
        top = float(np.abs(extent).max())
        diag = top * float(np.linalg.norm(extent / top))
    return diag


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


def _versors_are_identity(v: np.ndarray, tol: float) -> np.ndarray:
    """Per row of a (k, 32) versor stack: is it the identity to tol, relative to its largest coefficient?"""
    c = v.copy()
    c[:, 0] -= 1.0
    return np.abs(c).max(axis=1) <= tol * np.maximum(1.0, np.abs(v).max(axis=1))


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
    # model.skeleton: every parent exists and no ancestry loops; check():
    # the bone transforms, proved once per bones tuple
    model.skeleton.check()

    # weights
    if len(model.weights) != len(model.mesh.vertices):
        raise WeightSumError(
            f"weights cover {len(model.weights)} vertices but the mesh has "
            f"{len(model.mesh.vertices)}"
        )
    # a screen in column passes flags a superset of the bad rows (an empty
    # row sums to 0; the sum has a 1e-12 margin for rounding), then the
    # exact per-vertex checks name the first bad row
    ids, ws = model.weights.ids, model.weights.ws
    # allowed[id + 1]: is id the -1 of an empty slot or a known bone; every
    # other id, and a known one past the table, reads its last entry, False
    allowed = np.zeros(min(max(known), _ID_TABLE) + 3, dtype=bool)
    allowed[[0] + [b + 1 for b in known if b <= _ID_TABLE]] = True
    past = len(allowed) - 1
    with np.errstate(all="ignore"):
        bad = ~allowed.take(np.minimum((ids + 1).view(np.uint64), past))
        bad |= ~(ws >= 0.0)  # NaN fails it too; an infinite weight makes the sum infinite
        bad |= (ids == -1) & (ws != 0.0)  # the exact checks do not sum an empty slot
        first = ids[:, _SLOT_PAIRS[0]]
        bad_pairs = (first == ids[:, _SLOT_PAIRS[1]]) & (first != -1)
        suspect = np.abs(ws[:, 0] + ws[:, 1] + ws[:, 2] + ws[:, 3] - 1.0) > 1e-6 - 1e-12
    for column in (*bad.T, *bad_pairs.T):
        suspect |= column
    for vi in np.flatnonzero(suspect).tolist():
        _check_vertex_weights(vi, model.weights[vi], known)

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


def _check_vertex_weights(vi: int, entry: tuple, known: set) -> None:
    if len(entry) == 0:
        raise WeightSumError(f"vertex {vi} has no influences")
    bones_seen = set()
    for bone_id, w in entry:
        if bone_id not in known:
            raise WeightSumError(f"vertex {vi} references unknown bone {bone_id}")
        if bone_id in bones_seen:
            raise WeightSumError(f"vertex {vi} lists bone {bone_id} twice")
        bones_seen.add(bone_id)
        if not (math.isfinite(w) and w >= 0.0):
            raise WeightSumError(f"vertex {vi} has invalid weight {w!r} on bone {bone_id}")
    try:  # every weight is finite and nonnegative, but their sum may overflow
        total = math.fsum(w for _, w in entry)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > 1e-6:
        raise WeightSumError(f"vertex {vi} weights sum to {total!r}, not 1")


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


def _is(value, *kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)  # bool is an int


def _number(value, where: str) -> float:
    """A JSON number (int or float; not bool or str) as a float."""
    if not _is(value, int, float):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where} is out of float range") from None


def _parse_trs(obj, where: str, allow_time: bool = False):
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    allowed = {"translation", "rotation_quat", "scale"} | ({"t"} if allow_time else set())
    _reject_unknown(obj, allowed, where)
    parts = []
    for name, default in (("translation", (0.0,) * 3), ("rotation_quat", (1.0, 0.0, 0.0, 0.0))):
        value = obj.get(name, default)
        if not isinstance(value, Sequence) or isinstance(value, str) or len(value) != len(default):
            raise SchemaError(f"{where}: {name} needs a list of {len(default)} numbers")
        parts.append(tuple(_number(x, f"{where}: {name}") for x in value))
    return (*parts, _number(obj.get("scale", 1.0), f"{where}: scale"))


def _parse_rows(rows, key: str, kinds: set, dtype, width: int = 3) -> np.ndarray:
    """(k, width) array of a list of width-element rows whose entries' types are in kinds."""
    try:
        # exact types: bool is an int subclass but no coordinate or index
        ok = (
            isinstance(rows, Sequence)
            and not isinstance(rows, str)
            and set(map(len, rows)) <= {width}
            and set(map(type, itertools.chain.from_iterable(rows))) <= kinds
        )
    except TypeError:  # a row without a length
        ok = False
    if not ok:
        what = " or ".join(sorted(t.__name__ for t in kinds))
        raise SchemaError(f"rig: malformed {key} (expected a list of {width}-element rows of {what})")
    try:
        return np.array(rows, dtype=dtype).reshape(-1, width)
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
        bone_id = entry.get("id")
        if not _is(bone_id, int):
            raise SchemaError(f"bone #{bi}: missing or malformed id (an integer)")
        parent = entry.get("parent")
        if parent is not None and not _is(parent, int):
            raise SchemaError(f"bone {bone_id}: malformed parent (an integer or null)")
        if "offset_trs" in entry and "offset_matrix" in entry:
            raise SchemaError(f"bone {bone_id}: offset_trs and offset_matrix are exclusive")
        if "offset_trs" in entry:
            t, q, s = _parse_trs(entry["offset_trs"], f"bone {bone_id} offset_trs")
            offset = Trs(t, q, s)
        elif "offset_matrix" in entry:
            where = f"bone {bone_id} offset_matrix"
            m = _parse_rows(entry["offset_matrix"], where, {float, int}, np.float64, 4)
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
    for vi, entry in enumerate(doc["weights"]):
        if not isinstance(entry, Sequence):
            raise SchemaError(f"weights for vertex {vi}: expected a list of [bone, w] pairs")
        for item in entry:
            if not isinstance(item, Sequence) or len(item) != 2:
                raise SchemaError(f"weights for vertex {vi}: expected [bone, w] pairs")
            if not (_is(item[0], int) and _is(item[1], int, float)):
                raise SchemaError(
                    f"weights for vertex {vi}: malformed pair {item!r} (expected [integer, number])"
                )
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
            bone_id = track.get("bone")
            if not _is(bone_id, int):
                raise SchemaError(
                    f"clip {name!r} track #{ti}: missing or malformed bone (an integer)"
                )
            if bone_id in clip:
                raise SchemaError(f"clip {name!r}: duplicate track for bone {bone_id}")
            raw_keys = track.get("keys")
            if not isinstance(raw_keys, Sequence) or len(raw_keys) == 0:
                raise SchemaError(f"clip {name!r}, bone {bone_id}: keys must be a nonempty list")
            keys = []
            for key in raw_keys:
                if not isinstance(key, Mapping) or "t" not in key:
                    raise SchemaError(f"clip {name!r}, bone {bone_id}: every key needs a time 't'")
                where = f"clip {name!r}, bone {bone_id} key"
                t, q, s = _parse_trs(key, where, allow_time=True)
                keys.append(TrsKey(_number(key["t"], f"{where} time 't'"), t, q, s))
            clip[bone_id] = tuple(keys)
        clips[name] = clip

    model = RiggedModel(Mesh(vertices, faces), tuple(bones), doc["weights"], clips)
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
    ids, ws = model.weights.ids, model.weights.ws
    used = ids != -1  # each row's slots fill from slot 0
    pairs = iter([[b, w] for b, w in zip(ids[used].tolist(), ws[used].tolist())])
    doc = {
        "rig_version": 1,
        "vertices": model.mesh.vertices.tolist(),
        "faces": model.mesh.faces.tolist(),
        "bones": [
            {
                "id": b.id,
                "parent": b.parent,
                "offset_trs": _trs_to_dict(b.offset),
                "bind_trs": _trs_to_dict(b.bind),
            }
            for b in model.bones
        ],
        "weights": [list(itertools.islice(pairs, k)) for k in used.sum(axis=1).tolist()],
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


def _line_table(rows: np.ndarray, faces: bool) -> tuple:
    """(text, offsets): the OBJ lines of rows and where each begins, then the end.

    One routine for both kinds of line: _objtext.vertex_lines, or
    _objtext.face_lines of rows + 1 (1-based), formats
    _objtext.CHUNK_ROWS rows per call, so its temporaries stay those of
    one chunk.  The len(rows) + 1 offsets come from the newlines, as each
    line ends in the only one it holds.
    """
    step = _objtext.CHUNK_ROWS
    chunks = (rows[i : i + step] for i in range(0, len(rows), step))
    text = b"".join(_objtext.face_lines(c + 1) if faces else _objtext.vertex_lines(c) for c in chunks)
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
    return text, np.concatenate([np.zeros(1, np.intp), ends])


def _derived_mesh(vertices, faces, source: Mesh, vertex_rows=None, face_rows=None) -> Mesh:
    """Mesh(vertices, faces) with a row map onto the root of source.

    vertex_rows[i] (face_rows[i]) is the row of source that vertex (face)
    i copies, or -1 for a new row; None makes every row new.  When source
    has a map of its own, the two compose, so the map always names the
    root: a chain of edits never keeps its intermediate meshes alive.
    """
    mesh = Mesh(vertices, faces)
    root, *through = source._rows or (source, None, None)
    maps = []
    for rows, n, via in zip((vertex_rows, face_rows), (len(mesh.vertices), len(mesh.faces)), through):
        out = np.full(n, -1, dtype=np.int64)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            copied = rows >= 0
            out[copied] = rows[copied] if via is None else via[rows[copied]]
        out.setflags(write=False)
        maps.append(out)
    object.__setattr__(mesh, "_rows", (root, *maps))
    return mesh


def _obj_lines(mesh: Mesh, faces: bool):
    """The OBJ v (or f) lines of mesh, as pieces of text to write in order.

    A mesh that is its own root gives one piece, its cached table.  Else
    a row is taken from its root's cached table where the row map names a
    root row and the two rows are equal bit for bit (compared as int64, so
    -0.0 and NaN payloads count); each maximal run of such rows with
    consecutive root rows is one slice of that text.  Every other row is
    formatted, _objtext.CHUNK_ROWS at a time, so a wrong map costs time
    but never a byte, and a map that reuses no row never builds the
    root's table.
    """
    table = "_face_table" if faces else "_vertex_table"
    if mesh._rows is None:
        yield getattr(mesh, table)[0]
        return
    root, source = mesh._rows[0], mesh._rows[2 if faces else 1]
    rows, root_rows = (mesh.faces, root.faces) if faces else (mesh.vertices, root.vertices)
    copied = (source >= 0) & (source < len(root_rows))
    if copied.any():
        # one gather and three column passes: numpy would reduce a 3-wide
        # row axis row by row
        bits = rows.view(np.int64) ^ root_rows.view(np.int64).take(np.where(copied, source, 0), axis=0)
        copied &= (bits[:, 0] | bits[:, 1] | bits[:, 2]) == 0
    new = ~copied
    text, offsets = _line_table(rows[new], faces)
    if new.all():
        yield text
        return
    root_text, root_offsets = getattr(root, table)
    # each row's text as [begin, end) in the root's text, or in the new
    # rows' text shifted past it by one, so no piece spans both
    shift = len(root_text) + 1
    begin, end = np.empty(len(rows), np.intp), np.empty(len(rows), np.intp)
    begin[copied], end[copied] = root_offsets[source[copied]], root_offsets[source[copied] + 1]
    begin[new], end[new] = offsets[:-1] + shift, offsets[1:] + shift
    breaks = np.flatnonzero(begin[1:] != end[:-1]) + 1
    root_view = memoryview(root_text)
    for a, b in zip(begin[np.append(0, breaks)].tolist(), end[np.append(breaks, len(rows)) - 1].tolist()):
        yield root_view[a:b] if a < shift else text[a - shift : b - shift]


def export_obj(mesh: Mesh, path, vertices=None) -> None:
    """Write a minimal OBJ file: v lines at full precision, 1-based faces.

    vertices (default mesh.vertices) gives the v lines, so a deformed
    frame of a mesh is written without building a Mesh for it; it must
    have the shape of mesh.vertices.  The bytes are those of one
    "v %.17g %.17g %.17g" line per vertex and one "f %d %d %d" line per
    face.

    The lines come from two numpy kernels, _objtext.vertex_lines and
    _objtext.face_lines, one call per _objtext.CHUNK_ROWS (512) rows; a
    whole arm frame at once raised the benchmark's peak RSS by 8%.  The
    vertex kernel's fast set is 1e-4 <= |x| < 1e16, and 0: %g writes
    such an x in fixed notation from the 17 digits
    D = round(|x| * 10**(16 - e)), and 10**(16 - e) is a double there,
    as 16 - e <= 21.  Dekker's two-product gives D exactly as hi + lo;
    hi is an even integer, so rint's ties to even on lo round D half to
    even, as %g does.  Any other coordinate (subnormal, tiny, huge, inf,
    nan) is written by "%.17g" %.  The face kernel writes each index from
    the ASCII words of its 4-digit groups, the first without leading
    zeros; a negative index (an int64 that wrapped in faces + 1) is
    written by "%d" %.

    With vertices given, each chunk of v lines is formatted and written,
    then mesh.obj_face_block, built on the first frame and written as
    it is by every later one: every frame of a model shares its mesh.

    Without vertices, the mesh's own rows are written (_obj_lines).  A
    mesh that is its own root writes its cached text.  A cut half or a
    torn model writes every row it copies bit for bit from its root as a
    slice of the root's cached text, one slice per run of consecutive
    root rows, and formats only its other rows: its seam points, inserted
    points, twins and split faces.
    """
    if vertices is None:
        with open(path, "wb") as fh:
            fh.writelines(_obj_lines(mesh, faces=False))
            fh.writelines(_obj_lines(mesh, faces=True))
        return
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.shape != mesh.vertices.shape:
        raise ValueError(f"vertices must have shape {mesh.vertices.shape}, got {vertices.shape}")
    with open(path, "wb") as fh:
        for start in range(0, len(vertices), _objtext.CHUNK_ROWS):
            fh.write(_objtext.vertex_lines(vertices[start : start + _objtext.CHUNK_ROWS]))
        fh.write(mesh.obj_face_block)


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
