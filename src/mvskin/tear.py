"""Partial scalpel tears that leave the mesh skinnable.

A tear is driven by a timed sequence of scalpel states (segment
endpoints).  Each consecutive pair of states contributes one step:

1. scalpel_hit finds where each scalpel segment pierces the surface; a
   proper hit is exactly one transversal face crossing (zero raises
   NoIntersection, two or more AmbiguousIntersection; coincident
   endpoints raise DegenerateTearStep).  The default
   probe is a linear scan over faces in ascending id order.  A FaceBVH
   can be passed in instead: one vectorized slab test over the padded
   per-face boxes keeps the faces the segment can reach, in ascending
   id order, and the same per-face test runs on those alone, so the
   result is bit-identical to the scan.
2. build_tear_plane spans the plane through the current anchor and both
   endpoints of the next scalpel state (right-hand rule normal over
   endpoint deltas); a stationary scalpel leaves the plane undefined
   and raises DegenerateTearStep.
3. trace_surface_path walks the plane section across the surface from
   the current anchor's face to the next one's, crossing one new edge
   per face and emitting an intermediate point on every crossed edge.
   Its edge-to-face map covers only the faces the plane crosses, the
   only ones the walk can reach.  Of the two ways around a closed body
   it takes the one whose first step shrinks the straight-line estimate
   to the target anchor (projected onto the plane; the projection
   distance is kept as a path-quality metric).
4. All traced steps are applied at once: anchors and intermediates
   become vertices, every traversed face is split by fanning from its
   entry point (anchors fan from the interior, which also serves shared
   anchors of chained steps), and every intermediate is duplicated into
   a left/right pair by plane side.  The traversed faces are read from
   the paths: the anchor faces and the face each crossing enters, which
   is the next point's face.  Anchors stay single and pin the tear
   ends, so the torn mesh remains one connected component.
5. open_tear displaces the two copies of each intermediate by +/- delta
   along the plane normal; delta = 0 is the identity and anchors never
   move.

Intermediate weights interpolate along their host edge, anchor weights
across their host face, so every new vertex keeps at most four
influences drawn from its host's bones and the torn model skins with
every backend.

Tear planes classify vertices and place intermediates through
section.py, under the same eps-shift rule as planar cutting, which
keeps every intermediate strictly inside its edge.  Should a face split
still produce a zero-area child (coincident points within eps), the
sliver is collapsed: the inserted point merges into the coincident
vertex, is dropped from the mesh, and the tear is pinned there.  Only
the children of split faces are checked, since no other face holds an
inserted point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Multivector, make_plane, plane_distances
from .errors import (
    AmbiguousIntersection,
    DegenerateTearStep,
    NoIntersection,
    PathNotFound,
)
from .rig import Mesh, RiggedModel, bbox_diagonal, validate_model
from .section import Section, section_eps, unit_plane
from .weights import weight_by_barycentric, weight_by_edge

__all__ = [
    "ScalpelState",
    "TearAnchor",
    "TearPoint",
    "TearPath",
    "TearResult",
    "FaceBVH",
    "scalpel_hit",
    "build_tear_plane",
    "trace_surface_path",
    "open_tear",
    "tear",
]


@dataclass(frozen=True)
class ScalpelState:
    """Scalpel segment (tip to tail) at one instant."""

    time: float
    tip: tuple
    tail: tuple

    def __post_init__(self):
        tip = tuple(float(x) for x in self.tip)
        tail = tuple(float(x) for x in self.tail)
        if len(tip) != 3 or len(tail) != 3:
            raise ValueError("scalpel endpoints must be 3-vectors")
        if not all(math.isfinite(x) for x in tip + tail):
            raise ValueError("scalpel endpoints must be finite")
        object.__setattr__(self, "tip", tip)
        object.__setattr__(self, "tail", tail)


@dataclass(frozen=True)
class TearAnchor:
    """Scalpel-surface intersection pinning one end of a tear step."""

    point: tuple
    face: int
    bary: tuple


@dataclass(frozen=True)
class TearPoint:
    """Plane-edge intersection along a traced path.

    `face` is the face being exited when the edge is crossed; `lam`
    runs from edge[0] toward edge[1].
    """

    position: tuple
    face: int
    edge: tuple
    lam: float


@dataclass
class TearPath:
    """One traced tear step plus the bookkeeping that applying it fills in."""

    start: TearAnchor
    end: TearAnchor
    plane: Multivector
    points: tuple
    projection_distance: float
    start_index: Optional[int] = None
    end_index: Optional[int] = None
    point_indices: Optional[tuple] = None
    duplicates: Optional[dict] = None  # inserted index -> (left, right)


@dataclass(frozen=True)
class TearResult:
    """Opened torn model plus the per-step paths with their records."""

    model: RiggedModel
    paths: tuple


# --------------------------------------------------------------- scalpel hit


def _face_hit(verts: np.ndarray, tri, p0: np.ndarray, dvec: np.ndarray):
    """Transversal segment-triangle crossing, or None.

    Solves p0 + t*dvec = a + u*(b-a) + v*(c-a); a hit needs t strictly
    inside the segment and (u, v) inside the triangle.  Near-parallel
    segments fail the range checks and count as non-transversal.
    """
    a = verts[tri[0]]
    e1 = verts[tri[1]] - a
    e2 = verts[tri[2]] - a
    h = np.cross(dvec, e2)
    det = float(e1 @ h)
    if abs(det) < 1e-300:
        return None
    inv = 1.0 / det
    s = p0 - a
    u = float(s @ h) * inv
    if not 0.0 <= u <= 1.0:
        return None
    q = np.cross(s, e1)
    v = float(dvec @ q) * inv
    if v < 0.0 or u + v > 1.0:
        return None
    t = float(e2 @ q) * inv
    if not 0.0 < t < 1.0:
        return None
    return t, u, v


class FaceBVH:
    """Padded per-face bounding boxes, probed by one vectorized slab test.

    There is no tree to build: the mesh changes after every tear, and a
    tear asks only one query per scalpel state.  segment_candidates
    returns every face whose padded box the segment meets, in ascending
    id order.  That is a conservative superset of the faces the segment
    can cross, so running the shared per-face test over it reproduces
    the linear scan bit for bit.
    """

    def __init__(self, mesh: Mesh):
        tri = mesh.vertices[mesh.faces]
        pad = 1e-12 * bbox_diagonal(mesh)
        self._lo = tri.min(axis=1) - pad
        self._hi = tri.max(axis=1) + pad

    def segment_candidates(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """Ids of the faces whose box the segment p0-p1 meets (Kay-Kajiya slabs)."""
        p0 = np.asarray(p0, dtype=np.float64)
        dvec = np.asarray(p1, dtype=np.float64) - p0
        m = len(self._lo)
        tmin, tmax = np.zeros(m), np.ones(m)
        inside = np.ones(m, dtype=bool)
        for k in range(3):
            lo, hi, d = self._lo[:, k], self._hi[:, k], dvec[k]
            if d == 0.0:
                inside &= (lo <= p0[k]) & (p0[k] <= hi)
                continue
            # a subnormal d overflows t to +/-inf, the right limit: the
            # segment moves too little along k to reach that slab face
            with np.errstate(over="ignore"):
                t1 = (lo - p0[k]) / d
                t2 = (hi - p0[k]) / d
            np.maximum(tmin, np.minimum(t1, t2), out=tmin)
            np.minimum(tmax, np.maximum(t1, t2), out=tmax)
        return np.flatnonzero(inside & (tmin <= tmax))


def scalpel_hit(mesh: Mesh, scalpel: ScalpelState, bvh: FaceBVH = None) -> TearAnchor:
    """The single transversal crossing of a scalpel segment with the surface."""
    verts = mesh.vertices
    p0 = np.asarray(scalpel.tip, dtype=np.float64)
    p1 = np.asarray(scalpel.tail, dtype=np.float64)
    dvec = p1 - p0
    length = float(np.linalg.norm(dvec))
    if length <= section_eps(mesh):
        raise DegenerateTearStep(
            f"scalpel endpoints coincide: |tail - tip| = {length:.3e} spans no segment"
        )
    candidates = range(len(mesh.faces)) if bvh is None else bvh.segment_candidates(p0, p1)
    hits = []
    for fi in candidates:
        res = _face_hit(verts, mesh.faces[fi], p0, dvec)
        if res is not None:
            hits.append((int(fi), res))
    if not hits:
        raise NoIntersection("scalpel segment does not cross the surface")
    if len(hits) > 1:
        raise AmbiguousIntersection(
            f"scalpel segment crosses the surface {len(hits)} times", count=len(hits)
        )
    fi, (t, u, v) = hits[0]
    point = p0 + t * dvec
    return TearAnchor(tuple(float(x) for x in point), fi, (1.0 - u - v, u, v))


# --------------------------------------------------------------- tear plane


def build_tear_plane(anchor: TearAnchor, scalpel_next: ScalpelState) -> Multivector:
    """Plane through the anchor and both endpoints of the next scalpel state."""
    s = np.asarray(anchor.point, dtype=np.float64)
    a = np.asarray(scalpel_next.tip, dtype=np.float64) - s
    b = np.asarray(scalpel_next.tail, dtype=np.float64) - s
    n = np.cross(a, b)
    norm = float(np.linalg.norm(n))
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm <= 1e-12 * scale or scale == 0.0:
        raise DegenerateTearStep(
            "anchor and next scalpel endpoints are collinear; tear plane is undefined"
        )
    n_hat = n / norm
    return make_plane(tuple(n_hat), float(n_hat @ s))


# --------------------------------------------------------------- path trace


def trace_surface_path(mesh: Mesh, plane: Multivector, start: TearAnchor, to: TearAnchor) -> tuple:
    """Ordered plane-edge intersections walking from start's face to to's.

    The walk needs topology only where the plane crosses: it maps each
    straddling edge to the faces on it, built over the crossed faces
    alone (every face on a straddling edge is itself crossed, so each
    list is complete and in ascending face id).  Crosses one new edge
    per face; at a branch takes the crossing closest to the target
    anchor (projected onto the plane), breaking ties toward the lower
    edge key.  Raises PathNotFound when the section leaves the surface
    or the walk exceeds the face count.
    """
    if start.face == to.face:
        return ()
    section = Section(mesh.vertices, plane)
    signs = section.signs
    to_pt = np.asarray(to.point, dtype=np.float64)
    target = to_pt - float(plane_distances(to_pt.reshape(1, 3), section.plane)[0]) * section.normal

    crossed = np.flatnonzero(np.ptp(signs[mesh.faces], axis=1) != 0)
    side = signs.tolist()
    face_edges: dict = {}  # crossed face -> its straddling edges, in corner order
    edge_faces: dict = {}  # straddling edge -> the faces on it
    for fi, (a, b, c) in zip(crossed.tolist(), mesh.faces[crossed].tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            if side[u] != side[v]:
                key = (u, v) if u < v else (v, u)
                face_edges.setdefault(fi, []).append(key)
                edge_faces.setdefault(key, []).append(fi)

    def crossings(face_id: int, skip):
        return [
            (key, *section.crossing(*key))
            for key in face_edges.get(face_id, ())
            if key != skip
        ]

    def pick(cands):
        return min(cands, key=lambda c: (float(np.linalg.norm(c[2] - target)), c[0]))

    cands = crossings(start.face, None)
    if not cands:
        raise PathNotFound(
            f"tear plane does not cross the boundary of face {start.face}"
        )
    points = []
    face_id = start.face
    key, lam, pos = pick(cands)
    budget = len(mesh.faces)
    while True:
        points.append(TearPoint(tuple(float(x) for x in pos), face_id, key, lam))
        neighbours = [f for f in edge_faces[key] if f != face_id]
        if not neighbours:
            raise PathNotFound(
                f"tear plane section leaves the surface at boundary edge {key}"
            )
        face_id = neighbours[0]
        if face_id == to.face:
            return tuple(points)
        if len(points) > budget:
            raise PathNotFound(
                "tear plane section does not connect the anchors on this side"
            )
        cands = crossings(face_id, key)
        if not cands:
            raise PathNotFound(
                f"tear plane section dead-ends inside face {face_id}"
            )
        key, lam, pos = pick(cands)


# --------------------------------------------------------------- application


def _corner_weights(model: RiggedModel, face_id: int):
    return [model.weights[int(v)] for v in model.mesh.faces[face_id]]


def _apply_paths(model: RiggedModel, paths: Sequence[TearPath]) -> RiggedModel:
    """Insert, split, and duplicate for one or more traced paths at once.

    All paths must have been traced against this model's mesh; chained
    paths share anchor objects and the shared anchor is inserted once.
    The topology comes from the paths themselves: the face a crossing
    enters is the next point's face (the end anchor's after the last
    point), and the faces to split are the anchor faces plus every
    entered face, since each crossing exits the face the one before it
    entered.
    """
    mesh = model.mesh
    n_orig = len(mesh.vertices)
    eps = section_eps(mesh)

    new_positions = []  # node id -> position
    new_weights = []  # node id -> influences
    anchor_nodes: dict = {}  # id(anchor) -> node id
    interior: dict = {}  # face id -> [node ids]
    on_edge: dict = {}  # (lo, hi) -> [(node id, lam)]
    centers: dict = {}  # face id -> node id (fan hub); exactly the faces to split

    def insert_anchor(anchor: TearAnchor) -> int:
        if id(anchor) in anchor_nodes:
            return anchor_nodes[id(anchor)]
        for node in interior.get(anchor.face, ()):
            if np.linalg.norm(np.asarray(anchor.point) - new_positions[node]) < eps:
                anchor_nodes[id(anchor)] = node
                return node
        node = len(new_positions)
        new_positions.append(np.asarray(anchor.point, dtype=np.float64))
        new_weights.append(
            weight_by_barycentric(_corner_weights(model, anchor.face), anchor.bary)
        )
        anchor_nodes[id(anchor)] = node
        interior.setdefault(anchor.face, []).append(node)
        return node

    for path in paths:
        s_node = insert_anchor(path.start)
        e_node = insert_anchor(path.end)
        q_nodes = []
        entered = [q.face for q in path.points[1:]] + [path.end.face]
        for q, face in zip(path.points, entered):
            node = len(new_positions)
            new_positions.append(np.asarray(q.position, dtype=np.float64))
            lo, hi = q.edge
            new_weights.append(
                weight_by_edge(model.weights[lo], model.weights[hi], q.lam)
            )
            on_edge.setdefault(q.edge, []).append((node, q.lam))
            q_nodes.append(node)
            centers.setdefault(face, node)  # entry point of the next face
        path.start_index = n_orig + s_node
        path.end_index = n_orig + e_node
        path.point_indices = tuple(n_orig + q for q in q_nodes)

    # interior anchors always win the fan hub of their face
    for face, nodes in interior.items():
        centers[face] = nodes[0]

    positions = (
        np.vstack([mesh.vertices] + [p.reshape(1, 3) for p in new_positions])
        if new_positions
        else np.array(mesh.vertices)
    )

    faces_out = []
    split_slots = []  # ascending slots of the children that split_face emits

    def split_face(fi: int, face: list):
        polygon = []
        for k in range(3):
            u, v = face[k], face[(k + 1) % 3]
            polygon.append(u)
            key = (u, v) if u < v else (v, u)
            pts = on_edge.get(key, ())
            if pts:
                along = sorted(
                    pts, key=lambda it: (it[1] if u == key[0] else 1.0 - it[1], it[0])
                )
                polygon.extend(n_orig + node for node, _ in along)
        hub_node = centers[fi]
        hub = n_orig + hub_node
        anchors_here = [n_orig + a for a in interior.get(fi, [])]
        if hub in anchors_here:
            ring = polygon
            children = [
                (hub, ring[t], ring[(t + 1) % len(ring)]) for t in range(len(ring))
            ]
            pending = [a for a in anchors_here if a != hub]
        else:
            at = polygon.index(hub)
            ring = polygon[at:] + polygon[:at]
            children = [(hub, ring[t], ring[t + 1]) for t in range(1, len(ring) - 1)]
            pending = list(anchors_here)
        # remaining interior points (two anchors sharing one face): split
        # the child that contains each one
        for a in pending:
            p = positions[a]
            for idx, (x, y, z) in enumerate(children):
                va, vb, vc = positions[x], positions[y], positions[z]
                m = np.column_stack([vb - va, vc - va])
                try:
                    uv, *_ = np.linalg.lstsq(m, p - va, rcond=None)
                except np.linalg.LinAlgError:
                    continue
                u, v = float(uv[0]), float(uv[1])
                if u >= -1e-9 and v >= -1e-9 and u + v <= 1.0 + 1e-9:
                    children[idx : idx + 1] = [(a, x, y), (a, y, z), (a, z, x)]
                    break
        for tri in children:
            split_slots.append(len(faces_out))
            faces_out.append(list(tri))

    for fi, face in enumerate(mesh.faces.tolist()):
        if fi in centers:
            split_face(fi, face)
        else:
            faces_out.append(face)

    # collapse zero-area slivers by merging the coincident inserted point;
    # faces that were not split keep their original corners, and only
    # inserted points are ever merged, so only split children can collapse
    remap = {}

    def find(v: int) -> int:
        while v in remap:
            v = remap[v]
        return v

    for slot in split_slots:
        tri = faces_out[slot]
        a, b, c = (positions[find(v)] for v in tri)
        if 0.5 * np.linalg.norm(np.cross(b - a, c - a)) >= 1e-12:
            continue
        for i, j in ((0, 1), (1, 2), (2, 0)):
            vi, vj = find(tri[i]), find(tri[j])
            if vi == vj:
                continue
            if np.linalg.norm(positions[vi] - positions[vj]) < eps:
                src, dst = (vi, vj) if vi > vj else (vj, vi)
                if src >= n_orig:
                    remap[src] = dst
                break
    rows = list(range(len(positions)))  # weight row of each vertex, new rows after the model's
    if remap:
        # drop the merged points, renumber the rest, and point every path
        # index at the vertex where the tear is pinned
        kept = [v for v in range(len(positions)) if v not in remap]
        renumber = {v: k for k, v in enumerate(kept)}

        def index(v: int) -> int:
            return renumber[find(v)]

        positions = positions[kept]
        rows = kept
        faces_out = [[index(v) for v in tri] for tri in faces_out]
        faces_out = [tri for tri in faces_out if len(set(tri)) == 3]
        split_slots = [slot for slot, tri in enumerate(faces_out) if max(tri) >= n_orig]
        for path in paths:
            path.start_index = index(path.start_index)
            path.end_index = index(path.end_index)
            path.point_indices = tuple(index(g) for g in path.point_indices)
    child_of: dict = {}  # inserted index -> [split face slots]
    for slot in split_slots:
        for v in faces_out[slot]:
            if v >= n_orig:
                child_of.setdefault(v, []).append(slot)

    # duplicate every intermediate into a left/right pair by plane side
    pos_rows = [positions[i] for i in range(len(positions))]
    for path in paths:
        duplicates = {}
        for g in path.point_indices:
            if g < n_orig or g not in child_of:
                continue  # collapsed into an original vertex: tear pinned here
            sides = {}
            for slot in child_of[g]:
                pts = np.vstack([pos_rows[v] for v in faces_out[slot]])
                s = float(np.sum(plane_distances(pts, path.plane)))
                sides[slot] = 1 if s >= 0.0 else -1
            right = [slot for slot, s in sides.items() if s < 0]
            left = [slot for slot, s in sides.items() if s > 0]
            if not right or not left:
                continue  # chord not two-sided here; nothing to separate
            twin = len(pos_rows)
            pos_rows.append(pos_rows[g])
            rows.append(rows[g])
            for slot in right:
                faces_out[slot] = [twin if v == g else v for v in faces_out[slot]]
            duplicates[g] = (g, twin)
        path.duplicates = duplicates

    torn = RiggedModel(
        Mesh(np.vstack(pos_rows), np.array(faces_out, dtype=np.int64).reshape(-1, 3)),
        model.bones,
        model.weights.extend(new_weights).take(rows),
        model.clips,
    )
    validate_model(torn)
    return torn


def open_tear(model: RiggedModel, path: TearPath, delta: float = None) -> RiggedModel:
    """Move each duplicate pair apart by +/- delta along the tear plane normal."""
    if path.duplicates is None:
        raise ValueError("path has not been applied to a model yet")
    if delta is None:
        delta = 0.01 * bbox_diagonal(model.mesh)
    delta = float(delta)
    if delta < 0.0:
        raise ValueError("opening displacement must be non-negative")
    if delta == 0.0 or not path.duplicates:
        return model
    n_hat = unit_plane(path.plane)[1]
    verts = np.array(model.mesh.vertices)
    for left, right in path.duplicates.values():
        verts[left] += delta * n_hat
        verts[right] -= delta * n_hat
    return RiggedModel(
        Mesh(verts, model.mesh.faces), model.bones, model.weights, model.clips
    )


def tear(
    model: RiggedModel,
    scalpels: Sequence[ScalpelState],
    delta: float = None,
    accel: bool = False,
) -> TearResult:
    """Run a multi-state scalpel script: hit, trace, apply, and open.

    Consecutive scalpel states contribute one tear step each, chained
    through shared anchors.  `accel` probes scalpel hits through a
    FaceBVH, the per-face box filter, instead of scanning every face;
    the results are identical to the linear scan.
    """
    if len(scalpels) < 2:
        raise ValueError("a tear needs at least two scalpel states")
    mesh = model.mesh
    bvh = FaceBVH(mesh) if accel else None
    anchors = [scalpel_hit(mesh, s, bvh) for s in scalpels]
    paths = []
    for i in range(len(scalpels) - 1):
        plane = build_tear_plane(anchors[i], scalpels[i + 1])
        points = trace_surface_path(mesh, plane, anchors[i], anchors[i + 1])
        proj = abs(
            float(
                plane_distances(
                    np.asarray(anchors[i + 1].point).reshape(1, 3), plane
                )[0]
            )
        )
        paths.append(TearPath(anchors[i], anchors[i + 1], plane, points, proj))
    torn = _apply_paths(model, paths)
    for path in paths:
        torn = open_tear(torn, path, delta)
    return TearResult(torn, tuple(paths))
