"""Partial scalpel tears that leave the mesh skinnable.

A tear is driven by a timed sequence of scalpel states (segment
endpoints).  Each consecutive pair of states contributes one step:

1. scalpel_hit finds where each scalpel segment pierces the surface; a
   proper hit is exactly one transversal face crossing (zero raises
   NoIntersection, two or more AmbiguousIntersection; coincident
   endpoints raise DegenerateTearStep).  A FaceBVH, built once per tear,
   probes each segment with one vectorized slab test over padded
   per-face boxes.  A hit counts only where its point lies in its face's
   box padded by half as much, so every face that could count is among
   the faces the slab test keeps; the per-face segment-triangle test
   then decides on those few in ascending id order, and the result is
   bit-identical to testing every face.
2. build_tear_plane spans the plane through the current anchor and both
   endpoints of the next scalpel state (right-hand rule normal over
   endpoint deltas); a stationary scalpel leaves the plane undefined
   and raises DegenerateTearStep.
3. trace_surface_path follows the section walk of section.py from the
   current anchor's face to the next one's, crossing one new edge per
   face and emitting an intermediate point on every crossed edge.  The
   only choice is made at the start face: of its two crossings, and so
   of the two ways around a closed body, it takes the one closer to the
   target anchor (projected onto the plane; the projection distance is
   kept as a path-quality metric).
4. All traced steps are applied at once, in one vertex index space:
   anchors and intermediates get their final vertex index as they are
   inserted, every traversed face is split by _fan_split from its entry
   point (anchors fan from the interior, which also serves shared
   anchors of chained steps), and every intermediate is duplicated into
   a left/right pair by plane side.  The traversed faces are read from
   the paths: the anchor faces and the face each crossing enters, which
   is the next point's face.  Anchors stay single and pin the tear
   ends, so the torn mesh remains one connected component.  The sliver
   check is one array pass over the split children and the side test
   one lift of their corners and one contraction per path; each pass
   settles a child only where a written rounding bound makes the
   per-child scalar test's answer certain, and that test decides the
   rest, so every child gets the scalar test's decision.
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
the children of split faces, recorded as they are emitted, are checked
and duplicated, since no other face holds an inserted point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Multivector, _contraction_weights, make_plane, plane_distances, up_block
from .errors import (
    AmbiguousIntersection,
    DegenerateTearStep,
    NoIntersection,
    PathNotFound,
)
from .rig import Mesh, RiggedModel, _derived_mesh, bbox_diagonal, validate_model
from .section import Section, in_parent_order, section_eps, unit_plane
from .weights import MAX_INFLUENCES, SkinWeights, weight_by_barycentric, weight_by_edge

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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two float64 3-vectors, bit for bit, as Python floats.

    The same products and differences in np.cross's order, without its
    moveaxis and axis checks, which cost more than the arithmetic for one
    pair.  An overflow gives inf or nan as there, with no warning.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _face_hit(verts: np.ndarray, tri, p0: np.ndarray, dvec: np.ndarray):
    """Transversal segment-triangle crossing, or None.

    Solves p0 + t*dvec = a + u*(b-a) + v*(c-a); a hit needs t strictly
    inside the segment and (u, v) inside the triangle.  Near-parallel
    segments fail the range checks and count as non-transversal.
    """
    a = verts[tri[0]]
    e1 = verts[tri[1]] - a
    e2 = verts[tri[2]] - a
    h = _cross(dvec, e2)
    det = float(e1 @ h)
    if abs(det) < 1e-300:
        return None
    inv = 1.0 / det
    s = p0 - a
    u = float(s @ h) * inv
    if not 0.0 <= u <= 1.0:
        return None
    q = _cross(s, e1)
    v = float(dvec @ q) * inv
    if v < 0.0 or u + v > 1.0:
        return None
    t = float(e2 @ q) * inv
    if not 0.0 < t < 1.0:
        return None
    return t, u, v


# FaceBVH's box padding, relative to the mesh's bounding-box diagonal
_BOX_PAD = 1e-12


class FaceBVH:
    """Padded per-face bounding boxes, probed by one vectorized slab test.

    There is no tree to build: the mesh changes after every tear, and a
    tear asks only one query per scalpel state.  The boxes come from
    three corner gathers, whose elementwise min and max equal each
    face's own corner min and max bit for bit.  segment_candidates
    returns every face whose padded box the segment meets, in ascending
    id order.  scalpel_hit counts a hit only where its point lies in the
    face's box padded by half as much, so the candidates are a superset
    of the faces it can count, and the per-face test over them alone
    gives the hits of a test over every face, bit for bit.  The other
    half of the pad absorbs the rounding of the hit point and of the
    slab arithmetic; on a mesh far from the origin, where the pad is
    below one ulp of the coordinates, the superset rests on the property
    test against the per-face scan instead.
    """

    def __init__(self, mesh: Mesh):
        verts, faces = mesh.vertices, mesh.faces
        a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        pad = _BOX_PAD * bbox_diagonal(mesh)
        self._lo = np.minimum(np.minimum(a, b), c) - pad
        self._hi = np.maximum(np.maximum(a, b), c) + pad

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
    """The single transversal crossing of a scalpel segment with the surface.

    `bvh` holds the mesh's face boxes; None builds them for this call.
    A near-degenerate face can pass _face_hit's barycentric test with a
    point far off the face, so a hit counts only where its point lies in
    the face's box padded by half of FaceBVH's pad (relative to the
    mesh's bounding-box diagonal).  That box lies inside the padded box
    the filter tests, so every face that can count is a candidate, and
    _face_hit runs on the candidates alone, in ascending id order.
    """
    verts = mesh.vertices
    p0 = np.asarray(scalpel.tip, dtype=np.float64)
    p1 = np.asarray(scalpel.tail, dtype=np.float64)
    dvec = p1 - p0
    length = float(np.linalg.norm(dvec))
    if length <= section_eps(mesh):
        raise DegenerateTearStep(
            f"scalpel endpoints coincide: |tail - tip| = {length:.3e} spans no segment"
        )
    if bvh is None:
        bvh = FaceBVH(mesh)
    slack = 0.5 * _BOX_PAD * bbox_diagonal(mesh)
    hits = []
    for fi in bvh.segment_candidates(p0, p1).tolist():
        res = _face_hit(verts, mesh.faces[fi], p0, dvec)
        if res is not None:
            tri = verts[mesh.faces[fi]]
            point = p0 + res[0] * dvec
            if np.all(tri.min(axis=0) - slack <= point) and np.all(point <= tri.max(axis=0) + slack):
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
    n = _cross(a, b)
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

    Follows the section walk of section.py, one new edge per face.  The
    only choice is at the start face: of its two crossings it takes the
    one closest to the target anchor (projected onto the plane), ties
    going to the lower edge key.  Raises PathNotFound when the plane
    misses the start face, the section leaves the surface, or the walk
    exceeds the face count.
    """
    if start.face == to.face:
        return ()
    section = Section(mesh, plane)
    to_pt = np.asarray(to.point, dtype=np.float64)
    target = to_pt - float(plane_distances(to_pt.reshape(1, 3), section.plane)[0]) * section.normal

    row = int(np.searchsorted(section.crossed, start.face))
    if row == len(section.crossed) or section.crossed[row] != start.face:
        raise PathNotFound(
            f"tear plane does not cross the boundary of face {start.face}"
        )
    keys = [tuple(key) for key in section.edges.tolist()]
    edge = min(
        section.face_edges[row].tolist(),
        key=lambda e: (float(np.linalg.norm(section.positions[e] - target)), keys[e]),
    )
    faces, lam, positions = section.crossed.tolist(), section.lam.tolist(), section.positions.tolist()
    points = []
    budget = len(mesh.faces)
    for row, edge in section.walk(row, edge):
        if faces[row] == to.face:
            return tuple(points)
        if len(points) > budget:
            raise PathNotFound(
                "tear plane section does not connect the anchors on this side"
            )
        points.append(TearPoint(tuple(positions[edge]), faces[row], keys[edge], lam[edge]))
    raise PathNotFound(
        f"tear plane section leaves the surface at boundary edge {keys[edge]}"
    )


# --------------------------------------------------------------- application


def _fan_split(face, hub: int, anchors, on_edge: dict, positions: np.ndarray) -> list:
    """Children of one traversed face, fanned from its hub.

    The ring walks the face's corners with the points on each edge in
    winding order.  An anchor hub fans over the whole ring, an entry
    point on the ring over the rest of it.  Each other anchor in the face
    splits the child that holds it (found by lstsq) into three.
    """
    ring = []
    for k in range(3):
        u, v = face[k], face[(k + 1) % 3]
        ring.append(u)
        key = (u, v) if u < v else (v, u)
        along = sorted(on_edge.get(key, ()), key=lambda it: (it[1] if u < v else 1.0 - it[1], it[0]))
        ring.extend(g for g, _ in along)
    if hub in anchors:
        children = [(hub, ring[t], ring[(t + 1) % len(ring)]) for t in range(len(ring))]
    else:
        at = ring.index(hub)
        ring = ring[at:] + ring[:at]
        children = [(hub, ring[t], ring[t + 1]) for t in range(1, len(ring) - 1)]
    for a in [a for a in anchors if a != hub]:
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
    return children


# The sliver test passes a child when 0.5 |cross| >= 1e-12, |cross| being
# the square root of np.linalg.norm's BLAS dot.  A batched squared norm of
# the same cross product differs from that dot by under 2 gamma_3 < 4 eps
# of itself (three non-negative terms, any order, with or without fused
# multiply-adds); the margin here is sixteen times that.
_SLIVER_CLEAR = (2.0 * 1e-12) ** 2 * (1.0 + 64.0 * np.finfo(np.float64).eps)
# The side test sums plane_distances over a child's three corners.  Each
# distance is a dot of the corner's lift x with w, the plane's contraction
# coefficients: five terms in BLAS gemv order, with or without fused
# multiply-adds, among zero terms that add nothing.  The lift's e4 and e5
# rest on |p|^2, a 3-term sum that may round differently from one call to
# the next.  So the scalar and the batched sum of one child differ by
# under 10 eps W, with W summing over the corners
# sum_k |x_k w_k| + (|x_4| + |x_5|)(|w_4| + |w_5|): 2.5 eps for each side's
# 5-term dot, 2.6 eps for |p|^2 through e4 and e5, and 2.1 eps for the two
# three-term sums (Higham, Accuracy and Stability, 3.1).  This is four
# times that; a |p|^2 that underflows rounds away in |p|^2 -+ 1.
_SIDE_SLACK = 40.0 * np.finfo(np.float64).eps


def _clear_of_slivers(corners: np.ndarray) -> np.ndarray:
    """Which triangles of an (m, 3, 3) corner array surely pass the sliver test.

    The cross products are elementwise, so each matches the per-child
    _cross bit for bit; only the squared norm may round differently,
    which _SLIVER_CLEAR allows for.  A non-finite norm is never clear.
    """
    with np.errstate(all="ignore"):
        a = corners[:, 0]
        c = np.cross(corners[:, 1] - a, corners[:, 2] - a)
        sq = c[:, 0] * c[:, 0] + c[:, 1] * c[:, 1] + c[:, 2] * c[:, 2]
    return np.isfinite(sq) & (sq > _SLIVER_CLEAR)


def _sides(lifted: np.ndarray, plane: Multivector) -> np.ndarray:
    """+1 / -1 where the side test surely puts a child left / right of the plane, else 0.

    lifted holds up_block of each child's corners, (m, 3, 5).  A child's
    corner-distance sum s' settles its side only when |s'| > B =
    _SIDE_SLACK * W + 1e-300 (the absolute term covers underflowing
    products); NaN, infinities and a non-finite plane leave it at 0.
    """
    every, w = _contraction_weights(plane)  # as plane_distances
    if not np.isfinite(every).all():
        return np.zeros(len(lifted), dtype=np.int64)
    with np.errstate(all="ignore"):
        p = lifted * w
        d = p.sum(axis=2)
        s = d[:, 0] + d[:, 1] + d[:, 2]
        t = np.abs(p).sum(axis=2) + (np.abs(lifted[..., 3]) + np.abs(lifted[..., 4])) * (abs(w[3]) + abs(w[4]))
        bound = _SIDE_SLACK * (t[:, 0] + t[:, 1] + t[:, 2]) + 1e-300
        return np.where(s > bound, 1, np.where(s < -bound, -1, 0))


def _apply_paths(model: RiggedModel, paths: Sequence[TearPath]) -> RiggedModel:
    """Insert, split, and duplicate for one or more traced paths at once.

    All paths must have been traced against this model's mesh; chained
    paths share anchor objects and the shared anchor is inserted once.
    The topology comes from the paths themselves: the face a crossing
    enters is the next point's face (the end anchor's after the last
    point), and the faces to split are the anchor faces plus every
    entered face, since each crossing exits the face the one before it
    entered.

    Each inserted point gets its final vertex index when it is inserted;
    `rows` maps every output vertex to its row of the extended position
    and weight tables; the anchors' weights are packed, and the edge
    points' come from one weight_by_edge pass.  Only the split faces are
    walked, in ascending id; the other faces stay one array, and
    in_parent_order puts the children back in their parents' places.
    """
    mesh = model.mesh
    n_orig = len(mesh.vertices)
    eps = section_eps(mesh)

    new_positions = []  # k-th inserted vertex -> position
    on_edges = []  # k-th inserted vertex -> is it an edge point
    anchor_weights = []  # influences of each inserted anchor
    edges, lams = [], []  # (lo, hi) and lam of each inserted edge point
    anchor_index: dict = {}  # id(anchor) -> vertex index
    interior: dict = {}  # face id -> [anchor vertex indices]
    on_edge: dict = {}  # (lo, hi) -> [(vertex index, lam)]
    hubs: dict = {}  # face id -> fan hub vertex index; exactly the faces to split

    def insert(position, edge_point: bool) -> int:
        new_positions.append(np.asarray(position, dtype=np.float64))
        on_edges.append(edge_point)
        return n_orig + len(new_positions) - 1

    def insert_anchor(anchor: TearAnchor) -> int:
        if id(anchor) in anchor_index:
            return anchor_index[id(anchor)]
        for g in interior.get(anchor.face, ()):
            if np.linalg.norm(np.asarray(anchor.point) - new_positions[g - n_orig]) < eps:
                anchor_index[id(anchor)] = g
                return g
        corners = [model.weights[int(v)] for v in mesh.faces[anchor.face]]
        anchor_weights.append(weight_by_barycentric(corners, anchor.bary))
        g = insert(anchor.point, False)
        anchor_index[id(anchor)] = g
        interior.setdefault(anchor.face, []).append(g)
        return g

    for path in paths:
        path.start_index = insert_anchor(path.start)
        path.end_index = insert_anchor(path.end)
        indices = []
        entered = [q.face for q in path.points[1:]] + [path.end.face]
        for q, face in zip(path.points, entered):
            edges.append(q.edge)
            lams.append(q.lam)
            g = insert(q.position, True)
            on_edge.setdefault(q.edge, []).append((g, q.lam))
            indices.append(g)
            hubs.setdefault(face, g)  # entry point of the next face
        path.point_indices = tuple(indices)

    # interior anchors always win the fan hub of their face
    hubs.update((face, anchors[0]) for face, anchors in interior.items())

    positions = np.vstack([mesh.vertices, *new_positions])
    lo, hi = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    on_edges = np.array(on_edges, dtype=bool)
    new_ids = np.empty((len(on_edges), MAX_INFLUENCES), dtype=np.int64)
    new_ws = np.empty((len(on_edges), MAX_INFLUENCES))
    for inserted, table in (
        (~on_edges, SkinWeights.pack(anchor_weights)),
        (on_edges, weight_by_edge(model.weights, lo, hi, lams)),
    ):
        new_ids[inserted], new_ws[inserted] = table.ids, table.ws
    split = sorted(hubs)
    children = []  # split children, in ascending parent face and emission order
    parents = []  # the split face of each child
    for fi in split:
        tris = _fan_split(mesh.faces[fi].tolist(), hubs[fi], interior.get(fi, ()), on_edge, positions)
        children.extend(list(tri) for tri in tris)
        parents.extend([fi] * len(tris))

    # collapse zero-area slivers by merging the coincident inserted point;
    # faces that were not split keep their original corners, and only
    # inserted points are ever merged, so only split children can collapse
    remap = {}

    def find(v: int) -> int:
        while v in remap:
            v = remap[v]
        return v

    clear = _clear_of_slivers(positions[np.array(children, dtype=np.int64).reshape(-1, 3)]).tolist()
    for tri, sure in zip(children, clear):
        if sure and tri[0] not in remap and tri[1] not in remap and tri[2] not in remap:
            continue  # its corners are its own: the batched area decides
        a, b, c = (positions[find(v)] for v in tri)
        if 0.5 * np.linalg.norm(_cross(b - a, c - a)) >= 1e-12:
            continue
        for i, j in ((0, 1), (1, 2), (2, 0)):
            vi, vj = find(tri[i]), find(tri[j])
            if vi != vj and np.linalg.norm(positions[vi] - positions[vj]) < eps:
                src, dst = (vi, vj) if vi > vj else (vj, vi)
                if src >= n_orig:
                    remap[src] = dst
                break
    rows = list(range(len(positions)))  # row of each output vertex
    if remap:
        # drop the merged points, renumber the rest (the original vertices
        # keep their indices), drop the children that lost a corner, and
        # point every path index at the vertex where the tear is pinned
        rows = [v for v in rows if v not in remap]
        renumber = {v: k for k, v in enumerate(rows)}

        def index(v: int) -> int:
            return renumber[find(v)]

        renumbered = [([index(v) for v in tri], fi) for tri, fi in zip(children, parents)]
        renumbered = [(tri, fi) for tri, fi in renumbered if len(set(tri)) == 3]
        children = [tri for tri, _ in renumbered]
        parents = [fi for _, fi in renumbered]
        for path in paths:
            path.start_index = index(path.start_index)
            path.end_index = index(path.end_index)
            path.point_indices = tuple(index(g) for g in path.point_indices)
    child_of: dict = {}  # inserted index -> [child slots]
    for slot, tri in enumerate(children):
        for v in tri:
            if v >= n_orig:
                child_of.setdefault(v, []).append(slot)

    # duplicate every intermediate into a left/right pair by plane side; a
    # twin shares its original's row, so each child's corner rows are final
    corner_rows = np.asarray(rows, dtype=np.int64)[np.array(children, dtype=np.int64).reshape(-1, 3)]
    with np.errstate(all="ignore"):
        lifted = up_block(positions[corner_rows.ravel()]).reshape(-1, 3, 5)
    for path in paths:
        sides = _sides(lifted, path.plane).tolist()
        duplicates = {}
        for g in path.point_indices:
            if g < n_orig or g not in child_of:
                continue  # collapsed into an original vertex: tear pinned here
            left, right = [], []
            for slot in child_of[g]:
                side = sides[slot]
                if not side:  # not settled by the batched sum: the scalar test decides
                    pts = positions[[rows[v] for v in children[slot]]]
                    s = float(np.sum(plane_distances(pts, path.plane)))
                    side = 1 if s >= 0.0 else -1
                (left if side > 0 else right).append(slot)
            if not right or not left:
                continue  # chord not two-sided here; nothing to separate
            twin = len(rows)
            rows.append(rows[g])
            for slot in right:
                children[slot] = [twin if v == g else v for v in children[slot]]
            duplicates[g] = (g, twin)
        path.duplicates = duplicates

    kept_ids = np.delete(np.arange(len(mesh.faces)), split)
    faces, face_rows = in_parent_order(mesh.faces[kept_ids], kept_ids, children, parents)
    # the original vertices keep their rows and the kept faces their corners
    rows = np.asarray(rows, dtype=np.int64)
    torn = RiggedModel(
        _derived_mesh(positions[rows], faces, mesh, np.where(rows < n_orig, rows, -1), face_rows),
        model.bones,
        model.weights.extend(SkinWeights(new_ids, new_ws)).take(rows),
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
    if not 0.0 <= delta < math.inf:
        raise ValueError("opening displacement must be finite and non-negative")
    if delta == 0.0 or not path.duplicates:
        return model
    step = delta * unit_plane(path.plane)[1]
    left, right = np.array(list(path.duplicates.values()), dtype=np.int64).T
    mesh = model.mesh
    # the copies are distinct rows: one add moves each, by the same step
    verts = np.array(mesh.vertices)
    verts[left] += step
    verts[right] -= step
    moved = np.arange(len(verts))
    moved[left] = moved[right] = -1
    return RiggedModel(
        _derived_mesh(verts, mesh.faces, mesh, moved, same_faces=True),
        model.bones,
        model.weights,
        model.clips,
    )


def tear(
    model: RiggedModel,
    scalpels: Sequence[ScalpelState],
    delta: float = None,
) -> TearResult:
    """Run a multi-state scalpel script: hit, trace, apply, and open.

    Consecutive scalpel states contribute one tear step each, chained
    through shared anchors.  One FaceBVH serves every scalpel hit.
    """
    if len(scalpels) < 2:
        raise ValueError("a tear needs at least two scalpel states")
    mesh = model.mesh
    bvh = FaceBVH(mesh)
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
