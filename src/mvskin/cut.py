"""Planar cuts of skinned meshes into two deformable halves.

Pipeline:

1. Vertices classify by plane side under the eps-shift rule of
   section.py (conformal inner product of up(p) with the plane);
   surviving original vertices keep their true positions.
2. Each mesh edge whose endpoints straddle the plane yields exactly one
   CutPoint (edge-keyed dedup), discovered in face order, with weights
   interpolated along the edge and truncated to four influences.
3. Crossed faces (always exactly two crossed edges) re-triangulate into
   three children: one triangle on the lone-vertex side and two tiling
   the quad, split along its shorter diagonal.  Ties and near-ties (1e-9
   relative) take the diagonal from the first cut point, which keeps the
   choice stable under rigid motion.  Children inherit the parent's
   winding.
4. Faces separate by side into M1 (positive) and M2 (negative); both
   halves receive the full seam of cut points, keep the original bones,
   weights, and clips, and pass load-time validation.  The cut is left
   open: no cap faces.  A plane that misses the mesh returns the
   original model as M1 and an empty M2, whichever side it lies on.

The seam is also reported as ordered polylines: chains of CutPoints in
which consecutive entries share a cut face, closed where the section
loops around the surface and open where it runs off a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Multivector
from .errors import NonManifoldCut
from .rig import Mesh, RiggedModel, validate_model
from .section import Section
from .weights import weight_by_edge

__all__ = [
    "CutPoint",
    "CutResult",
    "compute_cut_points",
    "retriangulate_cut_faces",
    "order_cut_polyline",
    "cut",
]


@dataclass(frozen=True)
class CutPoint:
    """One plane-edge intersection: a seam vertex shared by both halves."""

    position: tuple
    edge: tuple  # (lo, hi) original vertex indices
    lam: float  # interpolation parameter from lo toward hi, in (0, 1)
    ordinal: int  # creation rank; the seam vertex index is len(side) + ordinal
    influences: tuple


@dataclass(frozen=True)
class CutResult:
    """Both halves of a planar cut plus seam bookkeeping."""

    m1: RiggedModel
    m2: RiggedModel
    polylines: tuple  # chains of CutPoints; closed chains repeat no entry
    provenance: dict  # side -> {new vertex index -> (edge lo, edge hi, lam)}
    cut_points: tuple


def _scan(model: RiggedModel, plane: Multivector):
    """Vertex sides plus one CutPoint per straddling edge, in face-scan order."""
    section = Section(model.mesh.vertices, plane)
    signs = section.signs
    points: dict = {}
    for a, b, c in model.mesh.faces:
        for u, v in ((a, b), (b, c), (c, a)):
            if signs[u] == signs[v]:
                continue
            key = (int(u), int(v)) if u < v else (int(v), int(u))
            if key not in points:
                lam, pos = section.crossing(*key)
                infl = weight_by_edge(model.weights[key[0]], model.weights[key[1]], lam)
                points[key] = CutPoint(
                    tuple(float(x) for x in pos), key, lam, len(points), tuple(infl)
                )
    return signs, list(points.values())


def compute_cut_points(model: RiggedModel, plane: Multivector) -> list:
    """One CutPoint per edge that straddles the plane, in face-scan order."""
    return _scan(model, plane)[1]


def retriangulate_cut_faces(mesh: Mesh, cut_points: Sequence[CutPoint]) -> np.ndarray:
    """Face list over the extended vertex array (originals, then cut points).

    Uncut faces pass through with identity indices; each crossed face
    becomes three triangles with the parent's winding.
    """
    n = len(mesh.vertices)
    by_edge = {cp.edge: cp for cp in cut_points}
    if by_edge:
        ext = np.vstack([mesh.vertices] + [np.asarray(cp.position) for cp in cut_points])
    else:
        ext = mesh.vertices
    out = []
    for face in mesh.faces:
        cyc = [int(i) for i in face]
        crossed = []
        for k in range(3):
            u, v = cyc[k], cyc[(k + 1) % 3]
            key = (u, v) if u < v else (v, u)
            if key in by_edge:
                crossed.append(key)
        if not crossed:
            out.append(tuple(cyc))
            continue
        if len(crossed) != 2:
            raise ValueError(
                f"face {cyc} has {len(crossed)} cut edges; a planar cut crosses 0 or 2"
            )
        lone = (set(crossed[0]) & set(crossed[1])).pop()
        i = cyc.index(lone)
        lv, av, bv = cyc[i], cyc[(i + 1) % 3], cyc[(i + 2) % 3]
        pa = n + by_edge[(min(lv, av), max(lv, av))].ordinal
        pb = n + by_edge[(min(lv, bv), max(lv, bv))].ordinal
        out.append((lv, pa, pb))
        # quad (pa, av, bv, pb): split along its shorter diagonal; ties and
        # near-ties (1e-9 relative) take the first diagonal so the choice is
        # stable under rigid motion of the whole model
        d1 = np.linalg.norm(ext[pa] - ext[bv])
        d2 = np.linalg.norm(ext[av] - ext[pb])
        if d1 <= d2 + 1e-9 * (d1 + d2):
            out.append((pa, av, bv))
            out.append((pa, bv, pb))
        else:
            out.append((pa, av, pb))
            out.append((av, bv, pb))
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def order_cut_polyline(cut_points: Sequence[CutPoint], mesh: Mesh) -> tuple:
    """Chains of CutPoints in face-adjacency order.

    Open chains start at their lowest-ordinal endpoint; closed chains
    start at their lowest-ordinal point and step toward the lower
    neighbor.  Raises NonManifoldCut when a cut edge borders more than
    two faces.
    """
    by_edge = {cp.edge: cp for cp in cut_points}
    if not by_edge:
        return ()
    touched: dict = {cp.edge: 0 for cp in cut_points}
    links: dict = {cp.ordinal: [] for cp in cut_points}
    for face in mesh.faces:
        cyc = [int(i) for i in face]
        here = []
        for k in range(3):
            u, v = cyc[k], cyc[(k + 1) % 3]
            key = (u, v) if u < v else (v, u)
            if key in by_edge:
                here.append(by_edge[key])
                touched[key] += 1
        if len(here) == 2:
            links[here[0].ordinal].append(here[1].ordinal)
            links[here[1].ordinal].append(here[0].ordinal)
    for key, count in touched.items():
        if count > 2:
            raise NonManifoldCut(f"cut edge {key} borders {count} faces")

    by_ordinal = {cp.ordinal: cp for cp in cut_points}
    visited: set = set()
    chains = []

    def walk(start: int, first) -> list:
        chain = [start]
        visited.add(start)
        prev, cur = start, first
        while cur is not None and cur not in visited:
            chain.append(cur)
            visited.add(cur)
            nxt = [o for o in links[cur] if o != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        return chain

    for start in sorted(o for o, nb in links.items() if len(nb) <= 1):
        if start in visited:
            continue
        first = links[start][0] if links[start] else None
        chains.append(walk(start, first))
    for start in sorted(links):
        if start in visited:
            continue
        chains.append(walk(start, min(links[start])))
    return tuple(tuple(by_ordinal[o] for o in chain) for chain in chains)


def _empty_like(model: RiggedModel) -> RiggedModel:
    return RiggedModel(
        Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)),
        model.bones,
        (),
        model.clips,
    )


def cut(model: RiggedModel, plane: Multivector) -> CutResult:
    """Split a rigged model along a plane into two skinnable halves."""
    mesh = model.mesh
    signs, points = _scan(model, plane)

    if not points and (len(signs) == 0 or np.all(signs == signs[0])):
        # plane misses the mesh entirely: keep the model whole as M1
        return CutResult(model, _empty_like(model), (), {"m1": {}, "m2": {}}, ())

    polylines = order_cut_polyline(points, mesh)
    ext_faces = retriangulate_cut_faces(mesh, points)

    n = len(mesh.vertices)
    pos_orig = np.flatnonzero(signs > 0)
    neg_orig = np.flatnonzero(signs < 0)
    index_map = {
        1: {int(v): r for r, v in enumerate(pos_orig)},
        -1: {int(v): r for r, v in enumerate(neg_orig)},
    }
    base = {1: len(pos_orig), -1: len(neg_orig)}
    faces_out: dict = {1: [], -1: []}
    for tri in ext_faces:
        side = next(int(signs[v]) for v in tri if v < n)
        remap = index_map[side]
        faces_out[side].append(
            tuple(remap[int(v)] if v < n else base[side] + (int(v) - n) for v in tri)
        )

    cut_positions = np.array([cp.position for cp in points]).reshape(-1, 3)
    cut_weights = [cp.influences for cp in points]
    halves = {}
    for side, originals in ((1, pos_orig), (-1, neg_orig)):
        verts = (
            np.vstack([mesh.vertices[originals], cut_positions])
            if len(originals) or len(cut_positions)
            else np.zeros((0, 3))
        )
        weights = tuple(model.weights[int(v)] for v in originals) + tuple(cut_weights)
        half = RiggedModel(
            Mesh(verts, np.array(faces_out[side], dtype=np.int64).reshape(-1, 3)),
            model.bones,
            weights,
            model.clips,
        )
        validate_model(half)
        halves[side] = half

    provenance = {
        label: {base[side] + cp.ordinal: (cp.edge[0], cp.edge[1], cp.lam) for cp in points}
        for label, side in (("m1", 1), ("m2", -1))
    }
    return CutResult(halves[1], halves[-1], polylines, provenance, tuple(points))
