"""Planar cuts of skinned meshes into two deformable halves.

The vertices classify by plane side under the eps-shift rule of
section.py (conformal inner product of up(p) with the plane); surviving
original vertices keep their true positions.  Then:

* A face whose corners share a side goes to that half: M1 (positive) or
  M2 (negative).  These faces are renumbered in one array pass.
* A crossed face always has exactly two straddling edges.  Only the
  crossed faces are walked, in ascending id.  Each straddling edge
  yields exactly one CutPoint the first time the walk meets it, so
  ordinals follow face-scan order; its weights interpolate
  along the edge, truncated to four influences.  The face splits into
  three children: one triangle on the lone-vertex side and two tiling
  the quad on the other, split along its shorter diagonal.  Ties and
  near-ties (1e-9 relative) take the diagonal from the first cut point,
  which keeps the choice stable under rigid motion.  Children inherit
  the parent's winding.  The face also links its two cut points, and
  counts as a border of both cut edges.

Each half lists its faces in the order of the faces they come from,
the children of a crossed face in the order given above.

Both halves receive the full seam of cut points, keep the original
bones, weights, and clips, and pass load-time validation.  The cut is
left open: no cap faces.  A plane that misses the mesh returns the
original model as M1 and an empty M2, whichever side it lies on.

The seam is also reported as ordered polylines, chained from the links
the walk recorded: runs of CutPoints in which consecutive entries share
a cut face, closed where the section loops around the surface and open
where it runs off a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector
from .errors import NonManifoldCut
from .rig import Mesh, RiggedModel, validate_model
from .section import Section, in_parent_order
from .weights import weight_by_edge

__all__ = ["CutPoint", "CutResult", "cut"]


@dataclass(frozen=True)
class CutPoint:
    """One plane-edge intersection: a seam vertex shared by both halves."""

    position: tuple
    edge: tuple  # (lo, hi) original vertex indices
    lam: float  # interpolation parameter from lo toward hi, in (0, 1)
    ordinal: int  # creation rank; the seam vertex index is len(side) + ordinal
    weights: tuple  # (bone, w) pairs, at most four


@dataclass(frozen=True)
class CutResult:
    """Both halves of a planar cut plus seam bookkeeping."""

    m1: RiggedModel
    m2: RiggedModel
    polylines: tuple  # chains of CutPoints; closed chains repeat no entry
    provenance: dict  # side -> {new vertex index -> (edge lo, edge hi, lam)}
    cut_points: tuple


def _chains(links: list) -> list:
    """Ordinal chains over the links (ordinal -> neighbor ordinals).

    Open chains start at their lowest-ordinal endpoint; closed chains
    start at their lowest-ordinal point and step toward the lower
    neighbor.
    """
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

    for start, nb in enumerate(links):
        if len(nb) <= 1 and start not in visited:
            chains.append(walk(start, nb[0] if nb else None))
    for start, nb in enumerate(links):
        if start not in visited:
            chains.append(walk(start, min(nb)))
    return chains


def _empty_like(model: RiggedModel) -> RiggedModel:
    return RiggedModel(
        Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)),
        model.bones,
        (),
        model.clips,
    )


def cut(model: RiggedModel, plane: Multivector) -> CutResult:
    """Split a rigged model along a plane into two skinnable halves.

    Raises NonManifoldCut when a cut edge borders more than two faces.
    """
    mesh = model.mesh
    section = Section(mesh.vertices, plane)
    positive = section.signs > 0
    if positive.all() or not positive.any():
        # plane misses the mesh entirely: keep the model whole as M1
        return CutResult(model, _empty_like(model), (), {"m1": {}, "m2": {}}, ())

    signs = section.signs
    corner_sides = signs[mesh.faces].T
    whole = (corner_sides[0] == corner_sides[1]) & (corner_sides[1] == corner_sides[2])
    crossed = np.flatnonzero(~whole)
    # rank[v]: v's position among the original vertices on its side
    rank = np.where(positive, np.cumsum(positive), np.cumsum(~positive)) - 1
    base = {1: int(positive.sum()), -1: int((~positive).sum())}
    children: dict = {1: [], -1: []}  # per side: the children of crossed faces
    parents: dict = {1: [], -1: []}  # per side: the crossed face of each child
    ordinal_of: dict = {}  # cut edge (lo, hi) -> ordinal
    points: list = []
    positions: list = []  # per ordinal: the crossing as an array
    borders: list = []  # per ordinal: faces bordering the cut edge
    links: list = []  # per ordinal: ordinals sharing a cut face
    verts = mesh.vertices
    side_of = signs.tolist()
    rank_of = rank.tolist()
    for fi, face in zip(crossed.tolist(), mesh.faces[crossed].tolist()):
        s = [side_of[v] for v in face]
        on_edge = [None, None, None]  # ordinal of the cut point on edge k -> k+1
        for k in range(3):
            if s[k] == s[k - 2]:
                continue
            u, v = face[k], face[k - 2]
            key = (u, v) if u < v else (v, u)
            o = ordinal_of.get(key)
            if o is None:
                o = ordinal_of[key] = len(points)
                lam, pos = section.crossing(*key)
                infl = weight_by_edge(model.weights[key[0]], model.weights[key[1]], lam)
                points.append(CutPoint(tuple(float(x) for x in pos), key, lam, o, tuple(infl)))
                positions.append(pos)
                borders.append(0)
                links.append([])
            borders[o] += 1
            on_edge[k] = o
        a, b = (o for o in on_edge if o is not None)
        links[a].append(b)
        links[b].append(a)

        # the lone vertex is the corner whose side the other two do not share
        i = 0 if s[1] == s[2] else (1 if s[0] == s[2] else 2)
        lv, av, bv = face[i], face[i - 2], face[i - 1]
        pa, pb = on_edge[i], on_edge[i - 1]
        lone, quad = s[i], -s[i]
        children[lone].append((rank_of[lv], base[lone] + pa, base[lone] + pb))
        parents[lone].append(fi)
        # quad (pa, av, bv, pb): split along its shorter diagonal; ties and
        # near-ties (1e-9 relative) take the first diagonal so the choice is
        # stable under rigid motion of the whole model
        qa, qb, ra, rb = base[quad] + pa, base[quad] + pb, rank_of[av], rank_of[bv]
        d1 = np.linalg.norm(positions[pa] - verts[bv])
        d2 = np.linalg.norm(verts[av] - positions[pb])
        if d1 <= d2 + 1e-9 * (d1 + d2):
            children[quad] += [(qa, ra, rb), (qa, rb, qb)]
        else:
            children[quad] += [(qa, ra, qb), (ra, rb, qb)]
        parents[quad] += [fi, fi]

    for o, count in enumerate(borders):
        if count > 2:
            raise NonManifoldCut(f"cut edge {points[o].edge} borders {count} faces")
    polylines = tuple(tuple(points[o] for o in chain) for chain in _chains(links))

    cut_positions = np.array([cp.position for cp in points]).reshape(-1, 3)
    cut_weights = [cp.weights for cp in points]
    halves = {}
    for side in (1, -1):
        kept = np.flatnonzero(whole & (corner_sides[0] == side))
        half = RiggedModel(
            Mesh(
                np.vstack([verts[section.signs == side], cut_positions]),
                in_parent_order(rank[mesh.faces[kept]], kept, children[side], parents[side]),
            ),
            model.bones,
            model.weights.take(section.signs == side).extend(cut_weights),
            model.clips,
        )
        validate_model(half)
        halves[side] = half

    provenance = {
        label: {base[side] + cp.ordinal: (cp.edge[0], cp.edge[1], cp.lam) for cp in points}
        for label, side in (("m1", 1), ("m2", -1))
    }
    return CutResult(halves[1], halves[-1], polylines, provenance, tuple(points))
