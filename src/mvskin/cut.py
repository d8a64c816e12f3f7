"""Planar cuts of skinned meshes into two deformable halves.

The vertices classify by plane side under the eps-shift rule of
section.py (conformal inner product of up(p) with the plane); surviving
original vertices keep their true positions.  Then:

* A face whose corners share a side goes to that half: M1 (positive) or
  M2 (negative).  These faces are renumbered in one array pass.
* Each straddling edge of the section's edge table is one CutPoint, so
  ordinals follow the order in which a scan of the crossed faces, in
  ascending id, first meets the edges.  Its seam vertex's weights
  interpolate along the edge, truncated to four influences.  An edge on
  more than two faces raises NonManifoldCut.
* Only the crossed faces are walked, in ascending id.  Each splits into
  three children: one triangle on the lone-vertex side and two tiling
  the quad on the other, split along its shorter diagonal.  Ties and
  near-ties (1e-9 relative) take the diagonal from the first cut point,
  which keeps the choice stable under rigid motion.  Children inherit
  the parent's winding.

Each half lists its faces in the order of the faces they come from,
the children of a crossed face in the order given above.

Both halves receive the full seam of cut points, keep the original
bones, weights, and clips, and pass load-time validation.  The cut is
left open: no cap faces.  A plane that misses the mesh returns the
original model as M1 and an empty M2, whichever side it lies on.

The seam is also reported as ordered polylines, the chains of the
section walk: runs of CutPoints in which consecutive entries share a
cut face, closed where the section loops around the surface and open
where it runs off a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector
from .errors import NonManifoldCut
from .rig import Mesh, RiggedModel, _derived_mesh, validate_model
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


@dataclass(frozen=True)
class CutResult:
    """Both halves of a planar cut plus seam bookkeeping."""

    m1: RiggedModel
    m2: RiggedModel
    polylines: tuple  # chains of CutPoints; closed chains repeat no entry
    cut_points: tuple


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
    section = Section(mesh, plane)
    positive = section.signs > 0
    if positive.all() or not positive.any():
        # plane misses the mesh entirely: keep the model whole as M1
        return CutResult(model, _empty_like(model), (), ())

    signs = section.signs
    seam_weights = weight_by_edge(model.weights, section.edges[:, 0], section.edges[:, 1], section.lam)
    points = [
        CutPoint(tuple(pos), tuple(key), lam, o)
        for o, (key, lam, pos) in enumerate(
            zip(section.edges.tolist(), section.lam.tolist(), section.positions.tolist())
        )
    ]
    if (section.borders > 2).any():
        o = int(np.argmax(section.borders > 2))
        raise NonManifoldCut(f"cut edge {points[o].edge} borders {section.borders[o]} faces")
    polylines = tuple(tuple(points[o] for o in chain) for chain in section.chains())

    # rank[v]: v's position among the original vertices on its side
    rank = np.where(positive, np.cumsum(positive), np.cumsum(~positive)) - 1
    base = {1: int(positive.sum()), -1: int((~positive).sum())}
    children: dict = {1: [], -1: []}  # per side: the children of crossed faces
    parents: dict = {1: [], -1: []}  # per side: the crossed face of each child
    verts = mesh.vertices
    positions = section.positions
    side_of = signs.tolist()
    rank_of = rank.tolist()
    crossed = section.crossed
    for fi, face, (e0, e1) in zip(crossed.tolist(), mesh.faces[crossed].tolist(), section.face_edges.tolist()):
        s = [side_of[v] for v in face]
        # the lone vertex is the corner whose side the other two do not share;
        # pa is the cut edge leaving it, pb the one entering it, and corner
        # order lists pb first unless the lone vertex is the first corner
        i = 0 if s[1] == s[2] else (1 if s[0] == s[2] else 2)
        lv, av, bv = face[i], face[i - 2], face[i - 1]
        pa, pb = (e0, e1) if i == 0 else (e1, e0)
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

    face_side = signs[mesh.faces[:, 0]]
    face_side[crossed] = 0  # a crossed face goes to neither half whole
    halves = {}
    for side in (1, -1):
        kept = np.flatnonzero(face_side == side)
        rows = np.flatnonzero(signs == side)
        faces, _ = in_parent_order(rank[mesh.faces[kept]], kept, children[side], parents[side])
        half = RiggedModel(
            # its original vertices copy their rows; its faces are renumbered
            _derived_mesh(
                np.vstack([verts[rows], positions]),
                faces,
                mesh,
                np.concatenate([rows, np.full(len(positions), -1)]),
            ),
            model.bones,
            model.weights.take(rows).extend(seam_weights),
            model.clips,
        )
        validate_model(half)
        halves[side] = half
    return CutResult(halves[1], halves[-1], polylines, tuple(points))
