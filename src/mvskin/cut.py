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
* The crossed faces split in one array pass.  Each gives three
  children: one triangle on the lone-vertex side and two tiling the
  quad on the other, split along its shorter diagonal.  Ties and
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

    # rank[v]: v's position among the original vertices on its side; the
    # seam vertices of side k follow its originals, from base[1 + k]
    rank = np.where(positive, np.cumsum(positive), np.cumsum(~positive)) - 1
    base = np.array([(~positive).sum(), 0, positive.sum()])
    verts = mesh.vertices
    positions = section.positions
    crossed = section.crossed
    # the lone vertex is the corner whose side the other two do not share;
    # each crossed face, rotated to start there, reads (lv, av, bv).  pa is
    # the cut edge leaving lv, pb the one entering it, and corner order
    # lists pb first unless the lone vertex is the first corner
    corners = mesh.faces[crossed]
    s = signs[corners]
    i = np.where(s[:, 1] == s[:, 2], 0, np.where(s[:, 0] == s[:, 2], 1, 2))
    lv, av, bv = np.take_along_axis(corners, (i[:, None] + [0, 1, 2]) % 3, axis=1).T
    pa, pb = np.where(i == 0, section.face_edges.T, section.face_edges.T[::-1])
    lone = signs[lv]
    # quad (pa, av, bv, pb): split along its shorter diagonal; ties and
    # near-ties (1e-9 relative) take the first diagonal so the choice is
    # stable under rigid motion of the whole model
    x1, x2 = positions[pa] - verts[bv], verts[av] - positions[pb]
    d1, d2 = np.sqrt(np.vecdot(x1, x1)), np.sqrt(np.vecdot(x2, x2))
    first = d1 <= d2 + 1e-9 * (d1 + d2)
    # per face the lone-side child, then the two quad children, from the
    # corners (lv, pa, pb) of the lone side and (pa, av, bv, pb) of the quad's
    lb, qb = base[1 + lone], base[1 - lone]
    pool = np.stack([rank[lv], lb + pa, lb + pb, qb + pa, rank[av], rank[bv], qb + pb], axis=1)
    pick = np.where(first[:, None], [0, 1, 2, 3, 4, 5, 3, 5, 6], [0, 1, 2, 3, 4, 6, 4, 5, 6])
    children = np.take_along_axis(pool, pick, axis=1).reshape(-1, 3)
    child_side = np.stack([lone, -lone, -lone], axis=1).ravel()

    face_side = signs[mesh.faces[:, 0]]
    face_side[crossed] = 0  # a crossed face goes to neither half whole
    halves = {}
    for side in (1, -1):
        kept = np.flatnonzero(face_side == side)
        rows = np.flatnonzero(signs == side)
        mine = child_side == side
        faces, _ = in_parent_order(rank[mesh.faces[kept]], kept, children[mine], np.repeat(crossed, 3)[mine])
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
