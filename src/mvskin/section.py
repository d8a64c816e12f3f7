"""Plane sections of a vertex set: the one coplanarity rule of cut and tear.

A vertex's signed distance to a plane is the conformal inner product
up(p) . plane, which for a unit-normal plane is the Euclidean distance.
Vertices within eps of the plane (eps = EPS_SCALE x bbox diagonal) are
virtually shifted +2 eps along the unit normal, which removes every
coplanarity degeneracy with one rule: afterwards every vertex sits
strictly on the +1 side (distance >= 0) or the -1 side, and an edge
whose endpoints differ in sign crosses the plane strictly inside.  The
shifted copy drives classification and crossing positions only; callers
keep the true positions of the vertices themselves.

Planar cuts (cut.py) and tear-plane walks (tear.py) both classify and
intersect through Section, so on a shared edge they report the same
crossing bit for bit.  Both split only some faces in Python and put the
children back among the faces they kept with in_parent_order.
"""

from __future__ import annotations

import numpy as np

from .algebra import Multivector, plane_distances
from .rig import bbox_diagonal

__all__ = ["EPS_SCALE", "Section", "in_parent_order", "section_eps", "unit_plane"]

EPS_SCALE = 1e-9


def section_eps(mesh_or_vertices) -> float:
    """Coplanarity tolerance of a mesh: EPS_SCALE x its bbox diagonal."""
    return EPS_SCALE * bbox_diagonal(mesh_or_vertices)


def unit_plane(plane: Multivector):
    """Plane rescaled to a unit normal, plus the normal itself."""
    c = np.asarray(plane.coeffs, dtype=np.float64)
    n = c[1:4]
    norm = float(np.linalg.norm(n))
    if norm < 1e-12:
        raise ValueError("plane has a zero normal")
    if abs(norm - 1.0) > 1e-12:
        plane = Multivector(c / norm)
    return plane, n / norm


class Section:
    """One plane's classification of a vertex set under the eps shift.

    `work` is the shifted copy of the vertices, `dist` their signed
    distances and `signs` their sides (+1 / -1); `plane` and `normal`
    are the unit-normal plane and its normal.
    """

    def __init__(self, vertices, plane: Multivector):
        self.plane, self.normal = unit_plane(plane)
        work = np.array(vertices, dtype=np.float64).reshape(-1, 3)
        eps = section_eps(work)
        dist = plane_distances(work, self.plane)
        on = np.abs(dist) < eps
        if on.any():
            work[on] += (2.0 * eps) * self.normal
            dist = plane_distances(work, self.plane)
        self.work = work
        self.dist = dist
        self.signs = np.where(dist >= 0.0, 1, -1).astype(np.int64)

    def crossing(self, lo: int, hi: int):
        """(lam, position) where edge (lo, hi) crosses the plane; lam runs lo -> hi."""
        d = self.dist
        lam = float(d[lo] / (d[lo] - d[hi]))
        return lam, (1.0 - lam) * self.work[lo] + lam * self.work[hi]


def in_parent_order(kept: np.ndarray, kept_ids: np.ndarray, children: list, parents: list) -> np.ndarray:
    """Kept faces and split children as one (n, 3) face array in parent face order.

    kept[i] is face kept_ids[i] itself, and children[j] is a child of
    face parents[j].  The sort is stable, so the children of one face
    keep the order they were emitted in.
    """
    faces = np.concatenate([kept, np.array(children, dtype=np.int64).reshape(-1, 3)])
    order = np.argsort(np.concatenate([kept_ids, np.array(parents, dtype=np.int64)]), kind="stable")
    return faces[order]
