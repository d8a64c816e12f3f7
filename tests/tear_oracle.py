"""The package's per-item scalar tests, the references of its array passes.

`scan_hits` runs the segment-triangle test on every face in ascending
id order, exactly as `mvskin.tear.scalpel_hit` did before its
vectorized pre-pass; `counted` keeps the hits whose point lies in the
face's box padded by 0.5e-12 of the mesh's bounding-box diagonal,
`anchor_of` turns them into the same anchor or typed error, and
`scan_scalpel_hit` does all three.  `sliver_passes` and
`left_of` are the per-child sliver and side tests that
`mvskin.tear._apply_paths` ran on every split child before its batched
passes.  Each test is a copy, not an import, so that a change to the
package's test shows up against it.
"""

import numpy as np

from mvskin.algebra import plane_distances
from mvskin.errors import AmbiguousIntersection, DegenerateTearStep, NoIntersection
from mvskin.rig import bbox_diagonal
from mvskin.section import section_eps
from mvskin.tear import TearAnchor


def face_hit(verts, tri, p0, dvec):
    """(t, u, v) of a transversal crossing of p0 + t dvec with face tri, or None."""
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


def scan_hits(mesh, p0, dvec) -> list:
    """[(face id, (t, u, v))] over every face, in ascending id order."""
    hits = []
    for fi in range(len(mesh.faces)):
        res = face_hit(mesh.vertices, mesh.faces[fi], p0, dvec)
        if res is not None:
            hits.append((fi, res))
    return hits


def scan_scalpel_hit(mesh, scalpel) -> TearAnchor:
    """The single transversal crossing of the scalpel segment, by the full scan."""
    p0 = np.asarray(scalpel.tip, dtype=np.float64)
    dvec = np.asarray(scalpel.tail, dtype=np.float64) - p0
    length = float(np.linalg.norm(dvec))
    if length <= section_eps(mesh):
        raise DegenerateTearStep(
            f"scalpel endpoints coincide: |tail - tip| = {length:.3e} spans no segment"
        )
    return anchor_of(counted(mesh, scan_hits(mesh, p0, dvec), p0, dvec), p0, dvec)


def counted(mesh, hits: list, p0, dvec) -> list:
    """The hits whose point p0 + t dvec lies in its face's box, padded by 0.5e-12 of the bbox diagonal."""
    slack = 0.5e-12 * bbox_diagonal(mesh)
    kept = []
    for fi, (t, u, v) in hits:
        tri = mesh.vertices[mesh.faces[fi]]
        point = p0 + t * dvec
        if np.all(tri.min(axis=0) - slack <= point) and np.all(point <= tri.max(axis=0) + slack):
            kept.append((fi, (t, u, v)))
    return kept


def anchor_of(hits: list, p0, dvec) -> TearAnchor:
    """The anchor of the one hit, or the typed error for none or several."""
    if not hits:
        raise NoIntersection("scalpel segment does not cross the surface")
    if len(hits) > 1:
        raise AmbiguousIntersection(
            f"scalpel segment crosses the surface {len(hits)} times", count=len(hits)
        )
    fi, (t, u, v) = hits[0]
    point = p0 + t * dvec
    return TearAnchor(tuple(float(x) for x in point), fi, (1.0 - u - v, u, v))


def sliver_passes(a, b, c) -> bool:
    """True when triangle abc is no sliver: half its cross-product norm is at least 1e-12."""
    return bool(0.5 * np.linalg.norm(np.cross(b - a, c - a)) >= 1e-12)


def left_of(pts, plane) -> bool:
    """True when a child's three corners lie left of the plane: their distance sum is >= 0."""
    s = float(np.sum(plane_distances(pts, plane)))
    return s >= 0.0
