"""Plane sections of a mesh: the one coplanarity rule, edge table and walk of cut and tear.

A vertex's signed distance to a plane is the conformal inner product
up(p) . plane, which for a unit-normal plane is the Euclidean distance.
Vertices within eps of the plane (eps = EPS_SCALE x bbox diagonal) are
virtually shifted +2 eps along the unit normal, which removes every
coplanarity degeneracy with one rule: afterwards every vertex sits
strictly on the +1 side (distance >= 0) or the -1 side, and an edge
whose endpoints differ in sign crosses the plane strictly inside.  The
shifted copy drives classification and crossing positions only; callers
keep the true positions of the vertices themselves.

A Section also holds the section's edge table, built in one numpy pass:
the crossed faces, each with its two straddling edges, and each
straddling edge once, with its crossing and the faces on it.  Its walk
goes from edge to edge through the crossed faces; a crossed face has
exactly two straddling edges, so the only choice is where to start.
Planar cuts (cut.py) read their seam points and polylines from the
table and its walk, and tear-plane traces (tear.py) follow the same
walk, so on a shared edge they report the same crossing bit for bit.
Both split only some faces in Python and put the children back among
the faces they kept with in_parent_order.
"""

from __future__ import annotations

import numpy as np

from .algebra import Multivector, plane_distances
from .rig import Mesh, bbox_diagonal

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
    """One plane's section of a mesh under the eps shift.

    Classification: `work` is the shifted copy of the vertices, `dist`
    their signed distances and `signs` their sides (+1 / -1); `plane`
    and `normal` are the unit-normal plane and its normal.

    Edge table: `crossed` holds the ids of the faces the plane crosses,
    ascending, and face_edges[r] the rows of the two straddling edges of
    face crossed[r], in corner order (a, b), (b, c), (c, a).  Edge rows
    follow the order in which a scan of the crossed faces first meets
    the edges: edges[e] is the (lo, hi) key, lam[e] and positions[e]
    where the edge crosses the plane (lam runs lo -> hi), borders[e] the
    number of faces on it and edge_faces[e] the crossed-face rows of the
    first two of them, ascending, -1 where there is no second.  Every
    face on a straddling edge is itself crossed, so the table is whole.
    """

    def __init__(self, mesh: Mesh, plane: Multivector):
        self.plane, self.normal = unit_plane(plane)
        work = np.array(mesh.vertices, dtype=np.float64).reshape(-1, 3)
        eps = section_eps(mesh)
        dist = plane_distances(work, self.plane)
        on = np.abs(dist) < eps
        if on.any():
            work[on] += (2.0 * eps) * self.normal
            dist = plane_distances(work, self.plane)
        self.work = work
        self.dist = dist
        self.signs = np.where(dist >= 0.0, 1, -1).astype(np.int64)

        self.crossed = np.flatnonzero(np.ptp(self.signs[mesh.faces], axis=1) != 0)
        u = mesh.faces[self.crossed]
        v = np.roll(u, -1, axis=1)
        straddle = self.signs[u] != self.signs[v]  # two per crossed face
        lo, hi = np.minimum(u, v)[straddle], np.maximum(u, v)[straddle]
        _, first, slot_key = np.unique(lo * len(work) + hi, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the keys in the order the scan first meets them
        slot_edge = np.argsort(order)[slot_key]
        self.face_edges = slot_edge.reshape(-1, 2)
        lo, hi = lo[first[order]], hi[first[order]]
        self.edges = np.column_stack([lo, hi])
        self.lam = dist[lo] / (dist[lo] - dist[hi])
        self.positions = (1.0 - self.lam)[:, None] * work[lo] + self.lam[:, None] * work[hi]
        self.borders = np.bincount(slot_edge, minlength=len(order))
        by_edge = np.argsort(slot_edge, kind="stable") // 2  # crossed-face rows, grouped by edge
        start = np.cumsum(self.borders) - self.borders
        second = np.where(self.borders > 1, by_edge[np.minimum(start + 1, len(by_edge) - 1)], -1)
        self.edge_faces = np.column_stack([by_edge[start], second])

    def walk(self, row: int, edge: int):
        """(row, edge) steps along the section, starting by leaving crossed face row `row` through `edge`.

        Each next step enters the other face on the edge and leaves it
        through its other straddling edge; row -1 enters the edge's first
        face.  A crossed face has exactly two straddling edges, so the
        walk ends only after an edge with no other face on it.
        """
        edge_faces, face_edges = self.edge_faces.tolist(), self.face_edges.tolist()
        while True:
            yield row, edge
            first, second = edge_faces[edge]
            row = second if first == row else first
            if row < 0:
                return
            a, b = face_edges[row]
            edge = b if a == edge else a

    def chains(self) -> list:
        """The section as chains of edge rows, each edge in exactly one chain.

        Open chains run between edges on one face only (boundary edges)
        and come first, each from its lower end.  Closed chains start at
        their lowest edge and step first toward its lower neighbour.
        Expects at most two faces on an edge.
        """
        edge_faces, face_edges = self.edge_faces.tolist(), self.face_edges.tolist()
        visited = [False] * len(self.edges)
        chains = []
        for edge in np.flatnonzero(self.borders == 1).tolist() + list(range(len(self.edges))):
            if visited[edge]:
                continue
            first, second = edge_faces[edge]
            leave = -1  # an open chain enters its end's only face
            if second >= 0:
                o1, o2 = (b if a == edge else a for a, b in (face_edges[first], face_edges[second]))
                leave = second if o1 <= o2 else first
            chains.append([])
            for _, e in self.walk(leave, edge):
                if visited[e]:
                    break
                visited[e] = True
                chains[-1].append(e)
        return chains


def in_parent_order(kept: np.ndarray, kept_ids: np.ndarray, children: list, parents: list) -> tuple:
    """Kept faces and split children as one (n, 3) face array in parent face order.

    kept[i] is face kept_ids[i] itself, and children[j] is a child of
    face parents[j].  The sort is stable, so the children of one face
    keep the order they were emitted in.  Returns the faces and, per
    face, the kept id it came from or -1 for a child.
    """
    faces = np.concatenate([kept, np.array(children, dtype=np.int64).reshape(-1, 3)])
    order = np.argsort(np.concatenate([kept_ids, np.array(parents, dtype=np.int64)]), kind="stable")
    sources = np.concatenate([kept_ids, np.full(len(children), -1, dtype=np.int64)])
    return faces[order], sources[order]
