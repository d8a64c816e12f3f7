"""Per-face scans of a plane section, the reference of `mvskin.section`'s edge table and walk.

`enumerate_section` walks the crossed faces one by one in ascending id,
exactly as `mvskin.cut.cut` and `mvskin.tear.trace_surface_path` did
before they shared one table: each face's straddling edges in corner
order (a, b), (b, c), (c, a), each new edge's crossing from the scalar
formula, and the faces on each edge.  `chains` is the old seam chaining
of `cut` over the links that scan records, and `trace` the old
trace_surface_path loop.  They are copies, not imports, so that a change
to the package shows up against them.
"""

import numpy as np

from mvskin.algebra import plane_distances
from mvskin.errors import PathNotFound
from mvskin.tear import TearPoint


def crossing(section, lo: int, hi: int):
    """(lam, position) where edge (lo, hi) crosses the plane; lam runs lo -> hi."""
    d = section.dist
    lam = float(d[lo] / (d[lo] - d[hi]))
    return lam, (1.0 - lam) * section.work[lo] + lam * section.work[hi]


def enumerate_section(section, faces) -> dict:
    """The section of the faces, by a Python scan of each crossed face.

    Keys: crossed (face ids, ascending), face_edges (face -> its two edge
    keys in corner order), edges (keys in the order the scan first meets
    them), lam and position (per edge), edge_faces (key -> face ids,
    ascending) and links (per edge, in edge order: the other edge of
    each face on it).
    """
    side = section.signs.tolist()
    out = {"crossed": [], "face_edges": {}, "edges": [], "lam": [], "position": [], "edge_faces": {}}
    for fi, (a, b, c) in enumerate(np.asarray(faces).tolist()):
        keys = [
            (u, v) if u < v else (v, u)
            for u, v in ((a, b), (b, c), (c, a))
            if side[u] != side[v]
        ]
        if not keys:
            continue
        out["crossed"].append(fi)
        out["face_edges"][fi] = keys
        for key in keys:
            if key not in out["edge_faces"]:
                lam, pos = crossing(section, *key)
                out["edges"].append(key)
                out["lam"].append(lam)
                out["position"].append(pos)
            out["edge_faces"].setdefault(key, []).append(fi)
    ordinal = {key: o for o, key in enumerate(out["edges"])}
    links = [[] for _ in out["edges"]]
    for keys in out["face_edges"].values():
        a, b = (ordinal[key] for key in keys)
        links[a].append(b)
        links[b].append(a)
    out["links"] = links
    return out


def chains(links: list) -> list:
    """Ordinal chains over the links (ordinal -> neighbor ordinals).

    Open chains start at their lowest-ordinal endpoint; closed chains
    start at their lowest-ordinal point and step toward the lower
    neighbor.
    """
    visited: set = set()
    out = []

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
            out.append(walk(start, nb[0] if nb else None))
    for start, nb in enumerate(links):
        if start not in visited:
            out.append(walk(start, min(nb)))
    return out


def trace(mesh, section, start, to) -> tuple:
    """trace_surface_path's points from start's face to to's, by the per-face walk."""
    if start.face == to.face:
        return ()
    scan = enumerate_section(section, mesh.faces)
    to_pt = np.asarray(to.point, dtype=np.float64)
    target = to_pt - float(plane_distances(to_pt.reshape(1, 3), section.plane)[0]) * section.normal

    def crossings(face_id: int, skip):
        return [(key, *crossing(section, *key)) for key in scan["face_edges"].get(face_id, ()) if key != skip]

    def pick(cands):
        return min(cands, key=lambda c: (float(np.linalg.norm(c[2] - target)), c[0]))

    cands = crossings(start.face, None)
    if not cands:
        raise PathNotFound(f"tear plane does not cross the boundary of face {start.face}")
    points = []
    face_id = start.face
    key, lam, pos = pick(cands)
    budget = len(mesh.faces)
    while True:
        points.append(TearPoint(tuple(float(x) for x in pos), face_id, key, lam))
        neighbours = [f for f in scan["edge_faces"][key] if f != face_id]
        if not neighbours:
            raise PathNotFound(f"tear plane section leaves the surface at boundary edge {key}")
        face_id = neighbours[0]
        if face_id == to.face:
            return tuple(points)
        if len(points) > budget:
            raise PathNotFound("tear plane section does not connect the anchors on this side")
        key, lam, pos = pick(crossings(face_id, key))
