"""The per-face split of a planar cut, the reference of `mvskin.cut.cut`.

`cut` is the package's cut as it was before the crossed faces split in
one array pass: the same section, seam points and polylines, then a
Python loop over the crossed faces in ascending id that finds each
face's lone vertex, emits its lone-side child and splits its quad along
the shorter diagonal by two `np.linalg.norm` calls.  It is a copy, not
an import, so that a change to the array pass shows up against it.  A
list passed as `diagonals` receives, per crossed face, how its quad was
split: "first" (the shorter or equal diagonal), "near tie" (the first,
though longer within the 1e-9 relative tolerance) or "second".

`models`, `random_plane` and `outcome` are the cases of the property in
tests/test_cut.py and of tests/cut_sweep.py: both fixtures and a cut half
of each, planes of each of PLANE_KINDS, and every byte of a result.
"""

import numpy as np

from mvskin.algebra import make_plane
from mvskin.cut import CutPoint, CutResult, _empty_like
from mvskin.errors import NonManifoldCut
from mvskin.rig import RiggedModel, _derived_mesh, make_arm_model, make_cylinders_model, validate_model
from mvskin.section import Section, in_parent_order
from mvskin.weights import weight_by_edge

PLANE_KINDS = ("oblique", "vertex", "midpoint", "band")


def models() -> tuple:
    """The cylinders, the arm, and M1 of each cut by a tilted plane through its middle."""
    fixtures = (make_cylinders_model(), make_arm_model())
    n = np.array([0.2, 0.1, 1.0]) / np.linalg.norm([0.2, 0.1, 1.0])
    halves = []
    for model in fixtures:
        v = model.mesh.vertices
        halves.append(cut(model, make_plane(tuple(n.tolist()), float(n @ (0.5 * (v.min(0) + v.max(0)))))).m1)
    return (*fixtures, *halves)


def random_plane(rng, model, kind=None):
    """A plane through the model's bounding box, of one of PLANE_KINDS (drawn if None).

    oblique: any normal, through a uniform point of the box; vertex:
    through a vertex; midpoint: through the midpoint of a face's edge;
    band: z = const through the z range, the cross-section of a tube
    along z, whose quad diagonals come in near-equal pairs.
    """
    v, faces = model.mesh.vertices, model.mesh.faces
    kind = kind or PLANE_KINDS[rng.integers(len(PLANE_KINDS))]
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    lo, hi = v.min(axis=0), v.max(axis=0)
    if kind == "oblique":
        point = lo + rng.uniform(size=3) * (hi - lo)
    elif kind == "vertex":
        point = v[rng.integers(len(v))]
    elif kind == "midpoint":
        face, k = faces[rng.integers(len(faces))], rng.integers(3)
        point = 0.5 * (v[face[k]] + v[face[k - 1]])
    else:
        normal = np.array([0.0, 0.0, 1.0])
        point = lo + rng.uniform() * (hi - lo)
    return make_plane(tuple(normal.tolist()), float(normal @ point))


def outcome(cut_fn, model, plane):
    """("ok", both halves' bytes and row maps, cut points, polylines) or (error type name, message)."""
    try:
        res = cut_fn(model, plane)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    halves = tuple(
        tuple(a.tobytes() for a in (h.mesh.vertices, h.mesh.faces, h.weights.ids, h.weights.ws))
        + tuple(rows.tobytes() for rows in (h.mesh._rows or (None,))[1:])
        for h in (res.m1, res.m2)
    )
    return "ok", halves, res.cut_points, res.polylines


def cut(model: RiggedModel, plane, diagonals=None) -> CutResult:
    """Split a rigged model along a plane, one crossed face at a time."""
    mesh = model.mesh
    section = Section(mesh, plane)
    positive = section.signs > 0
    if positive.all() or not positive.any():
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
        if diagonals is not None:
            diagonals.append(("first" if d1 <= d2 else "near tie") if d1 <= d2 + 1e-9 * (d1 + d2) else "second")

    face_side = signs[mesh.faces[:, 0]]
    face_side[crossed] = 0  # a crossed face goes to neither half whole
    halves = {}
    for side in (1, -1):
        kept = np.flatnonzero(face_side == side)
        rows = np.flatnonzero(signs == side)
        faces, _ = in_parent_order(rank[mesh.faces[kept]], kept, children[side], parents[side])
        half = RiggedModel(
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
