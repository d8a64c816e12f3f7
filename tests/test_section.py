"""Plane sections: the eps-shift rule, edge table and walk shared by cut and tear."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskin.algebra import make_plane
from mvskin.cut import cut
from mvskin.errors import PathNotFound
from mvskin.rig import Mesh, make_arm_model, make_cylinders_model
from mvskin.section import Section, section_eps
from mvskin.tear import TearAnchor, trace_surface_path

import section_oracle as oracle

# bbox corners that fix eps for probe points inside them
FRAME = np.array([[-100.0, -100.0, -100.0], [100.0, 100.0, 100.0]])

CYLINDERS = make_cylinders_model()


def faces_on(edge):
    """Ids of the cylinders faces that use the undirected edge, ascending."""
    return np.flatnonzero(np.isin(CYLINDERS.mesh.faces, edge).sum(axis=1) == 2).tolist()


unit_vectors = (
    st.lists(st.floats(-1, 1), min_size=3, max_size=3)
    .map(np.asarray)
    .filter(lambda v: np.linalg.norm(v) > 1e-2)
    .map(lambda v: v / np.linalg.norm(v))
)


@settings(max_examples=200, deadline=None)
@given(
    unit_vectors,
    st.floats(-10, 10),
    st.lists(st.floats(-20, 20), min_size=3, max_size=3),
    st.floats(-0.9, 0.9),
)
def test_points_within_eps_go_to_the_positive_side(n, d, q, t):
    eps = section_eps(FRAME)
    q = np.asarray(q)
    on_plane = q - (q @ n - d) * n
    p = on_plane + t * eps * n
    far = on_plane - 50.0 * eps * n  # clearly on the negative side
    section = Section(Mesh(np.vstack([p, far, FRAME]), [(0, 1, 2)]), make_plane(tuple(n), d))
    assert section.signs[0] == 1 and section.signs[1] == -1
    assert section.dist[0] > 0.0
    assert section_eps(section.work) == eps
    assert np.array_equal(section.work[0], p + (2.0 * eps) * section.normal)
    assert np.array_equal(section.work[1], far)
    # the edge from the band point to the far one crosses strictly inside
    e = section.edges.tolist().index([0, 1])
    lam, pos = section.lam[e], section.positions[e]
    assert 0.0 < lam < 1.0
    assert abs(pos @ n - d) < eps


def _face_centroid_anchor(mesh, face_id: int) -> TearAnchor:
    corners = mesh.vertices[mesh.faces[face_id]]
    return TearAnchor(tuple(corners.mean(axis=0)), face_id, (1 / 3, 1 / 3, 1 / 3))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.2, 0.2),
    st.floats(-0.2, 0.2),
    st.one_of(st.floats(3.0, 17.0), st.sampled_from([4.0, 8.0, 12.0, 16.0])),
    st.floats(0.1, 0.9),
)
def test_tear_walk_and_cut_agree_bitwise_on_shared_edges(tx, ty, z, share):
    # a near-horizontal plane through the tube wall; z in {4, 8, 12, 16}
    # with no tilt runs through a whole vertex ring
    n = np.array([tx, ty, 1.0])
    n /= np.linalg.norm(n)
    plane = make_plane(tuple(n), z)
    cut_points = {cp.edge: cp for cp in cut(CYLINDERS, plane).cut_points}
    assert cut_points
    crossed = sorted({f for edge in cut_points for f in faces_on(edge)})
    start = _face_centroid_anchor(CYLINDERS.mesh, crossed[0])
    to = _face_centroid_anchor(CYLINDERS.mesh, crossed[int(share * (len(crossed) - 1))])
    points = trace_surface_path(CYLINDERS.mesh, plane, start, to)
    if start.face != to.face:
        assert points
    for q in points:
        cp = cut_points[q.edge]
        assert q.lam == cp.lam
        assert q.position == cp.position


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def seeded_planes(mesh, seed):
    """(normal, offset) pairs: oblique and axial planes, planes through a
    vertex ring, through one vertex and through one face's corners."""
    rng = np.random.default_rng(seed)
    verts, faces = mesh.vertices, mesh.faces
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    for _ in range(8):
        n = unit(rng.normal(size=3))
        yield n, float(n @ rng.uniform(lo, hi))
    for _ in range(3):
        theta = rng.uniform(0.0, np.pi)
        yield np.array([np.cos(theta), np.sin(theta), 0.0]), float(rng.uniform(-0.5, 0.5))
    for z in rng.choice(np.unique(verts[:, 2]), size=3, replace=False).tolist():
        yield np.array([0.0, 0.0, 1.0]), z
    for _ in range(3):
        n = unit(rng.normal(size=3))
        yield n, float(n @ verts[rng.integers(len(verts))])
    for _ in range(3):
        a, b, c = verts[faces[rng.integers(len(faces))]]
        n = unit(np.cross(b - a, c - a))
        yield n, float(n @ a)


def assert_table_matches_scan(section, faces):
    scan = oracle.enumerate_section(section, faces)
    keys = [tuple(key) for key in section.edges.tolist()]
    crossed = section.crossed.tolist()
    assert crossed == scan["crossed"]
    assert [[keys[e] for e in row] for row in section.face_edges.tolist()] == [scan["face_edges"][f] for f in crossed]
    assert keys == scan["edges"]
    assert section.lam.tobytes() == np.array(scan["lam"], dtype=np.float64).tobytes()
    assert section.positions.tobytes() == np.array(scan["position"], dtype=np.float64).reshape(-1, 3).tobytes()
    assert section.borders.tolist() == [len(scan["edge_faces"][key]) for key in keys]
    for key, rows in zip(keys, section.edge_faces.tolist()):
        on = scan["edge_faces"][key]
        assert rows == [crossed.index(on[0]), crossed.index(on[1]) if len(on) > 1 else -1]
    return scan


def outcome(fn):
    try:
        return fn()
    except PathNotFound as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", ["cylinders", "arm"])
def test_edge_table_and_walks_match_the_per_face_scan(name):
    mesh = (CYLINDERS if name == "cylinders" else make_arm_model()).mesh
    rng = np.random.default_rng(19)
    for normal, offset in seeded_planes(mesh, {"cylinders": 3, "arm": 4}[name]):
        plane = make_plane(tuple(normal), offset)
        section = Section(mesh, plane)
        scan = assert_table_matches_scan(section, mesh.faces)
        assert section.chains() == oracle.chains(scan["links"])
        # traces from crossed faces (and one face the plane may miss) to any face
        starts = rng.choice(scan["crossed"], size=3).tolist() if scan["crossed"] else []
        for start in starts + [int(rng.integers(len(mesh.faces)))]:
            to = int(rng.choice(scan["crossed"])) if scan["crossed"] and rng.random() < 0.7 else int(rng.integers(len(mesh.faces)))
            a, b = _face_centroid_anchor(mesh, start), _face_centroid_anchor(mesh, to)
            got = outcome(lambda: trace_surface_path(mesh, plane, a, b))
            assert got == outcome(lambda: oracle.trace(mesh, section, a, b))


def test_edge_table_counts_every_face_on_an_edge():
    # three faces on the edge (0, 1), which the z = 0 plane crosses
    verts = [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (1.0, 0.0, -1.0), (0.0, 1.0, -1.0), (-1.0, -1.0, -1.0)]
    mesh = Mesh(np.asarray(verts), [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    section = Section(mesh, make_plane((0.0, 0.0, 1.0), 0.0))
    assert_table_matches_scan(section, mesh.faces)
    assert section.edges.tolist()[0] == [0, 1] and section.borders[0] == 3

