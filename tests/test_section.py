"""Plane sections: the eps-shift rule and crossing formula shared by cut and tear."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskin.algebra import make_plane
from mvskin.cut import cut
from mvskin.rig import edge_face_incidence, make_cylinders_model
from mvskin.section import Section, section_eps
from mvskin.tear import TearAnchor, trace_surface_path

# bbox corners that fix eps for probe points inside them
FRAME = np.array([[-100.0, -100.0, -100.0], [100.0, 100.0, 100.0]])

CYLINDERS = make_cylinders_model()
INCIDENCE = edge_face_incidence(CYLINDERS.mesh.faces)

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
    section = Section(np.vstack([p, far, FRAME]), make_plane(tuple(n), d))
    assert section.signs[0] == 1 and section.signs[1] == -1
    assert section.dist[0] > 0.0
    assert section_eps(section.work) == eps
    assert np.array_equal(section.work[0], p + (2.0 * eps) * section.normal)
    assert np.array_equal(section.work[1], far)
    # the edge from the band point to the far one crosses strictly inside
    lam, pos = section.crossing(0, 1)
    assert 0.0 < lam < 1.0
    assert abs(pos @ n - d) < eps


def _face_centroid_anchor(face_id: int) -> TearAnchor:
    corners = CYLINDERS.mesh.vertices[CYLINDERS.mesh.faces[face_id]]
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
    crossed = sorted({f for edge in cut_points for f in INCIDENCE[edge]})
    start = _face_centroid_anchor(crossed[0])
    to = _face_centroid_anchor(crossed[int(share * (len(crossed) - 1))])
    points = trace_surface_path(CYLINDERS.mesh, plane, start, to, INCIDENCE)
    if start.face != to.face:
        assert points
    for q in points:
        cp = cut_points[q.edge]
        assert q.lam == cp.lam
        assert q.position == cp.position

