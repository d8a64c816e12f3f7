"""Scalpel tears: anchors, tear planes, path tracing, duplication, opening."""

import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvskin.tear as tear_module
from mvskin.algebra import make_plane, plane_distances, up_block
from mvskin.animate import (
    SKIN_BACKENDS,
    generate_keyframe,
    global_pose_at,
    skin_cga,
    skin_dq,
    skin_lbs,
)
from mvskin.cli import bundled_script_path, validate_script
from mvskin.cut import cut
from mvskin.errors import (
    AmbiguousIntersection,
    DegenerateTearStep,
    MvskinError,
    NoIntersection,
    PathNotFound,
)
from mvskin.quaternions import from_axis_angle
from mvskin.rig import (
    IDENTITY_TRS,
    Bone,
    Mesh,
    RiggedModel,
    Trs,
    bbox_diagonal,
    make_arm_model,
    make_cylinders_model,
    validate_model,
)
from mvskin.tear import (
    FaceBVH,
    ScalpelState,
    TearAnchor,
    _clear_of_slivers,
    _face_hit,
    _sides,
    build_tear_plane,
    open_tear,
    scalpel_hit,
    tear,
    trace_surface_path,
)

from mesh_helpers import mesh_area
from tear_oracle import anchor_of, counted, left_of, scan_hits, scan_scalpel_hit, sliver_passes

STEP = 2.0 * math.pi / 62.0  # one band face at mid-height on the cylinders


def radial(t, theta, z=10.0, r0=0.5, r1=3.0):
    """Scalpel segment piercing the cylinders wall from inside at angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return ScalpelState(t, (r0 * c, r0 * s, z), (r1 * c, r1 * s, z))


@pytest.fixture(scope="module")
def cylinders():
    return make_cylinders_model()


@pytest.fixture(scope="module")
def arm():
    return make_arm_model()


def arm_strokes(seed, n):
    """Seeded radial scalpels through the arm wall (radius 4, z in 0..40)."""
    rng = np.random.default_rng(seed)
    for theta, z in zip(rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(1.0, 39.0, n)):
        yield radial(0.0, theta, z=z, r0=1.0, r1=6.0)


def random_segments(seed, n):
    """Seeded segments through and around the cylinders."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p0 = rng.uniform((-4, -4, -2), (4, 4, 22))
        p1 = rng.uniform((-4, -4, -2), (4, 4, 22))
        yield ScalpelState(0.0, tuple(p0), tuple(p1))


def edge_faces(faces):
    """Map each undirected edge (lo, hi) to the faces using it, in ascending id."""
    inc = {}
    for fi, (a, b, c) in enumerate(np.asarray(faces).tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            inc.setdefault((min(u, v), max(u, v)), []).append(fi)
    return inc


@pytest.fixture(scope="module")
def incidence(cylinders):
    return edge_faces(cylinders.mesh.faces)


def boundary_edges(mesh):
    return sum(1 for faces in edge_faces(mesh.faces).values() if len(faces) == 1)


def component_count(mesh):
    adj = {}
    for f in mesh.faces:
        for i in range(3):
            a, b = int(f[i]), int(f[(i + 1) % 3])
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    seen, comps = set(), 0
    for v in adj:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x] - seen)
    return comps


# ---------------------------------------------------------------- scalpel hit


def test_scalpel_state_validation():
    with pytest.raises(ValueError, match="3-vector"):
        ScalpelState(0.0, (1.0, 2.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        ScalpelState(0.0, (float("nan"), 0.0, 0.0), (1.0, 0.0, 0.0))


def test_scalpel_hit_single_wall_crossing(cylinders):
    state = radial(0.0, 3 * STEP)
    anchor = scalpel_hit(cylinders.mesh, state)
    # the hit point lies on the scalpel segment at wall radius
    p = np.asarray(anchor.point)
    assert abs(p[2] - 10.0) < 1e-12
    assert abs(np.linalg.norm(p[:2]) - 2.0) < 0.02  # chordal wall of a 31-gon
    # bary reconstructs the same point from the host face corners
    corners = cylinders.mesh.vertices[cylinders.mesh.faces[anchor.face]]
    rebuilt = np.asarray(anchor.bary) @ corners
    assert np.max(np.abs(rebuilt - p)) < 1e-12
    assert min(anchor.bary) > 0.0


def test_scalpel_hit_misses(cylinders):
    outside = ScalpelState(0.0, (50.0, 50.0, 50.0), (60.0, 50.0, 50.0))
    with pytest.raises(NoIntersection):
        scalpel_hit(cylinders.mesh, outside)


def test_scalpel_hit_through_both_walls(cylinders):
    diametral = ScalpelState(0.0, (-5.0, 0.07, 10.0), (5.0, 0.07, 10.0))
    with pytest.raises(AmbiguousIntersection) as exc:
        scalpel_hit(cylinders.mesh, diametral)
    assert exc.value.count == 2


def test_scalpel_hit_rejects_degenerate_segment(cylinders):
    dot = ScalpelState(0.0, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(DegenerateTearStep, match="scalpel endpoints coincide"):
        scalpel_hit(cylinders.mesh, dot)


def test_bvh_matches_linear_scan_bitwise(cylinders, arm):
    for model, states in (
        (cylinders, random_segments(11, 50)),
        (arm, arm_strokes(5, 8)),
    ):
        mesh = model.mesh
        bvh = FaceBVH(mesh)
        for state in states:
            assert outcome(scalpel_hit, mesh, state, bvh) == outcome(scan_scalpel_hit, mesh, state)


def test_bvh_candidates_cover_all_hit_faces(cylinders, arm):
    for model, states in (
        (cylinders, random_segments(7, 30)),
        (arm, arm_strokes(9, 8)),
    ):
        mesh = model.mesh
        bvh = FaceBVH(mesh)
        for state in states:
            p0, p1 = np.asarray(state.tip), np.asarray(state.tail)
            hit_faces = {
                fi
                for fi in range(len(mesh.faces))
                if _face_hit(mesh.vertices, mesh.faces[fi], p0, p1 - p0) is not None
            }
            candidates = bvh.segment_candidates(p0, p1)
            assert candidates.dtype == np.int64
            assert np.all(np.diff(candidates) > 0)
            assert hit_faces <= set(candidates.tolist())


def test_bvh_axis_parallel_segment(cylinders):
    # zero direction components take the inside test, not a 0/0 slab; a
    # subnormal one overflows its slab bounds to inf, which is no error
    mesh = cylinders.mesh
    bvh = FaceBVH(mesh)
    for state in (
        ScalpelState(0.0, (0.5, 0.07, 10.3), (3.0, 0.07, 10.3)),  # along +x only
        ScalpelState(0.0, (0.5, 0.0, 10.3), (3.0, 1e-320, 10.3)),
    ):
        with np.errstate(all="raise"):
            candidates = bvh.segment_candidates(np.asarray(state.tip), np.asarray(state.tail))
        assert scan_scalpel_hit(mesh, state).face in candidates.tolist()
        assert outcome(scalpel_hit, mesh, state, bvh) == outcome(scan_scalpel_hit, mesh, state)


def placed(mesh, scale=1.0, shift=0.0):
    """(the fixture mesh scaled, then shifted; the fixture's vertices, scale, shift)."""
    verts = mesh.vertices * scale
    return Mesh(verts + shift if shift else verts, mesh.faces), mesh.vertices, scale, np.asarray(shift)


_CYLINDERS = make_cylinders_model().mesh
_ARM = make_arm_model().mesh
SCAN_MESHES = {  # name -> (mesh, fixture vertices, scale, shift)
    "cylinders": placed(_CYLINDERS),
    "arm": placed(_ARM),
    # det and the other dots overflow (|p| ~ 1e104 and 1e122), or det falls
    # below the 1e-300 gate (|p| ~ 1e-100)
    **{f"cylinders x {s:g}": placed(_CYLINDERS, s) for s in (1e103, 1e121, 1e-101)},
    # far from the origin, where FaceBVH's pad (1e-12 of the bounding-box
    # diagonal) is below one ulp of the coordinates and rounds away
    "arm + (1e6, -1e6, 1e6)": placed(_ARM, shift=(1e6, -1e6, 1e6)),
    "cylinders + 1e8": placed(_CYLINDERS, shift=1e8),
}


def bits(xs):
    return struct.pack(f"{len(xs)}d", *xs)


def outcome(probe, *args):
    """A probe's anchor, bit for bit, or its error type and count."""
    try:
        a = probe(*args)
    except MvskinError as exc:
        return type(exc).__name__, getattr(exc, "count", None)
    return "hit", a.face, bits(a.point), bits(a.bary)


@st.composite
def aimed_segments(draw):
    """(mesh name, scalpel) aimed at a vertex, an edge interior or a face centre.

    The direction is oblique, or grazing: in the face plane, tilted
    +/- 1e-12 along its normal.  The segment passes through the aim
    point or ends exactly on it.
    """
    name = draw(st.sampled_from(sorted(SCAN_MESHES)))
    mesh, verts, scale, shift = SCAN_MESHES[name]
    # the aim is found on the fixture, where no norm overflows
    fi = draw(st.integers(0, len(mesh.faces) - 1))
    corners = verts[mesh.faces[fi]]
    kind = draw(st.sampled_from(("vertex", "edge", "centre")))
    k = draw(st.integers(0, 2))
    if kind == "vertex":
        aim = mesh.vertices[mesh.faces[fi][k]]
    elif kind == "edge":
        f = draw(st.floats(0.01, 0.99))
        aim = ((1.0 - f) * corners[k] + f * corners[(k + 1) % 3]) * scale + shift
    else:
        aim = corners.mean(axis=0) * scale + shift
    edge = corners[1] - corners[0]
    normal = np.cross(edge, corners[2] - corners[0])
    normal /= np.linalg.norm(normal)
    edge /= np.linalg.norm(edge)
    if draw(st.booleans()):
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        tilt = draw(st.sampled_from((-1e-12, 0.0, 1e-12)))
        d = math.cos(theta) * edge + math.sin(theta) * np.cross(normal, edge) + tilt * normal
    else:
        d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        if np.linalg.norm(d) < 1e-3:
            d = normal
        d = d / np.linalg.norm(d)
    length = draw(st.floats(0.01, 0.5)) * bbox_diagonal(verts) * scale
    ends = draw(st.sampled_from(("through", "tip on", "tail on")))
    before = {"through": draw(st.floats(0.05, 0.95)), "tip on": 0.0, "tail on": 1.0}[ends]
    tip = aim if ends == "tip on" else aim - before * length * d
    tail = aim if ends == "tail on" else aim + (1.0 - before) * length * d
    return name, ScalpelState(0.0, tuple(tip), tuple(tail))


@settings(max_examples=50, deadline=None)
@given(aimed_segments())
# grazing strokes, which a vectorized face pre-pass with no rounding margin got wrong
@example(("cylinders", ScalpelState(
    0.0,
    (-1.653257949415352, -0.04501030995845676, -0.007095033786903571),
    (3.217752649805117, 0.015003436652818919, 0.00236501126230119),
)))
@example(("arm", ScalpelState(
    0.0,
    (-16.796127502305158, -3.5809972205702727, -5.608730362841663),
    (1.3633392785844651, 2.7353390510435096, 2.286689976675565),
)))
def test_filtered_scan_matches_the_per_face_oracle(case):
    name, state = case
    mesh = SCAN_MESHES[name][0]
    p0, p1 = np.asarray(state.tip), np.asarray(state.tail)
    dvec = p1 - p0
    with np.errstate(over="ignore", invalid="ignore"):
        expected = counted(mesh, scan_hits(mesh, p0, dvec), p0, dvec)
        candidates = FaceBVH(mesh).segment_candidates(p0, p1).tolist()
        assert {fi for fi, _ in expected} <= set(candidates)
        assert outcome(scalpel_hit, mesh, state) == outcome(anchor_of, expected, p0, dvec)


def test_scalpel_hit_matches_the_oracle_scan(cylinders, arm):
    cases = [(cylinders.mesh, s) for s in random_segments(13, 15)]
    cases += [(arm.mesh, s) for s in arm_strokes(6, 2)]
    cases.append((cylinders.mesh, ScalpelState(0.0, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))))
    for mesh, state in cases:
        assert outcome(scalpel_hit, mesh, state) == outcome(scan_scalpel_hit, mesh, state)


def test_filter_keeps_few_faces(cylinders, arm):
    # a conservative filter that kept most faces would pass the properties
    # above and win nothing; the limits are the largest counts measured on
    # these seeded strokes (of 758 and 5037 faces)
    doc = json.loads(bundled_script_path("arm_tear.json").read_text())
    (act,) = [a for a in validate_script(arm, doc) if a["action"] == "tear"]
    for model, states, most in (
        (cylinders, random_segments(3, 20), 15),
        (arm, arm_strokes(4, 20), 2),
        (arm, act["states"], 3),
    ):
        bvh = FaceBVH(model.mesh)
        for s in states:
            assert len(bvh.segment_candidates(s.tip, s.tail)) <= most


# ---------------------------------------------------------------- tear plane


def test_tear_plane_through_axis_triangle():
    anchor = TearAnchor((0.0, 0.0, 0.0), 0, (1.0, 0.0, 0.0))
    state = ScalpelState(1.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    plane = build_tear_plane(anchor, state)
    # z = 0 with right-hand normal +z
    assert np.allclose(plane.coeffs[1:4], (0.0, 0.0, 1.0), atol=1e-15)
    assert abs(plane.coeffs[4]) < 1e-15 and abs(plane.coeffs[5]) < 1e-15


def test_tear_plane_contains_its_three_points():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = rng.uniform(-5, 5, 3)
        e1 = rng.uniform(-5, 5, 3)
        e2 = rng.uniform(-5, 5, 3)
        anchor = TearAnchor(tuple(s), 0, (1.0, 0.0, 0.0))
        state = ScalpelState(1.0, tuple(e1), tuple(e2))
        try:
            plane = build_tear_plane(anchor, state)
        except DegenerateTearStep:
            continue
        pts = np.vstack([s, e1, e2])
        assert np.max(np.abs(plane_distances(pts, plane))) < 1e-12


def test_stationary_scalpel_is_degenerate():
    anchor = TearAnchor((2.0, 0.0, 0.0), 0, (1.0, 0.0, 0.0))
    collinear = ScalpelState(1.0, (3.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    with pytest.raises(DegenerateTearStep, match="collinear"):
        build_tear_plane(anchor, collinear)


# ---------------------------------------------------------------- path trace


def test_same_face_anchors_trace_to_nothing(cylinders):
    a = scalpel_hit(cylinders.mesh, radial(0.0, 3 * STEP))
    b = TearAnchor(a.point, a.face, a.bary)
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    assert trace_surface_path(cylinders.mesh, plane, a, b) == ()


def test_adjacent_faces_yield_one_point_on_shared_edge(cylinders):
    mesh = cylinders.mesh
    a = scalpel_hit(mesh, radial(0.0, 3 * STEP))
    b = scalpel_hit(mesh, radial(1.0, 4 * STEP))
    assert a.face != b.face
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    points = trace_surface_path(mesh, plane, a, b)
    assert len(points) == 1
    shared = set(map(int, mesh.faces[a.face])) & set(map(int, mesh.faces[b.face]))
    assert set(points[0].edge) == shared
    assert points[0].face == a.face
    assert 0.0 < points[0].lam < 1.0


def test_traced_points_lie_on_plane_in_face_order(cylinders, incidence):
    mesh = cylinders.mesh
    a = scalpel_hit(mesh, radial(0.0, 3 * STEP))
    b = scalpel_hit(mesh, radial(1.0, 20 * STEP))
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    points = trace_surface_path(mesh, plane, a, b)
    assert len(points) == 17
    eps = 1e-9 * bbox_diagonal(mesh)
    for q in points:
        pos = np.asarray(q.position).reshape(1, 3)
        assert abs(plane_distances(pos, plane)[0]) < eps
        # edge and lam rebuild the same point from the exited face's corners
        assert set(q.edge) <= set(mesh.faces[q.face].tolist())
        lo, hi = mesh.vertices[list(q.edge)]
        assert np.max(np.abs((1.0 - q.lam) * lo + q.lam * hi - pos[0])) < 1e-12
    # consecutive points share a face: q_j's edge and q_{j+1}'s edge both
    # border q_{j+1}'s host face
    for qa, qb in zip(points, points[1:]):
        assert qb.face in incidence[qa.edge]
        assert qb.face in incidence[qb.edge]


def test_trace_walks_the_short_way_both_directions(cylinders):
    mesh = cylinders.mesh
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    a = scalpel_hit(mesh, radial(0.0, 3 * STEP))
    ccw = scalpel_hit(mesh, radial(1.0, 20 * STEP))
    cw = scalpel_hit(mesh, radial(1.0, (3 - 17) * STEP))
    assert len(trace_surface_path(mesh, plane, a, ccw)) == 17
    assert len(trace_surface_path(mesh, plane, a, cw)) == 17


def test_trace_dead_end_at_boundary(cylinders):
    mesh = cylinders.mesh
    # a vertical plane section runs off the open tube ends
    a = scalpel_hit(mesh, ScalpelState(0.0, (0.05, 0.5, 10.0), (0.05, 3.0, 10.0)))
    b = scalpel_hit(mesh, ScalpelState(1.0, (0.05, -0.5, 10.0), (0.05, -3.0, 10.0)))
    plane = make_plane((1.0, 0.0, 0.0), 0.05)
    with pytest.raises(PathNotFound, match="boundary"):
        trace_surface_path(mesh, plane, a, b)


def _centroid_anchor(mesh, face_id):
    corners = mesh.vertices[mesh.faces[face_id]]
    return TearAnchor(tuple(corners.mean(axis=0)), face_id, (1 / 3, 1 / 3, 1 / 3))


def test_trace_from_a_face_in_the_plane_finds_no_crossing(cylinders):
    # every corner of face 400 lies in the plane, so the eps shift puts
    # them all on one side and the plane crosses none of its edges
    mesh = cylinders.mesh
    a, b, c = mesh.vertices[mesh.faces[400]]
    normal = np.cross(b - a, c - a)
    normal /= np.linalg.norm(normal)
    plane = make_plane(tuple(normal), float(normal @ a))
    start, to = _centroid_anchor(mesh, 400), _centroid_anchor(mesh, 0)
    with pytest.raises(PathNotFound, match=r"^tear plane does not cross the boundary of face 400$"):
        trace_surface_path(mesh, plane, start, to)


def test_trace_around_a_ring_that_misses_the_target(cylinders):
    # the z = 10 section is a closed ring round the tube; face 0 is off it
    mesh = cylinders.mesh
    start = scalpel_hit(mesh, radial(0.0, 3 * STEP))
    to = _centroid_anchor(mesh, 0)
    assert mesh.vertices[mesh.faces[0], 2].max() < 10.0
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    with pytest.raises(PathNotFound, match=r"^tear plane section does not connect the anchors on this side$"):
        trace_surface_path(mesh, plane, start, to)


# ---------------------------------------------------------------- apply/open


def run_bundled_style_tear(model, m_from=3, m_to=20, delta=0.0):
    return tear(model, [radial(0.0, m_from * STEP), radial(1.0, m_to * STEP)], delta=delta)


def test_torn_faces_stay_in_parent_order():
    # three unit quads in a row, faces 0..5; the anchors sit in faces 0 and
    # 5, so every face is split and the first and last split faces are the
    # first and last faces
    verts = [[i, j, 0.0] for i in range(4) for j in range(2)]
    faces = [f for i in range(3) for f in ([2 * i, 2 * i + 2, 2 * i + 1], [2 * i + 1, 2 * i + 2, 2 * i + 3])]
    model = RiggedModel(
        Mesh(verts, faces),
        (Bone(0, None, IDENTITY_TRS, IDENTITY_TRS),),
        tuple(((0, 1.0),) for _ in verts),
    )
    states = [
        ScalpelState(0.0, (1 / 3, 1 / 3, -1.0), (1 / 3, 1 / 3, 1.0)),
        ScalpelState(1.0, (8 / 3, 2 / 3, -1.0), (8 / 3, 2 / 3, 1.0)),
    ]
    res = tear(model, states, delta=0.1)
    path = res.paths[0]
    assert (path.start.face, path.end.face) == (0, 5)
    assert (path.start_index, path.end_index, path.point_indices) == (8, 9, (10, 11, 12, 13, 14))
    assert path.duplicates == {10: (10, 15), 11: (11, 16), 12: (12, 17), 13: (13, 18), 14: (14, 19)}
    assert res.model.mesh.faces.tolist() == [
        [8, 0, 2], [8, 2, 10], [8, 15, 1], [8, 1, 0],  # face 0, fanned from the start anchor
        [10, 2, 11], [15, 16, 3], [15, 3, 1],  # faces 1 to 4, from their entry points
        [11, 2, 4], [11, 4, 12], [16, 17, 3],
        [12, 4, 13], [17, 18, 5], [17, 5, 3],
        [13, 4, 6], [13, 6, 14], [18, 19, 5],
        [9, 5, 19], [9, 14, 6], [9, 6, 7], [9, 7, 5],  # face 5, from the end anchor
    ]


def test_single_face_nick_splits_without_duplicates(cylinders):
    base = radial(0.0, 3 * STEP)
    nudged = ScalpelState(
        1.0,
        (base.tip[0], base.tip[1], base.tip[2] + 0.3),
        (base.tail[0], base.tail[1], base.tail[2] + 0.3),
    )
    res = tear(cylinders, [base, nudged], delta=0.0)
    path = res.paths[0]
    assert path.start.face == path.end.face
    assert path.points == ()
    assert path.duplicates == {}
    assert len(res.model.mesh.vertices) == len(cylinders.mesh.vertices) + 2
    assert boundary_edges(res.model.mesh) == boundary_edges(cylinders.mesh)
    total = mesh_area(cylinders.mesh)
    assert abs(mesh_area(res.model.mesh) - total) / total < 1e-12
    # the anchor chord exists as an interior edge
    incidence = edge_faces(res.model.mesh.faces)
    chord = tuple(sorted((path.start_index, path.end_index)))
    assert len(incidence[chord]) == 2


def test_tear_duplicates_every_intermediate(cylinders):
    res = run_bundled_style_tear(cylinders)
    path = res.paths[0]
    m = len(path.points)
    assert m == 17
    assert len(path.duplicates) == m
    assert set(path.duplicates) == set(path.point_indices)
    # vertex budget: 2 anchors + m points + m twins
    assert len(res.model.mesh.vertices) == len(cylinders.mesh.vertices) + 2 + 2 * m
    # the tear slit adds one open seam: both sides of every chord segment
    assert boundary_edges(res.model.mesh) == boundary_edges(cylinders.mesh) + 2 * (m + 1)
    assert component_count(res.model.mesh) == 1


def test_duplicates_share_weights_and_positions(cylinders):
    res = run_bundled_style_tear(cylinders, delta=0.0)
    model = res.model
    for left, right in res.paths[0].duplicates.values():
        assert model.weights[left] == model.weights[right]
        assert np.array_equal(model.mesh.vertices[left], model.mesh.vertices[right])
        assert len(model.weights[left]) <= 4
        assert abs(math.fsum(w for _, w in model.weights[left]) - 1.0) < 1e-9


def test_intermediates_on_plane_and_host_edges(cylinders):
    res = run_bundled_style_tear(cylinders)
    path = res.paths[0]
    eps = 1e-9 * bbox_diagonal(cylinders.mesh)
    for q, g in zip(path.points, path.point_indices):
        pos = np.asarray(res.model.mesh.vertices[g]).reshape(1, 3)
        assert abs(plane_distances(pos, path.plane)[0]) < eps
        lo, hi = q.edge
        host = {b for b, _ in cylinders.weights[lo]} | {b for b, _ in cylinders.weights[hi]}
        assert {b for b, _ in res.model.weights[g]} <= host


def test_anchors_pin_the_tear(cylinders):
    res = run_bundled_style_tear(cylinders)
    path = res.paths[0]
    assert path.start_index not in path.duplicates
    assert path.end_index not in path.duplicates
    incidence = edge_faces(res.model.mesh.faces)
    for idx in (path.start_index, path.end_index):
        valence = sum(1 for edge in incidence if idx in edge)
        assert valence >= 3


def test_sliver_collapse_pins_tear_at_original_vertex(cylinders, monkeypatch):
    # the first anchor lies 2e-14 from corner 286 of face 348, so its fan
    # leaves a zero-area child and the anchor merges into that corner
    seen = recorded_passes(monkeypatch)
    counts = counted_apply(monkeypatch)
    mesh = cylinders.mesh
    assert mesh.faces[348].tolist() == [286, 287, 317]
    a, b, c = mesh.vertices[[286, 287, 317]]
    normal = np.cross(b - a, c - a)
    normal /= np.linalg.norm(normal)
    p = (1.0 - 2e-14) * a + 1e-14 * b + 1e-14 * c
    nick = ScalpelState(0.0, tuple(p - 0.5 * normal), tuple(p + 0.5 * normal))
    theta = math.atan2(a[1], a[0]) + 0.6
    res = tear(cylinders, [nick, radial(1.0, theta, z=a[2] + 1.3, r0=2.5, r1=1.5)], delta=0.0)
    torn = res.model.mesh
    path = res.paths[0]
    assert path.start_index == 286
    assert np.array_equal(torn.vertices[286], a)
    n_orig = len(mesh.vertices)
    assert path.end_index >= n_orig and min(path.point_indices) >= n_orig
    # no vertex is left behind: every one is used, and every one has weights
    assert np.array_equal(np.unique(torn.faces), np.arange(len(torn.vertices)))
    assert len(res.model.weights) == len(torn.vertices)
    assert len(torn.vertices) == n_orig + 1 + 2 * len(path.points)
    assert set(path.duplicates) == set(path.point_indices)
    # the zero-area child is left to the scalar sliver test, which runs
    assert any(not sure for _, clear in seen["slivers"] for sure in clear.tolist())
    assert counts["cross"] > 1


def test_open_tear_moves_pairs_apart(cylinders):
    res = run_bundled_style_tear(cylinders, delta=0.0)
    closed = res.model
    path = res.paths[0]
    opened = open_tear(closed, path, 0.25)
    n_hat = np.asarray(path.plane.coeffs[1:4])
    for left, right in path.duplicates.values():
        gap = opened.mesh.vertices[left] - opened.mesh.vertices[right]
        assert abs(np.linalg.norm(gap) - 0.5) < 1e-12
        assert np.max(np.abs(gap - 0.5 * n_hat)) < 1e-12
    for idx in (path.start_index, path.end_index):
        assert np.array_equal(opened.mesh.vertices[idx], closed.mesh.vertices[idx])


def test_open_tear_zero_delta_is_identity(cylinders):
    res = run_bundled_style_tear(cylinders, delta=0.0)
    opened = open_tear(res.model, res.paths[0], 0.0)
    assert np.array_equal(opened.mesh.vertices, res.model.mesh.vertices)


def test_open_tear_default_delta_is_one_percent(cylinders):
    res = run_bundled_style_tear(cylinders, delta=0.0)
    path = res.paths[0]
    opened = open_tear(res.model, path, None)
    delta = 0.01 * bbox_diagonal(res.model.mesh)
    left, right = next(iter(path.duplicates.values()))
    gap = np.linalg.norm(opened.mesh.vertices[left] - opened.mesh.vertices[right])
    assert abs(gap - 2 * delta) < 1e-12


def test_open_tear_argument_errors(cylinders):
    res = run_bundled_style_tear(cylinders, delta=0.0)
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^opening displacement must be finite and non-negative$"):
            open_tear(res.model, res.paths[0], bad)
        with pytest.raises(ValueError, match="^opening displacement must be finite and non-negative$"):
            run_bundled_style_tear(cylinders, delta=bad)
    from mvskin.tear import TearPath

    blank = TearPath(res.paths[0].start, res.paths[0].end, res.paths[0].plane, (), 0.0)
    with pytest.raises(ValueError, match="has not been applied"):
        open_tear(res.model, blank, 0.1)


def test_torn_model_skins_with_every_backend(cylinders):
    res = run_bundled_style_tear(cylinders, delta=0.25)
    model = res.model
    pose = global_pose_at(model, None, 0.0)
    for backend in (skin_cga, skin_lbs, skin_dq):
        frame = backend(model, pose)
        assert np.all(np.isfinite(frame.positions))
    # bind pose keeps the torn geometry fixed
    assert np.max(np.abs(skin_cga(model, pose).positions - model.mesh.vertices)) < 1e-9


def test_multi_step_tear_chains_through_shared_anchor(cylinders):
    states = [radial(0.0, 3 * STEP), radial(1.0, 14 * STEP), radial(2.0, 25 * STEP)]
    res = tear(cylinders, states, delta=0.0)
    assert len(res.paths) == 2
    first, second = res.paths
    assert first.end_index == second.start_index
    assert len(first.points) == 11 and len(second.points) == 11
    assert set(first.duplicates).isdisjoint(second.duplicates)
    assert component_count(res.model.mesh) == 1
    total = mesh_area(cylinders.mesh)
    assert abs(mesh_area(res.model.mesh) - total) / total < 1e-9
    # 3 anchors + 22 points + 22 twins
    assert len(res.model.mesh.vertices) == len(cylinders.mesh.vertices) + 3 + 44


def test_reversed_script_mirrors_the_path(cylinders):
    fwd = run_bundled_style_tear(cylinders)
    rev = tear(
        cylinders, [radial(0.0, 20 * STEP), radial(1.0, 3 * STEP)], delta=0.0
    )
    f = [np.asarray(q.position) for q in fwd.paths[0].points]
    b = [np.asarray(q.position) for q in rev.paths[0].points]
    assert len(f) == len(b)
    for qf, qb in zip(f, reversed(b)):
        assert np.max(np.abs(qf - qb)) < 1e-9


def test_tear_needs_two_states(cylinders):
    with pytest.raises(ValueError, match="two scalpel states"):
        tear(cylinders, [radial(0.0, 3 * STEP)])


# ---------------------------------------------------------------- chained tears


def stroke(theta, step, z, dz):
    """Radial scalpel states through the cylinders wall, turning by step per state."""
    states = [radial(0.0, theta, z=z)]
    for k, shift in enumerate(dz, start=1):
        theta += step
        z += shift
        states.append(radial(float(k), theta, z=z))
    return states


strokes = st.builds(
    stroke,
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-1.6, 1.6),
    st.floats(1.0, 19.0),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
)


def bent(model):
    """The model keyed at t=1 with every child bone turned and scaled."""
    q = tuple(from_axis_angle((0.0, 1.0, 0.0), 0.6))
    for b in model.bones:
        if b.parent is not None:
            model = generate_keyframe(model, "bent", b.id, Trs(b.bind.translation, q, 1.2), 1.0)
    return model


def sound_tear(model, states, delta):
    """The torn model, checked sound; None if the tear raises a typed error."""
    try:
        plain = tear(model, states, delta=delta).model
    except MvskinError:
        return None
    validate_model(plain)
    assert max(len(w) for w in plain.weights) <= 4
    posed = bent(plain)
    pose = global_pose_at(posed, "bent", 1.0)
    for backend in SKIN_BACKENDS.values():
        assert np.all(np.isfinite(backend(posed, pose).positions))
    return plain


@settings(max_examples=40, deadline=None)
@given(strokes, strokes)
# the first tear leaves a sliver (face 23) that _face_hit's barycentric test
# accepts for the second stroke's last state with a point 0.04 below it
@example(
    first=stroke(0.49575626805476697, 0.0, 1.0, [-0.0963665769125499, -0.1015625]),
    second=stroke(0.49575626805476697, 0.0, 1.0, [-0.09765625, -0.0963665769125499]),
)
def test_tear_then_tear_stays_sound(cylinders, first, second):
    # delta = 0 leaves the first slit closed: its twins coincide
    torn = sound_tear(cylinders, first, 0.0)
    if torn is not None:
        sound_tear(torn, second, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.3, 0.3),
    st.floats(-0.3, 0.3),
    st.floats(2.0, 18.0),
    strokes,
    st.sampled_from([None, 0.0, 0.3]),
)
def test_cut_then_tear_stays_sound(cylinders, tx, ty, z, states, delta):
    n = np.array([tx, ty, 1.0]) / np.linalg.norm([tx, ty, 1.0])
    res = cut(cylinders, make_plane(tuple(n), float(n[2] * z)))
    for half in (res.m1, res.m2):
        if len(half.mesh.faces):
            sound_tear(half, states, delta)


# ---------------------------------------------------------------- batched apply passes


def recorded_passes(mp):
    """Record the inputs and results of _apply_paths' two batched passes."""
    seen = {"slivers": [], "sides": []}
    clear_of_slivers, sides = tear_module._clear_of_slivers, tear_module._sides

    def recorded_slivers(corners):
        clear = clear_of_slivers(corners)
        seen["slivers"].append((corners, clear))
        return clear

    def recorded_sides(lifted, plane):
        out = sides(lifted, plane)
        seen["sides"].append((lifted, plane, out))
        return out

    mp.setattr(tear_module, "_clear_of_slivers", recorded_slivers)
    mp.setattr(tear_module, "_sides", recorded_sides)
    return seen


def counted_apply(mp):
    """Count the cross products and plane_distances calls made while _apply_paths runs.

    A cross product is a call of np.cross or of the 3-vector tear._cross.
    """
    counts = {"cross": 0, "plane_distances": 0}
    inside = []
    apply, cross, distances = tear_module._apply_paths, np.cross, tear_module.plane_distances
    vector_cross = tear_module._cross

    def counted(*args, **kwargs):
        inside.append(True)
        try:
            return apply(*args, **kwargs)
        finally:
            inside.pop()

    def counter(name, fn):
        def call(*args, **kwargs):
            counts[name] += bool(inside)
            return fn(*args, **kwargs)

        return call

    mp.setattr(tear_module, "_apply_paths", counted)
    mp.setattr(np, "cross", counter("cross", cross))
    mp.setattr(tear_module, "_cross", counter("cross", vector_cross))
    mp.setattr(tear_module, "plane_distances", counter("plane_distances", distances))
    return counts


tear_cases = st.one_of(
    st.tuples(
        st.just("arm"),
        st.builds(lambda seed, n: list(arm_strokes(seed, n)), st.integers(0, 2**32 - 1), st.integers(2, 3)),
    ),
    st.tuples(st.just("cylinders"), strokes),
)


@settings(max_examples=30, deadline=None)
@given(tear_cases)
def test_batched_passes_agree_with_the_scalar_tests(cylinders, arm, case):
    name, states = case
    with pytest.MonkeyPatch.context() as mp:
        seen = recorded_passes(mp)
        try:
            tear({"arm": arm, "cylinders": cylinders}[name], states, delta=0.0)
        except MvskinError:
            pass
    for corners, clear in seen["slivers"]:
        for (a, b, c), sure in zip(corners, clear.tolist()):
            if sure:
                assert sliver_passes(a, b, c)
    for lifted, plane, sides in seen["sides"]:
        for corners, side in zip(lifted[..., :3], sides.tolist()):
            if side:
                assert left_of(corners, plane) == (side > 0)


def test_batched_passes_leave_non_finite_children_to_the_scalar_tests():
    ok = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    far = [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]
    inf = [[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]]
    corners = np.array([ok, far, inf])
    with np.errstate(all="ignore"):
        lifted = up_block(corners.reshape(-1, 3)).reshape(-1, 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clear = _clear_of_slivers(corners)
        sides = _sides(lifted, make_plane((0.0, 0.0, 1.0), -1.0))
    assert clear.tolist() == [True, False, False]
    assert sides.tolist() == [1, 0, 0]
    # the scalar tests see the overflow as they did before the passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            sliver_passes(*corners[1])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(width=64), min_size=3, max_size=3),
    st.lists(st.floats(width=64), min_size=3, max_size=3),
)
def test_vector_cross_has_the_bits_of_np_cross(a, b):
    # _face_hit, build_tear_plane and the scalar sliver test form their
    # cross products as Python floats
    a, b = np.array(a), np.array(b)
    with np.errstate(all="ignore"):
        want = np.cross(a, b)
    assert tear_module._cross(a, b).tobytes() == want.tobytes()


def test_bundled_arm_tear_makes_no_per_child_numpy_calls(arm, monkeypatch):
    doc = json.loads(bundled_script_path("arm_tear.json").read_text())
    (act,) = [a for a in validate_script(arm, doc) if a["action"] == "tear"]
    seen = recorded_passes(monkeypatch)
    counts = counted_apply(monkeypatch)
    res = tear(arm, act["states"], delta=act["delta"])
    undecided = sum(int(np.count_nonzero(out == 0)) for _, _, out in seen["sides"])
    unsure = sum(int(np.count_nonzero(~clear)) for _, clear in seen["slivers"])
    # before the batched passes: 172 plane_distances and 116 np.cross calls
    assert counts["plane_distances"] <= len(res.paths) + undecided
    assert counts["cross"] <= 1 + unsure
    assert len(seen["slivers"]) == 1 and len(seen["sides"]) == len(res.paths)


def test_bbox_diagonal_of_a_mesh_is_that_of_its_vertices(cylinders, arm):
    torn = run_bundled_style_tear(cylinders, delta=0.3).model.mesh
    for mesh in (cylinders.mesh, arm.mesh, torn):
        assert bbox_diagonal(mesh).hex() == bbox_diagonal(mesh.vertices).hex()
        assert bbox_diagonal(mesh) is mesh.bbox_diagonal  # computed once
