"""Scalpel tears: anchors, tear planes, path tracing, duplication, opening."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskin.algebra import make_plane, plane_distances
from mvskin.animate import (
    SKIN_BACKENDS,
    generate_keyframe,
    global_pose_at,
    skin_cga,
    skin_dq,
    skin_lbs,
)
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
    Trs,
    bbox_diagonal,
    make_arm_model,
    make_cylinders_model,
    mesh_area,
    validate_model,
)
from mvskin.tear import (
    FaceBVH,
    ScalpelState,
    TearAnchor,
    _face_hit,
    build_tear_plane,
    open_tear,
    scalpel_hit,
    tear,
    trace_surface_path,
)

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
            try:
                a = scalpel_hit(mesh, state)
            except NoIntersection:
                with pytest.raises(NoIntersection):
                    scalpel_hit(mesh, state, bvh)
                continue
            except AmbiguousIntersection as exc:
                with pytest.raises(AmbiguousIntersection) as exc2:
                    scalpel_hit(mesh, state, bvh)
                assert exc2.value.count == exc.count
                continue
            b = scalpel_hit(mesh, state, bvh)
            assert a.face == b.face
            assert a.point == b.point
            assert a.bary == b.bary


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
        assert scalpel_hit(mesh, state).face in candidates.tolist()
        assert scalpel_hit(mesh, state, bvh) == scalpel_hit(mesh, state)


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


# ---------------------------------------------------------------- apply/open


def run_bundled_style_tear(model, m_from=3, m_to=20, delta=0.0):
    return tear(model, [radial(0.0, m_from * STEP), radial(1.0, m_to * STEP)], delta=delta)


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


def test_sliver_collapse_pins_tear_at_original_vertex(cylinders):
    # the first anchor lies 2e-14 from corner 286 of face 348, so its fan
    # leaves a zero-area child and the anchor merges into that corner
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
    with pytest.raises(ValueError, match="non-negative"):
        open_tear(res.model, res.paths[0], -0.1)
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


def test_accelerated_tear_matches_linear(cylinders):
    plain = run_bundled_style_tear(cylinders, delta=0.0)
    fast = tear(
        cylinders,
        [radial(0.0, 3 * STEP), radial(1.0, 20 * STEP)],
        delta=0.0,
        accel=True,
    )
    assert np.array_equal(plain.model.mesh.vertices, fast.model.mesh.vertices)
    assert np.array_equal(plain.model.mesh.faces, fast.model.mesh.faces)


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
    """The torn model, checked sound; None if the tear raises a typed error.

    The face filter must give the same model as the scan, or the same
    error type.
    """
    try:
        plain = tear(model, states, delta=delta).model
    except MvskinError as exc:
        with pytest.raises(MvskinError) as fast_exc:
            tear(model, states, delta=delta, accel=True)
        assert type(fast_exc.value) is type(exc)
        return None
    fast = tear(model, states, delta=delta, accel=True).model
    assert np.array_equal(plain.mesh.vertices, fast.mesh.vertices)
    assert np.array_equal(plain.mesh.faces, fast.mesh.faces)
    assert plain.weights == fast.weights
    validate_model(plain)
    assert max(len(w) for w in plain.weights) <= 4
    posed = bent(plain)
    pose = global_pose_at(posed, "bent", 1.0)
    for backend in SKIN_BACKENDS.values():
        assert np.all(np.isfinite(backend(posed, pose).positions))
    return plain


@settings(max_examples=40, deadline=None)
@given(strokes, strokes)
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
