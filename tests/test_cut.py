"""Planar cutting: classification, seam construction, and half assembly."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskin.algebra import (
    geometric_product,
    make_plane,
    make_rotor,
    make_translator,
)
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
from mvskin.errors import MvskinError, NonManifoldCut
from mvskin.rig import (
    IDENTITY_TRS,
    Bone,
    Mesh,
    RiggedModel,
    Trs,
    bbox_diagonal,
    make_cylinders_model,
    validate_model,
)
from mvskin.quaternions import from_axis_angle
from mvskin.section import Section, section_eps
from mvskin.tear import tear

import cut_oracle
from cga_oracle import sandwich, transform_points
from mesh_helpers import mesh_area, seam_vertices


def one_bone_model(verts, faces):
    mesh = Mesh(np.asarray(verts, dtype=np.float64), np.asarray(faces, dtype=np.int64))
    bones = (Bone(0, None, IDENTITY_TRS, IDENTITY_TRS),)
    weights = tuple(((0, 1.0),) for _ in range(len(mesh.vertices)))
    return RiggedModel(mesh, bones, weights, {})


@pytest.fixture(scope="module")
def cylinders():
    return make_cylinders_model()


def undirected_edges(faces):
    """Each undirected edge (lo, hi) of the faces, once."""
    return {
        (min(u, v), max(u, v))
        for a, b, c in np.asarray(faces).tolist()
        for u, v in ((a, b), (b, c), (c, a))
    }


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- classification


# The cut classifies through mvskin.section; these pin that rule.

# bbox corners that fix eps for single probe points inside [-50, 50]^3
FRAME = np.array([[-100.0, -100.0, -100.0], [100.0, 100.0, 100.0]])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=6, max_size=6),
    st.floats(-10, 10),
)
def test_classification_matches_euclidean_signed_distance(flat, d):
    n = np.asarray(flat[:3])
    if np.linalg.norm(n) < 1e-3:
        n = np.array([1.0, 0.0, 0.0])
    n = unit(n)
    p = np.asarray(flat[3:]).reshape(1, 3)
    plane = make_plane(tuple(n), d)
    section = Section(Mesh(np.vstack([p, FRAME]), ()), plane)
    eps = section_eps(FRAME)
    want = float((p @ n)[0]) - d
    if abs(want) > 2.0 * eps:
        assert section.signs[0] == (1 if want > 0 else -1)
        assert np.array_equal(section.work[0], p[0])
    elif abs(want) < 0.5 * eps:
        assert section.signs[0] == 1


def test_classification_eps_defaults_to_bbox_scale(cylinders):
    # the z=0 boundary ring sits exactly on this plane and shifts to +1
    plane = make_plane((0.0, 0.0, 1.0), 0.0)
    verts = cylinders.mesh.vertices
    section = Section(cylinders.mesh, plane)
    eps = 1e-9 * bbox_diagonal(cylinders.mesh)
    assert section_eps(cylinders.mesh) == eps
    ring = np.abs(verts[:, 2]) < 1e-12
    assert ring.sum() == 255
    assert np.all(section.signs == 1)
    assert np.allclose(section.work[ring, 2], 2.0 * eps, rtol=1e-6, atol=0.0)
    assert np.array_equal(section.work[~ring], verts[~ring])
    # so the plane misses the mesh: no seam, the model stays whole as M1
    res = cut(cylinders, plane)
    assert res.cut_points == ()
    assert res.m1 is cylinders and len(res.m2.mesh.vertices) == 0


def test_zero_normal_plane_rejected(cylinders):
    from mvskin.algebra import Multivector

    bad = Multivector(np.zeros(32))
    with pytest.raises(ValueError, match="zero normal"):
        Section(cylinders.mesh, bad)
    with pytest.raises(ValueError, match="zero normal"):
        cut(cylinders, bad)


# ---------------------------------------------------------------- cut points


def test_cut_point_count_matches_edge_scan(cylinders):
    mesh = cylinders.mesh
    for n, d in (((0.0, 0.0, 1.0), 10.0), (unit((1.0, 0.5, 2.0)), 6.0)):
        plane = make_plane(tuple(n), d)
        points = cut(cylinders, plane).cut_points
        dist = mesh.vertices @ np.asarray(n) - d
        crossing = sum(1 for (lo, hi) in undirected_edges(mesh.faces) if dist[lo] * dist[hi] < 0)
        assert len(points) == crossing
        assert len({cp.edge for cp in points}) == len(points)
        assert [cp.ordinal for cp in points] == list(range(len(points)))


def test_cut_points_lie_on_plane_with_interior_lambda(cylinders):
    n = unit((0.3, -0.2, 1.0))
    plane = make_plane(tuple(n), 7.0)
    eps = 1e-9 * bbox_diagonal(cylinders.mesh)
    points = cut(cylinders, plane).cut_points
    assert points
    for cp in points:
        assert 0.0 < cp.lam < 1.0
        assert abs(np.asarray(cp.position) @ n - 7.0) < eps


def test_cut_point_weights_come_from_edge_endpoints(cylinders):
    res = cut(cylinders, make_plane((0.0, 0.0, 1.0), 7.5))
    assert res.cut_points
    for cp in res.cut_points:
        lo, hi = cp.edge
        host = {b for b, _ in cylinders.weights[lo]} | {b for b, _ in cylinders.weights[hi]}
        rows = [
            half.weights[len(half.mesh.vertices) - len(res.cut_points) + cp.ordinal]
            for half in (res.m1, res.m2)
        ]
        assert rows[0] == rows[1]
        bones = [b for b, _ in rows[0]]
        assert set(bones) <= host
        assert len(bones) <= 4
        assert abs(math.fsum(w for _, w in rows[0]) - 1.0) < 1e-9
        assert all(w > 0 for _, w in rows[0])


# ---------------------------------------------------------------- retriangulation


def original_faces(half, n_cut):
    """The half's faces whose corners are all original vertices, in order."""
    n_orig = len(half.mesh.vertices) - n_cut
    return [f for f in half.mesh.faces.tolist() if max(f) < n_orig]


def test_uncut_faces_pass_through_unchanged(cylinders):
    res = cut(cylinders, make_plane((0.0, 0.0, 1.0), 100.0))
    assert np.array_equal(res.m1.mesh.faces, cylinders.mesh.faces)
    # under a real cut, each face off the plane keeps its corners, winding
    # and scan order in its half; only crossed faces gain seam vertices
    res = cut(cylinders, make_plane((0.0, 0.0, 1.0), 10.0))
    v = cylinders.mesh.vertices
    above = v[:, 2] > 10.0
    for half, side in ((res.m1, True), (res.m2, False)):
        want = [v[f].tolist() for f in cylinders.mesh.faces if np.all(above[f] == side)]
        got = [half.mesh.vertices[f].tolist() for f in original_faces(half, len(res.cut_points))]
        assert got == want


def test_cut_face_becomes_three_children(cylinders):
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    res = cut(cylinders, plane)
    n_faces = len(res.m1.mesh.faces) + len(res.m2.mesh.faces)
    dist = cylinders.mesh.vertices[:, 2] - 10.0
    crossed = sum(
        1
        for f in cylinders.mesh.faces
        if len({dist[v] > 0 for v in f}) == 2
    )
    assert n_faces == len(cylinders.mesh.faces) + 2 * crossed


# In the one-triangle models below vertex 0 is the lone vertex, below the
# plane: M2 holds it as vertex 0 and the seam as 1, 2; M1 holds vertices
# 1, 2 as 0, 1 and the seam as 2, 3.  Cut points are edge (0, 1) first,
# edge (0, 2) second.


def test_quad_split_prefers_shorter_diagonal():
    # lone vertex far on one side; quad diagonals have distinct lengths
    model = one_bone_model(
        [(0.0, 0.0, -1.0), (4.0, 0.0, 1.0), (-1.0, 0.0, 1.0)], [(0, 1, 2)]
    )
    plane = make_plane((0.0, 0.0, 1.0), 0.0)
    res = cut(model, plane)
    assert len(res.cut_points) == 2
    pa, pb = (np.asarray(cp.position) for cp in res.cut_points)
    v = model.mesh.vertices
    d_pa_b = np.linalg.norm(pa - v[2])
    d_a_pb = np.linalg.norm(v[1] - pb)
    assert d_pa_b < d_a_pb
    assert res.m2.mesh.faces.tolist() == [[0, 1, 2]]
    # (pa, 1, 2), (pa, 2, pb) in the original numbering
    assert res.m1.mesh.faces.tolist() == [[2, 0, 1], [2, 1, 3]]


def test_quad_split_tie_is_deterministic():
    # symmetric triangle: both quad diagonals equal, first-diagonal split wins
    model = one_bone_model(
        [(0.0, 0.0, 0.0), (2.0, 0.0, 1.0), (-2.0, 0.0, 1.0)], [(0, 1, 2)]
    )
    plane = make_plane((0.0, 0.0, 1.0), 0.5)
    res = cut(model, plane)
    assert res.m2.mesh.faces.tolist() == [[0, 1, 2]]
    assert res.m1.mesh.faces.tolist() == [[2, 0, 1], [2, 1, 3]]


def strip_model():
    """Three unit quads in a row, two faces each: faces 0..5 from x = 0 to 3."""
    verts = [[i, j, 0.0] for i in range(4) for j in range(2)]
    faces = [f for i in range(3) for f in ([2 * i, 2 * i + 2, 2 * i + 1], [2 * i + 1, 2 * i + 2, 2 * i + 3])]
    return one_bone_model(verts, faces)


@pytest.mark.parametrize(
    "normal, d, m1_faces, m2_faces",
    [
        # only face 0 is crossed: its children come first on both sides
        (
            (1.0, 1.0, 0.0), 0.5,
            [[7, 1, 0], [7, 0, 8], [0, 1, 2], [1, 3, 2], [2, 3, 4], [3, 5, 4], [4, 5, 6]],
            [[0, 1, 2]],
        ),
        # only the last face is crossed: its children come last
        (
            (1.0, 1.0, 0.0), 3.5,
            [[0, 2, 1]],
            [[0, 2, 1], [1, 2, 3], [2, 4, 3], [3, 4, 5], [4, 6, 5], [8, 5, 6], [8, 6, 7]],
        ),
        # every face is crossed: each face's children in place, in emission order
        (
            (0.0, 1.0, 0.0), 0.5,
            [[0, 5, 4], [6, 1, 4], [1, 0, 4], [1, 6, 7], [8, 2, 7], [2, 1, 7], [2, 8, 9], [10, 3, 9], [3, 2, 9]],
            [[5, 0, 4], [0, 1, 4], [1, 6, 4], [6, 1, 7], [1, 2, 7], [2, 8, 7], [8, 2, 9], [2, 3, 9], [3, 10, 9]],
        ),
    ],
)
def test_halves_list_faces_in_parent_order(normal, d, m1_faces, m2_faces):
    n = unit(normal)
    res = cut(strip_model(), make_plane(tuple(n), d / np.linalg.norm(normal)))
    assert res.m1.mesh.faces.tolist() == m1_faces
    assert res.m2.mesh.faces.tolist() == m2_faces


def test_children_keep_parent_winding():
    model = one_bone_model(
        [(0.0, 0.0, -1.0), (3.0, 0.0, 1.0), (-1.0, 0.0, 2.0)], [(0, 1, 2)]
    )
    plane = make_plane((0.0, 0.0, 1.0), 0.0)
    res = cut(model, plane)
    v = model.mesh.vertices
    parent_n = np.cross(v[1] - v[0], v[2] - v[0])
    children = 0
    for half in (res.m1, res.m2):
        ext = half.mesh.vertices
        for tri in half.mesh.faces:
            child_n = np.cross(ext[tri[1]] - ext[tri[0]], ext[tri[2]] - ext[tri[0]])
            assert np.dot(child_n, parent_n) > 0
            children += 1
    assert children == 3


@pytest.fixture(scope="module")
def oracle_models():
    return cut_oracle.models()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.sampled_from(cut_oracle.PLANE_KINDS), st.integers(0, 2**64 - 1))
def test_cut_matches_the_per_face_oracle(oracle_models, which, kind, seed):
    # the array split against the per-face loop (tests/cut_oracle.py) on both
    # fixtures and a cut half of each: both halves' bytes and row maps, the
    # cut points and the polylines; tests/cut_sweep.py runs more planes
    model = oracle_models[which]
    plane = cut_oracle.random_plane(np.random.default_rng(seed), model, kind)
    assert cut_oracle.outcome(cut, model, plane) == cut_oracle.outcome(cut_oracle.cut, model, plane)


def test_oracle_planes_reach_both_diagonals_and_near_ties(oracle_models):
    # on every model the property's planes split quads along the first
    # diagonal, along the second, and along the first by the 1e-9 near-tie
    # rule (horizontal planes through a tube's band)
    for model in oracle_models:
        seen = Counter()
        for seed in range(8):
            for kind in cut_oracle.PLANE_KINDS:
                diagonals = []
                cut_oracle.cut(model, cut_oracle.random_plane(np.random.default_rng(seed), model, kind), diagonals)
                seen.update(diagonals)
        assert set(seen) == {"first", "second", "near tie"}


def test_a_plane_between_components_splits_no_face():
    # the plane parts the vertices but crosses no face: the array split runs
    # on empty arrays, and each half keeps its component whole
    verts = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, -1.0), (0.0, 1.0, -1.0)]
    model = one_bone_model(verts, [(0, 1, 2), (3, 4, 5)])
    plane = make_plane((0.0, 0.0, 1.0), 0.0)
    res = cut(model, plane)
    assert res.cut_points == () and res.polylines == ()
    assert res.m1.mesh.faces.tolist() == res.m2.mesh.faces.tolist() == [[0, 1, 2]]
    assert cut_oracle.outcome(cut, model, plane) == cut_oracle.outcome(cut_oracle.cut, model, plane)


# ---------------------------------------------------------------- polylines


def adjacency_oracle(mesh, points):
    by_edge = {cp.edge: cp.ordinal for cp in points}
    links = set()
    for face in mesh.faces:
        here = []
        for k in range(3):
            u, v = int(face[k]), int(face[(k + 1) % 3])
            key = (u, v) if u < v else (v, u)
            if key in by_edge:
                here.append(by_edge[key])
        if len(here) == 2:
            links.add(frozenset(here))
    return links


def test_interior_cut_yields_one_closed_chain(cylinders):
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    res = cut(cylinders, plane)
    assert len(res.polylines) == 1
    chain = res.polylines[0]
    assert len(chain) == len(res.cut_points)
    links = adjacency_oracle(cylinders.mesh, res.cut_points)
    for a, b in zip(chain, chain[1:]):
        assert frozenset((a.ordinal, b.ordinal)) in links
    # closed: the ends are adjacent too
    assert frozenset((chain[-1].ordinal, chain[0].ordinal)) in links


def test_axial_cut_yields_two_open_chains(cylinders):
    plane = make_plane((1.0, 0.0, 0.0), 0.0)
    res = cut(cylinders, plane)
    assert len(res.polylines) == 2
    links = adjacency_oracle(cylinders.mesh, res.cut_points)
    degree = {}
    for pair in links:
        for o in pair:
            degree[o] = degree.get(o, 0) + 1
    for chain in res.polylines:
        for a, b in zip(chain, chain[1:]):
            assert frozenset((a.ordinal, b.ordinal)) in links
        # open: both ends touch the mesh boundary, not each other
        assert degree[chain[0].ordinal] == 1
        assert degree[chain[-1].ordinal] == 1
        assert chain[0].ordinal < chain[-1].ordinal


def test_nonmanifold_cut_edge_is_reported():
    # three faces share the crossing edge (0, 1)
    verts = [
        (0.0, 0.0, -1.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, -1.0),
        (0.0, 1.0, -1.0),
        (-1.0, -1.0, -1.0),
    ]
    faces = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    mesh = Mesh(np.asarray(verts), np.asarray(faces))
    model = RiggedModel(
        mesh,
        (Bone(0, None, IDENTITY_TRS, IDENTITY_TRS),),
        tuple(((0, 1.0),) for _ in verts),
        {},
    )
    plane = make_plane((0.0, 0.0, 1.0), 0.0)
    with pytest.raises(NonManifoldCut, match=r"edge \(0, 1\) borders 3 faces"):
        cut(model, plane)


# ---------------------------------------------------------------- full cuts


def test_missed_plane_is_a_no_op(cylinders):
    for d in (100.0, -100.0):
        res = cut(cylinders, make_plane((0.0, 0.0, 1.0), d))
        assert res.m1 is cylinders
        assert len(res.m2.mesh.vertices) == 0
        assert len(res.m2.mesh.faces) == 0
        assert res.polylines == ()
        assert res.cut_points == ()
        assert seam_vertices(res.m1, res.cut_points) == seam_vertices(res.m2, res.cut_points) == {}


def test_halves_partition_area_and_validate(cylinders):
    total = mesh_area(cylinders.mesh)
    for n, d in (
        ((0.0, 0.0, 1.0), 10.0),
        ((0.0, 0.0, 1.0), 8.0),  # straight through a vertex ring
        (tuple(unit((1.0, 0.5, 2.0))), 6.0),
        ((1.0, 0.0, 0.0), 0.5),
    ):
        res = cut(cylinders, make_plane(n, d))
        validate_model(res.m1)
        validate_model(res.m2)
        got = mesh_area(res.m1.mesh) + mesh_area(res.m2.mesh)
        assert abs(got - total) / total < 1e-6


def test_halves_hold_all_originals_plus_seam(cylinders):
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    res = cut(cylinders, plane)
    n_cut = len(res.cut_points)
    n1, n2 = len(res.m1.mesh.vertices), len(res.m2.mesh.vertices)
    assert n1 + n2 == len(cylinders.mesh.vertices) + 2 * n_cut
    # original vertices keep their exact positions
    orig = {tuple(v) for v in cylinders.mesh.vertices}
    kept1 = sum(1 for v in res.m1.mesh.vertices if tuple(v) in orig)
    kept2 = sum(1 for v in res.m2.mesh.vertices if tuple(v) in orig)
    assert kept1 == n1 - n_cut
    assert kept2 == n2 - n_cut


def test_on_plane_vertices_keep_their_positions(cylinders):
    # the z=8 ring lies on the plane; it is displaced only for classification
    plane = make_plane((0.0, 0.0, 1.0), 8.0)
    res = cut(cylinders, plane)
    ring = cylinders.mesh.vertices[np.abs(cylinders.mesh.vertices[:, 2] - 8.0) < 1e-12]
    m1 = {tuple(v) for v in res.m1.mesh.vertices}
    assert all(tuple(v) in m1 for v in ring)


def test_provenance_reconstructs_seam_positions(cylinders):
    plane = make_plane(tuple(unit((0.2, 0.1, 1.0))), 9.0)
    res = cut(cylinders, plane)
    for half in (res.m1, res.m2):
        mapping = seam_vertices(half, res.cut_points)
        assert len(mapping) == len(res.cut_points)
        for idx, (lo, hi, lam) in mapping.items():
            want = (1 - lam) * cylinders.mesh.vertices[lo] + lam * cylinders.mesh.vertices[hi]
            assert np.allclose(half.mesh.vertices[idx], want, atol=1e-12)


def test_no_face_straddles_the_plane(cylinders):
    n = unit((0.4, -0.3, 1.0))
    plane = make_plane(tuple(n), 11.0)
    res = cut(cylinders, plane)
    eps = 1e-9 * bbox_diagonal(cylinders.mesh)
    for half, side in ((res.m1, 1.0), (res.m2, -1.0)):
        d = half.mesh.vertices @ n - 11.0
        for f in half.mesh.faces:
            assert all(side * d[v] > -eps for v in f)


def test_cut_commutes_with_rigid_motion(cylinders):
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    rotor = make_rotor(tuple(unit((1.0, 2.0, 2.0))), 0.7)
    versor = geometric_product(make_translator((1.0, -2.0, 3.0)), rotor)
    moved = RiggedModel(
        Mesh(transform_points(versor, cylinders.mesh.vertices), cylinders.mesh.faces),
        cylinders.bones,
        cylinders.weights,
        cylinders.clips,
    )
    res_a = cut(cylinders, plane)
    res_b = cut(moved, sandwich(versor, plane))
    # identical combinatorics
    assert np.array_equal(res_a.m1.mesh.faces, res_b.m1.mesh.faces)
    assert np.array_equal(res_a.m2.mesh.faces, res_b.m2.mesh.faces)
    assert [cp.edge for cp in res_a.cut_points] == [cp.edge for cp in res_b.cut_points]
    lam_a = np.array([cp.lam for cp in res_a.cut_points])
    lam_b = np.array([cp.lam for cp in res_b.cut_points])
    assert np.max(np.abs(lam_a - lam_b)) < 1e-9
    # cutting then moving matches moving then cutting
    for half_a, half_b in ((res_a.m1, res_b.m1), (res_a.m2, res_b.m2)):
        want = transform_points(versor, half_a.mesh.vertices)
        assert np.max(np.abs(want - half_b.mesh.vertices)) < 1e-9


def test_halves_still_deform_under_a_clip(cylinders):
    plane = make_plane((0.0, 0.0, 1.0), 10.0)
    res = cut(cylinders, plane)
    posed = res.m1
    posed = generate_keyframe(
        posed,
        "demo",
        1,
        Trs((13.0, 0.0, 20.0 / 3.0), tuple(np.array([math.cos(0.35), 0.0, math.sin(0.35) / math.sqrt(2), math.sin(0.35) / math.sqrt(2)])), 0.5),
        1.0,
    )
    posed = generate_keyframe(posed, "demo", 2, Trs((0.0, 0.0, 20.0 / 3.0), (1.0, 0.0, 0.0, 0.0), 1.0), 1.0)
    pose = global_pose_at(posed, "demo", 1.0)
    for backend in (skin_cga, skin_lbs, skin_dq):
        frame = backend(posed, pose)
        assert np.all(np.isfinite(frame.positions))
    # and the untouched half as well
    bind = global_pose_at(res.m2, None, 0.0)
    assert np.all(np.isfinite(skin_cga(res.m2, bind).positions))


def test_second_cut_of_a_half_still_works(cylinders):
    first = cut(cylinders, make_plane((0.0, 0.0, 1.0), 10.0))
    second = cut(first.m1, make_plane(tuple(unit((1.0, 0.0, 0.2))), 0.3))
    validate_model(second.m1)
    validate_model(second.m2)
    total = mesh_area(first.m1.mesh)
    got = mesh_area(second.m1.mesh) + mesh_area(second.m2.mesh)
    assert abs(got - total) / total < 1e-6


# ---------------------------------------------------------------- chained cuts


@pytest.fixture(scope="module")
def torn(cylinders):
    """cylinders after the tear of the bundled cylinders_tear.json."""
    doc = json.loads(bundled_script_path("cylinders_tear.json").read_text())
    act = validate_script(cylinders, doc)[0]
    model = tear(cylinders, act["states"], delta=act["delta"]).model
    assert len(model.mesh.vertices) > len(cylinders.mesh.vertices)
    return model


# a plane: unnormalized normal, offset in half bbox diagonals from the centre
planes = st.tuples(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda n: np.linalg.norm(n) > 1e-3),
    st.floats(-1.2, 1.2),
)


def plane_through(model, normal, t):
    v = model.mesh.vertices
    n = unit(normal)
    centre = 0.5 * (v.min(axis=0) + v.max(axis=0))
    return make_plane(tuple(n), float(n @ centre) + t * 0.5 * bbox_diagonal(v))


def bent(model):
    """The model keyed at t=1 with every child bone turned and scaled."""
    q = tuple(from_axis_angle((0.0, 1.0, 0.0), 0.6))
    for b in model.bones:
        if b.parent is not None:
            model = generate_keyframe(model, "bent", b.id, Trs(b.bind.translation, q, 1.2), 1.0)
    return model


def sound_halves(model, plane):
    """The non-empty halves of a cut, each checked sound; none if the cut raises typed."""
    try:
        res = cut(model, plane)
    except MvskinError:
        return []
    halves = [h for h in (res.m1, res.m2) if len(h.mesh.faces)]
    for half in halves:
        validate_model(half)
        assert max(len(w) for w in half.weights) <= 4
        posed = bent(half)
        pose = global_pose_at(posed, "bent", 1.0)
        for backend in SKIN_BACKENDS.values():
            assert np.all(np.isfinite(backend(posed, pose).positions))
    return halves


@settings(max_examples=60, deadline=None)
@given(planes, planes)
def test_cut_then_cut_stays_sound(cylinders, first, second):
    for half in sound_halves(cylinders, plane_through(cylinders, *first)):
        sound_halves(half, plane_through(half, *second))


@settings(max_examples=60, deadline=None)
@given(planes)
def test_tear_then_cut_stays_sound(torn, plane):
    sound_halves(torn, plane_through(torn, *plane))
