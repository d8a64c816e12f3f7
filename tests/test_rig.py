"""Rig data model: fixtures, validation, JSON round trips, OBJ export."""

import dataclasses
import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mvskin.quaternions as quat
import mvskin.rig as rig
from mvskin import _objtext
from mvskin.algebra import Multivector, make_plane
from mvskin.cli import bundled_script_path
from mvskin.cut import cut
from mvskin.errors import (
    HierarchyError,
    MeshError,
    MvskinError,
    NonConformalMatrix,
    OffsetError,
    SchemaError,
    WeightSumError,
)
from mvskin.rig import (
    Bone,
    IDENTITY_TRS,
    Mesh,
    RiggedModel,
    Trs,
    TrsKey,
    bbox_diagonal,
    compose_trs,
    decompose_conformal_matrix,
    dump_rig,
    export_obj,
    load_rig,
    make_arm_model,
    make_cylinders_model,
    model_from_dict,
    save_rig,
    trs_matrices,
    trs_rows,
    trs_versors,
    validate_mesh,
    validate_model,
)
from mvskin.tear import ScalpelState, tear
from mvskin.weights import SkinWeights

from cga_oracle import transform_points
from mesh_helpers import mesh_area


def boundary_edge_count(faces):
    """Undirected edges used by exactly one face."""
    edges = np.sort(np.asarray(faces)[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return int(np.sum(counts == 1))


def random_trs(rng, scale_spread=0.5):
    q = quat.normalize(rng.normal(size=4))
    return Trs(
        tuple(float(x) for x in rng.normal(size=3) * 3),
        tuple(float(x) for x in q),
        float(np.exp(rng.normal() * scale_spread)),
    )


def tiny_model(clips=None):
    """Two-triangle strip bound to a two-bone chain along +z."""
    vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]]
    faces = [[0, 1, 2], [2, 1, 3]]
    bones = (
        Bone(0, None, IDENTITY_TRS, IDENTITY_TRS),
        Bone(1, 0, Trs(translation=(0, 0, -1)), Trs(translation=(0, 0, 1))),
    )
    weights = (((0, 1.0),), ((0, 1.0),), ((0, 0.5), (1, 0.5)), ((1, 1.0),))
    model = RiggedModel(Mesh(vertices, faces), bones, weights, clips or {})
    validate_model(model)
    return model


# ---------------------------------------------------------------------------
# TRS helpers


def test_trs_matrix_versor_agree_on_points():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3)) * 4
    rows = trs_rows([random_trs(rng) for _ in range(200)])
    for v, m in zip(trs_versors(*rows), trs_matrices(*rows)):
        img_m = pts @ m[:3, :3].T + m[:3, 3]
        img_v = transform_points(Multivector(v), pts)
        assert np.max(np.abs(img_m - img_v)) < 1e-9


def test_compose_and_invert_match_matrix_algebra():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b = random_trs(rng), random_trs(rng)
        ab, a_m, b_m = trs_matrices(*trs_rows([compose_trs(a, b), a, b]))
        assert np.allclose(ab, a_m @ b_m, atol=1e-10)
        inv = decompose_conformal_matrix(np.linalg.inv(a_m))
        assert np.allclose(trs_matrices(*trs_rows([compose_trs(a, inv)]))[0], np.eye(4), atol=1e-10)


FINITE = st.floats(-1e6, 1e6, allow_subnormal=True)


@given(
    st.tuples(FINITE, FINITE, FINITE),
    st.tuples(FINITE, FINITE, FINITE, FINITE).filter(lambda q: 0.0 < math.hypot(*q) < math.inf),
    st.floats(1e-3, 1e3),
    st.tuples(FINITE, FINITE, FINITE),
)
# a quaternion whose sum of squares underflows to 0, which quat.normalize rejects
@example(ta=(0.0, 0.0, 0.0), qa=(0.0, 0.0, 0.0, 1.0296503864647544e-189), sa=1.0, tb=(1.0, 2.0, 3.0))
def test_compose_trs_translation_has_the_bytes_of_quat_rotate(ta, qa, sa, tb):
    a, b = Trs(ta, qa, sa), Trs(translation=tb)

    def outcome(translation):
        try:
            return np.array(translation()).tobytes()
        except ValueError as exc:
            return str(exc)

    expected = outcome(lambda: np.asarray(ta) + sa * quat.rotate(quat.normalize(qa), tb))
    assert outcome(lambda: compose_trs(a, b).translation) == expected


def test_decompose_conformal_matrix_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        t = random_trs(rng)
        m = trs_matrices(*trs_rows([t]))[0]
        back = decompose_conformal_matrix(m)
        assert np.allclose(trs_matrices(*trs_rows([back]))[0], m, atol=1e-12)
        assert back.rotation[0] >= 0  # canonical hemisphere


def test_decompose_conformal_matrix_rejects_non_conformal():
    shear = np.eye(4)
    shear[0, 1] = 0.3
    with pytest.raises(NonConformalMatrix):
        decompose_conformal_matrix(shear)
    reflect = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NonConformalMatrix):
        decompose_conformal_matrix(reflect)
    nonuniform = np.diag([1.0, 2.0, 1.0, 1.0])
    with pytest.raises(NonConformalMatrix):
        decompose_conformal_matrix(nonuniform)
    projective = np.eye(4)
    projective[3, 0] = 0.1
    with pytest.raises(NonConformalMatrix):
        decompose_conformal_matrix(projective)


# ---------------------------------------------------------------------------
# mesh validation


def test_mesh_arrays_are_read_only_and_coerced():
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert m.vertices.dtype == np.float64 and m.faces.dtype == np.int64
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_validate_mesh_accepts_fixture_and_empty():
    validate_mesh(Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))
    validate_mesh(make_cylinders_model().mesh)


def test_validate_mesh_rejects_degenerate_face():
    with pytest.raises(MeshError, match="repeats a vertex"):
        validate_mesh(Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]]))


def test_validate_mesh_rejects_out_of_range_index():
    with pytest.raises(MeshError, match="out of range"):
        validate_mesh(Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]]))
    with pytest.raises(MeshError, match="out of range: mesh has 3 vertices but face 1 references -1"):
        validate_mesh(Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 1, -1]]))


def test_validate_mesh_rejects_inconsistent_winding():
    # two faces traverse edge (0, 1) in the same direction
    mesh = Mesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0]],
        [[0, 1, 2], [0, 1, 3]],
    )
    with pytest.raises(MeshError, match="directed edge"):
        validate_mesh(mesh)


def test_validate_mesh_rejects_nonfinite_vertex():
    with pytest.raises(MeshError, match="non-finite"):
        validate_mesh(Mesh([[0, 0, np.nan], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]))


def validate_mesh_by_loop(mesh):
    """Reference for validate_mesh: one Python pass over the faces in order."""
    v, f = mesh.vertices, mesh.faces
    if len(v) and not np.all(np.isfinite(v)):
        raise MeshError("mesh has non-finite vertex coordinates")
    for fi, face in enumerate(f.tolist()):
        for index in face:
            if not 0 <= index < len(v):
                raise MeshError(
                    f"face index out of range: mesh has {len(v)} vertices "
                    f"but face {fi} references {index}"
                )
    directed = set()
    for fi, (a, b, c) in enumerate(f.tolist()):
        if a == b or b == c or a == c:
            raise MeshError(f"face {fi} repeats a vertex: {(a, b, c)}")
        for key in ((a, b), (b, c), (c, a)):
            if key in directed:
                raise MeshError(
                    f"directed edge {key} appears twice (face {fi}); mesh is "
                    "non-manifold or inconsistently wound"
                )
            directed.add(key)


def mesh_check_outcome(check, mesh):
    try:
        check(mesh)
    except MvskinError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def small_soups(draw):
    n = draw(st.integers(1, 8))
    faces = draw(st.lists(st.lists(st.integers(-1, n), min_size=3, max_size=3), max_size=12))
    vertices = draw(arrays(np.float64, (n, 3), elements=st.floats(-2, 2)))
    return Mesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))


@settings(max_examples=200, deadline=None)
@given(small_soups())
def test_validate_mesh_matches_loop_on_small_soups(mesh):
    want = mesh_check_outcome(validate_mesh_by_loop, mesh)
    assert mesh_check_outcome(validate_mesh, mesh) == want


FIXTURE_MESHES = {"cylinders": make_cylinders_model().mesh, "arm": make_arm_model().mesh}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(FIXTURE_MESHES)),
    st.sampled_from(["none", "repeat", "edge"]),
    st.data(),
)
def test_validate_mesh_matches_loop_on_fixtures(name, injected, data):
    mesh = FIXTURE_MESHES[name]
    faces = mesh.faces.copy()
    k = data.draw(st.integers(0, len(faces) - 1))
    if injected == "repeat":
        faces[k, data.draw(st.integers(1, 2))] = faces[k, 0]
    elif injected == "edge":
        j = data.draw(st.integers(0, len(faces) - 1))
        faces[k, :2] = faces[j, :2]
    injected_mesh = Mesh(mesh.vertices, faces)
    want = mesh_check_outcome(validate_mesh_by_loop, injected_mesh)
    assert mesh_check_outcome(validate_mesh, injected_mesh) == want
    if injected == "none":
        assert want is None


def test_mesh_area_and_bbox():
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert mesh_area(m) == pytest.approx(0.5)
    assert bbox_diagonal(m) == pytest.approx(math.sqrt(2))
    assert mesh_area(Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))) == 0.0


@pytest.mark.parametrize("corner", [(1e300, 1e300, 1e300), (1e300, 0.0, 0.0), (1e160, -3e159, 2e155)])
def test_bbox_diagonal_of_a_mesh_wider_than_the_float_range_squared(corner):
    # |extent|^2 overflows though the extent itself is finite
    v = np.array([corner, [-x for x in corner]])
    assert bbox_diagonal(v) == pytest.approx(math.hypot(*(2.0 * v[0])), rel=1e-15)


def test_bbox_diagonal_of_an_extent_beyond_the_float_range_is_inf_without_a_warning():
    # cylinders_tear.json opened by a delta of 1.7e308 leaves vertices at
    # z = +-1.7e308: max - min overflows, and the diagonal, longer still, too
    v = np.array([[2.0, 1.9, 1.7e308], [-2.0, -1.9, -1.7e308], [0.0, 0.0, 0.0]])
    assert bbox_diagonal(v) == math.inf
    assert bbox_diagonal(0.5 * v) == pytest.approx(math.hypot(2.0, 1.9, 1.7e308), rel=1e-15)
    assert bbox_diagonal(np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]])) == math.inf


# ---------------------------------------------------------------------------
# model validation


def test_bone_lookup_by_id():
    m = make_arm_model()
    for b in m.bones:
        assert m.bone(b.id) is b
    assert m.bone(np.int64(1)) is m.bones[1]
    for bad in (99, -1, "1", [1]):
        with pytest.raises(KeyError, match="no bone with id"):
            m.bone(bad)
    # equal ids resolve to the first bone, as a scan in order would
    twin = RiggedModel(m.mesh, (Bone(0, None), Bone(1, 0), Bone(1, None)), m.weights)
    assert twin.bone(1) is twin.bones[1]


def test_validate_model_accepts_tiny():
    tiny_model()


def test_hierarchy_errors():
    m = tiny_model()
    bad = RiggedModel(m.mesh, (m.bones[0],) + (Bone(1, 5, m.bones[1].offset, m.bones[1].bind),), m.weights)
    with pytest.raises(HierarchyError, match="unknown parent"):
        validate_model(bad)
    two_roots = RiggedModel(m.mesh, (m.bones[0], Bone(1, None)), m.weights)
    with pytest.raises(HierarchyError, match="exactly one root"):
        validate_model(two_roots)
    dup = RiggedModel(m.mesh, (m.bones[0], Bone(0, None)), m.weights)
    with pytest.raises(HierarchyError, match="duplicate bone ids"):
        validate_model(dup)
    cycle = RiggedModel(
        m.mesh,
        (m.bones[0], Bone(1, 2), Bone(2, 1)),
        m.weights,
    )
    with pytest.raises(HierarchyError, match="cycle"):
        validate_model(cycle)


def test_unknown_parent_above_a_lower_id_is_typed():
    # bone 1 hangs from bone 2, whose parent does not exist
    m = make_cylinders_model()
    b1, b2 = m.bones[1], m.bones[2]
    bones = (m.bones[0], Bone(1, 2, b1.offset, b1.bind), Bone(2, 99, b2.offset, b2.bind))
    with pytest.raises(HierarchyError, match="bone 2 has unknown parent 99"):
        validate_model(RiggedModel(m.mesh, bones, m.weights))


def test_negative_bone_id_rejected_at_load():
    # -1 marks an empty slot in the packed influence table, and cut and
    # tear reject negative ids, so the loader must stop them first
    doc = dump_rig(make_cylinders_model())
    for bone in doc["bones"]:
        if bone["id"] == 2:
            bone["id"] = -5
    for entry in doc["weights"]:
        for pair in entry:
            if pair[0] == 2:
                pair[0] = -5
    with pytest.raises(HierarchyError, match="bone -5"):
        model_from_dict(doc)


def test_root_must_bind_at_identity():
    m = tiny_model()
    bones = (Bone(0, None, IDENTITY_TRS, Trs(translation=(1, 0, 0))), m.bones[1])
    with pytest.raises(HierarchyError, match="root bone 0"):
        validate_model(RiggedModel(m.mesh, bones, m.weights))


def test_offset_must_invert_global_bind():
    m = tiny_model()
    bones = (m.bones[0], Bone(1, 0, Trs(translation=(0, 0, -2)), Trs(translation=(0, 0, 1))))
    with pytest.raises(OffsetError, match="bone 1"):
        validate_model(RiggedModel(m.mesh, bones, m.weights))


def _bone_defects():
    """(name, bones of the cylinders fixture with one defect, error type, message)."""
    b0, b1, b2 = make_cylinders_model().bones
    replace = dataclasses.replace
    nan = float("nan")
    return [
        ("duplicate id", (b0, b1, replace(b2, id=1)), HierarchyError, "duplicate bone ids: [0, 1, 1]"),
        ("negative id", (b0, b1, replace(b2, id=-5)), HierarchyError, "bone -5: bone ids must be nonnegative"),
        ("two roots", (b0, b1, replace(b2, parent=None)), HierarchyError,
         "skeleton must have exactly one root, found 2"),
        ("unknown parent", (b0, b1, replace(b2, parent=99)), HierarchyError, "bone 2 has unknown parent 99"),
        ("parent cycle", (b0, replace(b1, parent=2), b2), HierarchyError, "bone parentage cycle through bone 1"),
        ("non-finite offset translation", (b0, replace(b1, offset=replace(b1.offset, translation=(nan, 0.0, 0.0))), b2),
         SchemaError, "bone 1 offset: bad translation (nan, 0.0, 0.0)"),
        ("non-unit bind quaternion", (b0, replace(b1, bind=replace(b1.bind, rotation=(2.0, 0.0, 0.0, 0.0))), b2),
         SchemaError, "bone 1 bind: rotation_quat is not unit length"),
        ("zero scale", (b0, b1, replace(b2, offset=replace(b2.offset, scale=0.0))), SchemaError,
         "bone 2 offset: scale must be a positive number, got 0.0"),
        ("root bind off the identity", (replace(b0, bind=Trs(translation=(1.0, 0.0, 0.0))), b1, b2), HierarchyError,
         "root bone 0 must bind at the identity"),
        ("offset not inverting", (b0, b1, replace(b2, offset=Trs(translation=(0.0, 0.0, -2.0)))), OffsetError,
         "bone 2: offset does not invert the global bind transform"),
    ]


def _cylinders_tear_states():
    doc = json.loads(bundled_script_path("cylinders_tear.json").read_text(encoding="utf-8"))
    return [ScalpelState(s["time"], tuple(s["tip"]), tuple(s["tail"])) for s in doc["actions"][0]["states"]]


def _raised(call, *args):
    with pytest.raises(MvskinError) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name, bones, kind, message", _bone_defects(), ids=[c[0] for c in _bone_defects()])
def test_a_bone_defect_raises_alike_on_the_model_its_halves_and_its_tear(name, bones, kind, message):
    # a failed bone check is not remembered: the halves and the torn model
    # share the defective tuple, and each raises the same error again
    m = make_cylinders_model()
    model = RiggedModel(m.mesh, bones, m.weights, m.clips)
    states = _cylinders_tear_states()
    assert _raised(validate_model, model) == (kind, message)
    assert _raised(cut, model, make_plane((0.0, 0.0, 1.0), 10.0)) == (kind, message)
    assert _raised(tear, model, states) == (kind, message)
    assert _raised(validate_model, model) == (kind, message)
    # a bad mesh is still named before bad bones
    vertices = m.mesh.vertices.copy()
    vertices[5] = np.nan
    with pytest.raises(MeshError, match="non-finite"):
        validate_model(RiggedModel(Mesh(vertices, m.mesh.faces), bones, m.weights))


def test_a_bones_tuple_is_checked_once_for_every_model_on_it(monkeypatch):
    calls = []
    check = rig._check_trs_fields

    def counted(trs, where):
        calls.append(where)
        check(trs, where)

    monkeypatch.setattr(rig, "_check_trs_fields", counted)
    m = make_cylinders_model()
    assert len(calls) == 2 * len(m.bones)
    calls.clear()
    res = cut(m, make_plane((0.0, 0.0, 1.0), 4.0))
    states = _cylinders_tear_states()  # a stroke at z = 10, in the upper half
    tear(m, states)
    tear(res.m1, states)
    assert calls == []
    # an equal but distinct tuple has a skeleton of its own, checked in full
    twin = RiggedModel(m.mesh, tuple(list(m.bones)), m.weights, m.clips)
    assert twin.bones == m.bones and twin.bones is not m.bones
    validate_model(twin)
    assert len(calls) == 2 * len(m.bones)


def test_weight_validation_errors():
    m = tiny_model()

    def with_weights(w):
        return RiggedModel(m.mesh, m.bones, w, {})

    base = list(m.weights)
    with pytest.raises(WeightSumError, match="cover 3 vertices"):
        validate_model(with_weights(tuple(base[:3])))
    bad = base[:]
    bad[0] = ((0, 0.5), (1, 0.6))
    with pytest.raises(WeightSumError, match="vertex 0 weights sum"):
        validate_model(with_weights(tuple(bad)))
    bad[0] = ((0, -0.2), (1, 1.2))
    with pytest.raises(WeightSumError, match="invalid weight"):
        validate_model(with_weights(tuple(bad)))
    bad[0] = ((7, 1.0),)
    with pytest.raises(WeightSumError, match="unknown bone 7"):
        validate_model(with_weights(tuple(bad)))
    bad[0] = ((0, 0.5), (0, 0.5))
    with pytest.raises(WeightSumError, match="twice"):
        validate_model(with_weights(tuple(bad)))
    bad[0] = tuple((b, 0.2) for b in range(5))
    with pytest.raises(WeightSumError, match="limit 4"):
        validate_model(with_weights(tuple(bad)))
    bad[0] = ()
    with pytest.raises(WeightSumError, match="no influences"):
        validate_model(with_weights(tuple(bad)))


def per_vertex_weight_check(weights, known):
    """validate_model's weight checks as a plain loop over (bone, w) tuples."""
    for vi, entry in enumerate(weights):
        if len(entry) == 0:
            raise WeightSumError(f"vertex {vi} has no influences")
        if len(entry) > 4:
            raise WeightSumError(f"vertex {vi} has {len(entry)} influences (limit 4)")
        bones_seen = set()
        total = math.fsum(w for _, w in entry)
        for bone_id, w in entry:
            if bone_id not in known:
                raise WeightSumError(f"vertex {vi} references unknown bone {bone_id}")
            if bone_id in bones_seen:
                raise WeightSumError(f"vertex {vi} lists bone {bone_id} twice")
            bones_seen.add(bone_id)
            if not (math.isfinite(w) and w >= 0.0):
                raise WeightSumError(f"vertex {vi} has invalid weight {w!r} on bone {bone_id}")
        if abs(total - 1.0) > 1e-6:
            raise WeightSumError(f"vertex {vi} weights sum to {total!r}, not 1")


def corrupt(entry, kind, pick, value):
    """One weight corruption of a vertex's (bone, w) tuple."""
    k = pick % len(entry)
    if kind == "empty":
        return ()
    if kind == "five":
        return tuple((b, 0.2) for b in (0, 1, 2, value % 5 + 3, 9))
    if kind == "bone":  # an unknown or negative bone
        return entry[:k] + ((value, entry[k][1]),) + entry[k + 1:]
    if kind == "repeat":
        b, w = entry[k]
        return entry[:k] + ((b, 0.5 * w), (b, 0.5 * w)) + entry[k + 1:]
    if kind == "weight":
        return entry[:k] + ((entry[k][0], value),) + entry[k + 1:]
    if kind == "negative":  # the sum stays 1
        return ((0, -value), (1, 1.0 + value))
    # sum: the last weight makes the total 1 +/- 1e-6, or one ulp either side
    rest = math.fsum(w for _, w in entry[:-1])
    target = (1.0 + 1e-6) if value > 0 else (1.0 - 1e-6)
    target = [math.nextafter(target, -2.0), target, math.nextafter(target, 2.0)][abs(value) % 3]
    return entry[:-1] + ((entry[-1][0], target - rest),)


CORRUPTION = st.one_of(
    st.tuples(st.just("empty"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("five"), st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.just("bone"), st.integers(0, 3), st.sampled_from([-1, -5, 3, 7, 2**40])),
    st.tuples(st.just("repeat"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("weight"), st.integers(0, 3),
              st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1e-300, 0.0, 1.0])),
    st.tuples(st.just("negative"), st.integers(0, 3), st.sampled_from([5e-324, 1e-300, 0.2])),
    st.tuples(st.just("sum"), st.integers(0, 3), st.integers(-3, 3).filter(bool)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.tuples(st.integers(0, 633), CORRUPTION), min_size=1, max_size=4,
             unique_by=lambda c: c[0])
)
def test_validate_model_names_the_same_bad_vertex_as_a_per_vertex_loop(corruptions):
    # a row the table cannot hold (five pairs, bone -1) fails when the model
    # is built, ahead of any other bad row, so it comes first in vertex order
    def unstorable(c):
        kind, _, value = c[1]
        return kind == "five" or (kind == "bone" and value == -1)

    corruptions = sorted(corruptions)
    corruptions = [c for c in corruptions[:1] if unstorable(c)] + [
        c for c in corruptions if not unstorable(c)
    ]
    m = make_cylinders_model()
    weights = list(m.weights)
    for vi, (kind, pick, value) in corruptions:
        weights[vi] = corrupt(weights[vi], kind, pick, value)

    def outcome(check):
        try:
            check()
        except WeightSumError as exc:
            return type(exc), str(exc)
        return None

    known = {b.id for b in m.bones}
    want = outcome(lambda: per_vertex_weight_check(weights, known))
    got = outcome(lambda: validate_model(RiggedModel(m.mesh, m.bones, tuple(weights))))
    assert got == want


def _screen_cases():
    """(name, ids, ws) of one 4-slot weight row per kind the exact checks reject, or nearly do."""
    cases = [
        ("unknown bone", [0, 7, -1, -1], [0.5, 0.5, 0.0, 0.0]),
        ("bone past the lookup table", [0, 2**62, -1, -1], [0.5, 0.5, 0.0, 0.0]),
        ("bone -2", [0, -2, -1, -1], [0.5, 0.5, 0.0, 0.0]),
        ("int64 maximum", [2**63 - 1, 1, -1, -1], [0.5, 0.5, 0.0, 0.0]),
        ("int64 minimum", [-(2**63), 1, -1, -1], [0.5, 0.5, 0.0, 0.0]),
        ("no influences", [-1, -1, -1, -1], [0.0, 0.0, 0.0, 0.0]),
        ("weight in an empty slot", [0, -1, -1, -1], [0.5, 0.5, 0.0, 0.0]),
    ]
    for i, j in zip([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]):
        others = iter([1, 2])  # bone 0 in slots i and j, bones 1 and 2 in the others
        ids = [0 if k in (i, j) else next(others) for k in range(4)]
        cases.append((f"bone twice in slots {i} and {j}", ids, [0.25] * 4))
    for w in (math.nan, math.inf, -math.inf, -0.25, -1e-300):
        rest = 0.5 - w if math.isfinite(w) else 0.5  # a finite negative weight keeps the sum at 1
        cases.append((f"weight {w!r}", [0, 1, 2, -1], [0.5, w, rest, 0.0]))
    for target in (1.0 + 1e-6, 1.0 - 1e-6):
        for t in (math.nextafter(target, 0.0), target, math.nextafter(target, 2.0)):
            cases.append((f"sum {t!r}", [0, 1, -1, -1], [0.5, t - 0.5, 0.0, 0.0]))
    return cases


@pytest.mark.parametrize("name, row_ids, row_ws", _screen_cases(), ids=[c[0] for c in _screen_cases()])
def test_weight_screen_names_the_first_row_the_exact_checks_reject(name, row_ids, row_ws):
    # the row goes to vertices 5 and 200 of the cylinders, whose bones are 0, 1 and 2
    m = make_cylinders_model()
    ids, ws = m.weights.ids.copy(), m.weights.ws.copy()
    ids[[5, 200]], ws[[5, 200]] = row_ids, row_ws
    weights = SkinWeights(ids, ws)

    def outcome(check):
        try:
            check()
        except WeightSumError as exc:
            return type(exc), str(exc)
        return None

    want = outcome(lambda: per_vertex_weight_check(list(weights), {b.id for b in m.bones}))
    assert outcome(lambda: validate_model(RiggedModel(m.mesh, m.bones, weights))) == want
    assert want is None or "vertex 5 " in want[1]


def test_weight_screen_passes_known_bones_past_its_lookup_table():
    # bone 2 renumbered past the table: its rows go to the exact checks, which accept them
    m = make_cylinders_model()
    far = 2**40
    bones = m.bones[:2] + (dataclasses.replace(m.bones[2], id=far),)
    ids = np.where(m.weights.ids == 2, far, m.weights.ids)
    validate_model(RiggedModel(m.mesh, bones, SkinWeights(ids.copy(), m.weights.ws.copy())))
    ids[7, 0] = far + 1
    with pytest.raises(WeightSumError, match=f"vertex 7 references unknown bone {far + 1}"):
        validate_model(RiggedModel(m.mesh, bones, SkinWeights(ids, m.weights.ws.copy())))


def test_clip_validation_errors():
    keys = (TrsKey(0.0), TrsKey(1.0, translation=(1, 0, 0)))
    tiny_model({"ok": {1: keys}})
    with pytest.raises(SchemaError, match="unknown bone"):
        tiny_model({"bad": {9: keys}})
    with pytest.raises(SchemaError, match="strictly increase"):
        tiny_model({"bad": {1: (TrsKey(1.0), TrsKey(1.0))}})
    with pytest.raises(SchemaError, match="empty key list"):
        tiny_model({"bad": {1: ()}})
    with pytest.raises(SchemaError, match="not unit length"):
        tiny_model({"bad": {1: (TrsKey(0.0, rotation=(2.0, 0, 0, 0)),)}})
    with pytest.raises(SchemaError, match="scale must be a positive"):
        tiny_model({"bad": {1: (TrsKey(0.0, scale=-1.0),)}})


# ---------------------------------------------------------------------------
# JSON schema


def test_dump_load_round_trip_in_memory():
    clips = {"wave": {1: (TrsKey(0.0), TrsKey(0.5, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 2.0))}}
    model = tiny_model(clips)
    again = model_from_dict(dump_rig(model))
    assert again == model


def test_save_load_round_trip_on_disk(tmp_path):
    model = tiny_model({"c": {1: (TrsKey(0.25, (0.1, 0.2, 0.3)),)}})
    path = tmp_path / "rig.json"
    save_rig(model, path)
    assert load_rig(path) == model


def test_fixture_round_trip():
    model = make_cylinders_model()
    assert model_from_dict(dump_rig(model)) == model


def test_unknown_fields_rejected():
    doc = dump_rig(tiny_model())
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="unknown field"):
        model_from_dict(doc)
    doc = dump_rig(tiny_model())
    doc["bones"][0]["color"] = "red"
    with pytest.raises(SchemaError, match="bone #0"):
        model_from_dict(doc)
    doc = dump_rig(tiny_model())
    doc["bones"][1]["bind_trs"]["shear"] = 0.5
    with pytest.raises(SchemaError, match="bind_trs"):
        model_from_dict(doc)
    doc = dump_rig(tiny_model({"c": {1: (TrsKey(0.0),)}}))
    doc["clips"]["c"][0]["keys"][0]["pivot"] = [0, 0, 0]
    with pytest.raises(SchemaError, match="unknown field"):
        model_from_dict(doc)
    doc = dump_rig(tiny_model({"c": {1: (TrsKey(0.0),)}}))
    doc["clips"]["c"][0]["easing"] = "cubic"
    with pytest.raises(SchemaError, match="track #0"):
        model_from_dict(doc)


def test_zero_bone_quaternion_is_typed():
    # checked before the bind versors compose, which cannot normalize it
    for field in ("bind_trs", "offset_trs"):
        doc = dump_rig(make_cylinders_model())
        doc["bones"][1][field]["rotation_quat"] = [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="bone 1 (bind|offset)"):
            model_from_dict(doc)


def test_normalize_takes_one_quaternion():
    assert np.array_equal(quat.normalize([2.0, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0])
    # a stack would be divided by its Frobenius norm, not row by row
    for bad in ([[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]], [1.0, 0.0, 0.0], 1.0):
        with pytest.raises(ValueError, match="shape \\(4,\\)"):
            quat.normalize(bad)


def test_schema_version_and_required_fields():
    doc = dump_rig(tiny_model())
    doc["rig_version"] = 2
    with pytest.raises(SchemaError, match="rig_version"):
        model_from_dict(doc)
    doc = dump_rig(tiny_model())
    del doc["weights"]
    with pytest.raises(SchemaError, match="missing required field 'weights'"):
        model_from_dict(doc)


def test_schema_key_requires_time():
    doc = dump_rig(tiny_model({"c": {1: (TrsKey(0.0),)}}))
    del doc["clips"]["c"][0]["keys"][0]["t"]
    with pytest.raises(SchemaError, match="needs a time 't'"):
        model_from_dict(doc)


def test_offset_matrix_accepted_and_checked():
    model = tiny_model()
    doc = dump_rig(model)
    trs = model.bones[1].offset
    doc["bones"][1] = {
        "id": 1,
        "parent": 0,
        "offset_matrix": trs_matrices(*trs_rows([trs]))[0].tolist(),
        "bind_trs": doc["bones"][1]["bind_trs"],
    }
    loaded = model_from_dict(doc)
    offsets = trs_matrices(*trs_rows([loaded.bones[1].offset, trs]))
    assert np.allclose(offsets[0], offsets[1], atol=1e-12)

    doc["bones"][1]["offset_matrix"][0][1] = 0.4  # shear
    with pytest.raises(NonConformalMatrix, match="bone 1"):
        model_from_dict(doc)

    doc["bones"][1]["offset_trs"] = doc["bones"][0]["offset_trs"]
    with pytest.raises(SchemaError, match="exclusive"):
        model_from_dict(doc)


def test_trs_defaults_fill_in():
    doc = dump_rig(tiny_model())
    doc["bones"][0]["offset_trs"] = {}
    doc["bones"][0]["bind_trs"] = {"scale": 1.0}
    model = model_from_dict(doc)
    assert model.bones[0].offset == IDENTITY_TRS


def test_load_rig_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_rig(path)


@pytest.mark.parametrize(
    "key, rows",
    [
        ("faces", [[0, 1, 2], [2, 1, 0.7]]),  # loaded as vertex 0
        ("faces", [[0, 1, 2], [2, 1, 2**70]]),  # OverflowError
        ("faces", [0, 1, 2, 2, 1, 3]),  # loaded as two rows
        ("faces", [[0, 1, 2], [2, True, 3]]),
        ("vertices", [[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 10**400]]),  # OverflowError
        ("vertices", [0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]),  # loaded as four rows
        ("vertices", [[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, "1"]]),
        ("vertices", [[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, False]]),
    ],
)
def test_geometry_rows_must_be_numeric_triples(key, rows):
    doc = dump_rig(tiny_model())
    doc[key] = rows
    with pytest.raises(SchemaError, match=f"rig: malformed {key}"):
        model_from_dict(doc)


def clipped_doc():
    return dump_rig(tiny_model({"c": {1: (TrsKey(0.0), TrsKey(1.0, translation=(1, 0, 0)))}}))


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("weights", 2, 0, 0), 0.9, "vertex 2: malformed pair"),  # was read as bone 0
        (("weights", 2, 0, 1), "0.5", "vertex 2: malformed pair"),
        (("weights", 0, 0, 1), True, "vertex 0: malformed pair"),  # was read as 1.0
        (("weights", 2, 0, 0), "0", "vertex 2: malformed pair"),
        (("weights", 2, 1, 0), True, "vertex 2: malformed pair"),  # was read as bone 1
        (("bones", 1, "id"), 1.6, "bone #1: missing or malformed id"),  # was read as 1
        (("bones", 1, "parent"), "0", "bone 1: malformed parent"),
        (("clips", "c", 0, "bone"), 1.2, "track #0: missing or malformed bone"),
        (("clips", "c", 0, "keys", 0, "t"), "0.5", "key time 't' must be a number"),
        (("clips", "c", 0, "keys", 0, "scale"), "1", "key: scale must be a number"),
        (("bones", 1, "bind_trs", "translation"), [0, 0, "1"], "bind_trs: translation must be"),
    ],
)
def test_rig_fields_need_exact_json_types(path, value, match):
    doc = clipped_doc()
    model_from_dict(json.loads(json.dumps(doc)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError, match=match):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "entry, match",
    [
        ([[2**70, 1.0]], f"vertex 0 references unknown bone {2**70}"),
        ([[0, 10**400]], "vertex 0 has invalid weight"),
        ([[0, math.inf], [1, -math.inf]], "vertex 0 has invalid weight inf"),  # was fsum's ValueError
        ([[0, 1e308], [1, 1e308]], "vertex 0 weights sum to inf"),  # was fsum's OverflowError
    ],
)
def test_extreme_weights_are_typed(entry, match):
    doc = dump_rig(tiny_model())
    doc["weights"][0] = entry
    with pytest.raises(WeightSumError, match=match):
        model_from_dict(doc)


def test_malformed_geometry_fields():
    doc = dump_rig(tiny_model())
    doc["vertices"] = [[0, 0], [1, 1]]
    with pytest.raises(SchemaError, match="malformed vertices"):
        model_from_dict(doc)
    doc = dump_rig(tiny_model())
    doc["weights"][0] = [[0, 0.5, 0.5]]
    with pytest.raises(SchemaError, match="vertex 0"):
        model_from_dict(doc)


# ---------------------------------------------------------------------------
# OBJ export


def test_export_obj_exact_bytes(tmp_path):
    mesh = Mesh([[0.1, 0.0, -2.0], [1.0, 0.5, 0.0], [0.0, 1.0, 0.25]], [[0, 1, 2]])
    path = tmp_path / "tri.obj"
    export_obj(mesh, path)
    expected = (
        "v 0.10000000000000001 0 -2\n"
        "v 1 0.5 0\n"
        "v 0 1 0.25\n"
        "f 1 2 3\n"
    )
    assert path.read_text(encoding="utf-8") == expected


def export_obj_by_line(mesh, path):
    """Reference for export_obj: one write per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, z in mesh.vertices:
            fh.write("v %.17g %.17g %.17g\n" % (x, y, z))
        for a, b, c in mesh.faces:
            fh.write("f %d %d %d\n" % (a + 1, b + 1, c + 1))


ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 127, 128, 129, 300]), st.integers(0, 300))
VERTEX_ROW_COUNTS = st.one_of(ROW_COUNTS, st.sampled_from([511, 512, 513, 1100]))
SPECIAL_COORDINATES = np.array([-0.0, 0.1, 5e-324, -2.2250738585072e-309, 1e308, -1e308])


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(VERTEX_ROW_COUNTS, ROW_COUNTS, st.integers(0, 2**32 - 1))
def test_export_obj_matches_per_line_writer(tmp_path, n_vertices, n_faces, seed):
    rng = np.random.default_rng(seed)
    shape = (n_vertices, 3)
    any_double = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    special = rng.choice(SPECIAL_COORDINATES, size=shape)
    # about 3% of bit patterns fall in the kernel's fast set 1e-4 <= |x| < 1e16
    log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    vertices = np.choose(rng.choice(3, size=shape, p=[0.2, 0.3, 0.5]), [special, any_double, log_uniform])
    faces = rng.integers(0, 2 ** rng.integers(1, 41), size=(n_faces, 3))
    mesh = Mesh(vertices, faces)
    export_obj(mesh, tmp_path / "blocks.obj")
    export_obj_by_line(mesh, tmp_path / "lines.obj")
    assert (tmp_path / "blocks.obj").read_bytes() == (tmp_path / "lines.obj").read_bytes()


def _edge_coordinates():
    """Doubles where the OBJ text kernel changes branch, with their negatives."""
    values = []
    # every power of ten from 1e-5 to 1e17: the fast set 1e-4 <= |x| < 1e16 and both its ends
    for m in range(-5, 18):
        below = above = 10.0**m
        values.append(below)
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            values += [below, above]
    # their 17 digits round up to a power of ten (all outside the fast set)
    values += [1e-14, 1e-70, 1e98, 1e-305]
    # b + k * 2**-j: exactly 18 significant digits, a tie for %.17g, when b has 18 - j integer digits
    values += [b + k * 2.0**-j for j in range(1, 53) for b in (0.0, 1.0, 3.0, 12.0, 100.0, 12345.0) for k in (1, 3)]
    values += [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.inf, math.nan]
    return values + [-x for x in values]


def test_export_obj_writes_percent_17g_at_every_edge(tmp_path):
    values = _edge_coordinates()
    ties = [x for x in values if len(decimal.Decimal(x).as_tuple().digits) == 18]
    assert len(ties) > 20 and 1 + 2.0**-17 in ties  # "1.0000076293945312", the tie to even
    vertices = np.array(values + [1.0] * (-len(values) % 3)).reshape(-1, 3)
    mesh = Mesh(vertices, [[0, 1, 2]])
    export_obj(mesh, tmp_path / "edges.obj")
    expected = "".join("v %.17g %.17g %.17g\n" % tuple(row) for row in vertices.tolist()) + "f 1 2 3\n"
    assert (tmp_path / "edges.obj").read_bytes() == expected.encode("ascii")


# an int64 face index at each change of its digit count: 0, 9 | 10, 9999 |
# 10000, every 10**k - 1 | 10**k | 10**k + 1 and the int64 ends, with negatives
FACE_INDEX_EDGES = np.array(
    sorted({0, 1, 2**63 - 2, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)}), dtype=np.int64
)
NEGATIVE_FACE_INDICES = np.array([-1, -9, -10, -9999, -10000, -(10**18), -(2**63) + 1, -(2**63)], dtype=np.int64)


@pytest.mark.parametrize(
    "rows, text",
    [
        ([[0, 9, 10]], b"f 0 9 10\n"),
        ([[-1, 0, 9999]], b"f -1 0 9999\n"),
        ([[10000, 2**63 - 1, -(2**63)]], b"f 10000 9223372036854775807 -9223372036854775808\n"),
        ([[10**8, 10**12 + 1, 10**16 - 1]], b"f 100000000 1000000000001 9999999999999999\n"),
    ],
)
def test_face_lines_exact_bytes(rows, text):
    assert _objtext.face_lines(np.array(rows, dtype=np.int64)) == text


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1, 511, 512, 513, 1024, 1100]), st.integers(0, 1100)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.002, 0.3]),
)
def test_face_lines_write_percent_d_at_every_digit_count(n_faces, seed, negative):
    rng = np.random.default_rng(seed)
    rows = rng.choice(FACE_INDEX_EDGES, size=(n_faces, 3))
    flip = rng.random((n_faces, 3)) < negative
    rows[flip] = rng.choice(NEGATIVE_FACE_INDICES, size=np.count_nonzero(flip))
    chunk = _objtext.CHUNK_ROWS
    got = b"".join(_objtext.face_lines(rows[i : i + chunk]) for i in range(0, n_faces, chunk))
    assert got == "".join("f %d %d %d\n" % tuple(row) for row in rows.tolist()).encode("ascii")
    # obj_face_block writes faces + 1, in which the int64 maximum wraps to the minimum
    block = Mesh(np.zeros((1, 3)), rows).obj_face_block
    assert block == "".join("f %d %d %d\n" % tuple(row) for row in (rows + 1).tolist()).encode("ascii")


def test_export_obj_is_deterministic(tmp_path):
    mesh = make_cylinders_model().mesh
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, a)
    export_obj(mesh, b)
    assert a.read_bytes() == b.read_bytes()


def test_frames_of_one_model_share_one_face_block(tmp_path):
    model = make_cylinders_model()
    block = model.mesh.obj_face_block
    assert block == "".join("f %d %d %d\n" % tuple(f) for f in (model.mesh.faces + 1).tolist()).encode("ascii")
    rng = np.random.default_rng(7)
    for k in range(2):
        frame = model.mesh.vertices * (1.0 + k) + rng.normal(size=model.mesh.vertices.shape)
        export_obj(model.mesh, tmp_path / f"frame_{k}.obj", frame)
        export_obj_by_line(Mesh(frame, model.mesh.faces), tmp_path / f"lines_{k}.obj")
        assert (tmp_path / f"frame_{k}.obj").read_bytes() == (tmp_path / f"lines_{k}.obj").read_bytes()
        assert model.mesh.obj_face_block is block  # formatted once, on the first export


def test_export_obj_rejects_vertices_of_another_shape(tmp_path):
    mesh = make_cylinders_model().mesh
    with pytest.raises(ValueError, match="vertices must have shape"):
        export_obj(mesh, tmp_path / "bad.obj", mesh.vertices[:-1])
    assert not (tmp_path / "bad.obj").exists()


@pytest.mark.parametrize("old_size", [0, 100, 10**6])
def test_export_obj_over_an_existing_file_writes_a_fresh_export(tmp_path, old_size):
    mesh = make_cylinders_model().mesh
    export_obj(mesh, tmp_path / "fresh.obj")
    path = tmp_path / "old.obj"
    path.write_bytes(b"#" * old_size)
    export_obj(mesh, path)
    assert path.read_bytes() == (tmp_path / "fresh.obj").read_bytes()


# ---------------------------------------------------------------------------
# bundled fixtures


def test_cylinders_fixture_counts():
    m = make_cylinders_model()
    assert len(m.mesh.vertices) == 634
    assert len(m.mesh.faces) == 758
    assert len(m.bones) == 3


def test_arm_fixture_counts():
    m = make_arm_model()
    assert len(m.mesh.vertices) == 3069
    assert len(m.mesh.faces) == 5037
    assert len(m.bones) == 3


def test_fixture_boundary_edges():
    # open tubes: both ends are boundary loops made of the dense end rings
    for model, expected in ((make_cylinders_model(), 255 + 255), (make_arm_model(), 550 + 551)):
        assert boundary_edge_count(model.mesh.faces) == expected


def test_fixture_weights_are_smooth_and_valid():
    for model in (make_cylinders_model(), make_arm_model()):
        histogram = {}
        for entry in model.weights:
            histogram[len(entry)] = histogram.get(len(entry), 0) + 1
            assert abs(math.fsum(w for _, w in entry) - 1.0) < 1e-12
            assert all(w > 0 for _, w in entry)
        # fixtures exercise single, double, and triple blends
        assert set(histogram) == {1, 2, 3}


def test_fixture_normals_point_outward():
    m = make_cylinders_model()
    tri = m.mesh.vertices[m.mesh.faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    radial = tri.mean(axis=1)
    radial[:, 2] = 0.0
    assert np.all(np.einsum("ij,ij->i", normals, radial) > 0)


def test_fixture_joints_sit_on_the_axis():
    m = make_cylinders_model()
    assert m.bones[1].bind.translation == (0.0, 0.0, pytest.approx(20.0 / 3.0))
    assert m.bones[2].bind.translation == (0.0, 0.0, pytest.approx(20.0 / 3.0))


def test_fixture_serializes(tmp_path):
    path = tmp_path / "cyl.json"
    save_rig(make_cylinders_model(), path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["rig_version"] == 1
    assert len(doc["vertices"]) == 634
