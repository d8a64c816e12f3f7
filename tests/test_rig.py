"""Rig data model: fixtures, validation, JSON round trips, OBJ export."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mvskin.quaternions as quat
from mvskin.algebra import transform_points
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
    mesh_area,
    model_from_dict,
    save_rig,
    trs_matrix,
    trs_versor,
    validate_mesh,
    validate_model,
)


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
    for _ in range(200):
        t = random_trs(rng)
        m = trs_matrix(t)
        img_m = pts @ m[:3, :3].T + m[:3, 3]
        img_v = transform_points(trs_versor(t), pts)
        assert np.max(np.abs(img_m - img_v)) < 1e-9


def test_compose_and_invert_match_matrix_algebra():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b = random_trs(rng), random_trs(rng)
        assert np.allclose(trs_matrix(compose_trs(a, b)), trs_matrix(a) @ trs_matrix(b), atol=1e-10)
        inv = decompose_conformal_matrix(np.linalg.inv(trs_matrix(a)))
        assert np.allclose(trs_matrix(compose_trs(a, inv)), np.eye(4), atol=1e-10)


def test_decompose_conformal_matrix_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        t = random_trs(rng)
        back = decompose_conformal_matrix(trs_matrix(t))
        assert np.allclose(trs_matrix(back), trs_matrix(t), atol=1e-12)
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


# ---------------------------------------------------------------------------
# model validation


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
        "offset_matrix": trs_matrix(trs).tolist(),
        "bind_trs": doc["bones"][1]["bind_trs"],
    }
    loaded = model_from_dict(doc)
    assert np.allclose(trs_matrix(loaded.bones[1].offset), trs_matrix(trs), atol=1e-12)

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
SPECIAL_COORDINATES = np.array([-0.0, 0.1, 5e-324, -2.2250738585072e-309, 1e308, -1e308])


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(ROW_COUNTS, ROW_COUNTS, st.integers(0, 2**32 - 1))
def test_export_obj_matches_per_line_writer(tmp_path, n_vertices, n_faces, seed):
    rng = np.random.default_rng(seed)
    shape = (n_vertices, 3)
    any_double = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    special = rng.choice(SPECIAL_COORDINATES, size=shape)
    vertices = np.where(rng.random(shape) < 0.5, special, any_double)
    faces = rng.integers(0, 2 ** rng.integers(1, 41), size=(n_faces, 3))
    mesh = Mesh(vertices, faces)
    export_obj(mesh, tmp_path / "blocks.obj")
    export_obj_by_line(mesh, tmp_path / "lines.obj")
    assert (tmp_path / "blocks.obj").read_bytes() == (tmp_path / "lines.obj").read_bytes()


def test_export_obj_is_deterministic(tmp_path):
    mesh = make_cylinders_model().mesh
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, a)
    export_obj(mesh, b)
    assert a.read_bytes() == b.read_bytes()


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
