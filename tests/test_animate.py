"""Keyframe interpolation, pose propagation, and the skinning backends."""

import json
import logging
import math
import random
import re
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvskin.quaternions as quat
import mvskin.rig
from mvskin.algebra import (
    Multivector,
    down_block,
    geometric_product,
    make_plane,
    up_block,
    up_points,
)
from mvskin.animate import (
    SKIN_BACKENDS,
    compare_backends,
    generate_keyframe,
    global_pose_at,
    skin_cga,
    skin_cga_sum,
    skin_dq,
    skin_lbs,
)
from mvskin.cli import validate_script
from mvskin.cut import cut
from mvskin.errors import NumericalFailure, PointAtInfinity, SchemaError
from mvskin.rig import (
    Bone,
    IDENTITY_TRS,
    Mesh,
    RiggedModel,
    Trs,
    TrsKey,
    make_arm_model,
    make_cylinders_model,
    parent_first,
    trs_matrices,
    trs_rows,
    trs_versors,
    validate_model,
)
from mvskin.tear import open_tear, tear
from mvskin.weights import SkinWeights

import blend_oracle
import dq_oracle
from cga_oracle import dense_sandwich_matrix, transform_points


def chain_model(n_bones=3, step=(0.0, 0.0, 1.0)):
    """Straight bone chain with one single-influence vertex per bone."""
    bones = [Bone(0, None, IDENTITY_TRS, IDENTITY_TRS)]
    global_t = np.zeros(3)
    for i in range(1, n_bones):
        global_t += np.asarray(step, dtype=float)
        bones.append(
            Bone(i, i - 1, Trs(translation=tuple(-global_t)), Trs(translation=tuple(step)))
        )
    vertices = [[0.1 * i, 0.0, float(i)] for i in range(n_bones)]
    extra = [[5.0, 5.0, 5.0], [5.0, 6.0, 5.0]]
    faces = []
    pts = vertices + extra
    # fan of disjoint triangles so the mesh stays manifold
    for i in range(n_bones - 2):
        faces.append([i, i + 1, i + 2] if i % 2 == 0 else [i + 2, i + 1, i])
    if not faces:
        faces = [[0, 1, 2]]
    weights = [((i % n_bones, 1.0),) for i in range(len(pts))]
    model = RiggedModel(Mesh(pts, faces), tuple(bones), tuple(weights), {})
    return model


def reversed_ids(model):
    """Copy of a model with bone ids reversed, so every child's id is below its parent's."""
    top = max(b.id for b in model.bones)
    bones = sorted(
        (
            Bone(top - b.id, None if b.parent is None else top - b.parent, b.offset, b.bind)
            for b in model.bones
        ),
        key=lambda b: b.id,
    )
    weights = tuple(tuple((top - i, w) for i, w in entry) for entry in model.weights)
    return RiggedModel(model.mesh, tuple(bones), weights, {})


def keyed(model, clip, bone, time, **trs_fields):
    return generate_keyframe(model, clip, bone, Trs(**trs_fields), time)


def global_versor(pose, bone_id):
    """A bone's global versor: its row of the pose's stacked versor chain."""
    return Multivector(pose.global_versors[pose.skeleton.rows[bone_id]])


def global_matrix(pose, bone_id):
    """A bone's global 4x4 matrix: its row of the pose's stacked matrix chain."""
    return pose.global_matrices[pose.skeleton.rows[bone_id]]


def versor_of(trs):
    return Multivector(trs_versors(*trs_rows([trs]))[0])


def matrix_of(trs):
    return trs_matrices(*trs_rows([trs]))[0]


def local_transform_at(model, clip, bone_id, time):
    """One bone's row of the pose global_pose_at interpolates, as a Trs."""
    pose = global_pose_at(model, clip, time)
    i = pose.skeleton.rows[bone_id]
    return Trs(tuple(pose.translations[i].tolist()), tuple(pose.rotations[i].tolist()), float(pose.scales[i]))


# ---------------------------------------------------------------------------
# keyframe interpolation


def test_exact_key_returns_key_exactly():
    m = make_cylinders_model()
    t1 = Trs(translation=(0.5, 0.25, 0.0), rotation=tuple(quat.from_axis_angle((0, 0, 1), 0.4)))
    m = generate_keyframe(m, "c", 1, t1, 2.0)
    m = keyed(m, "c", 1, 5.0, translation=(9.0, 0.0, 0.0))
    assert local_transform_at(m, "c", 1, 2.0) == t1


def test_clamping_outside_key_range():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, translation=(1.0, 0.0, 0.0))
    m = keyed(m, "c", 1, 2.0, translation=(3.0, 0.0, 0.0))
    assert local_transform_at(m, "c", 1, 0.0) == local_transform_at(m, "c", 1, 1.0)
    assert local_transform_at(m, "c", 1, 99.0) == local_transform_at(m, "c", 1, 2.0)


def test_translation_midpoint_lerp():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 0.0)
    m = keyed(m, "c", 1, 1.0, translation=(2.0, 0.0, 0.0))
    mid = local_transform_at(m, "c", 1, 0.5)
    assert mid.translation == (1.0, 0.0, 0.0)
    assert mid.scale == 1.0


def test_rotation_midpoint_matches_nlerp_oracle():
    theta = 0.9
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 0.0)
    m = keyed(m, "c", 1, 2.0, rotation=tuple(quat.from_axis_angle((0, 0, 1), theta)))
    mid = local_transform_at(m, "c", 1, 1.0)
    expect = quat.nlerp((1, 0, 0, 0), quat.from_axis_angle((0, 0, 1), theta), 0.5)
    assert np.allclose(mid.rotation, expect, atol=1e-15)
    # nlerp of identity and a z-rotation lands on the half-angle rotor
    half = quat.from_axis_angle((0, 0, 1), theta / 2.0)
    assert np.allclose(mid.rotation, half, atol=1e-12)


def test_hemisphere_correction_in_interpolation():
    q0 = quat.from_axis_angle((0, 0, 1), 0.2)
    q1 = -quat.from_axis_angle((0, 0, 1), 0.4)  # same rotation, far hemisphere
    m = make_cylinders_model()
    m = generate_keyframe(m, "c", 1, Trs(rotation=tuple(q0)), 0.0)
    m = generate_keyframe(m, "c", 1, Trs(rotation=tuple(q1)), 1.0)
    mid = local_transform_at(m, "c", 1, 0.5)
    expect = quat.from_axis_angle((0, 0, 1), 0.3)
    assert min(
        np.max(np.abs(np.asarray(mid.rotation) - expect)),
        np.max(np.abs(np.asarray(mid.rotation) + expect)),
    ) < 1e-12


def test_missing_track_falls_back_to_bind():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 0.0, translation=(4.0, 0.0, 0.0))
    assert local_transform_at(m, "c", 2, 0.0) == m.bone(2).bind
    assert local_transform_at(m, None, 1, 0.0) == m.bone(1).bind
    assert local_transform_at(m, "nope", 1, 0.0) == m.bone(1).bind


def test_a_model_keeps_the_clips_it_was_built_with():
    # a model freezes its clips at construction: edits to the containers it
    # was built from change none of its frames, and its own clips reject edits
    m = make_cylinders_model()
    track = [TrsKey(0.0, (1.0, 0.0, 0.0)), TrsKey(1.0, (3.0, 0.0, 0.0))]
    tracks = {1: track}
    clips = {"c": tracks}
    m = replace(m, clips=clips)
    assert local_transform_at(m, "c", 1, 0.5).translation == (2.0, 0.0, 0.0)
    track[1] = TrsKey(1.0, (5.0, 0.0, 0.0))
    tracks[2] = (TrsKey(0.0, scale=2.0),)
    clips["d"] = {1: (TrsKey(0.0, (9.0, 0.0, 0.0)),)}
    assert m.clips["c"][1] == (TrsKey(0.0, (1.0, 0.0, 0.0)), TrsKey(1.0, (3.0, 0.0, 0.0)))
    assert set(m.clips) == {"c"} and set(m.clips["c"]) == {1}
    assert local_transform_at(m, "c", 1, 0.5).translation == (2.0, 0.0, 0.0)
    assert local_transform_at(m, "c", 2, 0.5) == m.bone(2).bind
    with pytest.raises(TypeError):
        m.clips["c"][2] = (TrsKey(0.0, scale=2.0),)
    with pytest.raises(TypeError):
        m.clips["d"] = {}
    # a key is read as stored: a -0.0 keeps its sign, and a key whose fields
    # are arrays is read too
    for x in (0.0, -0.0):
        signed = replace(m, clips={"c": {1: [TrsKey(0.0), TrsKey(1.0, (x, 0.0, 0.0))]}})
        assert math.copysign(1.0, local_transform_at(signed, "c", 1, 1.0).translation[0]) == math.copysign(1.0, x)
    arrays = replace(m, clips={"c": {1: [TrsKey(0.0, (1.0, 0.0, 0.0)), TrsKey(1.0, np.array([7.0, 0.0, 0.0]))]}})
    assert local_transform_at(arrays, "c", 1, 0.5).translation == (4.0, 0.0, 0.0)


def test_scale_interpolation_is_linear():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 0.0, scale=1.0)
    m = keyed(m, "c", 1, 1.0, scale=3.0)
    assert local_transform_at(m, "c", 1, 0.25).scale == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# pose propagation


def test_two_bone_chain_translations_compose():
    m = chain_model(2)
    m = keyed(m, "c", 0, 0.0, translation=(1.0, 0.0, 0.0))
    m = keyed(m, "c", 1, 0.0, translation=(1.0, 0.0, 0.0))
    pose = global_pose_at(m, "c", 0.0)
    pts = np.array([[0.0, 0.0, 0.0], [2.0, -1.0, 3.0]])
    assert np.allclose(transform_points(global_versor(pose, 1), pts), pts + [2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(global_matrix(pose, 1)[:3, 3], [2.0, 0.0, 0.0], atol=1e-15)


def test_pose_has_entry_per_bone_and_identity_root():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 0.0, translation=(1.0, 2.0, 3.0))
    pose = global_pose_at(m, "c", 0.0)
    assert set(pose.skeleton.rows) == {0, 1, 2}
    assert pose.global_versors.shape == (3, 32) and pose.global_matrices.shape == (3, 4, 4)
    assert np.allclose(global_matrix(pose, 0), np.eye(4))
    assert global_versor(pose, 0).scalar_part == pytest.approx(1.0)


def test_parent_first_places_each_bone_once_where_ids_repeat():
    # validate_model rejects repeated ids, but poses of an unvalidated model
    # walk the skeleton too: two bones with id 1 must not place bone 2 twice
    shared = (Bone(0, None), Bone(1, 0), Bone(1, 0), Bone(2, 1))
    assert parent_first(shared) == [shared[0], shared[1], shared[2], shared[3]]
    # a bone under an id it repeats ends the walk rather than growing it forever
    looped = (Bone(0, None), Bone(1, 0), Bone(1, 1), Bone(2, 1))
    assert parent_first(looped) == [looped[0], looped[1], looped[2], looped[3]]
    m = make_cylinders_model()
    model = RiggedModel(m.mesh, looped, tuple(((0, 1.0),) for _ in m.mesh.vertices))
    for skin in SKIN_BACKENDS.values():
        assert np.allclose(skin(model, global_pose_at(model, None, 0.0)).positions, m.mesh.vertices, atol=1e-12)


def test_versor_and_matrix_twins_agree_on_random_chain():
    # the second chain lists every child before its parent (root id 4)
    for m in (chain_model(5), reversed_ids(chain_model(5))):
        validate_model(m)
        rng = np.random.default_rng(3)
        for i in range(5):
            q = quat.normalize(rng.normal(size=4))
            m = generate_keyframe(
                m,
                "c",
                i,
                Trs(tuple(rng.normal(size=3)), tuple(q), float(np.exp(rng.normal() * 0.3))),
                0.0,
            )
        pose = global_pose_at(m, "c", 0.0)
        pts = rng.normal(size=(100, 3)) * 2
        for b in range(5):
            img_v = transform_points(global_versor(pose, b), pts)
            mm = global_matrix(pose, b)
            img_m = pts @ mm[:3, :3].T + mm[:3, 3]
            assert np.max(np.abs(img_v - img_m)) < 1e-9


def test_each_backend_builds_only_its_own_chain(monkeypatch):
    # rows built by the stacked leaf builders, one row per transform
    rows = {"trs_versors": 0, "trs_matrices": 0}
    for name in rows:
        real = getattr(mvskin.rig, name)

        def counted(translations, rotations, scales, real=real, name=name):
            rows[name] += len(scales)
            return real(translations, rotations, scales)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("mvskin") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    m = keyed(make_cylinders_model(), "c", 1, 0.0, translation=(1.0, 2.0, 3.0))
    for backend, built, unread in (
        ("lbs", "trs_matrices", "trs_versors"),
        ("dq", "trs_matrices", "trs_versors"),
        ("cga", "trs_versors", "trs_matrices"),
        ("cga_sum", "trs_versors", "trs_matrices"),
    ):
        rows.update(trs_versors=0, trs_matrices=0)
        SKIN_BACKENDS[backend](m, global_pose_at(m, "c", 0.0))
        assert rows[unread] == 0, backend
        # bone offsets are built once per bone: a second frame on a new
        # pose builds only that pose's chain
        rows.update(trs_versors=0, trs_matrices=0)
        SKIN_BACKENDS[backend](m, global_pose_at(m, "c", 0.0))
        assert rows == {built: len(m.bones), unread: 0}, backend
    pose = global_pose_at(m, "c", 0.0)
    rows.update(trs_versors=0, trs_matrices=0)
    assert pose.global_versors is pose.global_versors
    assert rows == {"trs_versors": len(m.bones), "trs_matrices": 0}


def test_bind_pose_versors_act_as_bind():
    m = make_cylinders_model()
    pose = global_pose_at(m, None, 0.0)
    joint = np.array([[0.0, 0.0, 0.0]])
    img = transform_points(global_versor(pose, 2), joint)
    assert np.allclose(img, [[0.0, 0.0, 2 * 20.0 / 3.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# skinning backends


def test_bind_pose_fixed_point_all_backends():
    m = make_cylinders_model()
    pose = global_pose_at(m, None, 0.0)
    for name, fn in SKIN_BACKENDS.items():
        frame = fn(m, pose)
        assert frame.backend == name
        assert np.max(np.abs(frame.positions - m.mesh.vertices)) < 1e-9
    frame = skin_cga_sum(m, pose)
    assert np.max(np.abs(frame.positions - m.mesh.vertices)) < 1e-9


def test_single_influence_equivalence_rigid_pose():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, translation=(2.0, 1.0, 0.0),
              rotation=tuple(quat.from_axis_angle((0, 1, 0), 0.8)))
    pose = global_pose_at(m, "c", 1.0)
    single = [i for i, e in enumerate(m.weights) if len(e) == 1]
    frames = {name: fn(m, pose).positions for name, fn in SKIN_BACKENDS.items()}
    for a in ("lbs", "dq"):
        gap = np.max(np.abs(frames["cga"][single] - frames[a][single]))
        assert gap < 1e-9
    stp = skin_cga_sum(m, pose).positions
    assert np.max(np.abs(stp[single] - frames["cga"][single])) < 1e-9


def test_one_bone_translation_shifts_everything():
    m = chain_model(2)
    weights = tuple(((0, 1.0),) for _ in m.weights)
    m = RiggedModel(m.mesh, m.bones, weights, {})
    m = keyed(m, "c", 0, 0.0, translation=(3.0, -1.0, 2.0))
    pose = global_pose_at(m, "c", 0.0)
    frame = skin_lbs(m, pose)
    assert np.allclose(frame.positions, m.mesh.vertices + [3.0, -1.0, 2.0], atol=1e-12)


def top_down_model(m):
    """The same rig with vertices listed in reverse and each weight list reversed."""
    n = len(m.mesh.vertices)
    mesh = Mesh(m.mesh.vertices[::-1], (n - 1) - m.mesh.faces)
    weights = tuple(tuple(reversed(entry)) for entry in reversed(m.weights))
    return RiggedModel(mesh, m.bones, weights, m.clips)


def test_lbs_matches_straight_line_matrix_oracle():
    # the fixture lists weights in bone-id order and meets bones in id
    # order; its top-down twin does neither
    flipped = top_down_model(make_cylinders_model())
    validate_model(flipped)
    first_use = list(dict.fromkeys(b for entry in flipped.weights for b, _ in entry))
    assert first_use != sorted(first_use)
    assert any([b for b, _ in e] != sorted(b for b, _ in e) for e in flipped.weights)
    for m in (make_cylinders_model(), flipped):
        rng = np.random.default_rng(4)
        for bone in (1, 2):
            q = quat.normalize(rng.normal(size=4))
            m = generate_keyframe(
                m, "c", bone, Trs(tuple(rng.normal(size=3)), tuple(q), 1.0), 1.0
            )
        pose = global_pose_at(m, "c", 1.0)
        got = skin_lbs(m, pose).positions

        # independent straight-line evaluator
        expect = np.zeros_like(m.mesh.vertices)
        for vi, entry in enumerate(m.weights):
            v = np.append(m.mesh.vertices[vi], 1.0)
            acc = np.zeros(4)
            for bone_id, w in entry:
                mm = global_matrix(pose, bone_id) @ matrix_of(m.bone(bone_id).offset)
                acc += w * (mm @ v)
            expect[vi] = acc[:3]
        assert np.max(np.abs(got - expect)) < 1e-12


def test_cga_per_term_equals_lbs_for_exact_versor_poses():
    # per-term down-projection of conformal images is the conformal twin of
    # the matrix blend, so the two backends coincide to rounding error
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, rotation=tuple(quat.from_axis_angle((0, 1, 1), 0.7)),
              translation=(2.0, 0.0, 0.0), scale=1.3)
    pose = global_pose_at(m, "c", 1.0)
    r = compare_backends(m, pose, reference="lbs", test="cga")
    assert r["linf_rel"] < 1e-10


def test_sum_then_project_differs_on_blended_vertices():
    # rigid sandwiches keep conformal points normalized, so the two paths
    # only split when a dilation skews the projective weights
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, rotation=tuple(quat.from_axis_angle((1, 0, 0), 1.2)), scale=1.6)
    pose = global_pose_at(m, "c", 1.0)
    default = skin_cga(m, pose).positions
    projected = skin_cga_sum(m, pose).positions
    blended = [i for i, e in enumerate(m.weights) if len(e) > 1]
    assert np.max(np.abs(default[blended] - projected[blended])) > 1e-7
    assert np.all(np.isfinite(projected))


def test_dq_differs_from_lbs_near_joint_rotation():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, rotation=tuple(quat.from_axis_angle((0, 1, 1), 0.7)))
    pose = global_pose_at(m, "c", 1.0)
    r = compare_backends(m, pose, reference="lbs", test="dq")
    assert r["linf_rel"] > 1e-4  # candy-wrapper mitigation visibly moves vertices
    assert r["linf_rel"] < 0.05


def test_dq_handles_dilation_via_factored_scale():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, scale=1.5)
    pose = global_pose_at(m, "c", 1.0)
    r = compare_backends(m, pose, reference="cga", test="dq")
    assert r["linf_rel"] < 1e-12


def test_dq_translation_pose_matches_cga():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, translation=(13.0, 0.0, 0.0))
    pose = global_pose_at(m, "c", 1.0)
    r = compare_backends(m, pose, reference="cga", test="dq")
    assert r["linf_rel"] < 1e-12


def test_dq_hemisphere_pivot_on_far_rotations():
    # rotations 80 and 280 degrees about z: quaternion dot < 0, so the
    # blend must flip one sign before accumulating; the 0.5/0.5 tie is
    # listed in both orders
    frames = []
    for tie in (((0, 0.5), (1, 0.5)), ((1, 0.5), (0, 0.5))):
        m = chain_model(2)
        weights = (tie,) + tuple(((0, 1.0),) for _ in range(len(m.weights) - 1))
        m = RiggedModel(m.mesh, m.bones, weights, {})
        q80 = quat.from_axis_angle((0, 0, 1), np.deg2rad(80))
        q280 = quat.from_axis_angle((0, 0, 1), np.deg2rad(280))
        m = generate_keyframe(m, "c", 0, Trs(rotation=tuple(q80)), 0.0)
        m = generate_keyframe(m, "c", 1, Trs(rotation=tuple(q280)), 0.0)
        pose = global_pose_at(m, "c", 0.0)
        frames.append(skin_dq(m, pose).positions)
        # oracle: hemisphere-aligned blend of the two bone rotors; bone 1 picks
        # up its offset translation but vertex 0 sits at the origin
        v = m.mesh.vertices[0]
        qa = quat.from_matrix(quat.to_matrix(q80))
        mm = global_matrix(pose, 1) @ matrix_of(m.bone(1).offset)
        qb = quat.from_matrix(mm[:3, :3])
        if np.dot(qa, qb) < 0:
            qb = -qb
        blend = 0.5 * qa + 0.5 * qb
        dual = 0.5 * (0.5 * quat.multiply(np.concatenate([[0.0], mm[:3, 3]]), qb))
        n = np.linalg.norm(blend)
        t = 2.0 * quat.multiply(dual / n, quat.conjugate(blend / n))[1:]
        expect = quat.rotate(blend / n, v) + t
        assert np.allclose(frames[-1][0], expect, atol=1e-12)
    assert np.array_equal(frames[0], frames[1])


@pytest.mark.parametrize("order", [(2, 1, 0), (1, 2, 0), (0, 1, 2)])
def test_dq_pivot_tie_goes_to_lower_bone_id(order):
    # bones 1 and 2 rotate +100 and -100 degrees about z and tie at 0.4;
    # their quaternions sit in opposite hemispheres, while the root's
    # identity is near both, so the pivot decides which one flips
    bones = (Bone(0, None), Bone(1, 0), Bone(2, 0))
    mesh = Mesh([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[0, 1, 2]])
    share = {0: 0.2, 1: 0.4, 2: 0.4}
    weights = (tuple((b, share[b]) for b in order), ((0, 1.0),), ((0, 1.0),))
    m = RiggedModel(mesh, bones, weights, {})
    validate_model(m)
    q1 = quat.from_axis_angle((0, 0, 1), np.deg2rad(100))
    q2 = quat.from_axis_angle((0, 0, 1), np.deg2rad(-100))
    m = generate_keyframe(m, "c", 1, Trs(rotation=tuple(q1)), 0.0)
    m = generate_keyframe(m, "c", 2, Trs(rotation=tuple(q2)), 0.0)
    frame = skin_dq(m, global_pose_at(m, "c", 0.0))
    blend = 0.2 * np.array([1.0, 0.0, 0.0, 0.0]) + 0.4 * q1 - 0.4 * q2  # pivot on bone 1
    expect = quat.rotate(blend / np.linalg.norm(blend), mesh.vertices[0])
    assert np.allclose(frame.positions[0], expect, atol=1e-12)


def test_dq_frame_does_not_depend_on_bone_order():
    # RiggedModel.bones is documented as sorted by id, but nothing enforces it
    posed, _ = random_pose(make_arm_model(), np.random.default_rng(5))
    flipped = replace(posed, bones=posed.bones[::-1])
    a = skin_dq(posed, global_pose_at(posed, "r", 1.0)).positions
    b = skin_dq(flipped, global_pose_at(flipped, "r", 1.0)).positions
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("backend", sorted(SKIN_BACKENDS))
def test_bone_id_at_int64_max_skins_like_its_original(backend):
    # the largest int64 id is a legal bone id; it must not collide with any
    # "no bone" marker a backend keeps
    top = 2**63 - 1
    m = keyed(make_cylinders_model(), "c", 1, 0.5, rotation=tuple(quat.from_axis_angle((0, 1, 1), 0.7)))
    m = keyed(m, "c", 2, 0.5, rotation=tuple(quat.from_axis_angle((1, 0, 0), 2.9)), scale=1.3)
    doc = mvskin.rig.dump_rig(m)
    renamed = json.loads(json.dumps(doc))
    for b in renamed["bones"]:
        b["id"] = top if b["id"] == 2 else b["id"]
        b["parent"] = top if b["parent"] == 2 else b["parent"]
    renamed["weights"] = [[[top if bone == 2 else bone, w] for bone, w in row] for row in renamed["weights"]]
    for track in renamed["clips"]["c"]:
        track["bone"] = top if track["bone"] == 2 else track["bone"]
    base, big = mvskin.rig.model_from_dict(doc), mvskin.rig.model_from_dict(renamed)
    assert [b.id for b in big.bones] == [0, 1, top]
    skin = SKIN_BACKENDS[backend]
    a = skin(base, global_pose_at(base, "c", 0.5)).positions
    b = skin(big, global_pose_at(big, "c", 0.5)).positions
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("flip", [False, True])
def test_dq_overflow_names_the_first_bad_bone_in_bones_order(flip):
    m = make_arm_model()
    for bone in (1, 2):
        m = keyed(m, "c", bone, 1.0, scale=1e300)
    if flip:
        m = replace(m, bones=m.bones[::-1])
    first = 2 if flip else 1
    with pytest.raises(NumericalFailure, match=f"dq skinning: bone {first} has no finite positive scale"):
        skin_dq(m, global_pose_at(m, "c", 1.0))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 70), st.integers(1, 200), st.integers(0, 2**64 - 1))
def test_dq_frame_has_the_bytes_of_the_column_stack_oracle(n_bones, n_vertices, seed):
    # hemisphere flips, pivot ties, zero weights, non-unit scales, repeated
    # ids and overflowing poses (dq_oracle.random_rig); tests/skin_sweep.py
    # runs the same check on more rigs than the tier-1 budget holds
    model, t = dq_oracle.random_rig(random.Random(seed), n_bones, n_vertices)
    pose = global_pose_at(model, "c", t)
    assert dq_oracle.outcome(skin_dq, model, pose) == dq_oracle.outcome(dq_oracle.skin_dq, model, pose)


def test_dq_oracle_rigs_reach_every_outcome():
    # the property's rigs skin, and fail in each way skin_dq fails: an offset
    # that cannot be built, a bone id with no bone, a bone matrix without a
    # finite positive scale, a vertex moved to inf or NaN
    kinds = set()
    for seed in range(60):
        model, t = dq_oracle.random_rig(random.Random(seed))
        kind, result = dq_oracle.outcome(skin_dq, model, global_pose_at(model, "c", t))
        kinds.add(kind if kind != "NumericalFailure" else re.sub(r"\d.*", "", result))
    assert kinds == {
        "ok",
        "ValueError",
        "KeyError",
        "dq skinning: bone ",
        "dq skinning produced a non-finite position at vertex ",
    }


def test_blend_oracle_rigs_reach_every_outcome():
    # the slot-blend property's rigs skin, and fail in each way the check and
    # the blend fail: an offset that cannot be built, a bone id with no bone,
    # a singular deform versor (cga), a point at infinity (cga) and a vertex
    # moved to inf or NaN.  An offset that cannot be built raises first
    # wherever it is, on a weighted bone or on one no vertex uses
    kinds = {"cga": set(), "lbs": set()}
    places = set()
    for seed in range(400):
        model, t = dq_oracle.random_rig(random.Random(seed))
        pose = global_pose_at(model, "c", t)
        got = {name: dq_oracle.outcome(SKIN_BACKENDS[name], model, pose) for name in kinds}
        for name, (kind, result) in got.items():
            kinds[name].add(kind if kind not in ("NumericalFailure", "ValueError") else re.sub(r"\d.*", "", result))
        used = {bone_id for bone_id, _, _ in model.weights.bone_groups}
        for bone in model.bones:
            zero_scale = bone.offset.scale == 0.0
            if not zero_scale and any(bone.offset.rotation):  # random_rig's unbuildable offsets only
                continue
            places.add((bone.id in used, zero_scale))
            assert got["cga"][0] == "ValueError"
            if not zero_scale:  # lbs builds a zero scale's matrix
                assert got["lbs"][0] == "ValueError"
    assert places == {(True, True), (True, False), (False, True), (False, False)}
    assert kinds["cga"] == {
        "ok",
        "cannot normalize quaternion with norm ",
        "scale must be positive and finite, got ",
        "KeyError",
        "SingularVersor",
        "PointAtInfinity",
        "cga skinning produced a non-finite position at vertex ",
    }
    assert kinds["lbs"] == {
        "ok",
        "cannot normalize quaternion with norm ",
        "KeyError",
        "lbs skinning produced a non-finite position at vertex ",
    }


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 70), st.integers(1, 200), st.integers(0, 2**64 - 1))
def test_slot_blend_has_the_bytes_of_the_per_group_oracle(n_bones, n_vertices, seed):
    # cga, cga_sum and lbs against one fancy-index add per bone group
    # (tests/blend_oracle.py) on dq_oracle.random_rig rigs: the frame's bytes,
    # or the error's type and message; tests/skin_sweep.py checks more rigs
    model, t = dq_oracle.random_rig(random.Random(seed), n_bones, n_vertices)
    pose = global_pose_at(model, "c", t)
    for name, oracle in blend_oracle.SKIN.items():
        assert dq_oracle.outcome(SKIN_BACKENDS[name], model, pose) == dq_oracle.outcome(oracle, model, pose), name


def three_bone_model(weights):
    """Three unit bones off a root, keyed so that each moves its rows differently; weights unvalidated."""
    bones = (Bone(0, None), Bone(1, 0), Bone(2, 0))
    vertices = [[0.3, -0.2, 0.9], [1.3, 0.0, 0.9], [0.3, 1.0, 0.9], [-0.7, 0.4, 0.2]]
    m = RiggedModel(Mesh(vertices, [[0, 1, 2]]), bones, weights, {})
    m = keyed(m, "c", 1, 0.0, translation=(0.5, -1.0, 2.0), scale=1.5)
    return keyed(m, "c", 2, 0.0, rotation=tuple(quat.from_axis_angle((1.0, 2.0, 0.0), 0.6)))


def test_a_vertex_without_influence_and_a_repeated_bone_keep_the_per_group_result():
    # validate_model rejects both rows, but a RiggedModel holds them: a vertex
    # with no influence reads 0, and of a row that lists a bone twice only the
    # later term counts, as the fancy-index add keeps a repeated row's last write
    m = three_bone_model((((0, 0.5), (1, 0.5)), (), ((1, 0.25), (2, 0.5), (1, 0.75)), ((2, 1.0),)))
    pose = global_pose_at(m, "c", 0.0)
    for name, oracle in blend_oracle.SKIN.items():
        assert dq_oracle.outcome(SKIN_BACKENDS[name], m, pose) == dq_oracle.outcome(oracle, m, pose), name
    with pytest.raises(PointAtInfinity, match="point 1:"):  # the zero sum has no Euclidean point
        skin_cga_sum(m, pose)
    moved = {b: pose.global_matrices[pose.skeleton.rows[b]] for b in (1, 2)}
    image = {b: moved[b][:3, :3] @ m.mesh.vertices[2] + moved[b][:3, 3] for b in (1, 2)}
    for fn in (skin_cga, skin_lbs):
        positions = fn(m, pose).positions
        assert positions[1].tobytes() == np.zeros(3).tobytes()
        assert np.allclose(positions[2], 0.75 * image[1] + 0.5 * image[2], rtol=0.0, atol=1e-12)
        assert not np.allclose(positions[2], 0.25 * image[1] + 0.75 * image[1] + 0.5 * image[2], rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("rows", [0, 2, 5, "5 weighted"])
def test_a_weight_table_of_another_length_than_the_mesh_keeps_the_per_group_result(rows):
    # unvalidated: the vertices past a short table read 0, a long table's
    # empty rows are never read, and a weighted row past the mesh raises the
    # IndexError of the per-group gather
    one = ((1, 0.5), (2, 0.5))
    weights = {0: (), 2: (one, one), 5: (one,) * 4 + ((),), "5 weighted": (one,) * 5}[rows]
    m = three_bone_model(weights)
    pose = global_pose_at(m, "c", 0.0)
    for name, oracle in blend_oracle.SKIN.items():
        got = dq_oracle.outcome(SKIN_BACKENDS[name], m, pose)
        assert got == dq_oracle.outcome(oracle, m, pose), name
        assert (got[0] == "IndexError") == (rows == "5 weighted"), name


@pytest.mark.parametrize("far_first", [True, False])
def test_the_first_group_that_fails_raises_its_own_error(far_first):
    # every backend checks its bone ids before it blends, so the group whose
    # id names no bone raises its KeyError wherever it falls, before cga's
    # projection of an earlier group's far vertex
    far = ((0, 1.0),)  # vertex 0, at 1e9 along x, has no Euclidean image
    unknown = ((9, 1.0),)
    weights = (far, unknown, unknown, far) if far_first else (unknown, far, far, unknown)
    m = RiggedModel(Mesh([[1e9, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [1e9, 1.0, 0.0]], [[0, 1, 2]]),
                    (Bone(0, None),), weights, {})
    pose = global_pose_at(m, None, 0.0)
    oracles = {**blend_oracle.SKIN, "dq": dq_oracle.skin_dq}
    for name, skin in SKIN_BACKENDS.items():
        got = dq_oracle.outcome(skin, m, pose)
        assert got == dq_oracle.outcome(oracles[name], m, pose) and got == ("KeyError", "9"), (name, got)


def failing_model(failures) -> RiggedModel:
    """Two bones and four vertices, unvalidated, with each named failure in it.

    offset: bone 1's offset has a zero quaternion.  unknown: vertex 3 weights
    bone 9, which does not exist.  singular: bone 1 is keyed at scale 1e300,
    whose versor has a zero norm and whose matrix no finite determinant.
    index: a fifth weight row, past the mesh.  far: vertex 0 at 1e9 along x,
    which has no Euclidean image.
    """
    offset = Trs(rotation=(0.0, 0.0, 0.0, 0.0)) if "offset" in failures else IDENTITY_TRS
    bones = (Bone(0, None), Bone(1, 0, offset))
    vertices = [[1e9 if "far" in failures else 0.2, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
    weights = [((0, 1.0),), ((1, 1.0),), ((1, 0.5), (0, 0.5)), ((9 if "unknown" in failures else 0, 1.0),)]
    weights += [((0, 1.0),)] if "index" in failures else []
    clips = {"c": {1: (TrsKey(0.0, scale=1e300),)}} if "singular" in failures else {}
    return RiggedModel(Mesh(vertices, [[0, 1, 2]]), bones, tuple(weights), clips)


CHECK_ORDER = ("offset", "unknown", "singular", "index", "far")
# each backend's outcome on a model with every failure from the key on
FIRST_ERRORS = {
    "offset": {"cga": "ValueError", "cga_sum": "ValueError", "lbs": "ValueError", "dq": "ValueError"},
    # dq checks every bone's determinant before the bone ids
    "unknown": {"cga": "KeyError", "cga_sum": "KeyError", "lbs": "KeyError", "dq": "NumericalFailure"},
    # lbs builds the scale: its blend's gather then fails
    "singular": {"cga": "SingularVersor", "cga_sum": "SingularVersor", "lbs": "IndexError", "dq": "NumericalFailure"},
    # every group's images are taken before any is projected
    "index": {"cga": "IndexError", "cga_sum": "IndexError", "lbs": "IndexError", "dq": "IndexError"},
    "far": {"cga": "PointAtInfinity", "cga_sum": "PointAtInfinity", "lbs": "ok", "dq": "ok"},
}


@pytest.mark.parametrize("first", CHECK_ORDER)
def test_each_backend_checks_then_blends(first):
    # the model holds every failure from first on in CHECK_ORDER; each
    # backend raises the first its checks reach, then its blend's, and
    # matches its oracle's error type and message, or bytes
    m = failing_model(CHECK_ORDER[CHECK_ORDER.index(first) :])
    pose = global_pose_at(m, "c", 0.0)
    oracles = {**blend_oracle.SKIN, "dq": dq_oracle.skin_dq}
    for name, skin in SKIN_BACKENDS.items():
        got = dq_oracle.outcome(skin, m, pose)
        assert got == dq_oracle.outcome(oracles[name], m, pose) and got[0] == FIRST_ERRORS[first][name], (name, got)
    if first == "unknown":
        assert dq_oracle.outcome(skin_cga, m, pose)[1] == "9"  # an unknown id beats a far vertex
    if first == "far":
        assert dq_oracle.outcome(skin_cga, m, pose)[1].startswith("point 0:")


@pytest.mark.parametrize("name", ["cylinders", "arm", "tube16"])
def test_blend_slots_hold_each_vertex_terms_in_group_order(name):
    model = {"cylinders": make_cylinders_model, "arm": make_arm_model, "tube16": chain_tube_model}[name]()
    ids, ws = model.weights.ids, model.weights.ws
    table = model.weights.blend_terms
    assert table is model.weights.blend_terms
    bones, bounds, rows, weights, slots, verts = table
    # the bone groups are views of the table, as the per-bone search over ids built them
    order = list(dict.fromkeys(ids[ids >= 0].tolist()))
    assert bones == tuple(order) and len(bounds) == len(bones) + 1
    for (bone_id, rows_g, weights_g), b, i, j in zip(model.weights.bone_groups, bones, bounds, bounds[1:]):
        r, c = np.nonzero(ids == b)
        assert bone_id == b and rows_g.tobytes() == r.tobytes() == rows[i:j].tobytes()
        assert weights_g.tobytes() == ws[r, c].tobytes() == weights[i:j, 0].tobytes()
    assert weights.shape == (len(rows), 1) and bounds[-1] == len(rows)
    assert 0 < len(slots) <= 4 and [len(s) for s in slots] == sorted(map(len, slots), reverse=True)
    assert sorted(verts.tolist()) == np.flatnonzero((ids >= 0).any(axis=1)).tolist()
    terms = [[] for _ in range(len(model.weights))]
    for index in slots:
        for v, t in zip(verts.tolist(), index.tolist()):
            terms[v].append(t)
    assert terms == [np.flatnonzero(rows == v).tolist() for v in range(len(model.weights))]
    assert not any(a.flags.writeable for a in (rows, weights, *slots, verts))


def test_weight_partition_property():
    # every influence carrying the same global deformation moves the vertex
    # by exactly that transform
    bones = (Bone(0, None), Bone(1, 0), Bone(2, 0))
    mesh = Mesh([[0.3, -0.2, 0.9], [1.3, 0.0, 0.9], [0.3, 1.0, 0.9]], [[0, 1, 2]])
    weights = (((0, 0.2), (1, 0.5), (2, 0.3)), ((0, 1.0),), ((1, 1.0),))
    m = RiggedModel(mesh, bones, weights, {})
    validate_model(m)
    trs = Trs((0.4, -1.0, 2.0), tuple(quat.from_axis_angle((1, 2, 0), 0.6)), 1.7)
    # keying only the root leaves the children at their identity binds, so
    # every bone's global deformation is the same versor
    m = generate_keyframe(m, "c", 0, trs, 0.0)
    pose = global_pose_at(m, "c", 0.0)
    expect = transform_points(versor_of(trs), mesh.vertices)
    for fn in (skin_cga, skin_lbs):
        assert np.max(np.abs(fn(m, pose).positions - expect)) < 1e-10
    assert np.max(np.abs(skin_dq(m, pose).positions - expect)) < 1e-10


def test_numerical_failure_names_vertex():
    m = chain_model(2)
    bad = Mesh(np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [5.0, 5.0, 5.0], [5.0, 6.0, 5.0]]), m.mesh.faces)
    m = RiggedModel(bad, m.bones, m.weights, {})
    pose = global_pose_at(m, None, 0.0)
    with pytest.raises(NumericalFailure, match="vertex 1"):
        skin_lbs(m, pose)
    with pytest.raises(NumericalFailure, match="vertex 1"):
        skin_dq(m, pose)


def test_edits_pack_only_the_rows_they_add(monkeypatch):
    # every model holds one SkinWeights table; an edit slices the one it
    # has and packs only the weights of the vertices it creates: a tear its
    # anchors, while seam and edge points come packed from weight_by_edge
    m = make_cylinders_model()
    doc = json.loads(resources.files("mvskin.data").joinpath("cylinders_tear.json").read_text())
    (act,) = validate_script(m, doc)
    packed = []
    pack = SkinWeights.pack.__func__
    monkeypatch.setattr(
        SkinWeights, "pack", classmethod(lambda cls, entries: packed.append(len(entries)) or pack(cls, entries))
    )

    posed = keyed(m, "c", 1, 1.0, rotation=tuple(quat.from_axis_angle((1, 0, 0), 0.6)))
    assert posed.weights is m.weights and packed == []
    assert replace(m, clips={}).weights is m.weights and packed == []

    halves = cut(m, make_plane((0.0, 0.0, 1.0), 10.0))
    assert len(halves.m1.weights) + len(halves.m2.weights) > len(m.weights) and packed == []

    packed.clear()
    res = tear(m, act["states"], delta=0.0)
    assert 0 < sum(packed) <= len(res.model.weights) - len(m.weights)
    packed.clear()
    (path,) = res.paths
    assert open_tear(res.model, path, 0.5).weights is res.model.weights and packed == []


def chain_tube_model(n_bones=16, rings=24, segments=8):
    """A tube along a straight chain, every vertex weighted to its four nearest bones."""
    length = float(n_bones)
    bones = [Bone(0, None)]
    for i in range(1, n_bones):
        bones.append(Bone(i, i - 1, Trs(translation=(0.0, 0.0, -float(i))), Trs(translation=(0.0, 0.0, 1.0))))
    vertices, weights = [], []
    for k in range(rings):
        z = length * k / (rings - 1)
        for j in range(segments):
            a = 2.0 * np.pi * (j + 0.5 * (k % 2)) / segments
            vertices.append((np.cos(a), np.sin(a), z))
            near = sorted(range(n_bones), key=lambda i: (abs(z - i - 0.5), i))[:4]
            raw = np.array([np.exp(-((z - i - 0.5) ** 2)) + 1e-3 for i in near])
            raw /= raw.sum()
            weights.append(tuple(zip(near, raw.tolist())))
    faces = [
        (k * segments + j, k * segments + (j + 1) % segments, (k + 1) * segments + j)
        for k in range(rings - 1)
        for j in range(segments)
    ]
    return RiggedModel(Mesh(vertices, faces), tuple(bones), tuple(weights), {})


def random_pose(model, rng):
    for b in model.bones[1:]:
        trs = Trs(tuple(rng.normal(size=3)), tuple(quat.normalize(rng.normal(size=4))),
                  float(rng.uniform(0.7, 1.4)))
        model = generate_keyframe(model, "r", b.id, trs, 1.0)
    return model, global_pose_at(model, "r", 1.0)


def dense_conformal_frame(model, pose, project_each):
    """The 32-column conformal skinning path, with dense tensordot sandwiches."""
    lifted = up_points(model.mesh.vertices)
    ids, ws = model.weights.ids, model.weights.ws
    bones, first = np.unique(ids[ids >= 0], return_index=True)
    out = np.zeros((len(lifted), 3 if project_each else 32))
    with np.errstate(all="ignore"):
        for bone_id in bones[np.argsort(first)].tolist():
            rows, cols = np.nonzero(ids == bone_id)
            V = geometric_product(global_versor(pose, bone_id), versor_of(model.bone(bone_id).offset))
            X = lifted[rows] @ dense_sandwich_matrix(V)
            out[rows] += ws[rows, cols][:, None] * (down_block(X[:, 1:6]) if project_each else X)
        return out if project_each else down_block(out[:, 1:6])


@pytest.mark.parametrize("name", ["cylinders", "arm", "tube16"])
def test_conformal_frames_match_dense_32_column_path(name):
    model = {"cylinders": make_cylinders_model, "arm": make_arm_model, "tube16": chain_tube_model}[name]()
    if name == "tube16":
        assert len(model.bones) >= 16 and all(len(e) == 4 for e in model.weights)
    rng = np.random.default_rng(12)
    for _ in range(3):
        posed, pose = random_pose(model, rng)
        for fn, project_each in ((skin_cga, True), (skin_cga_sum, False)):
            got = fn(posed, pose).positions
            expect = dense_conformal_frame(posed, pose, project_each)
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("name", ["cylinders", "cylinders_reversed", "arm", "tube16"])
def test_bone_groups_follow_first_use_order(name):
    if name == "cylinders_reversed":
        model = reversed_ids(make_cylinders_model())
    else:
        model = {"cylinders": make_cylinders_model, "arm": make_arm_model, "tube16": chain_tube_model}[name]()
    ids, ws = model.weights.ids, model.weights.ws
    bones, first = np.unique(ids[ids >= 0], return_index=True)
    expect = []
    for bone_id in bones[np.argsort(first)].tolist():
        rows, cols = np.nonzero(ids == bone_id)
        expect.append((bone_id, rows, ws[rows, cols]))
    groups = model.weights.bone_groups
    assert groups is model.weights.bone_groups
    assert [g[0] for g in groups] == [e[0] for e in expect]
    for (bone_id, rows, weights), (_, rows_e, weights_e) in zip(groups, expect):
        assert type(bone_id) is int
        assert rows.tobytes() == rows_e.tobytes() and weights.tobytes() == weights_e.tobytes()
        assert not rows.flags.writeable and not weights.flags.writeable


def test_edited_models_build_their_own_caches():
    # cutting and tearing make new meshes and weight tables, which must not
    # read the skinning caches or the face block of the ones they came from
    # (a keyed model shares them: test_generate_keyframe_keeps_the_clip_free_caches)
    m = make_cylinders_model()
    doc = json.loads(resources.files("mvskin.data").joinpath("cylinders_tear.json").read_text())
    (act,) = validate_script(m, doc)
    caches = (
        m.weights.bone_groups,
        m.mesh.lifted_vertices,
        m.weights.pivot_bones,
        m.mesh.obj_face_block,
        m.weights.blend_terms,
    )
    halves = cut(m, make_plane((0.0, 0.0, 1.0), 10.0))
    derived = {
        "cut_m1": halves.m1,
        "cut_m2": halves.m2,
        "tear": tear(m, act["states"], delta=act["delta"]).model,
    }
    for name, d in derived.items():
        assert d.weights.bone_groups is not caches[0], name
        assert sum(len(rows) for _, rows, _ in d.weights.bone_groups) == int((d.weights.ids >= 0).sum())
        # the slot table of the blend: every influence a term, each vertex's in its slots
        _, bounds, rows, _, slots, _ = d.weights.blend_terms
        assert d.weights.blend_terms is not caches[4], name
        assert bounds[-1] == len(rows) == sum(map(len, slots)) == int((d.weights.ids >= 0).sum()), name
        assert d.mesh.lifted_vertices is not caches[1], name
        assert d.mesh.lifted_vertices.tobytes() == up_block(d.mesh.vertices).tobytes(), name
        assert not d.mesh.lifted_vertices.flags.writeable
        # each row pivots on its largest weight, ties to the lower bone id
        expect = [min(pairs, key=lambda p: (-p[1], p[0]))[0] for pairs in d.weights]
        pivots, pivot_of_row = d.weights.pivot_bones
        assert d.weights.pivot_bones is not caches[2], name
        assert pivots[pivot_of_row].tolist() == expect, name
        assert not pivots.flags.writeable and not pivot_of_row.flags.writeable
        faces = "".join("f %d %d %d\n" % tuple(f) for f in (d.mesh.faces + 1).tolist())
        assert d.mesh.obj_face_block == faces.encode("ascii"), name
        assert d.mesh.obj_face_block is not caches[3], name
        # the bones are the same tuple, so the skeleton and its stacked offsets are shared
        assert d.bones is m.bones and d.skeleton is m.skeleton, name


def test_cga_point_at_infinity_names_the_mesh_vertex():
    # a delta the script schema accepts throws torn vertices past |p| = 1e8,
    # where the e4/e5 embedding loses the no-coefficient
    doc = json.loads(resources.files("mvskin.data").joinpath("cylinders_tear.json").read_text())
    doc["actions"] = doc["actions"][:1]
    doc["actions"][0]["delta"] = 1e20
    m = make_cylinders_model()
    (act,) = validate_script(m, doc)
    torn = tear(m, act["states"], delta=act["delta"]).model
    for fn in (skin_cga, skin_cga_sum):
        with pytest.raises(PointAtInfinity) as info:
            fn(torn, global_pose_at(torn, None, 0.0))
        vertex = int(re.match(r"point (\d+):", str(info.value)).group(1))
        assert np.linalg.norm(torn.mesh.vertices[vertex]) > 1e8


# ---------------------------------------------------------------------------
# comparisons


def test_compare_backend_with_itself_is_zero():
    m = make_cylinders_model()
    pose = global_pose_at(m, None, 0.0)
    r = compare_backends(m, pose, reference="cga", test="cga")
    assert r["linf_rel"] == 0.0 and r["mean_rel"] == 0.0


def test_compare_unknown_backend():
    m = make_cylinders_model()
    with pytest.raises(SchemaError, match="unknown skinning backend"):
        compare_backends(m, global_pose_at(m, None, 0.0), reference="cga", test="nurbs")


def test_compare_rotation_pose_within_two_percent():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, rotation=tuple(quat.from_axis_angle((0, 1, 1), 0.5)))
    pose = global_pose_at(m, "c", 1.0)
    r = compare_backends(m, pose, reference="dq", test="cga")
    assert 0.0 < r["linf_rel"] <= 0.02
    assert r["mean_rel"] < r["linf_rel"]


# ---------------------------------------------------------------------------
# keyframe editing


def test_generate_keyframe_inserts_in_order():
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 2.0, translation=(2.0, 0.0, 0.0))
    m = keyed(m, "c", 1, 0.5, translation=(1.0, 0.0, 0.0))
    m = keyed(m, "c", 1, 1.0, translation=(9.0, 0.0, 0.0))
    keys = m.clips["c"][1]
    assert [k.time for k in keys] == [0.5, 1.0, 2.0]
    validate_model(m)


def test_generate_keyframe_overwrites_with_notice(caplog):
    m = make_cylinders_model()
    m = keyed(m, "c", 1, 1.0, translation=(1.0, 0.0, 0.0))
    with caplog.at_level(logging.INFO, logger="mvskin.animate"):
        m = keyed(m, "c", 1, 1.0, translation=(5.0, 0.0, 0.0))
    assert any("overwriting key" in rec.message for rec in caplog.records)
    keys = m.clips["c"][1]
    assert len(keys) == 1 and keys[0].translation == (5.0, 0.0, 0.0)


def test_generate_keyframe_bind_insert_keeps_bind_pose():
    m = make_cylinders_model()
    m = generate_keyframe(m, "c", 1, m.bone(1).bind, 3.0)
    pose = global_pose_at(m, "c", 3.0)
    frame = skin_cga(m, pose)
    assert np.max(np.abs(frame.positions - m.mesh.vertices)) < 1e-9


def test_generate_keyframe_keeps_the_clip_free_caches():
    m = make_arm_model()
    m = keyed(m, "c", 1, 0.0, rotation=tuple(quat.from_axis_angle((1.0, 0.0, 0.0), 0.3)))
    for backend in SKIN_BACKENDS.values():
        backend(m, global_pose_at(m, "c", 0.0))
    m2 = keyed(m, "c", 2, 1.0, translation=(0.0, 1.0, 0.5), scale=1.2)
    # the caches live on the mesh and the weight table, which a keyed model shares
    assert m2.mesh is m.mesh and m2.weights is m.weights
    assert {"lifted_vertices"} <= m.mesh.__dict__.keys()
    assert {"bone_groups", "pivot_bones", "blend_terms"} <= m.weights.__dict__.keys()
    terms = m.weights.blend_terms  # built once per table, shared by every frame of every model on it
    assert m2.skeleton is m.skeleton  # and so does the skeleton, on the same bones tuple
    # a model with the same clips and no caches skins to the same bytes
    fresh = RiggedModel(
        Mesh(m2.mesh.vertices.copy(), m2.mesh.faces.copy()),
        tuple(list(m2.bones)),
        SkinWeights(m2.weights.ids.copy(), m2.weights.ws.copy()),
        m2.clips,
    )
    assert "lifted_vertices" not in fresh.mesh.__dict__
    assert not {"bone_groups", "pivot_bones", "blend_terms"} & fresh.weights.__dict__.keys()
    assert fresh.skeleton is not m2.skeleton
    for name, backend in SKIN_BACKENDS.items():
        for t in (0.0, 0.6, 1.0):
            a = backend(m2, global_pose_at(m2, "c", t)).positions
            b = backend(fresh, global_pose_at(fresh, "c", t)).positions
            assert a.tobytes() == b.tobytes(), (name, t)
    assert m2.weights.blend_terms is terms and fresh.weights.blend_terms is not terms


def test_generate_keyframe_unknown_bone():
    m = make_cylinders_model()
    with pytest.raises(KeyError):
        generate_keyframe(m, "c", 9, Trs(), 0.0)


def test_original_model_unchanged_by_keyframing():
    m = make_cylinders_model()
    m2 = keyed(m, "c", 1, 1.0, translation=(1.0, 0.0, 0.0))
    assert "c" not in m.clips and "c" in m2.clips
