"""Frozen digests of the bundled-script artifacts.

These pin the exact bytes `mvskin run` emits for the three bundled
scripts, each run against its own rig with the default `cga` backend,
and the first arm frame under every other skinning backend.  Any change
to the algebra, skinning, cutting, tearing, or OBJ formatting paths that
moves a single coordinate shows up here.  If a change is intentional, regenerate with:

    mvskin run --rig cylinders --script cylinders_cut_deform.json --out /tmp/g1
    mvskin run --rig cylinders --script cylinders_tear.json --out /tmp/g2
    mvskin run --rig arm --script arm_tear.json --out /tmp/g3
    sha256sum /tmp/g1/*.obj /tmp/g2/torn.obj /tmp/g3/*.obj
    for b in lbs dq cga_sum; do
      mvskin run --rig arm --script arm_tear.json --backend $b --out /tmp/g3-$b
      sha256sum /tmp/g3-$b/frame_0000.obj
    done

RIG_GOLDEN pins the rig documents (`json.dumps(dump_rig(model))`) of the
models the cut and tear actions of the same runs produce, so the skin
weights a cut or tear stores are frozen as well as the mesh.

TEAR_GOLDEN pins one digest over a seeded batch of tears, including
sliver collapses and faces that hold two anchors, which the bundled
scripts never reach.

CUT_GOLDEN pins one digest over a seeded batch of cuts: oblique planes,
axial planes (open chains), planes through a vertex ring or a single
vertex (the eps shift) and planes that miss.  It covers the seam
records, ordinals and polylines, which no bundled script writes out.

POSE_GOLDEN pins one digest over the frames of two seeded deep rigs under
every skinning backend: a 64-bone chain and a branching tree with several
roots, whose keys flip hemispheres, scale away from 1 and leave some bones
without a track or without weights.  The bundled rigs have 3 bones or fewer.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

import mvskin.cli as cli
from mvskin.cli import main
from mvskin.cut import cut
from mvskin.errors import MvskinError
from mvskin.algebra import make_plane
from mvskin.animate import SKIN_BACKENDS, generate_keyframe, global_pose_at
from mvskin.rig import Bone, Mesh, RiggedModel, Trs, dump_rig, make_arm_model, make_cylinders_model
from mvskin.section import Section
from mvskin.tear import ScalpelState, tear

from mesh_helpers import seam_vertices

# test id -> (script, rig, backend, {artifact: sha256})
GOLDEN = {
    "cylinders_cut_deform.json": ("cylinders_cut_deform.json", "cylinders", "cga", {
        "cut_M1.obj": "bb689d375e05722bd47545c3c0d620b43c02af2060c77fa720740b0fd58737bb",
        "cut_M2.obj": "bc7e34d10901a0e27321359683cb94952df8b85236f7526496f06f057736f8e7",
        "frame_0000.obj": "8916aca0309eb26453c7114e411b73603ccf137269b800e6cf7092c8b7b9f016",
    }),
    "cylinders_tear.json": ("cylinders_tear.json", "cylinders", "cga", {
        "torn.obj": "1513e4b45529bfca39b4ae26407d6f3956e139be2b5f4c56826a2e3fbec38132",
    }),
    "arm_tear.json": ("arm_tear.json", "arm", "cga", {
        "torn.obj": "e3540ce84be8ec0956f10a720858ae2d5976cfc76536796d4d13f0c238900e9f",
        "frame_0000.obj": "09b2cd66556f26bb73caa5a7074ae3e5a6b992b982ae28e9630145c6140029d1",
        "frame_0001.obj": "a58ad5f70557142dd58b5d22028352ce2281532e5c0dd5ed53c491343b26b1a5",
        "frame_0002.obj": "2292ec6cdb80b8ba16ab961e0aa47caacdb2ca6f83a73c16efc77c463051977a",
    }),
    "arm_tear.json-lbs": ("arm_tear.json", "arm", "lbs", {
        "frame_0000.obj": "33aba863c00404d3d230662174d6310632c65493ad50ce7e55ab4f4f5f3ff961",
    }),
    "arm_tear.json-dq": ("arm_tear.json", "arm", "dq", {
        "frame_0000.obj": "26808c3fa92e29aef2d09c0671bfe3bc74f17744d75eac1646cab69c93bcfb17",
    }),
    "arm_tear.json-cga_sum": ("arm_tear.json", "arm", "cga_sum", {
        "frame_0000.obj": "2a2baf59fc6f2a15e7e38d0ce1ed78563ede662cb822955164c5afbabbcaae86",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_bundled_script_artifacts_match_golden_digests(case, tmp_path):
    script, rig, backend, digests = GOLDEN[case]
    out = tmp_path / "out"
    rc = main(["run", "--rig", rig, "--script", script, "--backend", backend, "--out", str(out)])
    assert rc == 0
    for name, want in digests.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, f"{case}: {name} drifted from its golden digest"


# script -> (rig, {model: sha256 of json.dumps(dump_rig(model))})
RIG_GOLDEN = {
    "cylinders_cut_deform.json": ("cylinders", {
        "cut_M1": "a984af8b703f11d105c8ca6e1500680cb201d2a2ff78db2a890047d3c317daf5",
        "cut_M2": "42c2fc55edb9d87bb73dc57edfdbeee21e5d507aa245c2c6e172241705536afc",
    }),
    "cylinders_tear.json": ("cylinders", {
        "torn": "89e4262890e5eb5fd3c07ed29edc4bae7b48af28e1fe8a27200d68e9ddf8f6d9",
    }),
    "arm_tear.json": ("arm", {
        "torn": "2c26221bfd88ce12fd83399f19a0dbc9bc8c84fa5511d3b6e2089f9f6bee4505",
    }),
}


@pytest.mark.parametrize("script", sorted(RIG_GOLDEN))
def test_cut_and_torn_rig_documents_match_golden_digests(script, tmp_path, monkeypatch):
    rig, digests = RIG_GOLDEN[script]
    models = {}
    real_cut, real_tear = cli.cut, cli.tear

    def cut(*args, **kwargs):
        result = real_cut(*args, **kwargs)
        models.update(cut_M1=result.m1, cut_M2=result.m2)
        return result

    def tear(*args, **kwargs):
        result = real_tear(*args, **kwargs)
        models.update(torn=result.model)
        return result

    monkeypatch.setattr(cli, "cut", cut)
    monkeypatch.setattr(cli, "tear", tear)
    assert main(["run", "--rig", rig, "--script", script, "--out", str(tmp_path / "out")]) == 0
    assert sorted(models) == sorted(digests)
    for name, want in digests.items():
        got = hashlib.sha256(json.dumps(dump_rig(models[name])).encode()).hexdigest()
        assert got == want, f"{script}: the {name} rig document drifted from its golden digest"


def radial(t, theta, z, r0, r1):
    """Scalpel segment through a tube wall at angle theta, from radius r0 to r1."""
    c, s = math.cos(theta), math.sin(theta)
    return ScalpelState(t, (r0 * c, r0 * s, z), (r1 * c, r1 * s, z))


def nick(t, mesh, face, bary):
    """Unit scalpel segment piercing a face along its normal at a barycentric point."""
    a, b, c = mesh.vertices[mesh.faces[face]]
    normal = np.cross(b - a, c - a)
    normal /= np.linalg.norm(normal)
    p = np.asarray(bary) @ np.array([a, b, c])
    return ScalpelState(t, tuple(p - 0.5 * normal), tuple(p + 0.5 * normal))


def tear_batch(models):
    """(model name, scalpel states, delta) of every tear in the pinned batch.

    Seeded radial 2-4 state strokes on both tubes; nicks 1e-14 from a face
    corner, whose fan leaves a zero-area child; and three-state strokes
    whose first and last anchors share one face.
    """
    rng = np.random.default_rng(1402)
    deltas = itertools.cycle([None, 0.0, 0.3])
    for name, count, z_max, r0, r1 in (("cylinders", 60, 20.0, 0.5, 3.0), ("arm", 15, 40.0, 1.0, 6.0)):
        for _ in range(count):
            theta, step = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.2, 1.2)
            z = rng.uniform(1.0, z_max - 1.0)
            states = []
            for k in range(int(rng.integers(2, 5))):
                states.append(radial(float(k), theta + k * step, z, r0, r1))
                z = float(np.clip(z + rng.uniform(-2.0, 2.0), 1.0, z_max - 1.0))
            yield name, states, next(deltas)
    mesh = models["cylinders"].mesh
    for _ in range(24):
        face = int(rng.integers(len(mesh.faces)))
        corners = np.roll([1.0 - 2e-14, 1e-14, 1e-14], int(rng.integers(3)))
        a = mesh.vertices[mesh.faces[face][np.argmax(corners)]]
        theta = math.atan2(a[1], a[0]) + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        z = float(a[2] + rng.uniform(-1.5, 1.5))
        states = [nick(0.0, mesh, face, corners), radial(1.0, theta, z, 2.5, 1.5)]
        yield "cylinders", states, next(deltas)
    for _ in range(6):
        face = int(rng.integers(len(mesh.faces)))
        a = mesh.vertices[mesh.faces[face][0]]
        theta = math.atan2(a[1], a[0]) + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        z = float(np.clip(a[2] + rng.uniform(-2.0, 2.0), 1.0, 19.0))
        states = [
            nick(0.0, mesh, face, (0.6, 0.2, 0.2)),
            radial(1.0, theta, z, 2.5, 1.5),
            nick(2.0, mesh, face, (0.2, 0.2, 0.6)),
        ]
        yield "cylinders", states, next(deltas)


# sha256 over every tear's vertices, faces, weight table and path records
# (a typed error enters as its type name), for tear_batch
TEAR_GOLDEN = "b3cc9d5932672cc85f848fb39b24cc1b8e8fbde62584d0c67a42aabcc257e038"


def test_seeded_tear_batch_matches_golden_digest():
    models = {"cylinders": make_cylinders_model(), "arm": make_arm_model()}
    digest = hashlib.sha256()
    collapses = two_anchor_faces = 0
    for name, states, delta in tear_batch(models):
        try:
            res = tear(models[name], states, delta=delta)
        except MvskinError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        mesh, weights = res.model.mesh, res.model.weights
        for array in (mesh.vertices, mesh.faces, weights.ids, weights.ws):
            digest.update(repr(array.shape).encode() + array.tobytes())
        n_orig = len(models[name].mesh.vertices)
        anchors = {}  # anchor face -> the vertex indices its anchors got
        for path in res.paths:
            record = (
                int(path.start_index),
                int(path.end_index),
                [int(g) for g in path.point_indices],
                sorted((int(g), (int(l), int(r))) for g, (l, r) in path.duplicates.items()),
                path.projection_distance,
            )
            digest.update(repr(record).encode())
            collapses += path.start_index < n_orig or path.end_index < n_orig
            for anchor, index in ((path.start, path.start_index), (path.end, path.end_index)):
                anchors.setdefault(anchor.face, set()).add(index)
        two_anchor_faces += any(len(indices) > 1 for indices in anchors.values())
    assert collapses > 0, "the batch no longer reaches a sliver collapse"
    assert two_anchor_faces > 0, "the batch no longer splits a face around two anchors"
    assert digest.hexdigest() == TEAR_GOLDEN, "a seeded tear drifted from its golden digest"


def cut_batch(models):
    """(model name, plane normal, plane offset) of every cut in the pinned batch.

    Per model: seeded oblique planes through a random interior point;
    axial planes through the tube axis, whose sections run off both
    open ends as two open chains; horizontal planes through a vertex
    ring; oblique planes through a single vertex; and planes beyond the
    mesh on either side.
    """
    rng = np.random.default_rng(1903)
    for name, oblique, axial, rings, through, misses in (("cylinders", 24, 6, 4, 6, 2), ("arm", 8, 3, 3, 3, 2)):
        verts = models[name].mesh.vertices
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        for _ in range(oblique):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            yield name, n, float(n @ rng.uniform(lo, hi))
        for _ in range(axial):
            theta = rng.uniform(0.0, math.pi)
            yield name, np.array([math.cos(theta), math.sin(theta), 0.0]), float(rng.uniform(-0.5, 0.5))
        heights = np.unique(verts[:, 2])[1:-1]
        for z in rng.choice(heights, size=rings, replace=False).tolist():
            yield name, np.array([0.0, 0.0, 1.0]), z
        for _ in range(through):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            yield name, n, float(n @ verts[rng.integers(len(verts))])
        for k in range(misses):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            yield name, n, (-1.0) ** k * 10.0 * float(np.linalg.norm(hi - lo))


# sha256 over every cut's halves (vertices, faces, weight table), its cut
# points (edge, lam, ordinal, position, weights), polylines (as ordinals)
# and each half's seam vertices (index -> edge, lam), for cut_batch; a
# typed error enters as its type name
CUT_GOLDEN = "345a97755510bf4ecb143fc008bac443150986324cb292d210f5742cf461a0a8"


def test_seeded_cut_batch_matches_golden_digest():
    models = {"cylinders": make_cylinders_model(), "arm": make_arm_model()}
    digest = hashlib.sha256()
    open_chains = shifted = misses = 0
    for name, normal, offset in cut_batch(models):
        model = models[name]
        plane = make_plane(tuple(normal), offset)
        try:
            res = cut(model, plane)
        except MvskinError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        for half in (res.m1, res.m2):
            mesh, weights = half.mesh, half.weights
            for array in (mesh.vertices, mesh.faces, weights.ids, weights.ws):
                digest.update(repr(array.shape).encode() + array.tobytes())
        # each seam point with M1's weight row for it
        seam_base = len(res.m1.mesh.vertices) - len(res.cut_points)
        for cp in res.cut_points:
            seam_row = res.m1.weights[seam_base + cp.ordinal]
            digest.update(repr((cp.edge, cp.lam, cp.ordinal, cp.position, seam_row)).encode())
        digest.update(repr([[cp.ordinal for cp in chain] for chain in res.polylines]).encode())
        seams = {"m1": seam_vertices(res.m1, res.cut_points), "m2": seam_vertices(res.m2, res.cut_points)}
        digest.update(repr(sorted((side, sorted(m.items())) for side, m in seams.items())).encode())
        open_chains += len(res.polylines) > 1
        shifted += not np.array_equal(Section(model.mesh, plane).work, model.mesh.vertices)
        misses += not res.cut_points
    assert open_chains > 0, "the batch no longer cuts open chains"
    assert shifted > 0, "the batch no longer shifts a vertex off the plane"
    assert misses > 0, "the batch no longer misses the mesh"
    assert digest.hexdigest() == CUT_GOLDEN, "a seeded cut drifted from its golden digest"


def random_trs(rng, shift, scale_span):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return Trs(
        tuple((shift * rng.normal(size=3)).tolist()),
        tuple(q.tolist()),
        float(rng.uniform(1.0 - scale_span, 1.0 + scale_span)),
    )


def pose_rig(rng, parents):
    """A keyed rig over a parent list (index or None), ids shuffled.

    Binds and offsets are random transforms with non-unit scale.  Every
    tenth bone carries no weight, and every seventh has no track in clip
    "c"; the others get 1-4 keys on a half-unit grid, each key after the
    first rotated into the far hemisphere from the one before.
    """
    n = len(parents)
    ids = rng.permutation(n).tolist()  # children often get lower ids than parents
    bones = sorted(
        (
            Bone(ids[i], None if p is None else ids[p], random_trs(rng, 0.5, 0.3), random_trs(rng, 1.0, 0.2))
            for i, p in enumerate(parents)
        ),
        key=lambda b: b.id,
    )
    weighted = [i for i in range(n) if i % 10 != 9]
    vertices = rng.normal(size=(6 * n, 3)) * 3.0
    faces = np.arange(6 * n).reshape(-1, 3)
    weights = []
    for _ in range(len(vertices)):
        picked = rng.choice(weighted, size=int(rng.integers(1, 5)), replace=False)
        w = rng.uniform(0.05, 1.0, size=len(picked))
        weights.append(tuple(zip(picked.tolist(), (w / w.sum()).tolist())))
    model = RiggedModel(Mesh(vertices, faces), tuple(bones), tuple(weights), {})
    for bone in range(n):
        if bone % 7 == 3:
            continue
        times = np.sort(rng.choice(np.arange(0.0, 3.0, 0.5), size=int(rng.integers(1, 5)), replace=False))
        prev = None
        for t in times.tolist():
            trs = random_trs(rng, 1.0, 0.5)
            q = np.array(trs.rotation)
            if prev is not None and q @ prev > 0.0:
                q = -q
            prev = q
            model = generate_keyframe(model, "c", ids[bone], Trs(trs.translation, tuple(q.tolist()), trs.scale), t)
    return model


def pose_batch():
    """(model, sample times) of the two pinned rigs: exact key times, between keys, clamped."""
    rng = np.random.default_rng(2104)
    chain = [None] + list(range(63))
    tree = [None, None, None]
    for i in range(3, 48):
        tree.append(int(rng.integers(i)) if rng.random() < 0.9 else None)
    times = (-1.0, 0.0, 0.3, 0.5, 1.0, 1.25, 1.77, 2.5, 4.0)
    return [(pose_rig(rng, parents), times) for parents in (chain, tree)]


# sha256 over positions.tobytes() of every frame of pose_batch, backends in
# sorted order; a typed error enters as its type name
POSE_GOLDEN = "ee00159c2a5f6696a42b23ebecfa4e110a2894bf32dfcdd40778e8b4479ebfd0"


def test_seeded_deep_rig_frames_match_golden_digest():
    digest = hashlib.sha256()
    for model, times in pose_batch():
        roots = sum(b.parent is None for b in model.bones)
        assert len(model.bones) >= 48 and (roots == 1 or roots >= 3)
        for t in times:
            pose = global_pose_at(model, "c", t)
            for name in sorted(SKIN_BACKENDS):
                try:
                    frame = SKIN_BACKENDS[name](model, pose)
                except MvskinError as exc:
                    digest.update(type(exc).__name__.encode())
                    continue
                digest.update(frame.positions.tobytes())
    assert digest.hexdigest() == POSE_GOLDEN, "a deep-rig frame drifted from its golden digest"
