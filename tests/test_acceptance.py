"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 7 carries soft performance targets that are reported in its
line but not gated; its hard requirement is a scalpel probe bit-identical
to the per-face scan.  Everything else gates at the stated tolerance.
"""

import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvskin.algebra import (
    BLADE_TUPLES,
    CAYLEY_BLADES,
    CAYLEY_SIGNS,
    Multivector,
    geometric_product,
    make_plane,
    plane_distances,
    reverse,
)
from mvskin.animate import (
    compare_backends,
    generate_keyframe,
    global_pose_at,
    skin_cga,
    skin_dq,
    skin_lbs,
)
from mvskin.cli import main as cli_main
from mvskin.cut import cut
from mvskin.rig import (
    Trs,
    bbox_diagonal,
    compose_trs,
    make_arm_model,
    make_cylinders_model,
    trs_matrices,
    trs_rows,
    trs_versors,
)
from mvskin.tear import FaceBVH, ScalpelState, open_tear, scalpel_hit, tear

from cga_oracle import transform_points
from mesh_helpers import mesh_area
from tear_oracle import scan_scalpel_hit

BACKENDS = {"cga": skin_cga, "lbs": skin_lbs, "dq": skin_dq}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def rel_close(a: Multivector, b: Multivector, tol: float) -> bool:
    scale = max(1.0, float(np.max(np.abs(a.coeffs))), float(np.max(np.abs(b.coeffs))))
    return float(np.max(np.abs(a.coeffs - b.coeffs))) <= tol * scale


# ---------------------------------------------------------------------------
# 1. algebra law suite


def oracle_blade_product(ta, tb):
    """Sign-table oracle: concatenate, bubble-sort with sign flips,
    contract repeated generators against the metric (+,+,+,+,-)."""
    seq = list(ta) + list(tb)
    sign = 1.0
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    metric = {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: -1.0}
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= metric[seq[i]]
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def test_criterion_1_algebra_laws():
    started = time.perf_counter()

    index = {t: i for i, t in enumerate(BLADE_TUPLES)}
    cayley_ok = True
    for i, ta in enumerate(BLADE_TUPLES):
        for j, tb in enumerate(BLADE_TUPLES):
            sign, result = oracle_blade_product(ta, tb)
            if CAYLEY_BLADES[i, j] != index[result] or CAYLEY_SIGNS[i, j] != sign:
                cayley_ok = False

    rng = np.random.default_rng(1)
    tol = 1e-9
    worst = 0.0
    laws_ok = True
    for _ in range(10_000):
        a = Multivector(rng.standard_normal(32))
        b = Multivector(rng.standard_normal(32))
        c = Multivector(rng.standard_normal(32))
        ab = a * b
        assoc = rel_close(a * (b * c), ab * c, tol)
        dist = rel_close(a * (b + c), ab + a * c, tol)
        rev = rel_close(reverse(ab), reverse(b) * reverse(a), tol)
        if not (assoc and dist and rev):
            laws_ok = False
    elapsed = time.perf_counter() - started
    ok = cayley_ok and laws_ok and elapsed < 10.0
    report(
        1,
        ok,
        f"10000 triples assoc/dist/reversion at 1e-9 rel, Cayley exact={cayley_ok}, "
        f"{elapsed:.2f}s (< 10 s)",
    )


# ---------------------------------------------------------------------------
# 2. versor vs matrix


def test_criterion_2_versor_matrix_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-math.pi, math.pi)
        half = 0.5 * angle
        quat = (math.cos(half), *(math.sin(half) * axis))
        trs = Trs(
            tuple(rng.uniform(-10.0, 10.0, 3)),
            quat,
            float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))),
        )
        points = rng.uniform(-10.0, 10.0, (100, 3))
        rows = trs_rows([trs])
        via_versor = transform_points(Multivector(trs_versors(*rows)[0]), points)
        m = trs_matrices(*rows)[0]
        via_matrix = points @ m[:3, :3].T + m[:3, 3]
        worst = max(worst, float(np.max(np.abs(via_versor - via_matrix))))
    ok = worst <= 1e-9
    report(2, ok, f"1000 TRS x 100 points, max |versor - matrix| = {worst:.3e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 3. bind fixed point and single influence


def collapse_to_dominant(model):
    collapsed = tuple(
        ((max(entry, key=lambda bw: bw[1])[0], 1.0),) for entry in model.weights
    )
    return replace(model, weights=collapsed)


def test_criterion_3_bind_and_single_influence():
    worst_bind = 0.0
    worst_single = 0.0
    for make in (make_cylinders_model, make_arm_model):
        model = make()
        rest = model.mesh.vertices
        pose0 = global_pose_at(model, None, 0.0)
        for skinner in BACKENDS.values():
            worst_bind = max(
                worst_bind, float(np.max(np.abs(skinner(model, pose0).positions - rest)))
            )

        single = collapse_to_dominant(model)
        posed = generate_keyframe(
            single, "rigid", 1,
            compose_trs(single.bone(1).bind, Trs(rotation=_axis_angle((0, 1, 1), 0.5))),
            1.0,
        )
        posed = generate_keyframe(
            posed, "rigid", 2,
            compose_trs(single.bone(2).bind, Trs(translation=(2.0, 0.0, 0.0))),
            1.0,
        )
        pose1 = global_pose_at(posed, "rigid", 1.0)
        frames = [skinner(posed, pose1).positions for skinner in BACKENDS.values()]
        for i in range(len(frames)):
            for j in range(i + 1, len(frames)):
                worst_single = max(worst_single, float(np.max(np.abs(frames[i] - frames[j]))))
    ok = worst_bind <= 1e-9 and worst_single <= 1e-9
    report(
        3,
        ok,
        f"bind fixed point {worst_bind:.3e}, single-influence backend spread "
        f"{worst_single:.3e} (both <= 1e-9, 3 backends, 2 fixtures)",
    )


def _axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return (math.cos(half), *(math.sin(half) * axis))


# ---------------------------------------------------------------------------
# 4. backend deviation bounds on canonical poses


def test_criterion_4_backend_error_bounds():
    started = time.perf_counter()
    model = make_cylinders_model()

    def posed_with(trs_delta):
        m = generate_keyframe(
            model, "p", 1, compose_trs(model.bone(1).bind, trs_delta), 1.0
        )
        return m, global_pose_at(m, "p", 1.0)

    m_rot, pose_rot = posed_with(Trs(rotation=_axis_angle((0, 1, 1), 0.5)))
    rot_err = compare_backends(m_rot, pose_rot, reference="dq", test="cga")["linf_rel"]

    m_tr, pose_tr = posed_with(Trs(translation=(13.0, 0.0, 0.0)))
    tr_err = compare_backends(m_tr, pose_tr, reference="dq", test="cga")["linf_rel"]

    m_dil, pose_dil = posed_with(Trs(scale=1.5))
    dil_err = compare_backends(m_dil, pose_dil, reference="lbs", test="cga")["linf_rel"]

    elapsed = time.perf_counter() - started
    ok = rot_err <= 0.02 and tr_err <= 0.02 and dil_err <= 1e-4 and elapsed < 5.0
    report(
        4,
        ok,
        f"CGA vs DQ: rotation {rot_err * 100:.2f}% (<= 2%), translation "
        f"{tr_err * 100:.2f}% (<= 2%); CGA vs matrix-scale: dilation "
        f"{dil_err * 100:.2e}% (<= 0.01%); {elapsed:.2f}s (< 5 s)",
    )


# ---------------------------------------------------------------------------
# 5. cutting property suite


def test_criterion_5_cutting_properties():
    model = make_cylinders_model()
    model = generate_keyframe(
        model, "fig2", 1,
        compose_trs(
            model.bone(1).bind,
            Trs((13.0, 0.0, 0.0), _axis_angle((0, 1, 1), 0.7), 0.5),
        ),
        1.0,
    )
    model = generate_keyframe(
        model, "fig2", 2,
        compose_trs(model.bone(2).bind, Trs(rotation=_axis_angle((0, 1, 1), 0.3))),
        1.0,
    )
    area0 = mesh_area(model.mesh)
    diag = bbox_diagonal(model.mesh)
    rng = np.random.default_rng(5)

    worst_area = 0.0
    worst_plane = 0.0
    weights_ok = True
    finite_ok = True
    for _ in range(20):
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        radius = rng.uniform(0.0, 1.5)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        inside = np.array(
            [radius * math.cos(theta), radius * math.sin(theta), rng.uniform(1.0, 19.0)]
        )
        plane = make_plane(tuple(normal), float(normal @ inside))
        result = cut(model, plane)

        area = mesh_area(result.m1.mesh) + mesh_area(result.m2.mesh)
        worst_area = max(worst_area, abs(area - area0) / area0)

        for half, label in ((result.m1, "m1"), (result.m2, "m2")):
            new_idx = sorted(result.provenance[label])
            if new_idx:
                dists = plane_distances(half.mesh.vertices[new_idx], plane)
                worst_plane = max(worst_plane, float(np.max(np.abs(dists))))
            for vi in new_idx:
                entry = half.weights[vi]
                total = sum(w for _, w in entry)
                if len(entry) > 4 or abs(total - 1.0) > 1e-9 or any(w < 0 for _, w in entry):
                    weights_ok = False
            pose = global_pose_at(half, "fig2", 1.0)
            for skinner in BACKENDS.values():
                if not np.all(np.isfinite(skinner(half, pose).positions)):
                    finite_ok = False

    ok = (
        worst_area <= 1e-6
        and worst_plane <= 1e-9 * diag
        and weights_ok
        and finite_ok
    )
    report(
        5,
        ok,
        f"20 random planes: area drift {worst_area:.3e} (<= 1e-6 rel), seam "
        f"off-plane {worst_plane:.3e} (<= {1e-9 * diag:.3e}), weights valid="
        f"{weights_ok}, halves re-deform finite={finite_ok}",
    )


# ---------------------------------------------------------------------------
# 6. tearing property suite


def _bundled_states(script_name):
    from mvskin.cli import bundled_script_path

    doc = json.loads(bundled_script_path(script_name).read_text(encoding="utf-8"))
    action = next(a for a in doc["actions"] if a["action"] == "tear")
    return [ScalpelState(s["time"], tuple(s["tip"]), tuple(s["tail"])) for s in action["states"]]


def test_criterion_6_tearing_properties():
    cyl = make_cylinders_model()
    arm = make_arm_model()

    res_cyl = tear(cyl, _bundled_states("cylinders_tear.json"), delta=0.0)
    res_arm = tear(arm, _bundled_states("arm_tear.json"), delta=0.0)
    counts = (len(res_cyl.paths[0].points), len(res_arm.paths[0].points))
    dups_match = all(
        len(p.duplicates) == len(p.points) for p in res_cyl.paths + res_arm.paths
    )

    reopened = open_tear(res_cyl.model, res_cyl.paths[0], 0.0)
    identity_ok = np.array_equal(reopened.mesh.vertices, res_cyl.model.mesh.vertices)

    torn = res_arm.model
    influences_ok = max(len(entry) for entry in torn.weights) <= 4
    finite_ok = True
    posed = generate_keyframe(
        torn, "bend", 1,
        compose_trs(torn.bone(1).bind, Trs(rotation=_axis_angle((0, 1, 0), -1.0))), 1.0,
    )
    posed = generate_keyframe(
        posed, "bend", 2,
        compose_trs(torn.bone(2).bind, Trs(rotation=_axis_angle((0, 1, 0), 1.0))), 1.0,
    )
    posed = generate_keyframe(
        posed, "dilate", 1, compose_trs(torn.bone(1).bind, Trs(scale=1.5)), 1.0
    )
    posed = generate_keyframe(
        posed, "shift", 1,
        compose_trs(torn.bone(1).bind, Trs(translation=(18.0, 0.0, 0.0))), 1.0,
    )
    for clip in ("bend", "dilate", "shift"):
        pose = global_pose_at(posed, clip, 1.0)
        for skinner in BACKENDS.values():
            if not np.all(np.isfinite(skinner(posed, pose).positions)):
                finite_ok = False

    ok = (
        counts == (17, 34)
        and dups_match
        and identity_ok
        and influences_ok
        and finite_ok
    )
    report(
        6,
        ok,
        f"intersection points {counts[0]}/{counts[1]} (want 17/34), duplicates=="
        f"intermediates={dups_match}, delta=0 identity={identity_ok}, torn re-deforms "
        f"finite={finite_ok} with <=4 influences={influences_ok}",
    )


# ---------------------------------------------------------------------------
# 7. performance: reported soft targets, gated bit-identity


def test_criterion_7_performance_reported():
    arm = make_arm_model()
    plane = make_plane((0.0, 0.0, 1.0), 20.0)
    started = time.perf_counter()
    cut(arm, plane)
    cut_s = time.perf_counter() - started

    states = _bundled_states("arm_tear.json")
    mesh = arm.mesh
    reps = 20
    started = time.perf_counter()
    for _ in range(reps):
        bvh = FaceBVH(mesh)
    build_ms = (time.perf_counter() - started) * 1000 / reps
    started = time.perf_counter()
    for _ in range(reps):
        hits = [scalpel_hit(mesh, s, bvh) for s in states]
    hit_ms = (time.perf_counter() - started) * 1000 / (reps * len(states))

    identical = hits == [scan_scalpel_hit(mesh, s) for s in states]
    ok = identical  # timing targets are soft: reported, not gated
    report(
        7,
        ok,
        f"arm cut {cut_s * 1000:.0f} ms (soft < 2000 ms), FaceBVH build {build_ms:.2f} ms, "
        f"scalpel hit {hit_ms:.2f} ms per stroke, bit-identical to the per-face scan="
        f"{identical} (gated)",
    )


# ---------------------------------------------------------------------------
# 8. determinism of the batch driver


def test_criterion_8_cli_determinism(tmp_path):
    runs = [
        ("cylinders", "cylinders_cut_deform.json"),
        ("cylinders", "cylinders_tear.json"),
        ("arm", "arm_tear.json"),
    ]
    ok = True
    checked = 0
    for rig, script in runs:
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{script}.{tag}"
            rc = cli_main(["run", "--rig", rig, "--script", script, "--out", str(out)])
            if rc != 0:
                ok = False
            digests.append(
                {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.iterdir())
                    if p.suffix == ".obj"
                }
            )
        if not digests[0] or digests[0] != digests[1]:
            ok = False
        checked += len(digests[0])
    report(8, ok, f"every bundled script rerun byte-identical across {checked} OBJ artifacts")
