"""Seeded inputs for the mvskin benchmark.

Everything the program receives is made here from the workload seed:
the ``many-bones`` rig, the keyframe clips, and one cycle of op scripts
(sample times, cut planes, scalpel strokes).  Clips and ops are plain
script action dicts, so they pass through ``mvskin.cli.validate_script``
exactly as a user's JSON script would.  The same seed gives the same
bytes; no other source of randomness is used.

Placements are stratified: each op kind draws its parameters from equal
slices of the allowed range, so every seed covers the whole range and the
per-kind medians move little from one seed to the next.
"""

from __future__ import annotations

import math
import random

from mvskin.rig import Bone, Mesh, RiggedModel, Trs

CLIP = "bench"
BACKENDS = ("cga", "lbs", "dq")
EDIT_KINDS = ("cut", "tear", "tear_scan")

# ops of each kind in one cycle; a run repeats the cycle until time is up
CYCLE_PER_KIND = {"animate": 20, "many-bones": 20, "edit": 12}

# the bundled arm: a tube of radius 4 along +z from 0 to 40
ARM_RADIUS = 4.0
ARM_LENGTH = 40.0

# many-bones rig: a tube around a 64-bone chain
CHAIN_BONES = 64
CHAIN_LENGTH = 64.0
TUBE_RINGS = 82
TUBE_SEGMENTS = 16
TUBE_RADIUS = 2.5
INFLUENCES = 4

KEY_TIMES = (0.0, 1.0, 2.0)
STROKE_STATES = 3


def _rng(part: str, seed: int) -> random.Random:
    return random.Random(f"mvskin-bench:{part}:{seed}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n values, one uniform draw from each of n equal slices of [lo, hi), shuffled."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _unit(v) -> list:
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


# ---------------------------------------------------------------- rig


def many_bones_model(seed: int) -> RiggedModel:
    """A tube skinned to a 64-bone chain, exactly four influences per vertex.

    The seed jitters vertex radii and angles and each vertex's weight
    falloff; vertex, face, bone and influence counts are fixed.
    """
    rng = _rng("many-bones-rig", seed)
    step = CHAIN_LENGTH / CHAIN_BONES
    vertices = []
    for k in range(TUBE_RINGS):
        z = CHAIN_LENGTH * k / (TUBE_RINGS - 1)
        for j in range(TUBE_SEGMENTS):
            ang = (j + 0.5 * (k % 2) + 0.2 * (rng.random() - 0.5)) * 2.0 * math.pi / TUBE_SEGMENTS
            r = TUBE_RADIUS * (1.0 + 0.05 * (rng.random() - 0.5))
            vertices.append((r * math.cos(ang), r * math.sin(ang), z))
    faces = []
    for k in range(TUBE_RINGS - 1):
        a, b = k * TUBE_SEGMENTS, (k + 1) * TUBE_SEGMENTS
        for j in range(TUBE_SEGMENTS):
            j1 = (j + 1) % TUBE_SEGMENTS
            faces.append((a + j, a + j1, b + j))
            faces.append((a + j1, b + j1, b + j))

    bones = [Bone(0, None)]
    for i in range(1, CHAIN_BONES):
        bones.append(
            Bone(i, i - 1, Trs(translation=(0.0, 0.0, -i * step)), Trs(translation=(0.0, 0.0, step)))
        )

    weights = []
    for _, _, z in vertices:
        width = step * (1.0 + rng.random())
        nearest = sorted(range(CHAIN_BONES), key=lambda i: (abs(z - (i + 0.5) * step), i))
        raw = [(i, math.exp(-(((z - (i + 0.5) * step) / width) ** 2)) + 1e-3) for i in nearest[:INFLUENCES]]
        total = math.fsum(w for _, w in raw)
        raw = sorted(((i, w / total) for i, w in raw), key=lambda bw: (-bw[1], bw[0]))
        rest = raw[1:]
        head = (raw[0][0], 1.0 - math.fsum(w for _, w in rest))
        weights.append(tuple(sorted([head] + rest)))

    return RiggedModel(Mesh(vertices, faces), tuple(bones), tuple(weights), {})


# ---------------------------------------------------------------- clips


def _key(rng: random.Random, bone: int, time: float, max_angle: float, max_shift: float,
         scale_span: float) -> dict:
    axis = _unit([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)])
    return {
        "action": "set_keyframe",
        "clip": CLIP,
        "bone": bone,
        "time": time,
        "trs": {
            "translation": [rng.uniform(-max_shift, max_shift) for _ in range(3)],
            "rotation_axis": axis,
            "rotation_angle": rng.uniform(-max_angle, max_angle),
            "scale": rng.uniform(1.0 - scale_span, 1.0 + scale_span),
        },
        "relative_to_bind": True,
    }


def clip_actions(workload: str, seed: int) -> list:
    """set_keyframe actions for the workload's one clip.

    ``animate`` keys bones 1 and 2 of the arm; ``many-bones`` keys every
    bone of the chain with small per-bone motions that add up along it.
    ``edit`` skins nothing and has no clip.
    """
    rng = _rng(f"{workload}-clip", seed)
    if workload == "animate":
        bones, angle, shift, span = (1, 2), 1.0, 2.0, 0.25
    elif workload == "many-bones":
        bones, angle, shift, span = range(CHAIN_BONES), 0.12, 0.1, 0.05
    else:
        return []
    return [_key(rng, b, t, angle, shift, span) for b in bones for t in KEY_TIMES]


# ---------------------------------------------------------------- ops


def _frame_ops(workload: str, seed: int) -> list:
    rng = _rng(f"{workload}-ops", seed)
    n = CYCLE_PER_KIND[workload]
    times = _strata(rng, n * len(BACKENDS), KEY_TIMES[0], KEY_TIMES[-1])
    ops = []
    for i, t in enumerate(times):
        backend = BACKENDS[i % len(BACKENDS)]
        action = {"action": "sample", "clip": CLIP, "times": [t]}
        ops.append({"kind": backend, "backend": backend, "accel": False, "actions": [action]})
    return ops


def _cut_action(tilt: float, azimuth: float, z0: float) -> dict:
    normal = [math.sin(tilt) * math.cos(azimuth), math.sin(tilt) * math.sin(azimuth), math.cos(tilt)]
    return {"action": "cut", "plane": {"normal": normal, "d": normal[2] * z0}}


def _radial_state(time: float, angle: float, z: float) -> dict:
    c, s = math.cos(angle), math.sin(angle)
    inner, outer = 0.25 * ARM_RADIUS, 1.5 * ARM_RADIUS
    return {"time": time, "tip": [inner * c, inner * s, z], "tail": [outer * c, outer * s, z]}


def _tear_actions(rng: random.Random, n: int) -> list:
    """Radial scalpel strokes of 3 states at stratified heights and angles.

    Every stroke has the same number of states: without the BVH a 3-state
    stroke costs about 1.4 times a 2-state one, and a mix of the two made
    the per-kind median jump between the two modes from seed to seed.
    """
    heights = _strata(rng, n, 0.25 * ARM_LENGTH, 0.75 * ARM_LENGTH)
    starts = _strata(rng, n, 0.0, 2.0 * math.pi)
    steps = _strata(rng, n, math.radians(25.0), math.radians(70.0))
    deltas = _strata(rng, n, 0.1, 0.5)
    out = []
    for k in range(n):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        states = []
        angle, z = starts[k], heights[k]
        for i in range(STROKE_STATES):
            states.append(_radial_state(float(i), angle, z))
            angle += sign * steps[k]
            z += rng.uniform(-1.5, 1.5)
        out.append({"action": "tear", "states": states, "delta": deltas[k]})
    return out


def _edit_ops(seed: int) -> list:
    rng = _rng("edit-ops", seed)
    n = CYCLE_PER_KIND["edit"]
    tilts = _strata(rng, n, math.radians(10.0), math.radians(35.0))
    azimuths = _strata(rng, n, 0.0, 2.0 * math.pi)
    heights = _strata(rng, n, 0.25 * ARM_LENGTH, 0.75 * ARM_LENGTH)
    cuts = [_cut_action(tilts[k], azimuths[k], heights[k]) for k in range(n)]
    tears = _tear_actions(rng, n)
    ops = []
    for k in range(n):
        ops.append({"kind": "cut", "backend": "cga", "accel": False, "actions": [cuts[k]]})
        ops.append({"kind": "tear", "backend": "cga", "accel": True, "actions": [tears[k]]})
        ops.append({"kind": "tear_scan", "backend": "cga", "accel": False, "actions": [tears[k]]})
    return ops


def op_cycle(workload: str, seed: int) -> list:
    """One cycle of ops, kinds interleaved round-robin.

    Each op is ``{"kind", "backend", "accel", "actions"}``; ``actions``
    is the script action list handed to ``validate_script``.
    """
    if workload == "edit":
        return _edit_ops(seed)
    return _frame_ops(workload, seed)


def op_kinds(workload: str) -> tuple:
    return EDIT_KINDS if workload == "edit" else BACKENDS
