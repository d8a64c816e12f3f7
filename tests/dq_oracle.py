"""Dual-quaternion skinning as it was before its column passes: the byte oracle of `mvskin.animate.skin_dq`.

`skin_dq` here blends each bone group through an `image` callback that
builds a (k, 9) block with `np.column_stack`, the hemisphere sign applied
to the bone's part, and rotates with the three `np.cross` calls of
`quaternion_oracle.rotate`.  The package's `skin_dq` folds the sign into
the weight and works in (9, n) planes; it must return the same bytes, or
raise the same error.  Like the package it checks before it blends: a
pose error, the first offset that cannot be built, the first bone matrix
without a finite positive determinant, then the first bone id with no
bone.  The code is a copy, not an import of the package's passes, so
that a change to those passes shows up against it.

`random_rig` draws the rigs that `test_animate` and `dq_sweep.py` check
the package against the oracle on, and `outcome` is what they compare.
"""

import math

import numpy as np

from mvskin import quaternions as quat
from mvskin.animate import SkinnedFrame
from mvskin.errors import NumericalFailure
from mvskin.rig import Bone, Mesh, RiggedModel, Trs, TrsKey

from quaternion_oracle import multiply, rotate


def blend(model, width: int, image) -> np.ndarray:
    out = np.zeros((len(model.mesh.vertices), width))
    with np.errstate(all="ignore"):
        for g, (_, rows, weights) in enumerate(model.weights.bone_groups):
            out[rows] += weights[:, None] * image(g, rows)
    return out


def deform_matrices(model, pose) -> np.ndarray:
    """Every bone's global @ offset; a pose error raises first, then the first offset that cannot be built."""
    rows = [pose.skeleton.rows[b.id] for b in model.bones]
    return np.matmul(pose.global_matrices[rows], model.skeleton.offset_matrices)


def skin_dq(model, pose) -> SkinnedFrame:
    bones = model.bones
    slot = {b.id: i for i, b in enumerate(bones)}  # the last of equal ids wins
    with np.errstate(all="ignore"):  # an overflowing pose fails below, or in SkinnedFrame
        m = deform_matrices(model, pose)
        det = np.linalg.det(m[:, :3, :3])
        ok = (0.0 < det) & (det < np.inf)
        if not ok.all():
            b = int(np.argmin(ok))
            raise NumericalFailure(f"dq skinning: bone {bones[b].id} has no finite positive scale (det {det[b]:.3e})")
        scale = np.array([d ** (1.0 / 3.0) for d in det.tolist()])  # Python's pow, as numpy's ** rounds apart
        real = quat.from_matrix(m[:, :3, :3] / scale[:, None, None])
        dual = 0.5 * multiply(np.concatenate([np.zeros((len(bones), 1)), m[:, :3, 3]], axis=1), real)
        parts = np.column_stack([real, dual, scale])

    # the real part of each distinct pivot bone, by slot; a row with no pivot bone reads zeros
    pivots, pivot_of_row = model.weights.pivot_bones
    pivot_real = np.array([real[slot[p]] if p in slot else np.zeros(4) for p in pivots.tolist()])

    # every group's part before the blend: the first bone id with no bone raises
    group_parts = [parts[slot[bone_id]] for bone_id, _, _ in model.weights.bone_groups]

    def image(g, rows):
        part = group_parts[g]
        sgn = np.where(pivot_real[pivot_of_row[rows]] @ part[:4] < 0.0, -1.0, 1.0)
        return np.column_stack([sgn[:, None] * part[:8], np.full(len(rows), part[8])])

    acc = blend(model, 9, image)
    norm = np.linalg.norm(acc[:, :4], axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        qr, qd = acc[:, :4] / norm, acc[:, 4:8] / norm
        trans = 2.0 * multiply(qd, quat.conjugate(qr))[:, 1:]
        out = rotate(qr, acc[:, 8:] * model.mesh.vertices) + trans
    return SkinnedFrame(out, "dq", pose.time)


def outcome(skin, model, pose):
    """("ok", the frame's bytes) or (error type name, message), with every floating-point warning off."""
    try:
        with np.errstate(all="ignore"):
            return "ok", skin(model, pose).positions.tobytes()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _unit_quaternion(r) -> tuple:
    """The rotation by an angle in [-2 pi, 2 pi] about a random axis: either hemisphere."""
    axis = [r.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in axis)) or 1.0
    h = 0.5 * r.uniform(-2.0 * math.pi, 2.0 * math.pi)
    return (math.cos(h), *(math.sin(h) * x / n for x in axis))


def _trs(r, odd: bool) -> Trs:
    """A transform with a non-unit scale; odd ones overflow a bone matrix."""
    t = tuple(r.gauss(0.0, 2.0) for _ in range(3))
    s = r.uniform(0.3, 3.0)
    if odd and r.random() < 0.5:
        s = 1e120  # the determinant overflows: NumericalFailure names the bone
    elif odd:
        t = (1e300, -1e300, 0.0)  # the translation overflows: NumericalFailure names the vertex
    return Trs(t, _unit_quaternion(r), s)


def random_rig(r, n=None, n_vertices=None):
    """(model, time): a keyed rig of n bones and n_vertices vertices, from a random.Random.

    Sizes not given are drawn: 1-70 bones, 1-200 vertices.

    Each vertex has 1-4 influences; weights of 0, equal weights (pivot
    ties) and rows that do not sum to 1 all occur.  Keys rotate up to two
    full turns, so neighbours fall in opposite hemispheres; scales are not
    1, and about one rig in eight has a pose that overflows.  Some rigs
    repeat a bone id (the last of equal ids is the one dq skins with),
    weight an unknown bone, or have a vertex at a signed zero.  About one
    rig in twenty has an offset that cannot be built, on a bone that
    vertices weight or on one that none does: a zero quaternion, or a
    zero scale, which only the conformal backends reject.
    """
    n = n or r.randint(1, 70)
    n_vertices = n_vertices or r.randint(1, 200)
    ids = list(range(n))
    r.shuffle(ids)
    bones = [Bone(ids[i], None if i == 0 or r.random() < 0.1 else ids[r.randrange(i)], _trs(r, False), _trs(r, False))
             for i in range(n)]
    if r.random() < 0.1:
        twin = r.choice(bones)
        bones.append(Bone(twin.id, twin.parent, _trs(r, False), twin.bind))
    bones.sort(key=lambda b: b.id)
    odd = r.random() < 0.125
    tracks = {}
    for b in range(n):
        if r.random() < 0.8:
            times = sorted(r.sample((0.0, 0.5, 1.0), r.randint(1, 3)))
            keys = [_trs(r, odd and r.random() < 0.3) for _ in times]
            tracks[b] = tuple(TrsKey(t, k.translation, k.rotation, k.scale) for t, k in zip(times, keys))
    vertices = [[r.choice((0.0, -0.0)) if r.random() < 0.05 else r.uniform(-5.0, 5.0) for _ in range(3)]
                for _ in range(n_vertices)]
    known = list(range(n)) + ([n] if r.random() < 0.05 else [])
    weights = []
    for _ in range(n_vertices):
        picked = r.sample(known, min(len(known), r.randint(1, 4)))
        ws = [r.choice((0.0, 0.25, 0.5, r.random(), r.random())) for _ in picked]
        total = sum(ws)
        if total == 0.0:
            ws[0] = total = 0.5
        if r.random() < 0.5:
            ws = [w / total for w in ws]
        weights.append(tuple(zip(picked, ws)))
    if r.random() < 0.05:  # a vertex whose weights are all 0 fails as non-finite
        weights[r.randrange(n_vertices)] = ((r.choice(known), 0.0),)
    time = r.choice((0.0, 0.5, 1.0, r.random()))
    if r.random() < 0.05:  # drawn last, so that every other rig keeps its draws
        weighted = r.random() < 0.5
        used = {bone_id for row in weights for bone_id, _ in row}
        b = r.choice([i for i, bone in enumerate(bones) if (bone.id in used) == weighted] or range(len(bones)))
        offset = bones[b].offset
        if r.random() < 0.5:  # no backend builds a zero quaternion
            offset = Trs(offset.translation, (0.0, 0.0, 0.0, 0.0), offset.scale)
        else:  # a zero scale has no versor, but lbs and dq build its matrix
            offset = Trs(offset.translation, offset.rotation, 0.0)
        bones[b] = Bone(bones[b].id, bones[b].parent, offset, bones[b].bind)
    model = RiggedModel(Mesh(vertices, np.zeros((0, 3))), tuple(bones), tuple(weights), {"c": tracks})
    return model, time
