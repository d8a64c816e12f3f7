"""The stacked pose passes against the per-bone oracle, byte for byte.

Every interpolated local transform, leaf, global chain, deform transform
and skinned frame must have the bytes of `pose_oracle`'s per-bone path,
and wherever the oracle raises, the package must raise the same error
type with the same message.
"""

import math

import numpy as np
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import pose_oracle as oracle
from mvskin import animate
from mvskin.algebra import ninf, sandwich_blocks
from mvskin.animate import SKIN_BACKENDS, global_pose_at
from mvskin.rig import Bone, Mesh, RiggedModel, Trs, TrsKey, trs_matrices, trs_rows, trs_versors

KEY_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0)
SAMPLE_TIMES = KEY_TIMES + (-1.0, 0.25, 0.7, 1.3, 3.0)

# values the leaf constructors reject, or that overflow or collapse a blend
ODD_COORDS = (math.inf, -math.inf, math.nan, 1e300)
ODD_QUATS = ((0.0, 0.0, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0), (math.nan, 1.0, 0.0, 0.0), (1e-200, 0.0, 0.0, 0.0), (3.0, 4.0, 0.0, 0.0))
ODD_SCALES = (0.0, -1.0, math.inf, math.nan, 1e-300, 1e300)


@st.composite
def transforms(draw, odd_rate):
    """A Trs whose fields are each odd with probability 1 / odd_rate (never, for 0)."""

    def odd():
        return odd_rate and draw(st.integers(0, odd_rate - 1)) == 0

    coord = st.floats(-3.0, 3.0)
    t = [draw(st.sampled_from(ODD_COORDS)) if odd() else draw(coord) for _ in range(3)]
    if odd():
        q = draw(st.sampled_from(ODD_QUATS))
    else:
        q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: sum(x * x for x in v) > 1e-3))
        if draw(st.booleans()):  # unit, as a loaded rig's are; the leaves normalize either way
            n = math.sqrt(sum(x * x for x in q))
            q = tuple(x / n for x in q)
    s = draw(st.sampled_from(ODD_SCALES)) if odd() else draw(st.floats(0.25, 4.0))
    return Trs(tuple(t), tuple(q), s)


@st.composite
def rigs(draw):
    """A keyed rig of 1-9 bones, ids shuffled, and a few sample times.

    Roots, odd key and offset values, far-hemisphere keys, bones without
    a track or without weights, and weights on an unknown bone all occur;
    half the rigs have no odd offset.  A quarter of the rigs are valid but
    for one bone's huge or tiny key scales.
    """
    n = draw(st.integers(1, 9))
    # a huge or tiny scale passes every check before the blend, which finds
    # the deform versor singular; any other odd field would raise first
    odd_scale_bone = draw(st.integers(0, n - 1)) if draw(st.integers(0, 3)) == 0 else None
    # every backend checks every offset before its first term, so half the
    # rigs keep their offsets valid and reach the blend
    offset_odd_rate = 0 if odd_scale_bone is not None else draw(st.sampled_from((0, 12)))
    parents = [None if i == 0 or draw(st.integers(0, 4)) == 0 else draw(st.integers(0, i - 1)) for i in range(n)]
    ids = draw(st.permutations(range(n)))
    bones = sorted(
        (
            Bone(ids[i], None if p is None else ids[p], draw(transforms(offset_odd_rate)), draw(transforms(0)))
            for i, p in enumerate(parents)
        ),
        key=lambda b: b.id,
    )
    n_vertices = draw(st.integers(1, 8))
    vertices = draw(st.lists(st.tuples(*[st.floats(-5.0, 5.0)] * 3), min_size=n_vertices, max_size=n_vertices))
    known = st.integers(0, n - 1)
    bone_ids = known if odd_scale_bone is not None else st.one_of(*[known] * 9, st.just(n))
    weights = []
    for _ in range(n_vertices):
        picked = draw(st.lists(bone_ids, min_size=1, max_size=4, unique=True))
        ws = [draw(st.floats(0.05, 1.0)) for _ in picked]
        weights.append(tuple((b, w / sum(ws)) for b, w in zip(picked, ws)))
    tracks = {}
    for b in range(n):
        odd_scale = b == odd_scale_bone
        times = sorted(draw(st.lists(st.sampled_from(KEY_TIMES), min_size=int(odd_scale), max_size=4, unique=True)))
        keys = []
        for t in times:
            trs = draw(transforms(0 if odd_scale_bone is not None else 15))
            q = trs.rotation
            if keys and draw(st.booleans()):  # the next key in the far hemisphere
                q = tuple(-x for x in keys[-1].rotation)
            scale = draw(st.sampled_from((1e-300, 1e300))) if odd_scale else trs.scale
            keys.append(TrsKey(t, trs.translation, q, scale))
        if keys:
            tracks[b] = tuple(keys)
    model = RiggedModel(Mesh(vertices, np.zeros((0, 3))), tuple(bones), tuple(weights), {"c": tracks})
    times = draw(st.lists(st.one_of(st.sampled_from(SAMPLE_TIMES), st.floats(-1.0, 3.0)), min_size=1, max_size=3))
    return model, times


def outcome(fn):
    """("ok", result) or (error type name, message)."""
    try:
        with np.errstate(all="ignore"):
            return "ok", fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def canonical(x) -> bytes:
    """The bytes of a float array with every NaN written as the one quiet NaN.

    A NaN's sign bit depends on the operand order inside numpy's loops; a
    NaN never reaches a frame, which rejects it, nor an error message.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def same_outcome(got, want, bytes_of=canonical):
    if want[0] != "ok" or got[0] != "ok":
        assert got == want
        return False
    assert bytes_of(got[1]) == bytes_of(want[1])
    return True


def check_pose(model, t):
    with np.errstate(all="ignore"):  # odd values overflow; warnings are not the subject here
        compare_pose(model, t)


def compare_pose(model, t):
    got = outcome(lambda: global_pose_at(model, "c", t))
    want = outcome(lambda: oracle.pose_at(model, "c", t))
    if not same_outcome(got, want, bytes_of=lambda _: b""):
        return
    pose, ref = got[1], want[1]

    # interpolated local transforms
    assert list(pose.skeleton.order) == [b for b, _ in ref.local]
    rows = trs_rows(trs for _, trs in ref.local)
    for a, b in zip((pose.translations, pose.rotations, pose.scales), rows):
        assert canonical(a) == canonical(b)

    # leaves and chains, each representation with its own errors
    chained = {}
    for leaves, leaf, stack, globals_ in (
        (trs_versors, oracle.trs_versor, "global_versors", "versors"),
        (trs_matrices, oracle.trs_matrix, "global_matrices", "matrices"),
    ):
        first_bad = outcome(lambda: [leaf(trs) for _, trs in ref.local])
        chained[stack] = same_outcome(outcome(lambda: leaves(*rows)), first_bad, bytes_of=canonical)
        if chained[stack]:
            by_row = [getattr(ref, globals_)[b.id] for b in pose.skeleton.order]
            assert same_outcome(outcome(lambda: getattr(pose, stack)), ("ok", by_row), bytes_of=canonical)

    # deform transforms: every check before the first term, then each weight
    # group's grade-1 images in the term buffer, group-major; every bone's
    # deform matrix, or the first error of the oracle's bones
    groups = model.weights.bone_groups
    if chained["global_versors"] and groups:
        images = []

        def keep(terms):  # the images of every group, before weighting
            images.append(terms.copy())
            return terms

        blended = outcome(lambda: animate._sandwich_blend(model, pose, keep))
        ref_image = outcome(lambda: oracle.sandwich_images(model, ref))
        if not images:  # a check failed, so no term was written
            assert blended == ref_image
        else:
            assert ref_image[0] == "ok"
            (terms,) = images
            bounds = model.weights.blend_terms[1]
            for g, (bone_id, rows_g, _) in enumerate(groups):
                assert canonical(terms[bounds[g] : bounds[g + 1]]) == canonical(ref_image[1](bone_id, rows_g))
    if chained["global_matrices"]:
        stack = outcome(lambda: animate._deform_matrices(model, pose))
        want = outcome(lambda: [oracle.deform_matrix(model, ref, bone) for bone in model.bones])
        same_outcome(stack, want)

    # skinned frames
    for name, skin in SKIN_BACKENDS.items():
        frame = outcome(lambda: skin(model, pose))
        same_outcome(frame, outcome(lambda: oracle.SKIN[name](model, ref)), bytes_of=lambda f: f.positions.tobytes())


@settings(max_examples=100, deadline=None)
@given(rigs())
def test_stacked_pose_passes_match_the_per_bone_oracle(drawn):
    model, times = drawn
    for t in times:
        check_pose(model, t)


def test_rigs_reach_a_singular_deform_versor():
    # the property's rigs reach the blend's singular-versor check, which
    # every other check runs before; the oracle raises there too
    def singular(drawn):
        model, times = drawn
        with np.errstate(all="ignore"):
            return any(
                outcome(lambda: SKIN_BACKENDS[name](model, global_pose_at(model, "c", t)))[0] == "SingularVersor"
                for t in times
                for name in ("cga", "cga_sum")
            )

    model, times = find(
        rigs(), singular, settings=settings(max_examples=300, derandomize=True, database=None, phases=[Phase.generate])
    )
    for t in times:
        check_pose(model, t)


def valid_rig() -> RiggedModel:
    """Five bones, every one with a valid pose; bones 1 and 4 keyed at 0 and 1, bone 2 at 0.5, 1.5 and 2."""
    parents = [None, 0, 1, 0, 3]
    rng = np.random.default_rng(7)
    bones = tuple(
        Bone(i, p, Trs(tuple(rng.normal(size=3)), (1.0, 0.0, 0.0, 0.0), 1.2), Trs(tuple(rng.normal(size=3))))
        for i, p in enumerate(parents)
    )
    q = tuple(rng.normal(size=4))
    keys = (TrsKey(0.0, (0.0, 1.0, 0.0), q, 0.8), TrsKey(1.0, (1.0, 0.0, 0.0), tuple(-x for x in q), 1.5))
    more = tuple(TrsKey(t, tuple(rng.normal(size=3)), tuple(rng.normal(size=4)), 1.0 + t) for t in (0.5, 1.5, 2.0))
    weights = tuple(((i % 5, 0.5), ((i + 1) % 5, 0.5)) for i in range(6))
    return RiggedModel(Mesh(rng.normal(size=(6, 3)), np.zeros((0, 3))), bones, weights, {"c": {1: keys, 2: more, 4: keys}})


def test_the_oracle_is_reached_on_every_path():
    # a rig whose every bone has a valid pose: the property's success paths
    # run, not only its error paths
    model = valid_rig()
    for t in (-1.0, 0.0, 0.4, 1.0, 2.0):
        pose = global_pose_at(model, "c", t)
        ref = oracle.pose_at(model, "c", t)
        for name, skin in SKIN_BACKENDS.items():
            assert skin(model, pose).positions.tobytes() == oracle.SKIN[name](model, ref).positions.tobytes()
        check_pose(model, t)


def test_times_read_their_keys_whichever_time_of_their_place_came_first():
    # what the keys a time reads depend on is kept per place among the key
    # times (on a key time, or between two), so each order of these times
    # meets every place first at another time, and each must match the oracle
    times = [-1.0, -0.5, 0.0, -0.0, 0.2, 0.4, 0.5, 0.75, 1.0, 1.0 + 1e-12, 1.7, 2.0, 5.0, math.inf, -math.inf, math.nan]
    for order in (times, times[::-1], times[1::2] + times[::2]):
        model = valid_rig()
        for t in order:
            check_pose(model, t)


def test_sandwich_blocks_match_each_block_and_name_the_singular_rows():
    rng = np.random.default_rng(11)
    stack = np.array(
        [
            oracle.trs_versor(Trs(tuple(rng.normal(size=3)), tuple(rng.normal(size=4)), float(rng.uniform(0.5, 2.0))))
            for _ in range(6)
        ]
    )
    stack[2] = 0.0
    stack[4] = ninf.coeffs  # null: its scalar norm is 0
    blocks, singular = sandwich_blocks(stack)
    assert sorted(singular) == [2, 4]
    for i, versor in enumerate(stack):
        want = outcome(lambda: oracle.sandwich_block(versor))
        if i in singular:
            assert (type(singular[i]).__name__, str(singular[i])) == want
        else:
            assert canonical(blocks[i]) == canonical(want[1])
