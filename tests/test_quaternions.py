"""The quaternion helpers against their oracles' bytes, and nlerp's degenerate blends."""

import numpy as np
import pytest

import mvskin.quaternions as quat
from mvskin.errors import DegenerateBlend

import quaternion_oracle as oracle
from quaternion_oracle import scalar_from_matrix, shepperd_branch


def assert_same_bytes(got, expect):
    assert got.shape == expect.shape
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def half_turn(axis):
    """The rotation by pi about an axis, 2 u u^T - I: exactly symmetric, so w is exactly 0."""
    u = np.asarray(axis, dtype=np.float64)
    u = u / np.linalg.norm(u)
    return 2.0 * np.outer(u, u) - np.eye(3)


AXES = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (0, 1, -1), (1, 0, -1), (1, 1, 1), (-1, 1, 1), (1, -1, 1),
    (-0.3, 0.9, 0.3), (-0.2, -0.3, 0.9), (0.4, -0.2, 0.9), (-0.9, 0.3, 0.2),
]


def seeded_rotations(n, seed=3):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    # a uniform scale divided back out by the cube root of the determinant,
    # as dq skinning does, leaves rotations that are off by a few ulps
    scaled = [s * quat.to_matrix(x) for s, x in zip(rng.uniform(0.5, 2.0, size=n), q)]
    return np.array([m / float(np.linalg.det(m)) ** (1.0 / 3.0) for m in scaled])


def test_from_matrix_matches_the_scalar_oracle_on_seeded_rotations():
    ms = seeded_rotations(4000)
    assert (np.bincount([shepperd_branch(m) for m in ms], minlength=4) > 500).all()
    expect = np.array([scalar_from_matrix(m) for m in ms])
    assert_same_bytes(quat.from_matrix(ms), expect)
    assert_same_bytes(quat.from_matrix(ms.reshape(40, 100, 3, 3)), expect.reshape(40, 100, 4))


def test_from_matrix_matches_the_scalar_oracle_on_half_turns_and_identity():
    ms = [np.eye(3)]
    for axis in AXES:
        ms.append(half_turn(axis))
        for angle in (np.pi, -np.pi):
            ms.append(quat.to_matrix(quat.from_axis_angle(axis, angle)))
    ms = np.array(ms)
    expect = np.array([scalar_from_matrix(m) for m in ms])
    # w == 0 leaves the sign to the first nonzero imaginary part; for some
    # half-turns that part comes out of Shepperd's formula negative, so the
    # component the formula led with (0.25 s > 0) ends up negated
    zero_w = expect[:, 0] == 0.0
    assert zero_w.sum() == len(AXES)
    assert any(q[shepperd_branch(m)] < 0.0 for m, q in zip(ms[zero_w], expect[zero_w]))
    assert_same_bytes(quat.from_matrix(ms), expect)
    assert_same_bytes(np.array([quat.from_matrix(m) for m in ms]), expect)


def test_stacked_call_equals_one_matrix_calls():
    ms = np.concatenate([seeded_rotations(300, seed=11), [half_turn(a) for a in AXES]])
    one_at_a_time = np.array([quat.from_matrix(m) for m in ms])
    assert quat.from_matrix(ms[0]).shape == (4,)
    assert_same_bytes(quat.from_matrix(ms), one_at_a_time)
    assert quat.from_matrix(np.zeros((0, 3, 3))).shape == (0, 4)


def test_from_matrix_rejects_unnormalizable_input_like_the_oracle():
    bad = np.array([np.eye(3), np.full((3, 3), np.nan)])
    with pytest.raises(ValueError, match="cannot normalize quaternion with norm nan"):
        quat.from_matrix(bad)
    with pytest.raises(ValueError, match="cannot normalize quaternion with norm nan"):
        scalar_from_matrix(bad[1])


@pytest.mark.parametrize(
    "a, b, t",
    [((1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0), -1.0), ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 0.5)],
    ids=["cancelling-extrapolation", "zero"],
)
def test_nlerp_raises_degenerate_blend_on_a_zero_blend(a, b, t):
    with pytest.raises(DegenerateBlend, match="collapsed to zero"):
        quat.nlerp(a, b, t)


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1e200), (0.0, 0.0, 1e-200)], ids=["overflow", "underflow"])
def test_from_axis_angle_rescales_an_axis_whose_norm_under_or_overflows(axis):
    assert_same_bytes(quat.from_axis_angle(axis, 0.7), quat.from_axis_angle((0, 0, 1), 0.7))


@pytest.mark.parametrize(
    "axis, message",
    [
        ((0.0, 0.0, 0.0), "rotation axis must be nonzero"),
        ((np.nan, 0.0, 0.0), "rotation axis must be finite"),
        ((np.inf, 0.0, 0.0), "rotation axis must be finite"),
        ((1e200, np.nan, 0.0), "rotation axis must be finite"),
    ],
    ids=["zero", "nan", "inf", "huge-and-nan"],
)
def test_from_axis_angle_rejects_a_zero_or_non_finite_axis(axis, message):
    with pytest.raises(ValueError, match=message):
        quat.from_axis_angle(axis, 0.7)


def odd_values(rng, shape):
    """Floats of a shape with signed zeros, magnitudes near 1e-150 and 1e150, inf and NaN among them."""
    x = rng.normal(size=shape) * 10.0 ** rng.choice([0.0, -150.0, 150.0, -160.0, 160.0], size=shape)
    odd = rng.random(shape)
    x[odd < 0.05] = 0.0
    x[(0.05 <= odd) & (odd < 0.1)] = -0.0
    x[(0.1 <= odd) & (odd < 0.12)] = np.nan
    x[(0.12 <= odd) & (odd < 0.13)] = -np.inf
    return x


# (shape of a, shape of b) for multiply; rotate reads b's last axis as 3
SHAPES = [((4,), (4,)), ((500, 4), (500, 4)), ((20, 30, 4), (20, 30, 4)), ((500, 4), (4,)), ((20, 30, 4), (30, 4))]


@pytest.mark.parametrize("a_shape, b_shape", SHAPES, ids=["one", "rows", "grid", "rows-by-one", "grid-by-rows"])
def test_multiply_and_rotate_have_the_bytes_of_their_array_forms(a_shape, b_shape):
    rng = np.random.default_rng(17)
    v_shape = b_shape[:-1] + (3,)
    with np.errstate(all="ignore"):
        for _ in range(4):
            a, b, v = odd_values(rng, a_shape), odd_values(rng, b_shape), odd_values(rng, v_shape)
            assert_same_bytes(quat.multiply(a, b), oracle.multiply(a, b))
            assert_same_bytes(quat.rotate(a, v), oracle.rotate(a, v))
            # the components along the first axis, as skin_dq's planes
            if len(a_shape) == len(b_shape) > 1:
                assert_same_bytes(quat.multiply(a.T, b.T, axis=0), oracle.multiply(a, b).T)
                assert_same_bytes(quat.rotate(a.T, v.T, axis=0), oracle.rotate(a, v).T)
