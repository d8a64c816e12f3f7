"""Algebra kernel tests.

The blade-product oracle (cga_oracle) is written independently of the
package: blades are generator index tuples, products are computed by
bubble-sorting the concatenated tuple (counting sign flips) and
contracting adjacent duplicates with the metric.  The package's Cayley
table and every gather derived from it must match the oracle's dense
table exactly, and every versor constructor is checked against a plain
matrix or quaternion oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvskin.algebra as algebra
from mvskin.algebra import (
    BLADE_INDEX,
    BLADE_TUPLES,
    CAYLEY_BLADES,
    CAYLEY_SIGNS,
    DIM,
    GRADES,
    Multivector,
    down,
    down_block,
    e1,
    e2,
    e3,
    e4,
    e5,
    geometric_product,
    make_dilator,
    make_plane,
    make_rotor,
    make_translator,
    ninf,
    no,
    plane_distances,
    reverse,
    rotor_from_quaternion,
    sandwich_block,
    up,
    up_block,
    up_points,
    versor_inverse,
)
from mvskin.errors import PointAtInfinity, SingularVersor

from cga_oracle import (
    GP,
    argmax_gather,
    dense_sandwich_matrix,
    oracle_blade_product,
    sandwich,
    transform_points,
)


def rotation_matrix(axis, angle):
    """Rodrigues rotation matrix about a unit axis."""
    u = np.asarray(axis, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return c * np.eye(3) + s * ux + (1 - c) * np.outer(u, u)


def quat_rotate(q, p):
    """Rotate p by unit quaternion (w, x, y, z)."""
    w, v = q[0], np.asarray(q[1:], dtype=float)
    p = np.asarray(p, dtype=float)
    return p + 2.0 * w * np.cross(v, p) + 2.0 * np.cross(v, np.cross(v, p))


def random_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_mv(rng):
    return Multivector(rng.normal(size=DIM))


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


# -- Cayley table ------------------------------------------------------------

def test_cayley_table_matches_oracle_exactly():
    for i, ta in enumerate(BLADE_TUPLES):
        for j, tb in enumerate(BLADE_TUPLES):
            sign, blade = oracle_blade_product(ta, tb)
            assert CAYLEY_SIGNS[i, j] == sign, (ta, tb)
            assert CAYLEY_BLADES[i, j] == BLADE_INDEX[blade], (ta, tb)


def test_basis_order_is_grade_then_lex():
    assert BLADE_TUPLES[0] == ()
    assert BLADE_TUPLES[1:6] == ((1,), (2,), (3,), (4,), (5,))
    assert BLADE_TUPLES[6:9] == ((1, 2), (1, 3), (1, 4))
    assert BLADE_TUPLES[-1] == (1, 2, 3, 4, 5)
    assert list(GRADES) == sorted(GRADES)


def test_metric_signature():
    for base, square in [(e1, 1.0), (e2, 1.0), (e3, 1.0), (e4, 1.0), (e5, -1.0)]:
        assert (base * base).coeffs[0] == square


def test_null_vectors():
    assert not (no * no).coeffs.any()
    assert not (ninf * ninf).coeffs.any()
    # the scalar part of a product of vectors is their inner product
    assert (no * ninf).scalar_part == -1.0
    assert (ninf * no).scalar_part == -1.0


# -- algebraic laws ----------------------------------------------------------

def test_associativity_distributivity_reversion():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = (random_mv(rng) for _ in range(3))
        assert rel_err(((a * b) * c).coeffs, (a * (b * c)).coeffs) < 1e-12
        assert rel_err((a * (b + c)).coeffs, (a * b + a * c).coeffs) < 1e-12
        assert rel_err(reverse(a * b).coeffs, (reverse(b) * reverse(a)).coeffs) < 1e-12


def test_operator_sugar():
    rng = np.random.default_rng(10)
    a, b = random_mv(rng), random_mv(rng)
    assert (a * b) == geometric_product(a, b)
    assert (~a) == reverse(a)
    assert (2.0 * a) == (a * 2.0)
    assert (a / 2.0) == (a * 0.5)
    assert (a - a) == Multivector.zero()
    assert (1 + Multivector.zero()) == Multivector.scalar(1.0)


def test_coefficients_are_immutable():
    a = Multivector.scalar(1.0)
    with pytest.raises(ValueError):
        a.coeffs[0] = 2.0


# -- point embedding ---------------------------------------------------------

def test_up_down_round_trip():
    rng = np.random.default_rng(11)
    pts = rng.normal(scale=10.0, size=(50, 3))
    for p in pts:
        assert rel_err(down(up(p)), p) < 1e-12
    assert rel_err(down_block(up_block(pts)), pts) < 1e-12


def test_down_is_scale_invariant():
    p = np.array([1.5, -2.0, 0.25])
    scaled = Multivector(3.7 * up(p).coeffs)
    assert rel_err(down(scaled), p) < 1e-12


def test_down_rejects_point_at_infinity():
    with pytest.raises(PointAtInfinity):
        down(ninf)
    with pytest.raises(PointAtInfinity):
        down_block(np.stack([up([1, 2, 3]).coeffs, ninf.coeffs])[:, 1:6])


def test_up_of_origin_is_no():
    assert np.array_equal(up([0, 0, 0]).coeffs, no.coeffs)


# -- versor constructors against matrix oracles -------------------------------

def test_rotor_quarter_turn():
    R = make_rotor([0.0, 0.0, 1.0], math.pi / 2)
    assert rel_err(down(sandwich(R, up([1, 0, 0]))), [0, 1, 0]) < 1e-12


def test_rotor_matches_rotation_matrix():
    rng = np.random.default_rng(12)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-2 * math.pi, 2 * math.pi)
        R = make_rotor(axis, angle)
        mat = rotation_matrix(axis, angle)
        p = rng.normal(scale=5.0, size=3)
        assert rel_err(down(sandwich(R, up(p))), mat @ p) < 1e-12


def test_rotor_quaternion_compatibility():
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = random_quaternion(rng)
        R = rotor_from_quaternion(q)
        p = rng.normal(scale=3.0, size=3)
        assert rel_err(down(sandwich(R, up(p))), quat_rotate(q, p)) < 1e-12
    # axis-angle quaternion equals the rotor constructor coefficient for coefficient
    axis = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    angle = 0.7
    q = np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * axis])
    assert np.allclose(
        rotor_from_quaternion(q).coeffs, make_rotor(axis, angle).coeffs, atol=1e-15
    )


def test_translator_action():
    rng = np.random.default_rng(14)
    for _ in range(20):
        t = rng.normal(scale=10.0, size=3)
        p = rng.normal(scale=10.0, size=3)
        T = make_translator(t)
        assert rel_err(down(sandwich(T, up(p))), p + t) < 1e-12


def test_dilator_scales_points_about_origin():
    rng = np.random.default_rng(15)
    for _ in range(20):
        s = float(rng.uniform(0.1, 10.0))
        p = rng.normal(scale=5.0, size=3)
        D = make_dilator(s)
        assert rel_err(down(sandwich(D, up(p))), s * p) < 1e-12
    # frozen coefficients: s = 4 gives cosh(ln 2) = 1.25, sinh(ln 2) = 0.75
    D4 = make_dilator(4.0)
    assert D4.coeffs[0] == pytest.approx(1.25, abs=1e-15)
    assert D4.coeffs[BLADE_INDEX[(4, 5)]] == pytest.approx(-0.75, abs=1e-15)
    eliminated = [i for i in range(DIM) if i not in (0, BLADE_INDEX[(4, 5)])]
    assert not D4.coeffs[eliminated].any()


def test_dilator_fixes_origin():
    D = make_dilator(2.5)
    assert rel_err(down(sandwich(D, up([0, 0, 0]))), [0, 0, 0]) < 1e-15


def test_motor_matches_trs_matrix_action():
    rng = np.random.default_rng(16)
    for _ in range(50):
        t = rng.uniform(-10, 10, size=3)
        q = random_quaternion(rng)
        s = float(rng.uniform(0.5, 2.0))
        V = make_translator(t) * rotor_from_quaternion(q) * make_dilator(s)
        mat = np.eye(4)
        mat[:3, :3] = rotation_matrix_from_quat(q) * s
        mat[:3, 3] = t
        pts = rng.uniform(-10, 10, size=(20, 3))
        expected = pts @ (mat[:3, :3]).T + mat[:3, 3]
        assert rel_err(transform_points(V, pts), expected) < 1e-10


def rotation_matrix_from_quat(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_rotor([0, 0, 2.0], 1.0)  # non-unit axis
    with pytest.raises(ValueError):
        make_dilator(0.0)
    with pytest.raises(ValueError):
        make_dilator(-1.5)
    with pytest.raises(ValueError):
        make_plane([1.0, 1.0, 0.0], 0.0)  # non-unit normal
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^normal must be finite"):
            make_plane([bad, 0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match=r"^d must be finite, got (nan|inf|-inf)$"):
            make_plane([0.0, 0.0, 1.0], bad)
    with pytest.raises(ValueError):
        up([1.0, 2.0])
    with pytest.raises(ValueError):
        up([np.nan, 0.0, 0.0])


# -- inverse and normalization -------------------------------------------------

def left_mult_matrix(v_coeffs):
    """Matrix L with L @ x = coefficients of v * x (test-only oracle)."""
    return np.tensordot(v_coeffs, GP, axes=(0, 0)).T


def test_versor_inverse_matches_linear_solve():
    rng = np.random.default_rng(17)
    one = np.zeros(DIM)
    one[0] = 1.0
    for _ in range(30):
        t = rng.uniform(-5, 5, size=3)
        q = random_quaternion(rng)
        s = float(rng.uniform(0.5, 2.0))
        V = make_translator(t) * rotor_from_quaternion(q) * make_dilator(s)
        solved = np.linalg.solve(left_mult_matrix(V.coeffs), one)
        assert rel_err(versor_inverse(V).coeffs, solved) < 1e-9


def test_versor_inverse_round_trip():
    V = make_translator([1, 2, 3]) * make_rotor([1, 0, 0], 0.4) * make_dilator(1.7)
    ident = (V * versor_inverse(V)).coeffs
    assert rel_err(ident, Multivector.scalar(1.0).coeffs) < 1e-12


def test_singular_versor_rejected():
    with pytest.raises(SingularVersor):
        versor_inverse(Multivector.zero())
    with pytest.raises(SingularVersor):
        versor_inverse(ninf)  # null vector has zero scalar norm


def test_apply_versor_preserves_blade_grade():
    V = make_translator([1, -2, 0.5]) * make_rotor([0, 0, 1], 1.1) * make_dilator(1.3)
    X = up([0.7, 0.2, -0.9])
    out = sandwich(V, X)
    off_grade = out.coeffs[GRADES != 1]
    assert np.abs(off_grade).max() < 1e-12 * max(1.0, np.abs(out.coeffs).max())


# -- planes -------------------------------------------------------------------

def test_plane_distance_matches_euclidean_formula():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        d = float(rng.uniform(-5, 5))
        plane = make_plane(n, d)
        pts = rng.normal(scale=8.0, size=(40, 3))
        assert rel_err(plane_distances(pts, plane), pts @ n - d) < 1e-12


def test_plane_transforms_covariantly_under_rigid_motion():
    rng = np.random.default_rng(21)
    n = np.array([0.0, 0.0, 1.0])
    plane = make_plane(n, 1.0)
    V = make_translator([3, -1, 2]) * make_rotor([0, 1, 0], 0.7)
    moved_plane = sandwich(V, plane)
    pts = rng.normal(scale=4.0, size=(30, 3))
    moved_pts = transform_points(V, pts)
    # distance to the moved plane at moved points equals the original distance
    assert rel_err(plane_distances(moved_pts, moved_plane), pts @ n - 1.0) < 1e-10


def test_sandwich_block_agrees_with_apply_versor():
    V = make_translator([1, 2, -1]) * make_rotor([1, 0, 0], 0.5) * make_dilator(0.8)
    p = np.array([0.4, -2.0, 1.1])
    moved = sandwich(V, up(p)).coeffs
    assert rel_err(up_block(p[None])[0] @ sandwich_block(V), moved[1:6]) < 1e-12
    assert rel_err(moved[GRADES != 1], 0.0) < 1e-12


# -- gathered kernels against the dense contractions -----------------------------
# Every comparison is byte for byte: the gathers must reproduce the tensordot
# and 32-column results exactly, signed zeros included.


def random_versor(rng):
    axis = rng.normal(size=3)
    V = make_translator(rng.normal(scale=3.0, size=3)) * make_rotor(
        axis / np.linalg.norm(axis), rng.uniform(-math.pi, math.pi)
    )
    return V * make_dilator(rng.uniform(0.5, 2.0))


def random_sparse(rng):
    c = rng.normal(size=DIM) * (rng.random(DIM) < 0.4)
    c[rng.random(DIM) < 0.15] = -0.0
    return c


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_product_pair_gather_matches_tensordot():
    rng = np.random.default_rng(5)
    pairs = [(random_sparse(rng), random_sparse(rng)) for _ in range(300)]
    for a, b in pairs:
        assert same_bytes(algebra.geometric_products(a, b), b @ np.tensordot(a, GP, axes=(0, 0)))
    # a stack of pairs: each row has the bytes of its pair alone
    stacked = algebra.geometric_products(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
    assert same_bytes(stacked, [algebra.geometric_products(a, b) for a, b in pairs])


def test_gathers_equal_argmax_gathers_of_the_oracle_table():
    # element for element, signed zeros included
    expected = {
        "_GP_LEFT": argmax_gather(GP, 0),
        "_G1_LEFT": tuple(x[1:6] for x in argmax_gather(GP, 0)),
        "_G1_RIGHT": tuple(x[:, 1:6] for x in argmax_gather(GP, 1)),
    }
    for name, (index, sign) in expected.items():
        got_index, got_sign = getattr(algebra, name)
        assert same_bytes(got_index, index) and got_index.dtype == index.dtype, name
        assert same_bytes(got_sign, sign) and got_sign.dtype == sign.dtype, name


@pytest.mark.parametrize("axis", [0, 1])
def test_gathered_contraction_matches_tensordot(axis):
    # one nonzero per slot is what lets a gather replace each contraction
    rng = np.random.default_rng(4)
    assert np.count_nonzero(GP, axis=axis).max() == 1
    if axis:
        cases = [(algebra._G1_RIGHT, lambda x: np.tensordot(GP, x, axes=(1, 0))[:, 1:6])]
    else:
        cases = [
            (algebra._GP_LEFT, lambda x: np.tensordot(x, GP, axes=(0, 0))),
            (algebra._G1_LEFT, lambda x: np.tensordot(x, GP, axes=(0, 0))[1:6]),
        ]
    for gather, dense in cases:
        for _ in range(100):
            x = random_sparse(rng)
            assert same_bytes(algebra._gathered(gather, x), dense(x))


def test_sandwich_block_matches_dense_contraction():
    rng = np.random.default_rng(6)
    for _ in range(200):
        V = random_versor(rng)
        assert same_bytes(sandwich_block(V), dense_sandwich_matrix(V)[1:6, 1:6])


def test_block_images_match_full_images():
    rng = np.random.default_rng(7)
    pts = rng.normal(scale=10.0, size=(200, 3))
    pts[:5] = 0.0
    pts[5:10] = -0.0
    assert same_bytes(up_block(pts), up_points(pts)[:, 1:6])
    for _ in range(50):
        V = random_versor(rng)
        images = up_block(pts) @ sandwich_block(V)
        full = up_points(pts) @ dense_sandwich_matrix(V)
        assert same_bytes(images, full[:, 1:6])


def test_down_block_names_the_failing_row_or_its_id():
    X = up_block(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    X[1] = ninf.coeffs[1:6]
    with pytest.raises(PointAtInfinity, match="point 1:"):
        down_block(X)
    with pytest.raises(PointAtInfinity, match="point 41:"):
        down_block(X, np.array([7, 41]))
    with pytest.raises(ValueError):
        down_block(np.zeros((2, DIM)))


# -- one embedding: the single-point and batch routes agree byte for byte --------

def test_up_matches_up_points_bytes():
    pts = np.random.default_rng(8).normal(scale=10.0, size=(5000, 3))
    for p in pts:
        assert up(p).coeffs.tobytes() == up_points(p[None])[0].tobytes()


def test_down_matches_down_points_row_for_row():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(300, DIM))
    X[:100] = up_points(rng.normal(scale=10.0, size=(100, 3)))
    for row, expect in zip(X, down_block(X[:, 1:6])):
        assert same_bytes(down(Multivector(row)), expect)
    X[7] = ninf.coeffs
    with pytest.raises(PointAtInfinity, match="point 7:"):
        down_block(X[:, 1:6])
    with pytest.raises(PointAtInfinity):
        down(Multivector(X[7]))
    with pytest.raises(ValueError):
        down("not a multivector")


def test_plane_distances_match_dense_contraction():
    rng = np.random.default_rng(10)
    pts = rng.normal(scale=10.0, size=(200, 3))
    pts[:5] = 0.0
    pts[5:10] = -0.0
    planes = [make_plane(n, d) for n in ((0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (0.6, -0.0, -0.8),
                                          (-0.0, -0.0, 1.0), (-0.0, 1.0, 0.0)) for d in (0.0, -0.0, 2.5)]
    for plane in planes:
        # the scalar part of the contraction x . plane is that of the product x plane
        dense = up_points(pts) @ (GP[:, :, 0] @ plane.coeffs)
        assert same_bytes(plane_distances(pts, plane), dense)


# -- hypothesis properties ------------------------------------------------------

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.tuples(finite, finite, finite))
def test_up_down_round_trip_property(p):
    assert rel_err(down(up(p)), np.asarray(p)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=100, allow_nan=False),
    st.tuples(finite, finite, finite),
)
def test_dilator_action_property(s, p):
    # wide scale range: conformal coefficients span ~s*p^2, so allow 1e-8
    got = down(sandwich(make_dilator(s), up(p)))
    assert rel_err(got, s * np.asarray(p)) < 1e-8
