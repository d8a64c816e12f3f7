"""Conformal geometric algebra R(4,1) on a fixed 32-blade basis.

Basis and conventions
---------------------
Generators e1..e5 square to (+1, +1, +1, +1, -1).  e1..e3 span the
Euclidean directions; e4 and e5 form the null pair

    no   = 0.5 * (e5 - e4)     origin,   no * no = 0
    ninf = e5 + e4             infinity, ninf * ninf = 0, no . ninf = -1

Blades are ordered by grade, then lexicographically by generator index:
1, e1..e5, e12, e13, e14, e15, e23, ..., e45, e123, ..., e12345.  A
multivector is a read-only float64 vector of the 32 blade coefficients
in that order.

A blade is a bitmask of its generators, so the product of two blades is
the blade of their XOR times a sign (Dorst, Fontijne & Mann, ch. 19).  The
32x32 tables CAYLEY_BLADES and CAYLEY_SIGNS hold that rule once; every
product and the grade-1 sandwich block are signed gathers read from them.

Versor conventions (each one pinned by a matrix oracle in the tests):

* rotor       make_rotor(u, a) = cos(a/2) - sin(a/2) * B, where B is the
  unit bivector dual to the axis u (axis +z gives B = e12).  Coefficient
  compatible with unit quaternions: (w, x, y, z) maps to
  w - x*e23 + y*e13 - z*e12, and both act by the same sandwich.
* translator  make_translator(t) = 1 - 0.5 * t * ninf
* dilator     make_dilator(s) = cosh(L) - sinh(L) * e45 with L = 0.5*ln(s),
  i.e. exp(0.5 * ln(s) * no^ninf); its sandwich scales points about the
  origin by s after down-projection.

Motors are geometric products of the above.  Every such versor V satisfies
V * reverse(V) = scalar > 0, so `versor_inverse` is reversal divided by
that scalar.  Points embed as up(p) = p + 0.5*p^2*ninf + no; planes with
unit normal n and offset d embed as n + d*ninf, and the scalar part of
the contraction up(p) . plane equals the Euclidean signed distance n.p - d.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import PointAtInfinity, SingularVersor

__all__ = [
    "DIM",
    "BLADE_TUPLES",
    "BLADE_NAMES",
    "BLADE_INDEX",
    "GRADES",
    "CAYLEY_SIGNS",
    "CAYLEY_BLADES",
    "Multivector",
    "Versor",
    "blades",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "no",
    "ninf",
    "geometric_product",
    "geometric_products",
    "reverse",
    "up",
    "down",
    "up_points",
    "up_block",
    "down_block",
    "make_rotor",
    "rotor_from_quaternion",
    "make_translator",
    "make_dilator",
    "make_plane",
    "versor_inverse",
    "sandwich_block",
    "sandwich_blocks",
    "plane_distances",
]

DIM = 32

_SQUARES = (1.0, 1.0, 1.0, 1.0, -1.0)  # metric of e1..e5

BLADE_TUPLES: tuple[tuple[int, ...], ...] = tuple(
    t for k in range(6) for t in combinations(range(1, 6), k)
)
BLADE_INDEX: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(BLADE_TUPLES)}
BLADE_NAMES: tuple[str, ...] = tuple(
    "1" if not t else "e" + "".join(str(g) for g in t) for t in BLADE_TUPLES
)
_NAME_INDEX = {n: i for i, n in enumerate(BLADE_NAMES)}
GRADES = np.array([len(t) for t in BLADE_TUPLES], dtype=np.int64)


def _blade_product(ma: int, mb: int) -> float:
    """Sign of the product of two basis blades given as generator bitmasks.

    The sign counts the transpositions needed to interleave the two sorted
    generator lists, then repeated generators contract with their metric
    square.  The product blade itself is ma ^ mb.
    """
    a = ma >> 1
    swaps = 0
    while a:
        swaps += bin(a & mb).count("1")
        a >>= 1
    sign = -1.0 if swaps & 1 else 1.0
    common = ma & mb
    for g in range(5):
        if common >> g & 1:
            sign *= _SQUARES[g]
    return sign


# Cayley table: the product of blades i and j is the blade of mask_i ^ mask_j
# times the sign _blade_product gives.
_MASKS = [sum(1 << (g - 1) for g in t) for t in BLADE_TUPLES]
CAYLEY_BLADES = np.argsort(_MASKS)[np.bitwise_xor.outer(_MASKS, _MASKS)]
CAYLEY_SIGNS = np.array([[_blade_product(ma, mb) for mb in _MASKS] for ma in _MASKS])
CAYLEY_BLADES.flags.writeable = False
CAYLEY_SIGNS.flags.writeable = False

_REVERSE_SIGNS = np.array([(-1.0) ** (k * (k - 1) // 2) for k in GRADES])
_REVERSE_SIGNS.flags.writeable = False

_E4 = BLADE_INDEX[(4,)]
_E5 = BLADE_INDEX[(5,)]
_E45 = BLADE_INDEX[(4, 5)]
_E12 = BLADE_INDEX[(1, 2)]
_E13 = BLADE_INDEX[(1, 3)]
_E23 = BLADE_INDEX[(2, 3)]

# A conformal point carries a no-coefficient at least this large; below it
# the point has no finite Euclidean representative.
_POINT_EPS = 1e-12
# V * reverse(V) scalar norms below this are not invertible.
_VERSOR_EPS = 1e-14


_J = np.arange(DIM)[:, None]
# x -> a x as a (j, k) matrix: the blade i with i * j = k is CAYLEY_BLADES[j, k].
_GP_LEFT = (CAYLEY_BLADES, CAYLEY_SIGNS[CAYLEY_BLADES, _J])
# Rows and columns of the grade-1 block e1..e5 (see sandwich_block), contiguous:
# x -> v x restricted to rows e1..e5, and y -> y w restricted to columns e1..e5.
_G1 = slice(1, 6)
_G1_LEFT = tuple(np.ascontiguousarray(x[_G1]) for x in _GP_LEFT)
_G1_RIGHT = (
    np.ascontiguousarray(CAYLEY_BLADES[:, _G1]),
    CAYLEY_SIGNS[_J, CAYLEY_BLADES[:, _G1]],
)


def _gathered(gather: tuple, x: np.ndarray) -> np.ndarray:
    """The gather's table of x, or (k, ...) tables of a (k, 32) stack, C-contiguous.

    Each table must be contiguous: x[..., index] on a stack puts the stack
    axis innermost, and matmul then takes another BLAS path than for one
    table, which rounds differently.  + 0.0 turns -0 into the +0 that the
    tensordot's sum gives.
    """
    index, sign = gather
    table = x.take(index, axis=-1)
    table *= sign
    table += 0.0
    return table


def geometric_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric products ab of two coefficient arrays (32,), or row-wise of two (k, 32) stacks.

    (a b)[k] = sum_j b[j] a[_GP_LEFT.index[j, k]] * _GP_LEFT.sign[j, k]: one
    matmul of (1, 32) rows with (32, 32) gathered tables, stacked over the
    rows, so row i has the bytes of the product of a[i] and b[i] alone.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    return np.matmul(b[..., None, :], _gathered(_GP_LEFT, np.asarray(a, dtype=np.float64)))[..., 0, :]


class Multivector:
    """Immutable element of R(4,1): 32 blade coefficients.

    Operators: ``*`` geometric product, ``~`` reversion, ``+``/``-`` linear
    combination, and ``*``/``/`` with plain numbers for scaling.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[float]):
        c = np.array(coeffs, dtype=np.float64)
        if c.shape != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got shape {c.shape}")
        c.flags.writeable = False
        self._c = c

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Multivector":
        mv = object.__new__(cls)
        arr.flags.writeable = False
        mv._c = arr
        return mv

    @classmethod
    def zero(cls) -> "Multivector":
        return cls._wrap(np.zeros(DIM))

    @classmethod
    def scalar(cls, x: float) -> "Multivector":
        c = np.zeros(DIM)
        c[0] = float(x)
        return cls._wrap(c)

    @classmethod
    def vector(cls, v: Sequence[float]) -> "Multivector":
        """Euclidean grade-1 element v1*e1 + v2*e2 + v3*e3."""
        x, y, z = (float(vi) for vi in v)
        c = np.zeros(DIM)
        c[1], c[2], c[3] = x, y, z
        return cls._wrap(c)

    @classmethod
    def blade(cls, name: str, coeff: float = 1.0) -> "Multivector":
        """Single basis blade by name, e.g. blade("e12", 0.5)."""
        if name not in _NAME_INDEX:
            raise ValueError(f"unknown blade name {name!r}")
        c = np.zeros(DIM)
        c[_NAME_INDEX[name]] = float(coeff)
        return cls._wrap(c)

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only view of the 32 blade coefficients."""
        return self._c

    @property
    def scalar_part(self) -> float:
        return float(self._c[0])

    def __getitem__(self, key: int | str) -> float:
        if isinstance(key, str):
            if key not in _NAME_INDEX:
                raise KeyError(key)
            key = _NAME_INDEX[key]
        return float(self._c[key])

    def __add__(self, other) -> "Multivector":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Multivector._wrap(self._c + other._c)

    __radd__ = __add__

    def __sub__(self, other) -> "Multivector":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Multivector._wrap(self._c - other._c)

    def __rsub__(self, other) -> "Multivector":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Multivector._wrap(other._c - self._c)

    def __neg__(self) -> "Multivector":
        return Multivector._wrap(-self._c)

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Multivector._wrap(self._c * float(other))
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return NotImplemented

    def __rmul__(self, other) -> "Multivector":
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Multivector._wrap(self._c * float(other))
        return NotImplemented

    def __truediv__(self, other) -> "Multivector":
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Multivector._wrap(self._c / float(other))
        return NotImplemented

    def __invert__(self) -> "Multivector":
        return reverse(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    __hash__ = None  # mutable-free but equality is by value; not hashable

    def __repr__(self) -> str:
        terms = [
            f"{self._c[i]:g}*{BLADE_NAMES[i]}" if i else f"{self._c[i]:g}"
            for i in range(DIM)
            if self._c[i] != 0.0
        ]
        return f"Multivector({' + '.join(terms) if terms else '0'})"


# A versor is an even-grade multivector built as a product of the
# constructors below; the type is not distinguished at runtime.
Versor = Multivector


def _coerce(x) -> Multivector | None:
    if isinstance(x, Multivector):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return Multivector.scalar(float(x))
    return None


def _as_mv(x, name: str) -> Multivector:
    mv = _coerce(x)
    if mv is None:
        raise ValueError(f"{name} must be a Multivector or a number")
    return mv


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Full geometric product ab."""
    a = _as_mv(a, "a")
    b = _as_mv(b, "b")
    return Multivector._wrap(geometric_products(a.coeffs, b.coeffs))


def reverse(a: Multivector) -> Multivector:
    """Reversion: each grade-k part picks up (-1)^(k(k-1)/2)."""
    a = _as_mv(a, "a")
    return Multivector._wrap(a.coeffs * _REVERSE_SIGNS)


# -- basis singletons --------------------------------------------------------

blades: dict[str, Multivector] = {n: Multivector.blade(n) for n in BLADE_NAMES}
e1 = blades["e1"]
e2 = blades["e2"]
e3 = blades["e3"]
e4 = blades["e4"]
e5 = blades["e5"]
no = Multivector._wrap(0.5 * (e5.coeffs - e4.coeffs))
ninf = Multivector._wrap(e5.coeffs + e4.coeffs)


# -- point embedding ---------------------------------------------------------

def _check_vec3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def up(p: Sequence[float]) -> Multivector:
    """Embed a Euclidean point: up(p) = p + 0.5*p^2*ninf + no."""
    return Multivector._wrap(up_points(_check_vec3(p, "p")[None])[0])


def down(X: Multivector) -> np.ndarray:
    """Project a conformal point back to Euclidean coordinates.

    Normalizes the no-coefficient to 1 and reads off the e1..e3 part.
    Raises PointAtInfinity when that coefficient is below 1e-12.
    """
    return down_block(_as_mv(X, "X").coeffs[None, _G1])[0]


def up_points(points: np.ndarray) -> np.ndarray:
    """Vectorized up(): (N, 3) Euclidean points to (N, 32) conformal points."""
    block = up_block(points)
    out = np.zeros((len(block), DIM))
    out[:, _G1] = block
    return out


def up_block(points: np.ndarray) -> np.ndarray:
    """up_points() on the only blades a point has: (N, 3) to (N, 5) e1..e5 coefficients."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    out = np.empty((pts.shape[0], 5))
    out[:, :3] = pts
    q = np.einsum("ni,ni->n", pts, pts)
    out[:, 3] = 0.5 * (q - 1.0)  # e4
    out[:, 4] = 0.5 * (q + 1.0)  # e5
    return out


def down_block(X: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
    """down() of each row of (N, 5) e1..e5 coefficients: (N, 3) Euclidean points.

    A point at infinity is named by its row, or by ids[row] when ids
    gives each row's vertex number.
    """
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"X must have shape (N, 5), got {arr.shape}")
    w = arr[:, 4] - arr[:, 3]  # coefficient of no
    bad = np.flatnonzero(np.abs(w) <= _POINT_EPS)
    if bad.size:
        name = int(bad[0] if ids is None else ids[bad[0]])
        raise PointAtInfinity(f"point {name}: no-coefficient {w[bad[0]]:.3e} is too small")
    return arr[:, :3] / w[:, None]


# -- versor constructors -----------------------------------------------------

def _check_unit(v: np.ndarray, name: str, tol: float = 1e-9) -> None:
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > tol:
        raise ValueError(f"{name} must be a unit vector, |{name}| = {n!r}")


def make_rotor(axis: Sequence[float], angle: float) -> Versor:
    """Rotor for a right-handed rotation of `angle` radians about unit `axis`."""
    u = _check_vec3(axis, "axis")
    _check_unit(u, "axis")
    h = 0.5 * float(angle)
    s = math.sin(h)
    c = np.zeros(DIM)
    c[0] = math.cos(h)
    c[_E23] = -s * u[0]
    c[_E13] = s * u[1]  # -u2 * e31
    c[_E12] = -s * u[2]
    return Multivector._wrap(c)


def rotor_from_quaternion(q: Sequence[float]) -> Versor:
    """Rotor with the same action as the unit quaternion (w, x, y, z)."""
    arr = np.asarray(q, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"quaternion must be a 4-vector, got shape {arr.shape}")
    _check_unit(arr, "quaternion")
    w, x, y, z = arr
    c = np.zeros(DIM)
    c[0] = w
    c[_E23] = -x
    c[_E13] = y
    c[_E12] = -z
    return Multivector._wrap(c)


def make_translator(t: Sequence[float]) -> Versor:
    """Translator 1 - 0.5 * t * ninf; its sandwich shifts points by t."""
    v = _check_vec3(t, "t")
    c = np.zeros(DIM)
    c[0] = 1.0
    for i, (a4, a5) in enumerate(
        ((BLADE_INDEX[(1, 4)], BLADE_INDEX[(1, 5)]),
         (BLADE_INDEX[(2, 4)], BLADE_INDEX[(2, 5)]),
         (BLADE_INDEX[(3, 4)], BLADE_INDEX[(3, 5)]))
    ):
        c[a4] = -0.5 * v[i]
        c[a5] = -0.5 * v[i]
    return Multivector._wrap(c)


def make_dilator(s: float) -> Versor:
    """Dilator exp(0.5*ln(s)*no^ninf); scales points about the origin by s."""
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"scale must be positive and finite, got {s!r}")
    half_log = 0.5 * math.log(s)
    c = np.zeros(DIM)
    c[0] = math.cosh(half_log)
    c[_E45] = -math.sinh(half_log)  # no^ninf = -e45
    return Multivector._wrap(c)


def make_plane(normal: Sequence[float], d: float) -> Multivector:
    """Plane {p : normal.p = d} as the grade-1 element normal + d*ninf."""
    n = _check_vec3(normal, "normal")
    _check_unit(n, "normal")
    d = float(d)
    if not math.isfinite(d):
        raise ValueError(f"d must be finite, got {d!r}")
    c = np.zeros(DIM)
    c[1:4] = n
    c[_E4] = d
    c[_E5] = d
    return Multivector._wrap(c)


# -- versor application ------------------------------------------------------

def _singular(norm: float) -> SingularVersor:
    return SingularVersor(f"scalar norm {norm:.3e} is below {_VERSOR_EPS:g}")


def versor_inverse(V: Versor) -> Versor:
    """Inverse via reversal: reverse(V) / <V * reverse(V)>_0."""
    V = _as_mv(V, "V")
    rev = V.coeffs * _REVERSE_SIGNS
    norm = float(geometric_products(V.coeffs, rev)[0])
    if abs(norm) < _VERSOR_EPS:
        raise _singular(norm)
    return Multivector._wrap(rev / norm)


# -- vectorized helpers ------------------------------------------------------

def sandwich_block(V: Versor) -> np.ndarray:
    """The (5, 5) matrix of the sandwich X -> V X V^-1 on grade 1, rows and columns e1..e5.

    A sandwich preserves grade, so this block is all it does to a point:
    up_block(p) @ sandwich_block(V) is the e1..e5 part of V up(p) V^-1.
    It is (x -> v x) on rows e1..e5 times (y -> y w) on columns e1..e5,
    each a signed gather of the Cayley table.
    """
    blocks, singular = sandwich_blocks(_as_mv(V, "V").coeffs[None])
    if singular:
        raise singular[0]
    return blocks[0]


def sandwich_blocks(V: np.ndarray) -> tuple:
    """(blocks, singular): sandwich_block of each row of a (k, 32) versor stack.

    blocks is (k, 5, 5), from one stacked pass: the inverses' scalar norms
    as (k, 1, 32) @ (k, 32, 32), then (k, 5, 32) @ (k, 32, 5).  singular
    maps the row of each versor whose norm is below 1e-14 to the
    SingularVersor that sandwich_block raises for it; its block is garbage.
    """
    V = np.ascontiguousarray(V, dtype=np.float64)
    rev = V * _REVERSE_SIGNS
    norms = np.matmul(rev[:, None, :], _gathered(_GP_LEFT, V))[:, 0, 0]
    rows = np.flatnonzero(np.abs(norms) < _VERSOR_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverses = rev / norms[:, None]
    inverses[rows] = 0.0  # a singular row's block is never read
    blocks = np.matmul(_gathered(_G1_LEFT, V), _gathered(_G1_RIGHT, inverses))
    return blocks, {int(i): _singular(float(norms[i])) for i in rows}


def plane_distances(points: np.ndarray, plane: Multivector) -> np.ndarray:
    """Signed distances of (N, 3) points to a plane built by make_plane.

    Computed as the scalar part of the contraction up(p) . plane, which for
    a unit-normal plane equals the Euclidean signed distance.
    """
    return up_points(points) @ _contraction_weights(_as_mv(plane, "plane"))[0]


def _contraction_weights(plane: Multivector) -> tuple:
    """(w, w[e1..e5]): <x . plane>_0 = x @ w, finite where the plane is; a lift up_block(p) fills only e1..e5."""
    # <x . plane>_0 = sum_i x[i] plane[i] CAYLEY_SIGNS[i, i]; + 0.0 turns -0 into +0
    w = CAYLEY_SIGNS.diagonal() * plane.coeffs + 0.0
    return w, w[_G1]
