"""Unit quaternion helpers, (w, x, y, z) convention.

multiply, conjugate, rotate, nlerp, to_matrix and from_matrix broadcast
over leading axes.  normalize and from_axis_angle take one quaternion
(one axis); normalize rejects any other shape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateBlend

__all__ = [
    "normalize",
    "multiply",
    "conjugate",
    "rotate",
    "nlerp",
    "to_matrix",
    "from_matrix",
    "from_axis_angle",
]


def normalize(q) -> np.ndarray:
    """One quaternion of shape (4,) scaled to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValueError(f"normalize takes one quaternion of shape (4,), got shape {q.shape}")
    n = float(np.linalg.norm(q))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError(f"cannot normalize quaternion with norm {n!r}")
    return q / n


def multiply(a, b, axis: int = -1) -> np.ndarray:
    """Products a b of quaternions whose (w, x, y, z) run along axis, broadcast."""
    (aw, ax, ay, az), (bw, bx, by, bz) = _components(a, axis), _components(b, axis)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=axis,
    )


def conjugate(q) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) * np.array([1.0, -1.0, -1.0, -1.0])


def rotate(q, v, axis: int = -1) -> np.ndarray:
    """Rotate 3-vectors by unit quaternions, the components of both along axis.

    With u = q's (x, y, z): c1 = u x v and c2 = u x c1 as np.cross rounds
    them, then (v + (2w) c1) + 2 c2, one component at a time.
    """
    (w, x, y, z), v = _components(q, axis), _components(v, axis)
    c1 = (y * v[2] - z * v[1], z * v[0] - x * v[2], x * v[1] - y * v[0])
    c2 = (y * c1[2] - z * c1[1], z * c1[0] - x * c1[2], x * c1[1] - y * c1[0])
    w2 = 2.0 * w
    return np.stack([(a + w2 * b) + 2.0 * c for a, b, c in zip(v, c1, c2)], axis=axis)


def _components(a, axis: int) -> list:
    """The k float64 arrays along axis of an array (..., k, ...), as views."""
    a = np.asarray(a, dtype=np.float64)
    lead = (slice(None),) * (axis % a.ndim)
    return [a[lead + (i,)] for i in range(a.shape[axis])]


def nlerp(a, b, t) -> np.ndarray:
    """Normalized linear interpolation with hemisphere correction.

    Quaternions (..., 4) at parameters t (...), as one quaternion each:
    the dot and the norm are np.vecdot's, which round as np.dot and
    np.linalg.norm do.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)[..., None]
    b = np.where((np.vecdot(a, b) < 0.0)[..., None], -b, b)
    out = (1.0 - t) * a + t * b
    n = np.sqrt(np.vecdot(out, out))[..., None]
    if (n < 1e-12).any():
        raise DegenerateBlend("quaternion blend collapsed to zero")
    return out / n


# to_matrix's entries, row-major, from the products q_i q_j (flat index 4i + j):
# 1 - 2 (a + b) on the diagonal, 2 (a + sign b) off it
_W, _X, _Y, _Z = range(4)
_A = [4 * i + j for i, j in ((_Y, _Y), (_X, _Y), (_X, _Z), (_X, _Y), (_X, _X), (_Y, _Z), (_X, _Z), (_Y, _Z), (_X, _X))]
_B = [4 * i + j for i, j in ((_Z, _Z), (_W, _Z), (_W, _Y), (_W, _Z), (_Z, _Z), (_W, _X), (_W, _Y), (_W, _X), (_Y, _Y))]
_B_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_DIAGONAL = np.eye(3, dtype=bool).ravel()


def to_matrix(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of quaternions (..., 4).

    Entry for entry the expressions 1 - 2 (y y + z z), 2 (x y - w z), ...:
    a - b is a + (-b) in floating point, so one signed sum serves them all.
    """
    q = np.asarray(q, dtype=np.float64)
    products = (q[..., :, None] * q[..., None, :]).reshape(*q.shape[:-1], 16)
    twice = 2 * (products[..., _A] + products[..., _B] * _B_SIGNS)
    return np.where(_DIAGONAL, 1 - twice, twice).reshape(*q.shape[:-1], 3, 3)


def from_matrix(m) -> np.ndarray:
    """Quaternions (..., 4) of rotation matrices (..., 3, 3), canonicalized so w >= 0.

    Shepperd's method: the formula led by w when the trace is positive, else
    by the imaginary part of the largest diagonal entry (the first of equal ones).
    """
    m = np.asarray(m, dtype=np.float64)
    a = m.reshape(-1, 3, 3)
    i = np.arange(len(a))
    m00, m11, m22 = a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]
    tr = m00 + m11 + m22
    radicands = np.stack([tr + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11], axis=1)
    k = np.where(tr > 0.0, 0, 1 + a.diagonal(axis1=1, axis2=2).argmax(axis=1))
    s = np.sqrt(radicands[i, k]) * 2.0
    # formula k: component k is s / 4 and component j is num[k, j] / s; w pairs
    # with the antisymmetric part of the matrix, x, y and z with the symmetric part
    num = np.zeros((len(a), 4, 4))
    num[:, 1:, 1:] = a + a.transpose(0, 2, 1)
    num[:, 0, 1:] = num[:, 1:, 0] = (a - a.transpose(0, 2, 1))[:, [2, 0, 1], [1, 2, 0]]
    q = num[i, k] / s[:, None]
    q[i, k] = 0.25 * s
    n = np.sqrt(np.vecdot(q, q))  # the bytes of the one-quaternion norm, as axis=-1 norms are not
    ok = (0.0 < n) & (n < np.inf)
    if not ok.all():
        raise ValueError(f"cannot normalize quaternion with norm {float(n[~ok][0])!r}")
    q /= n[:, None]
    # w < 0, or w == 0 with a negative first nonzero imaginary part: negate
    lead = q[i, (q != 0.0).argmax(axis=1)]
    np.negative(q, out=q, where=(lead < 0.0)[:, None])
    return q.reshape(*m.shape[:-2], 4)


def from_axis_angle(axis, angle: float) -> np.ndarray:
    """The unit quaternion of a rotation by angle about axis.

    An axis whose norm underflows to 0 or overflows is first divided by
    its largest |component|; a zero or non-finite axis is a ValueError.
    """
    u = np.asarray(axis, dtype=np.float64)
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(u))
    if not 0.0 < n < math.inf:  # NaN fails both
        top = float(np.max(np.abs(u)))
        if not math.isfinite(top):
            raise ValueError("rotation axis must be finite")
        if top == 0.0:
            raise ValueError("rotation axis must be nonzero")
        u = u / top
        n = float(np.linalg.norm(u))
    h = 0.5 * float(angle)
    return np.concatenate([[math.cos(h)], math.sin(h) * (u / n)])
