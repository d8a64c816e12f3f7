"""Unit quaternion helpers, (w, x, y, z) convention.

multiply, conjugate and rotate broadcast over leading axes.  normalize,
nlerp, to_matrix, from_matrix and from_axis_angle take one quaternion
(one matrix, one axis); normalize rejects any other shape.
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


def multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def conjugate(q) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) * np.array([1.0, -1.0, -1.0, -1.0])


def rotate(q, v) -> np.ndarray:
    """Rotate 3-vectors (..., 3) by unit quaternions (..., 4)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w, u = q[..., :1], q[..., 1:]
    return v + 2.0 * w * np.cross(u, v) + 2.0 * np.cross(u, np.cross(u, v))


def nlerp(a, b, t: float) -> np.ndarray:
    """Normalized linear interpolation with hemisphere correction."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if float(np.dot(a, b)) < 0.0:
        b = -b
    out = (1.0 - t) * a + t * b
    n = float(np.linalg.norm(out))
    if n < 1e-12:
        raise DegenerateBlend("quaternion blend collapsed to zero")
    return out / n


def to_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def from_matrix(m) -> np.ndarray:
    """Quaternion of a rotation matrix, canonicalized so w >= 0."""
    m = np.asarray(m, dtype=np.float64)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    q = normalize(q)
    if q[0] < 0.0 or (q[0] == 0.0 and _first_nonzero_negative(q)):
        q = -q
    return q


def _first_nonzero_negative(q) -> bool:
    for c in q[1:]:
        if c != 0.0:
            return c < 0.0
    return False


def from_axis_angle(axis, angle: float) -> np.ndarray:
    u = np.asarray(axis, dtype=np.float64)
    n = float(np.linalg.norm(u))
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    h = 0.5 * float(angle)
    return np.concatenate([[math.cos(h)], math.sin(h) * (u / n)])
