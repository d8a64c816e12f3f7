"""Earlier forms of the quaternion helpers, kept as their byte oracles.

scalar_from_matrix is Shepperd's method written with four scalar
branches, one matrix at a time, as mvskin.quaternions.from_matrix was
before it broadcast.  multiply and rotate are the array forms that
mvskin.quaternions.multiply and rotate had before they worked one
component at a time: moveaxis and np.stack for the product, three
np.cross calls for the rotation.  The package's versions must return the
same bytes.
"""

import math

import numpy as np

from mvskin.quaternions import normalize


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


def rotate(q, v) -> np.ndarray:
    """Rotate 3-vectors (..., 3) by unit quaternions (..., 4)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w, u = q[..., :1], q[..., 1:]
    return v + 2.0 * w * np.cross(u, v) + 2.0 * np.cross(u, np.cross(u, v))


def scalar_from_matrix(m) -> np.ndarray:
    """Quaternion of one rotation matrix, canonicalized so w >= 0."""
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


def shepperd_branch(m) -> int:
    """Which of scalar_from_matrix's four branches a matrix takes."""
    if m[0, 0] + m[1, 1] + m[2, 2] > 0.0:
        return 0
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        return 1
    return 2 if m[1, 1] >= m[2, 2] else 3
