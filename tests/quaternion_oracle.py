"""The one-matrix quaternion extraction, kept as the byte oracle.

scalar_from_matrix is Shepperd's method written with four scalar
branches, one matrix at a time, as mvskin.quaternions.from_matrix was
before it broadcast.  The broadcasting version must return the same bytes.
"""

import math

import numpy as np

from mvskin.quaternions import normalize


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
