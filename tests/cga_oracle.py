"""Dense geometric product table for R(4,1), built without the package's Cayley table.

Blades are generator index tuples in grade-then-lex order.  The blade
product bubble-sorts the concatenated tuple (counting sign flips) and
contracts adjacent duplicates with the metric.  The dense (32, 32, 32)
table and the argmax gathers read from it are the byte oracles the
package's signed gathers are checked against; `sandwich` applies a versor
to any multivector through it, and `transform_points` to Euclidean points
through the package's grade-1 block.
"""

from itertools import combinations

import numpy as np

from mvskin.algebra import Multivector, down_block, sandwich_block, up_block, versor_inverse

METRIC = {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: -1.0}
BASIS = tuple(t for k in range(6) for t in combinations(range(1, 6), k))
DIM = len(BASIS)


def oracle_blade_product(a: tuple, b: tuple) -> tuple[float, tuple]:
    """Naive product of two basis blades: sort generators, contract pairs."""
    seq = list(a) + list(b)
    sign = 1.0
    # bubble sort; each adjacent swap of distinct generators flips the sign
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    # contract adjacent duplicates with their metric square
    out = []
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign *= METRIC[seq[k]]
            k += 2
        else:
            out.append(seq[k])
            k += 1
    return sign, tuple(out)


def _dense_table():
    index = {t: i for i, t in enumerate(BASIS)}
    gp = np.zeros((DIM, DIM, DIM))
    for i, ta in enumerate(BASIS):
        for j, tb in enumerate(BASIS):
            sign, blade = oracle_blade_product(ta, tb)
            gp[i, j, index[blade]] = sign
    return gp


GP = _dense_table()


def argmax_gather(table: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with x[index] * sign + 0.0 == np.tensordot(x, table, axes=(0, axis))."""
    moved = np.moveaxis(table, axis, 0)
    index = np.argmax(moved != 0.0, axis=0)
    return index, np.take_along_axis(moved, index[None], axis=0)[0]


def dense_sandwich_matrix(V) -> np.ndarray:
    """Matrix M of X -> V X V^-1 in row convention: the sandwich is X.coeffs @ M."""
    W = versor_inverse(V).coeffs
    return np.tensordot(V.coeffs, GP, axes=(0, 0)) @ np.tensordot(GP, W, axes=(1, 0))


def sandwich(V, X) -> Multivector:
    """V X V^-1 for any multivector X, as the dense products (V X) V^-1.

    Two products rather than X @ dense_sandwich_matrix(V): composing the
    matrix first adds rounding that the 1e-12 bounds of the versor action
    tests do not allow.
    """
    vx = X.coeffs @ np.tensordot(V.coeffs, GP, axes=(0, 0))
    return Multivector(versor_inverse(V).coeffs @ np.tensordot(vx, GP, axes=(0, 0)))


def transform_points(V, points) -> np.ndarray:
    """(N, 3) Euclidean points moved by the versor V: up, grade-1 sandwich, down."""
    return down_block(up_block(points) @ sandwich_block(V))
