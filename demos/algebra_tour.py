"""Tour of the conformal algebra kernel.

Walks through the embedding of Euclidean points, the versor zoo
(rotor, translator, dilator) acting by the sandwich V P V^-1, plane
distances, and the 5x5 grade-1 block that moves many points at once.
"""

import math

import numpy as np

from mvskin.algebra import (
    down,
    down_block,
    make_dilator,
    make_plane,
    make_rotor,
    make_translator,
    plane_distances,
    sandwich_block,
    up,
    up_block,
    versor_inverse,
)


def moved(V, P):
    """The versor sandwich V P V^-1, projected back to Euclidean space."""
    return down(V * P * versor_inverse(V))


def main():
    p = (1.0, 2.0, 3.0)
    P = up(p)
    print("point", p)
    print("  as conformal point:", {n: round(P[n], 3) for n in ("e1", "e2", "e3", "e4", "e5")})
    print("  down(up(p)) =", down(P))

    # null check: conformal points square to zero
    print("  P*P scalar part = %.2e" % (P * P).scalar_part)

    R = make_rotor((0, 0, 1), math.pi / 2)
    T = make_translator((10, 0, 0))
    D = make_dilator(2.0)
    print("\nrotor 90deg about z moves p to", moved(R, P))
    print("translator (10,0,0) moves p to", moved(T, P))
    print("dilator x2 moves p to", moved(D, P))

    M = T * R  # motor: rotate, then translate
    print("motor T*R moves p to", moved(M, P))
    print("its inverse undoes it:", moved(versor_inverse(M), up(moved(M, P))))

    # planes measure signed distance through the inner product
    plane = make_plane((0, 0, 1), 2.0)  # z = 2
    pts = np.array([[0, 0, 0], [0, 0, 2], [5, 5, 7]], dtype=float)
    print("\nsigned distances to z=2 plane:", plane_distances(pts, plane))

    # a sandwich keeps grade, so on points it is one 5x5 matrix on e1..e5
    block = sandwich_block(M)
    print("\nbatch transform of 3 points via sandwich block (%s):" % (block.shape,))
    print(down_block(up_block(pts) @ block))


if __name__ == "__main__":
    main()
