"""Tour of the conformal algebra kernel.

Walks through the embedding of Euclidean points, the versor zoo
(rotor, translator, dilator), plane distances, and blended motors.
"""

import math

import numpy as np

from mvskin.algebra import (
    Multivector,
    apply_versor,
    blend_linear,
    down,
    make_dilator,
    make_plane,
    make_rotor,
    make_translator,
    plane_distances,
    sandwich_block,
    transform_points,
    up,
    versor_inverse,
)


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
    print("\nrotor 90deg about z moves p to", down(apply_versor(R, P)))
    print("translator (10,0,0) moves p to", down(apply_versor(T, P)))
    print("dilator x2 moves p to", down(apply_versor(D, P)))

    M = T * R  # motor: rotate, then translate
    print("motor T*R moves p to", down(apply_versor(M, P)))
    print("its inverse undoes it:", down(apply_versor(versor_inverse(M), apply_versor(M, P))))

    # planes measure signed distance through the inner product
    plane = make_plane((0, 0, 1), 2.0)  # z = 2
    pts = np.array([[0, 0, 0], [0, 0, 2], [5, 5, 7]], dtype=float)
    print("\nsigned distances to z=2 plane:", plane_distances(pts, plane))

    # a blend of translators is again a translator; a rotor blend needs
    # normalization, which blend_linear applies
    B = blend_linear([(0.25, make_translator((4, 0, 0))), (0.75, make_translator((0, 8, 0)))])
    print("\nblend of translators moves origin to", down(apply_versor(B, up((0, 0, 0)))))
    halfway = blend_linear([(0.5, make_rotor((0, 0, 1), 0.0)), (0.5, R)])
    print("half-blended 90deg rotor rotates (1,0,0) to", down(apply_versor(halfway, up((1, 0, 0)))))

    # a sandwich keeps grade, so on points it is one 5x5 matrix on e1..e5
    block = sandwich_block(M)
    print("\nbatch transform of 3 points via sandwich block (%s):" % (block.shape,))
    print(transform_points(M, pts))


if __name__ == "__main__":
    main()
