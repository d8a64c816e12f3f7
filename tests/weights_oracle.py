"""The per-point edge re-binding rule, the reference of `mvskin.weights.weight_by_edge`.

`edge_influences` is the rule `weight_by_edge` applied to one point before
it took a whole seam at once: check and clamp the edge parameter, then
combine the two end rows with `weight_by_barycentric`.  It is a copy, not
an import, so that a change to the batched pass shows up against it.
"""

import math

from mvskin.weights import weight_by_barycentric


def edge_influences(weights_a, weights_b, lam):
    """Influences for a point at parameter `lam` along an edge (0 at a, 1 at b)."""
    lam = float(lam)
    if not (math.isfinite(lam) and -1e-9 <= lam <= 1.0 + 1e-9):
        raise ValueError(f"edge parameter must lie in [0, 1], got {lam!r}")
    lam = min(max(lam, 0.0), 1.0)
    return weight_by_barycentric([weights_a, weights_b, ()], [1.0 - lam, lam, 0.0])
