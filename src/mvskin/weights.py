"""Skin-weight re-binding for vertices created by cuts and tears.

New vertices inherit influences from the corners of the host face (or the
endpoints of the host edge) by barycentric combination.  The combined list
may reference up to 12 bones; only the 4 largest weights are kept (ties
broken toward the lower bone id), the rest are zeroed, and the survivors
are renormalized to sum to 1.

Per-bone sums use math.fsum, so combining is exactly invariant under
permutations of the input corners.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import WeightSumError

__all__ = ["MAX_INFLUENCES", "weight_by_barycentric", "weight_by_edge"]

MAX_INFLUENCES = 4

Influences = Sequence[tuple[int, float]]


def _check_influences(influences: Influences, name: str) -> None:
    for bone, w in influences:
        if int(bone) < 0:
            raise ValueError(f"{name}: bone ids must be nonnegative, got {bone}")
        if not (math.isfinite(w) and w >= 0.0):
            raise WeightSumError(f"{name}: weight {w!r} on bone {bone} is invalid")


def weight_by_barycentric(
    corner_weights: Sequence[Influences],
    bary: Sequence[float],
) -> list[tuple[int, float]]:
    """Influences for a point at barycentric `bary` inside a triangle.

    Parameters
    ----------
    corner_weights : three influence lists [(bone, weight), ...]
    bary : barycentric coordinates of the point; nonnegative, sum 1

    Returns the surviving influences sorted by bone id, summing to 1.
    """
    if len(corner_weights) != 3:
        raise ValueError(f"expected 3 corner weight lists, got {len(corner_weights)}")
    coords = [float(c) for c in bary]
    if len(coords) != 3:
        raise ValueError(f"expected 3 barycentric coordinates, got {len(coords)}")
    if not all(math.isfinite(c) for c in coords):
        raise ValueError(f"barycentric coordinates must be finite, got {coords}")
    if min(coords) < -1e-9:
        raise ValueError(f"barycentric coordinates must be nonnegative, got {coords}")
    if abs(math.fsum(coords) - 1.0) > 1e-9:
        raise ValueError(f"barycentric coordinates must sum to 1, got {coords}")
    coords = [max(c, 0.0) for c in coords]
    for corner in corner_weights:
        _check_influences(corner, "corner")

    terms: dict[int, list[float]] = {}
    for coord, corner in zip(coords, corner_weights):
        if coord == 0.0:
            continue
        for bone, w in corner:
            terms.setdefault(int(bone), []).append(coord * float(w))
    combined = [(b, math.fsum(ts)) for b, ts in sorted(terms.items())]

    # keep the 4 largest weights; ties go to the lower bone id
    combined.sort(key=lambda bw: (-bw[1], bw[0]))
    kept = [(b, w) for b, w in combined[:MAX_INFLUENCES] if w > 0.0]
    total = math.fsum(w for _, w in kept)
    if total <= 0.0:
        raise WeightSumError("combined influence weights sum to zero")
    kept = [(b, w / total) for b, w in kept]
    kept.sort(key=lambda bw: bw[0])
    return kept


def weight_by_edge(
    weights_a: Influences,
    weights_b: Influences,
    lam: float,
) -> list[tuple[int, float]]:
    """Influences for a point at parameter `lam` along an edge (0 at a, 1 at b)."""
    lam = float(lam)
    if not (math.isfinite(lam) and -1e-9 <= lam <= 1.0 + 1e-9):
        raise ValueError(f"edge parameter must lie in [0, 1], got {lam!r}")
    lam = min(max(lam, 0.0), 1.0)
    return weight_by_barycentric([weights_a, weights_b, ()], [1.0 - lam, lam, 0.0])
