"""Packed skin weights, and their re-binding for vertices created by cuts and tears.

A model stores its weights once, as a SkinWeights table: (n, 4) bone ids
with -1 in an empty slot, and (n, 4) weights.  It reads as a sequence of
per-vertex (bone, w) tuples.

New vertices inherit influences from the corners of the host face (or the
endpoints of the host edge) by barycentric combination.  The combined list
may reference up to 12 bones; only the 4 largest weights are kept (ties
broken toward the lower bone id), the rest are zeroed, and the survivors
are renormalized to sum to 1.

Per-bone sums use math.fsum, so combining is exactly invariant under
permutations of the input corners.

weight_by_edge re-binds a whole seam at once: the points of a cut or the
edge points of a tear, in one numpy pass over their edges' two rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import WeightSumError

__all__ = ["MAX_INFLUENCES", "SkinWeights", "weight_by_barycentric", "weight_by_edge"]

MAX_INFLUENCES = 4

Influences = Sequence[tuple[int, float]]


class SkinWeights:
    """Read-only packed weights: ids (n, 4) int64, -1 in an empty slot; ws (n, 4) float64.

    Row vi reads as the tuple of its (bone, w) pairs, empty slots left out.
    """

    def __init__(self, ids: np.ndarray, ws: np.ndarray):
        ids.setflags(write=False)
        ws.setflags(write=False)
        self.ids, self.ws = ids, ws

    @classmethod
    def pack(cls, entries: Sequence[Influences]) -> "SkinWeights":
        """Table of per-vertex (bone, w) tuples, each filled from slot 0.

        Raises WeightSumError on a row the table cannot hold: more than
        four pairs, a bone id of -1 or outside int64, a weight beyond float64.
        """
        lengths = np.fromiter(map(len, entries), np.int64, len(entries))
        pairs = list(itertools.chain.from_iterable(entries))
        bones, weights = zip(*pairs) if pairs else ((), ())
        try:
            flat_ids = np.array(bones, dtype=np.int64)
            flat_ws = np.array(weights, dtype=np.float64)
            storable = lengths.max(initial=0) <= MAX_INFLUENCES and not (flat_ids == -1).any()
        except OverflowError:
            storable = False
        if not storable:
            raise _unstorable(entries)
        rows = np.repeat(np.arange(len(lengths)), lengths)
        cols = np.arange(len(pairs)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        ids = np.full((len(lengths), MAX_INFLUENCES), -1, dtype=np.int64)
        ws = np.zeros((len(lengths), MAX_INFLUENCES))
        ids[rows, cols] = flat_ids
        ws[rows, cols] = flat_ws
        return cls(ids, ws)

    def take(self, rows) -> "SkinWeights":
        """The table of the given rows (an index array or a boolean mask)."""
        return SkinWeights(self.ids[rows], self.ws[rows])

    def extend(self, more: "SkinWeights") -> "SkinWeights":
        """This table with the rows of another appended."""
        return SkinWeights(np.vstack([self.ids, more.ids]), np.vstack([self.ws, more.ws]))

    @functools.cached_property
    def bone_groups(self) -> tuple:
        """(bone id, rows, weights) per influencing bone, read-only views of blend_terms.

        Bones go in the order of their first use in the weights table;
        rows ascend and weights[i] is row rows[i]'s weight for the bone.
        """
        bones, bounds, rows, weights, _, _ = self.blend_terms
        return tuple((b, rows[i:j], weights[i:j, 0]) for b, i, j in zip(bones, bounds[:-1], bounds[1:]))

    @functools.cached_property
    def blend_terms(self) -> tuple:
        """(bones, bounds, rows, weights, slots, verts): every influence as a term, group-major, read-only.

        Group g, of bone id bones[g], holds terms bounds[g]:bounds[g + 1];
        term t weights row rows[t] by weights[t], a (T, 1) column.  verts
        lists the rows with a term, most terms first, and slots[s][i] is the
        s-th term, in group order, of row verts[i].  Of a row that lists a
        bone twice only the later term is in a slot, as out[rows] += x keeps
        a repeated row's last write.
        """
        ids = self.ids.ravel()
        entries = np.flatnonzero(ids >= 0)  # row-major: rows ascend, then slots
        bones, first, group = np.unique(ids[entries], return_index=True, return_inverse=True)
        group = np.argsort(np.argsort(first))[group]  # numbered in the bones' first-use order
        by_group = np.argsort(group, kind="stable")
        group, entries = group[by_group], entries[by_group]
        rows, weights = entries // MAX_INFLUENCES, self.ws.ravel()[entries][:, None]
        bounds = tuple(np.searchsorted(group, np.arange(len(bones) + 1)).tolist())
        kept = np.flatnonzero(np.diff(group * len(self) + rows, append=-1) != 0)  # of a bone a row lists twice, the later term
        order = kept[np.argsort(rows[kept], kind="stable")]  # each vertex's terms in group order
        count = np.bincount(rows[kept], minlength=len(self))
        verts = np.argsort(-count, kind="stable")[: np.count_nonzero(count)]
        start = (np.cumsum(count) - count)[verts]
        slots = tuple(order[start[: np.count_nonzero(count > s)] + s] for s in range(count.max(initial=0)))
        for a in (rows, weights, *slots, verts):
            a.setflags(write=False)
        return tuple(bones[np.argsort(first)].tolist()), bounds, rows, weights, slots, verts

    @functools.cached_property
    def pivot_bones(self) -> tuple:
        """(pivots, pivot_of_row): each vertex's dual-quaternion pivot bone, read-only.

        A row's pivot is its largest-weight influence, ties going to the
        lower bone id; pivots holds the distinct pivot ids ascending and
        pivot_of_row[i] is the slot of row i's pivot in it.  A row with
        no influence pivots on the id dtype's maximum.
        """
        ids, ws = self.ids, self.ws
        # reduced column by column: numpy reduces a 4-wide axis 1 with one loop call per row
        tied = (ws == functools.reduce(np.maximum, ws.T)[:, None]) & (ids >= 0)
        pivot = functools.reduce(np.minimum, np.where(tied, ids, np.iinfo(ids.dtype).max).T)
        pivots, pivot_of_row = np.unique(pivot, return_inverse=True)
        pivots.setflags(write=False)
        pivot_of_row.setflags(write=False)
        return pivots, pivot_of_row

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, vi) -> tuple:
        vi = operator.index(vi)  # one row; not a slice
        return _pairs(self.ids[vi].tolist(), self.ws[vi].tolist())

    def __iter__(self):
        return map(_pairs, self.ids.tolist(), self.ws.tolist())

    def __eq__(self, other):
        if not isinstance(other, SkinWeights):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.ws, other.ws)


def _pairs(ids: list, ws: list) -> tuple:
    return tuple((b, w) for b, w in zip(ids, ws) if b != -1)


def _unstorable(entries) -> WeightSumError:
    """The error naming the first row that SkinWeights cannot hold."""
    for vi, entry in enumerate(entries):
        if len(entry) > MAX_INFLUENCES:
            return WeightSumError(f"vertex {vi} has {len(entry)} influences (limit 4)")
        for bone, w in entry:
            if bone == -1 or not -(2**63) <= bone < 2**63:
                return WeightSumError(f"vertex {vi} references unknown bone {bone}")
            try:
                float(w)
            except OverflowError:
                return WeightSumError(f"vertex {vi} has invalid weight {w!r} on bone {bone}")
    return WeightSumError("weights do not fit the (n, 4) table")


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


# The 6 pairs of a row's four slots, which must not repeat a bone, and the
# largest weight weight_by_edge's pass takes: two terms of a bone and four
# kept bones cannot overflow then
_SLOT_PAIRS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
_MAX_WEIGHT = 1e300


def weight_by_edge(weights: SkinWeights, lo, hi, lam) -> SkinWeights:
    """Influences for points at parameters lam along edges (0 at row lo, 1 at row hi).

    Row k of the result is weight_by_barycentric([weights[lo[k]],
    weights[hi[k]], ()], [1 - t, t, 0]) packed, with t = lam[k] clamped
    to [0, 1]; lam[k] must lie in [-1e-9, 1 + 1e-9].  The rule needs
    at most two terms per bone, one from each end, and math.fsum of two
    doubles is their rounded sum, so a numpy pass gives the same bits:
    the sums, the four largest (lexsort on (-w, id), so ties go to the
    lower id), and their total by math.fsum.  A row the pass cannot
    vouch for goes to the rule itself, in order, which raises its
    errors: a lam out of range, a bone id below -1 or repeated in a row,
    a weight that is not in [0, 1e300], or kept weights summing to zero.
    """
    lam = np.asarray(lam, dtype=np.float64)
    m = len(lam)
    ends = np.stack([np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)], axis=1)
    # slots 0-3 from row lo, 4-7 from row hi
    ids, ws = weights.ids[ends].reshape(m, 8), weights.ws[ends].reshape(m, 8)
    with np.errstate(all="ignore"):
        first, second = (ids.reshape(m, 2, 4)[:, :, slots] for slots in _SLOT_PAIRS)
        odd = (
            ~((lam >= -1e-9) & (lam <= 1.0 + 1e-9))  # NaN fails both
            | ((ids < -1) | ((ids != -1) & ~((ws >= 0.0) & (ws <= _MAX_WEIGHT)))).any(axis=1)
            | ((first == second) & (first != -1)).reshape(m, 12).any(axis=1)
        )
        t = np.clip(lam, 0.0, 1.0)[:, None]
        terms = (np.concatenate([1.0 - t, t], axis=1)[:, :, None] * ws.reshape(m, 2, 4)).reshape(m, 8)
        terms = np.where((ids >= 0) & ~odd[:, None], terms, 0.0)
    # a bone at both ends: its two terms go to its slot from row lo
    same = (ids[:, 4:, None] == ids[:, None, :4]) & (ids[:, 4:, None] >= 0)
    terms[:, :4] += (same * terms[:, 4:, None]).sum(axis=1)
    terms[:, 4:][same.any(axis=2)] = 0.0
    top = np.lexsort((ids, -terms))[:, :MAX_INFLUENCES] + 8 * np.arange(m)[:, None]
    ids, ws = ids.take(top), terms.take(top)
    total = np.array([math.fsum(row) for row in ws.tolist()]).reshape(-1, 1)
    odd |= total[:, 0] <= 0.0
    # the kept bones in id order, the empty slots after them
    kept = ws > 0.0
    order = np.lexsort((ids, ~kept)) + MAX_INFLUENCES * np.arange(m)[:, None]
    kept = kept.take(order)
    ids = np.where(kept, ids.take(order), -1)
    ws = np.where(kept, ws.take(order) / np.where(total > 0.0, total, 1.0), 0.0)
    for k in np.flatnonzero(odd).tolist():
        x = float(lam[k])
        if not (math.isfinite(x) and -1e-9 <= x <= 1.0 + 1e-9):
            raise ValueError(f"edge parameter must lie in [0, 1], got {x!r}")
        x = min(max(x, 0.0), 1.0)
        row = weight_by_barycentric([weights[ends[k, 0]], weights[ends[k, 1]], ()], [1.0 - x, x, 0.0])
        packed = SkinWeights.pack([row])
        ids[k], ws[k] = packed.ids[0], packed.ws[0]
    return SkinWeights(ids, ws)
