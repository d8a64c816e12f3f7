"""Weight re-binding tests with a brute-force combination oracle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskin.errors import WeightSumError
from mvskin.rig import make_arm_model, make_cylinders_model
from mvskin.weights import MAX_INFLUENCES, SkinWeights, weight_by_barycentric, weight_by_edge

from weights_oracle import edge_influences


def oracle_combine(corners, bary):
    """Plain-dict reimplementation of the combine/truncate/renormalize rule."""
    acc = {}
    for coord, corner in zip(bary, corners):
        for bone, w in corner:
            acc[bone] = acc.get(bone, 0.0) + coord * w
    ranked = sorted(
        ((b, w) for b, w in acc.items() if w > 0), key=lambda bw: (-bw[1], bw[0])
    )
    kept = ranked[:MAX_INFLUENCES]
    total = sum(w for _, w in kept)
    return sorted(((b, w / total) for b, w in kept), key=lambda bw: bw[0])


def random_corner(rng, bones):
    ids = rng.choice(bones, size=rng.integers(1, 5), replace=False)
    ws = rng.random(len(ids))
    ws /= ws.sum()
    return [(int(b), float(w)) for b, w in zip(ids, ws)]


def as_array(influences):
    return {b: w for b, w in influences}


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        corners = [random_corner(rng, np.arange(12)) for _ in range(3)]
        bary = rng.dirichlet([1.0, 1.0, 1.0])
        got = weight_by_barycentric(corners, bary)
        want = oracle_combine(corners, bary)
        assert [b for b, _ in got] == [b for b, _ in want]
        assert np.allclose([w for _, w in got], [w for _, w in want], atol=1e-12)


def test_six_bone_truncation_frozen():
    a = [(0, 0.4), (1, 0.3), (2, 0.3)]
    b = [(3, 0.5), (4, 0.5)]
    c = [(5, 1.0)]
    out = weight_by_barycentric([a, b, c], [0.5, 0.3, 0.2])
    # bones 1..4 all combine to 0.15; the cutoff keeps the lower ids 1, 2
    assert out == [
        (0, 0.28571428571428575),
        (1, 0.2142857142857143),
        (2, 0.2142857142857143),
        (5, 0.28571428571428575),
    ]
    assert math.fsum(w for _, w in out) == pytest.approx(1.0, abs=1e-12)


def test_tie_at_cutoff_prefers_lower_bone_id():
    corner = [(9, 0.25), (3, 0.25), (7, 0.25), (5, 0.125), (1, 0.125)]
    # feed one corner list straight through with bary (1, 0, 0)
    out = weight_by_barycentric([corner, (), ()], [1.0, 0.0, 0.0])
    kept = [b for b, _ in out]
    assert kept == [1, 3, 7, 9]  # 5 and 1 tie at 0.125; lower id 1 survives
    assert 5 not in kept


def test_output_is_valid_binding():
    rng = np.random.default_rng(32)
    for _ in range(100):
        corners = [random_corner(rng, np.arange(20)) for _ in range(3)]
        bary = rng.dirichlet([0.7, 0.7, 0.7])
        out = weight_by_barycentric(corners, bary)
        assert 1 <= len(out) <= MAX_INFLUENCES
        assert all(w > 0 for _, w in out)
        assert abs(math.fsum(w for _, w in out) - 1.0) < 1e-9
        assert [b for b, _ in out] == sorted(b for b, _ in out)


def test_permutation_invariance_is_exact():
    rng = np.random.default_rng(33)
    for _ in range(50):
        corners = [random_corner(rng, np.arange(10)) for _ in range(3)]
        bary = list(rng.dirichlet([1, 1, 1]))
        base = weight_by_barycentric(corners, bary)
        for perm in [(1, 2, 0), (2, 1, 0), (0, 2, 1)]:
            shuffled = weight_by_barycentric(
                [corners[i] for i in perm], [bary[i] for i in perm]
            )
            assert shuffled == base  # bitwise equal thanks to fsum


def test_idempotence():
    corners = [[(2, 0.5), (4, 0.25), (6, 0.25)]] * 3
    out = weight_by_barycentric(corners, [0.2, 0.5, 0.3])
    again = weight_by_barycentric([out, out, out], [0.1, 0.6, 0.3])
    assert [b for b, _ in again] == [b for b, _ in out]
    assert np.allclose([w for _, w in again], [w for _, w in out], atol=1e-12)


def edge_row(wa, wb, lam):
    """weight_by_edge of one point on the edge from wa to wb, as (bone, w) pairs."""
    return list(weight_by_edge(SkinWeights.pack([wa, wb]), [0], [1], [lam])[0])


def test_edge_endpoints_exact():
    wa = [(0, 0.25), (1, 0.75)]
    wb = [(2, 0.5), (3, 0.5)]
    assert edge_row(wa, wb, 0.0) == sorted(wa)
    assert edge_row(wa, wb, 1.0) == sorted(wb)


def test_edge_equals_degenerate_barycentric():
    wa = [(0, 0.3), (1, 0.7)]
    wb = [(1, 0.4), (5, 0.6)]
    lam = 0.37
    via_edge = edge_row(wa, wb, lam)
    via_bary = weight_by_barycentric([wa, wb, ()], [1.0 - lam, lam, 0.0])
    assert via_edge == via_bary


def test_zero_total_weights_are_typed():
    with pytest.raises(WeightSumError, match="sum to zero"):
        edge_row([(0, 0.0)], [(1, 0.0)], 0.5)


def test_parameter_validation():
    wa, wb = [(0, 1.0)], [(1, 1.0)]
    with pytest.raises(ValueError):
        edge_row(wa, wb, 1.5)
    with pytest.raises(ValueError):
        weight_by_barycentric([wa, wb, ()], [0.5, 0.2, 0.2])  # sums to 0.9
    with pytest.raises(ValueError):
        weight_by_barycentric([wa, wb, ()], [0.7, 0.5, -0.2])
    with pytest.raises(ValueError):
        weight_by_barycentric([wa, wb], [0.5, 0.5, 0.0])
    with pytest.raises(WeightSumError):
        weight_by_barycentric([[(0, -0.5), (1, 1.5)], wb, ()], [0.5, 0.3, 0.2])


bary_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3
).filter(lambda c: sum(c) > 1e-6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.floats(0.01, 1.0, allow_nan=False)),
        min_size=1,
        max_size=4,
        unique_by=lambda bw: bw[0],
    ),
    st.lists(
        st.tuples(st.integers(0, 15), st.floats(0.01, 1.0, allow_nan=False)),
        min_size=1,
        max_size=4,
        unique_by=lambda bw: bw[0],
    ),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_edge_rebinding_always_valid(wa, wb, lam):
    # normalize the generated corners so they are legal bindings
    ta = sum(w for _, w in wa)
    tb = sum(w for _, w in wb)
    wa = [(b, w / ta) for b, w in wa]
    wb = [(b, w / tb) for b, w in wb]
    out = edge_row(wa, wb, lam)
    assert 1 <= len(out) <= MAX_INFLUENCES
    assert abs(math.fsum(w for _, w in out) - 1.0) < 1e-9
    assert all(w > 0 for _, w in out)


# ---------------------------------------------------------------------------
# a seam at once against the per-point rule

FIXTURES = {"arm": make_arm_model, "cylinders": make_cylinders_model}
# rows whose combinations tie exactly (dyadic weights) or pass four bones
TIE_ROWS = [
    ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)),
    ((4, 0.25), (5, 0.25), (6, 0.25), (7, 0.25)),
    ((3, 0.5), (8, 0.125), (1, 0.125), (9, 0.25)),
    ((2, 0.375), (6, 0.375), (0, 0.125), (7, 0.125)),
    ((9, 1.0),),
]
# rows validate_model rejects: a repeated bone, NaN, inf or negative
# weights, bone -2, zero weights, weights whose sums overflow, no pair
BAD_ROWS = [
    ((2, 0.5), (2, 0.5)),
    ((1, 0.25), (4, 0.25), (1, 0.5)),
    ((0, math.nan), (1, 1.0)),
    ((0, math.inf),),
    ((1, -0.25), (3, 1.25)),
    ((-2, 1.0),),
    ((0, 0.0), (1, 0.0)),
    ((5, 1e308), (6, 1e308)),
    ((5, 1.7e308),),
    (),
]
# 0, 1, the clamped ends of [-1e-9, 1 + 1e-9], -0.0 and a half
LAMS = np.array([0.0, 1.0, -1e-9, 1.0 + 1e-9, -5e-10, 1.0 + 5e-10, -0.0, 0.5])
BAD_LAMS = np.array([-2e-9, 1.0 + 2e-9, math.nan, math.inf])


@functools.cache
def fixture_edges(name):
    model = FIXTURES[name]()
    faces = model.mesh.faces
    return model.weights, np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])


def edge_outcome(run):
    """The packed table's bytes, or the type and message of the error raised."""
    try:
        table = run()
    except (ValueError, WeightSumError, OverflowError) as exc:
        return type(exc), str(exc)
    return table.ids.tobytes(), table.ws.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(FIXTURES)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 150),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([0.0, 0.003, 0.03]),
)
def test_weight_by_edge_matches_the_per_point_rule(name, seed, m, synthetic, bad):
    rng = np.random.default_rng(seed)
    weights, edges = fixture_edges(name)
    n = len(weights)
    table = weights.extend(SkinWeights.pack(TIE_ROWS + BAD_ROWS))
    lo, hi = edges[rng.integers(0, len(edges), m)].T
    # ends on the synthetic rows, some points with both
    for end in (lo, hi):
        draw = rng.random(m)
        end[draw < synthetic] = n + rng.integers(0, len(TIE_ROWS), np.count_nonzero(draw < synthetic))
        end[draw > 1.0 - bad] = n + len(TIE_ROWS) + rng.integers(0, len(BAD_ROWS), np.count_nonzero(draw > 1.0 - bad))
    lam = np.where(rng.random(m) < 0.5, rng.choice(LAMS, m), rng.random(m))
    odd = rng.random(m) < 0.1 * bad
    lam[odd] = rng.choice(BAD_LAMS, np.count_nonzero(odd))

    def per_point():
        return SkinWeights.pack(
            [edge_influences(table[a], table[b], x) for a, b, x in zip(lo.tolist(), hi.tolist(), lam.tolist())]
        )

    assert edge_outcome(lambda: weight_by_edge(table, lo, hi, lam)) == edge_outcome(per_point)


@pytest.mark.parametrize("row", BAD_ROWS, ids=repr)
def test_weight_by_edge_gives_each_unvalidated_row_the_per_point_result(row):
    # one point at a time, so that an error raised for one hides no other
    table = SkinWeights.pack([row, TIE_ROWS[0], TIE_ROWS[2], ((2, 1.0),)])
    for lo, hi in ((0, 1), (1, 0), (0, 2), (3, 0), (0, 0)):
        for lam in LAMS:
            got = edge_outcome(lambda: weight_by_edge(table, [lo], [hi], [lam]))
            assert got == edge_outcome(lambda: SkinWeights.pack([edge_influences(table[lo], table[hi], lam)]))


def test_weight_by_edge_breaks_exact_ties_toward_the_lower_id():
    table = SkinWeights.pack(TIE_ROWS[:2])
    # eight bones at 0.125 each: the four lowest ids survive
    assert edge_row(TIE_ROWS[0], TIE_ROWS[1], 0.5) == [(b, 0.25) for b in range(4)]
    assert weight_by_edge(table, [1, 0], [0, 1], [0.5, 0.5]) == SkinWeights.pack([[(b, 0.25) for b in range(4)]] * 2)
    assert len(weight_by_edge(table, [], [], [])) == 0


# ---------------------------------------------------------------------------
# packed table


def test_skin_weights_pack_reads_back_as_tuples():
    entries = [((0, 1.0),), ((2, 0.25), (0, 0.75)), (), ((5, 0.1), (4, 0.2), (3, 0.3), (-5, 0.4))]
    table = SkinWeights.pack(entries)
    assert table.ids.tolist() == [[0, -1, -1, -1], [2, 0, -1, -1], [-1] * 4, [5, 4, 3, -5]]
    assert table.ws.tolist() == [[1.0, 0, 0, 0], [0.25, 0.75, 0, 0], [0.0] * 4, [0.1, 0.2, 0.3, 0.4]]
    assert not table.ids.flags.writeable and not table.ws.flags.writeable
    assert len(table) == 4 and list(table) == [tuple(e) for e in entries]
    assert table[1] == ((2, 0.25), (0, 0.75)) and table[-1] == entries[-1]
    assert all(type(b) is int and type(w) is float for e in table for b, w in e)
    assert table == SkinWeights.pack(entries) and table != SkinWeights.pack(entries[:3])
    assert table.take([3, 0, 0]) == SkinWeights.pack([entries[3], entries[0], entries[0]])
    assert table.take(np.array([True, False, False, True])) == SkinWeights.pack(entries[::3])
    assert table.extend(SkinWeights.pack([((1, 1.0),)])) == SkinWeights.pack(entries + [((1, 1.0),)])
    empty = SkinWeights.pack([])
    assert len(empty) == 0 and table.take([]).extend(empty) == empty


@pytest.mark.parametrize(
    "row, match",
    [
        (tuple((b, 0.2) for b in range(5)), "vertex 1 has 5 influences"),
        (((0, 0.5), (-1, 0.5)), "vertex 1 references unknown bone -1"),
        (((2**70, 1.0),), f"vertex 1 references unknown bone {2**70}"),
        (((0, 10**400),), "vertex 1 has invalid weight"),
    ],
)
def test_skin_weights_reject_rows_the_table_cannot_hold(row, match):
    with pytest.raises(WeightSumError, match=match):
        SkinWeights.pack([((0, 1.0),), row, ((7, 0.0),)])
