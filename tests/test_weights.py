"""Weight re-binding tests with a brute-force combination oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskin.errors import WeightSumError
from mvskin.weights import MAX_INFLUENCES, weight_by_barycentric, weight_by_edge


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


def test_edge_endpoints_exact():
    wa = [(0, 0.25), (1, 0.75)]
    wb = [(2, 0.5), (3, 0.5)]
    assert weight_by_edge(wa, wb, 0.0) == sorted(wa)
    assert weight_by_edge(wa, wb, 1.0) == sorted(wb)


def test_edge_equals_degenerate_barycentric():
    wa = [(0, 0.3), (1, 0.7)]
    wb = [(1, 0.4), (5, 0.6)]
    lam = 0.37
    via_edge = weight_by_edge(wa, wb, lam)
    via_bary = weight_by_barycentric([wa, wb, ()], [1.0 - lam, lam, 0.0])
    assert via_edge == via_bary


def test_zero_total_weights_are_typed():
    with pytest.raises(WeightSumError, match="sum to zero"):
        weight_by_edge([(0, 0.0)], [(1, 0.0)], 0.5)


def test_parameter_validation():
    wa, wb = [(0, 1.0)], [(1, 1.0)]
    with pytest.raises(ValueError):
        weight_by_edge(wa, wb, 1.5)
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
    out = weight_by_edge(wa, wb, lam)
    assert 1 <= len(out) <= MAX_INFLUENCES
    assert abs(math.fsum(w for _, w in out) - 1.0) < 1e-9
    assert all(w > 0 for _, w in out)
