"""Exact reference oracles: moments, quantiles, heavy hitters, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpmon.oracles import (
    FreqVector,
    SignedMultiset,
    apply_update,
    exact_distinct,
    exact_entropy,
    exact_f0,
    exact_fp,
    exact_heavy_hitters,
    exact_quantile,
    fp_power,
)


def test_freq_vector_add_and_total():
    v = FreqVector(m=10)
    v.add(3)
    v.add(3)
    v.add(7)
    assert v.counts == {3: 2, 7: 1}
    assert v.total() == 3
    with pytest.raises(ValueError):
        v.add(10)
    with pytest.raises(ValueError):
        v.add(-1)
    with pytest.raises(ValueError):
        v.add(3, delta=-5)


def test_apply_update_mirrors_add():
    v = FreqVector(m=4)
    apply_update(v, 2)
    apply_update(v, 2)
    assert v.counts[2] == 2


def test_fp_power_integer_exactness():
    # integer p stays in exact integer arithmetic even at large counts
    assert fp_power(10**9, 2) == 10**18
    assert fp_power(10**6, 3) == 10**18
    assert isinstance(fp_power(7, 2), int)
    assert fp_power(7, 2.5) == pytest.approx(7**2.5)


def test_exact_fp_known_values():
    v = FreqVector(m=5, counts={0: 3, 1: 1, 4: 2})
    assert exact_fp(v, 1) == 6
    assert exact_fp(v, 2) == 9 + 1 + 4
    assert exact_fp(v, 3) == 27 + 1 + 8
    assert exact_fp(v, 2.0) == 14
    assert exact_f0(v) == 3


def test_exact_distinct_equals_unique_size():
    rng = np.random.default_rng(3)
    cases = [rng.integers(0, 1000, 500), np.array([], dtype=np.int64),
             np.full(40, 7), rng.integers(0, 5, (30, 8)), np.arange(1000)]
    for x in cases:
        assert exact_distinct(x, 1000) == np.unique(x).size
    for bad in ([-1, 2], [0, 1000]):
        with pytest.raises(ValueError, match=r"^items must lie in \[0, 1000\)"):
            exact_distinct(bad, 1000)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
def test_exact_distinct_at_the_inputs_width(dtype):
    # narrow items are counted and range checked at their own dtype, across
    # more than one index slice
    x = np.random.default_rng(4).integers(0, 200, (3, 100_000)).astype(dtype)
    assert exact_distinct(x, 200) == np.unique(x).size == 200
    assert exact_distinct(x[:, :3], 200) == np.unique(x[:, :3]).size
    top = np.array([0, np.iinfo(dtype).max], dtype=dtype)
    with pytest.raises(ValueError, match=r"^items must lie in \[0, 200\)"):
        exact_distinct(top, 200)


def test_exact_fp_float_close_to_int():
    v = FreqVector(m=6, counts={i: (i + 1) * 13 for i in range(6)})
    assert abs(exact_fp(v, 2.0) - exact_fp(v, 2)) <= 1e-12 * exact_fp(v, 2)


def test_exact_fp_rejects_bad_p():
    v = FreqVector(m=3, counts={0: 1})
    with pytest.raises(ValueError):
        exact_fp(v, 0)
    with pytest.raises(ValueError):
        exact_fp(v, -1.0)


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=60),
    st.integers(min_value=1, max_value=4),
)
def test_exact_fp_matches_brute_force(items, p):
    v = FreqVector(m=10)
    for j in items:
        v.add(j)
    counts = {}
    for j in items:
        counts[j] = counts.get(j, 0) + 1
    assert exact_fp(v, p) == sum(c**p for c in counts.values())


def test_exact_fp_monotone_under_inserts():
    v = FreqVector(m=8)
    prev = 0
    for j in [1, 5, 1, 2, 5, 5, 0]:
        v.add(j)
        cur = exact_fp(v, 2)
        assert cur > prev
        prev = cur


def test_quantile_endpoints():
    items = [1, 2, 3, 4]
    assert exact_quantile(items, 0.0) == 1
    assert exact_quantile(items, 1.0) == 4


def test_quantile_median_with_ties():
    assert exact_quantile([1, 1, 2, 5], 0.5) == 1


def test_quantile_rejects_empty_and_bad_phi():
    with pytest.raises(ValueError):
        exact_quantile([], 0.5)
    with pytest.raises(ValueError):
        exact_quantile([1], -0.1)
    with pytest.raises(ValueError):
        exact_quantile([1], 1.5)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_quantile_matches_definition(items, phi):
    q = exact_quantile(items, phi)
    n = len(items)
    below = sum(1 for x in items if x < q)
    above = sum(1 for x in items if x > q)
    assert q in items
    assert below <= phi * n
    assert above <= (1 - phi) * n
    # smallest such element
    for cand in sorted(set(items)):
        if cand >= q:
            break
        b = sum(1 for x in items if x < cand)
        a = sum(1 for x in items if x > cand)
        assert b > phi * n or a > (1 - phi) * n


def test_heavy_hitters_examples():
    assert exact_heavy_hitters([1, 2], 0.5) == {1, 2}
    assert exact_heavy_hitters([1, 2, 3, 4], 0.3) == set()
    assert exact_heavy_hitters([1, 1, 1, 2], 0.5) == {1}


def test_heavy_hitters_edge_phi():
    # phi = 0 keeps the whole support; out-of-range phi is rejected
    assert exact_heavy_hitters([1, 2, 2], 0.0) == {1, 2}
    with pytest.raises(ValueError):
        exact_heavy_hitters([1], 1.1)
    with pytest.raises(ValueError):
        exact_heavy_hitters([1], -0.5)
    with pytest.raises(ValueError):
        exact_heavy_hitters([], 0.5)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=50))
def test_heavy_hitters_match_counting(items):
    phi = 0.25
    hh = exact_heavy_hitters(items, phi)
    for x in set(items):
        if items.count(x) >= phi * len(items):
            assert x in hh
        else:
            assert x not in hh


def test_entropy_two_balanced_items():
    s = SignedMultiset([(5, 1), (9, 1)])
    assert exact_entropy(s) == pytest.approx(1.0)


def test_entropy_single_item_is_zero():
    s = SignedMultiset([(3, 1), (3, 1)])
    assert exact_entropy(s) == pytest.approx(0.0)


def test_entropy_uses_absolute_frequencies():
    # one insert plus one delete of x, plus two inserts of y: |f_x| = 0 drops out
    s = SignedMultiset([(1, 1), (1, -1), (2, 1), (2, 1)])
    assert exact_entropy(s) == pytest.approx(0.0)


def test_entropy_negative_frequency_counts_by_magnitude():
    s = SignedMultiset([(1, -1), (2, 1)])
    assert exact_entropy(s) == pytest.approx(1.0)


def test_entropy_empty_support_errors():
    s = SignedMultiset([(1, 1), (1, -1)])
    with pytest.raises(ValueError):
        exact_entropy(s)


def test_entropy_uniform_k():
    k = 8
    s = SignedMultiset([(i, 1) for i in range(k)])
    assert exact_entropy(s) == pytest.approx(math.log2(k))


def test_signed_multiset_freqs():
    s = SignedMultiset([(1, 1), (2, -1), (1, 1)])
    assert s.freqs() == {1: 2, 2: -1}
    with pytest.raises(ValueError):
        SignedMultiset([(1, 2)]).freqs()
