"""Hashing, level-set, and bucket-to-level rule tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmon.sampling import (
    GOLDEN,
    MASK64,
    SALT_ETA,
    PublicCoin,
    derive,
    finish64_np,
    level_of,
    level_of_np,
    member_threshold,
    mix64,
    mix64_np,
    premix64,
    premix64_np,
    unit_open_zero,
    unit_open_zero_np,
)


def test_mix64_is_deterministic_and_bounded():
    assert mix64(12345) == mix64(12345)
    assert 0 <= mix64(987654321) <= MASK64
    # bijective mixers keep distinct inputs distinct on a sample
    outs = {mix64(x) for x in range(10000)}
    assert len(outs) == 10000


@given(st.integers(min_value=0, max_value=MASK64))
def test_mix64_matches_vectorized(x):
    arr = np.array([x], dtype=np.uint64)
    assert int(mix64_np(arr)[0]) == mix64(x)


def test_derive_separates_labels():
    assert derive(7, 1, 2) != derive(7, 2, 1)
    assert derive(7, 1) != derive(8, 1)
    assert derive(7, 1, 0) != derive(7, 1)


def test_unit_open_zero_excludes_zero():
    vals = [unit_open_zero(s) for s in range(2000)]
    assert all(0.0 < v <= 1.0 for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean - 0.5) < 0.05


def unmix64(y: int) -> int:
    """The x with mix64(x) == y: each xorshift and product undone in turn."""
    y ^= (y >> 31) ^ (y >> 62)
    y = (y * pow(0x94D049BB133111EB, -1, 2**64)) & MASK64
    y ^= (y >> 27) ^ (y >> 54)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK64
    return unpremix64(y)


def unpremix64(y: int) -> int:
    """The x with premix64(x) == y."""
    return y ^ (y >> 30) ^ (y >> 60)


def test_unit_open_zero_np_equals_the_scalar_form():
    # the vectorized form converts (h >> 11) + 1 <= 2**53 to float64, which
    # is exact; the hashes at both ends of the range give 2**-53 and 1.0
    ends = [0, 2**11 - 1, 2**11, MASK64 - 2**11, MASK64]
    seeds = [unmix64(h) ^ SALT_ETA for h in ends] + list(range(2000)) + [MASK64]
    assert [mix64(s ^ SALT_ETA) for s in seeds[:5]] == ends
    got = unit_open_zero_np(np.array(seeds, dtype=np.uint64))
    assert got.dtype == np.float64
    assert got.tolist() == [unit_open_zero(s) for s in seeds]
    assert got[0] == 2.0**-53 and got[4] == 1.0


EDGES = [0, 1, 2**30 - 1, 2**30, 2**31, 2**33 - 1, 2**33, 2**60, 2**63,
         MASK64 - 1, MASK64, GOLDEN]


def test_premix64_is_linear_over_xor_and_finishes_to_mix64():
    rng = np.random.default_rng(4)
    xs = EDGES + rng.integers(0, 2**64, 300, dtype=np.uint64).tolist()
    for a in xs:
        for b in EDGES + xs[-20:]:
            assert premix64(a ^ b) == premix64(a) ^ premix64(b)
    arr = np.array(xs, dtype=np.uint64)
    pm = premix64_np(arr)
    assert pm.tolist() == [premix64(x) for x in xs]
    assert [unpremix64(y) for y in pm.tolist()] == xs
    assert (pm ^ premix64_np(arr[::-1])).tolist() == premix64_np(arr ^ arr[::-1]).tolist()
    assert finish64_np(pm.copy()).tolist() == [mix64(x) for x in xs]
    assert mix64_np(arr).tolist() == [mix64(x) for x in xs]
    # without the last step: the last step is y -> y ^ (y >> 31)
    y = finish64_np(pm.copy(), last=False)
    assert (y ^ (y >> np.uint64(31))).tolist() == [mix64(x) for x in xs]


def test_mix64_last_step_keeps_every_power_of_two_bound():
    # y < 2**k iff y ^ (y >> 31) < 2**k: why a membership test may skip it
    rng = np.random.default_rng(6)
    for k in range(65):
        bound = 1 << k
        ys = [y for y in (bound - 2, bound - 1, bound, bound + 1) if 0 <= y <= MASK64]
        ys += rng.integers(0, min(2 * bound, 2**64), 300, dtype=np.uint64).tolist()
        for y in ys:
            assert (y < bound) == ((y ^ (y >> 31)) < bound), (k, y)


def test_member_threshold_rates():
    assert member_threshold(0) == MASK64
    assert member_threshold(1) == (1 << 63) - 1
    assert member_threshold(64) == 0
    with pytest.raises(ValueError):
        member_threshold(65)
    with pytest.raises(ValueError):
        member_threshold(-1)


def test_in_sample_deterministic_and_validates():
    coin = PublicCoin(master_seed=5, r=4, l_max=10)
    assert coin.in_sample(1, 3, 17) == coin.in_sample(1, 3, 17)
    assert coin.in_sample(1, 0, 123)  # level 0 keeps everything
    with pytest.raises(ValueError):
        coin.in_sample(0, 1, 2)
    with pytest.raises(ValueError):
        coin.in_sample(5, 1, 2)
    with pytest.raises(ValueError):
        coin.in_sample(1, 11, 2)


def test_sample_mask_matches_scalar():
    coin = PublicCoin(master_seed=99, r=3, l_max=8)
    js = np.arange(500)
    for z in (1, 3):
        for l in (0, 1, 4, 8):
            mask = coin.sample_mask(z, l, js)
            scalar = np.array([coin.in_sample(z, l, int(j)) for j in js])
            assert (mask == scalar).all()


def test_level_set_marginals_within_4_sigma():
    # empirical membership rate per level over a large universe
    m = 100_000
    coin = PublicCoin(master_seed=1234, r=2, l_max=12)
    js = np.arange(m)
    for l in range(0, 11):
        got = int(coin.sample_mask(1, l, js).sum())
        pr = 2.0**-l
        sigma = math.sqrt(m * pr * (1 - pr)) if l else 0.0
        assert abs(got - m * pr) <= 4 * sigma + 1e-9, (l, got)


def test_levels_are_independent_not_nested():
    m = 100_000
    coin = PublicCoin(master_seed=77, r=2, l_max=12)
    js = np.arange(m)
    m3 = coin.sample_mask(1, 3, js)
    m4 = coin.sample_mask(1, 4, js)
    # nested sets would force m4 subset of m3; independent ones will not be
    assert int((m4 & ~m3).sum()) > 0
    # correlation between distinct levels stays near zero
    a = m3.astype(float) - m3.mean()
    b = m4.astype(float) - m4.mean()
    corr = float((a * b).mean() / (a.std() * b.std()))
    assert abs(corr) < 0.01


def test_repetitions_are_independent():
    m = 100_000
    coin = PublicCoin(master_seed=31, r=3, l_max=6)
    js = np.arange(m)
    a = coin.sample_mask(1, 2, js)
    b = coin.sample_mask(2, 2, js)
    assert (a != b).any()
    ca = a.astype(float) - a.mean()
    cb = b.astype(float) - b.mean()
    corr = float((ca * cb).mean() / (ca.std() * cb.std()))
    assert abs(corr) < 0.01


def test_level_of_examples():
    # ratio 10 -> floor(log2 10) = 3; ratio 0.5 -> 0; ratio 1 -> 0
    assert level_of(0, 1.0, 0.1, 2.0, 10.0, 1.0, 20) == 3
    assert level_of(0, 1.0, 0.1, 2.0, 0.5, 1.0, 20) == 0
    assert level_of(0, 1.0, 0.1, 2.0, 1.0, 1.0, 20) == 0


def test_level_of_clamps_and_power_of_two_edges():
    # exact powers of two must not be off by one
    for e in range(0, 12):
        assert level_of(0, 1.0, 0.1, 2.0, float(2**e), 1.0, 64) == e
    assert level_of(0, 1.0, 0.1, 2.0, 2.0**40, 1.0, 12) == 12


def test_array_level_rule_matches_the_scalar_cases():
    # level_of_np takes each bucket's denominator eta**p (1+gamma)**(p h) b;
    # here eta = b = 1 and h = 0, so the denominator is 1 and the ratio tau
    taus = [10.0, 0.5, 1.0] + [float(2**e) for e in range(12)]
    assert level_of_np(np.array(taus), np.ones(len(taus)), 64).tolist() == [
        level_of(0, 1.0, 0.1, 2.0, t, 1.0, 64) for t in taus]
    assert level_of_np(np.array([2.0**40]), np.ones(1), 12).tolist() == [12]
    # one ulp either side of each power of two
    powers = np.array([2.0**e for e in range(1, 12)])
    assert level_of_np(np.nextafter(powers, 0.0), np.ones(11), 64).tolist() == list(range(11))
    assert level_of_np(np.nextafter(powers, np.inf), np.ones(11), 64).tolist() == list(range(1, 12))
    # a denominator that is not finite and positive reads level 0
    assert level_of_np(np.full(3, 8.0), np.array([np.inf, 0.0, -1.0]), 64).tolist() == [0] * 3


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=60)
def test_level_of_monotone_in_bucket(h):
    # deeper buckets (larger values) must read shallower levels
    eta, gamma, p, tau, b = 0.37, 0.05, 2.0, 1.0e6, 16.0
    l0 = level_of(h, eta, gamma, p, tau, b, 30)
    l1 = level_of(h + 1, eta, gamma, p, tau, b, 30)
    assert l1 <= l0


def test_level_of_matches_defining_inequality():
    eta, gamma, p, tau, b, l_max = 0.61, 0.02, 3.0, 5.0e7, 32.0, 24
    for h in range(0, 300, 7):
        l = level_of(h, eta, gamma, p, tau, b, l_max)
        ratio = tau / (eta**p * (1 + gamma) ** (p * h) * b)
        if ratio >= 1.0 and l < l_max:
            assert 2.0**l <= ratio < 2.0 ** (l + 1)
        elif ratio < 1.0:
            assert l == 0
