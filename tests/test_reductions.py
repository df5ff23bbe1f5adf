"""Moment-combination decisions, distinct-count recovery, Gaussian sketch."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fpmon.hardgen import gen_btx
from fpmon.reductions import (
    MomentTriple,
    bit_from_f0,
    btx_from_moments,
    btx_moments,
    collision_rate,
    embed_norm_estimate,
    embed_readings,
    expected_distinct,
    gaussian_embed,
    gp_moment,
)


def test_btx_moments_frozen_example():
    # fixed instance whose exact moment readings were computed once by a
    # brute-force pass over the bit matrices and frozen here
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=0)
    t = btx_moments(inst)
    assert (t.w0, t.w1, t.w2) == (967.0, 444.0, 363.0)
    # combination w = (2 * 807 - 967) / 1 = 647; centered reading
    # 4 * 647 / 64 = 40.4375 vs (4+1) / (2 * 0.0625) = 40 -> inside margin 6
    scale = 2.0 ** (inst.p - 1)
    w = (scale * (t.w1 + t.w2) - t.w0) / (scale - 1.0)
    assert w == 647.0
    assert btx_from_moments(t, inst.k, inst.p, inst.eps) == 0
    # independent recomputation straight from the matrices, on this instance
    # and at other orders and seeds: exact ints for integer p, the fsum of
    # float powers otherwise
    others = [gen_btx(k=8, p=p, eps=0.5, seed=s) for p in (1.5, 2.0, 3.0) for s in (1, 2, 3)]
    for inst in [inst, *others]:
        t, p = btx_moments(inst), inst.p
        m = inst.matrices.astype(np.int64)
        for got, part in ((t.w0, m), (t.w1, m[:, :4, :]), (t.w2, m[:, 4:, :])):
            counts = part.sum(axis=1).ravel().tolist()
            want = (sum(c ** int(p) for c in counts) if p.is_integer() else
                    math.fsum(float(c) ** p for c in counts if c))
            assert got == float(want)


def test_btx_from_moments_decision_margin():
    # synthetic triples at k=8, p=2, eps=0.25: centered = w/16 - 40,
    # decision 1 iff |w/16 - 40| >= 6
    def triple(w):
        # w0 = 0 makes the combination (2 (w1+w2) - w0) / 1 = 2 (w1+w2) = w
        return MomentTriple(0.0, w / 4.0, w / 4.0)

    assert btx_from_moments(triple(16 * 40), 8, 2.0, 0.25) == 0
    assert btx_from_moments(triple(16 * 46), 8, 2.0, 0.25) == 1
    assert btx_from_moments(triple(16 * 34), 8, 2.0, 0.25) == 1
    assert btx_from_moments(triple(16 * 45.9), 8, 2.0, 0.25) == 0


def test_btx_from_moments_validates():
    t = MomentTriple(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        btx_from_moments(t, 8, 1.0, 0.25)
    with pytest.raises(ValueError):
        btx_from_moments(t, 8, 2.0, 0.0)


def test_btx_moments_split_is_consistent():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=3)
    t = btx_moments(inst)
    # halves partition the sites, so w1, w2 <= w0 <= (w1^(1/p) + w2^(1/p))^p
    assert t.w1 <= t.w0 and t.w2 <= t.w0
    assert t.w0 <= (t.w1**0.5 + t.w2**0.5) ** 2 + 1e-9
    # p = 1 moments add exactly
    t1 = btx_moments(inst, p=1.001)  # p > 1 required; near-linear check
    assert t1.w0 == pytest.approx(t1.w1 + t1.w2, rel=0.01)


def test_expected_distinct_properties():
    assert expected_distinct(0, 10) == 0.0
    assert expected_distinct(1, 10) == pytest.approx(1.0)
    assert expected_distinct(10**6, 10) == pytest.approx(10.0)
    # matches the inclusion-exclusion sum for small cases
    n_balls, n_bins = 7, 4
    exact = n_bins * (1 - (1 - 1 / n_bins) ** n_balls)
    assert expected_distinct(n_balls, n_bins) == pytest.approx(exact)
    assert expected_distinct(5, 10**9) == pytest.approx(5.0, rel=1e-6)
    with pytest.raises(ValueError):
        expected_distinct(-1, 10)
    with pytest.raises(ValueError):
        expected_distinct(5, 0)


def test_collision_rate():
    assert collision_rate(1, 100) == pytest.approx(0.0)
    lam = collision_rate(50, 100)
    assert 0.0 < lam < 0.5
    assert lam == pytest.approx(1.0 - expected_distinct(50, 100) / 50)
    with pytest.raises(ValueError):
        collision_rate(0, 100)


def test_bit_from_f0_exact_cases():
    # no collisions: reading = (nprime - lprime) + missing mass
    # total = (w - (n' - l')) / (1 - lam)
    assert bit_from_f0(100.0, 110, 20, 0.0) == pytest.approx(10.0)
    assert bit_from_f0(95.0, 110, 20, 0.5) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        bit_from_f0(1.0, 10, 2, 1.0)
    with pytest.raises(ValueError):
        bit_from_f0(1.0, 10, 2, -0.1)


def test_gp_moment_closed_forms():
    assert gp_moment(2.0) == pytest.approx(1.0)
    assert gp_moment(4.0) == pytest.approx(3.0)
    assert gp_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi))
    assert gp_moment(6.0) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        gp_moment(0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_gp_moment_matches_quadrature(p):
    val, err = quad(
        lambda t: abs(t) ** p * math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi),
        -np.inf, np.inf,
    )
    assert abs(gp_moment(p) - val) < 1e-6


def test_embed_readings_values():
    # kappa_3 / kappa_2 = (15 pi / 8 - 1) / 2 = 2.445, so p = 3 needs
    # 2.445 * 1024 = 2504 readings at eps = 0.25; p <= 2 keeps 64/eps^2
    for p in (1.0, 1.5, 2.0):
        assert embed_readings(p, 0.25) == 1024
    assert embed_readings(3.0, 0.25) == 2504


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3, 0.5, 0.9])
def test_embed_readings_keeps_64_over_eps_squared_up_to_p2(eps):
    for p in (0.5, 1.0, 1.5, 2.0):
        assert embed_readings(p, eps) == round(64.0 / eps**2)
    assert embed_readings(3.0, eps) > round(64.0 / eps**2)


@pytest.mark.parametrize("p, eps", [(2.0, 0.0), (2.0, 1.0), (2.0, -0.1),
                                    (2.0, 1.5), (0.0, 0.25), (-1.0, 0.25)])
def test_embed_readings_rejects_bad_arguments(p, eps):
    with pytest.raises(ValueError):
        embed_readings(p, eps)


def test_gaussian_embed_shape_and_determinism():
    x = [1.0, -2.0, 3.0]
    y1 = gaussian_embed(x, r=16, p=2.0, seed=5)
    y2 = gaussian_embed(x, r=16, p=2.0, seed=5)
    y3 = gaussian_embed(x, r=16, p=2.0, seed=6)
    assert y1.shape == (16,)
    assert (y1 == y2).all()
    assert (y1 != y3).any()
    with pytest.raises(ValueError):
        gaussian_embed(x, r=0, p=2.0, seed=1)


def test_gaussian_embed_zero_vector():
    y = gaussian_embed([0.0, 0.0], r=8, p=2.0, seed=1)
    assert (y == 0.0).all()
    assert embed_norm_estimate(y, 2.0) == 0.0


def test_gaussian_embed_mean_moment():
    # E|y_j|^p = ||x||_2^p by construction; at r = 10^4 the p = 2 mean sits
    # within a few percent (relative sd = sqrt(2/r) ~ 1.4%)
    x = np.array([3.0, 4.0])  # ||x||_2 = 5
    y = gaussian_embed(x, r=10_000, p=2.0, seed=7)
    est = embed_norm_estimate(y, 2.0)
    assert est == pytest.approx(25.0, rel=0.05)
    # p = 1: mean |y| estimates ||x||_2 after the G_p normalization
    y1 = gaussian_embed(x, r=10_000, p=1.0, seed=8)
    assert embed_norm_estimate(y1, 1.0) == pytest.approx(5.0, rel=0.05)


def test_gaussian_embed_concentrates_at_larger_r_for_p3():
    # cubed readings are heavy-tailed: the mean estimator's relative sd is
    # sqrt((G_6/G_3^2 - 1)/r) ~ 2.21/sqrt(r), so an 8.33% tolerance sits at
    # only 1.2 sd for r = 1024 but 2.1 sd for r = 3072, where trials should
    # land inside the tolerance the vast majority of the time
    rng = np.random.Generator(np.random.PCG64(41))
    x = rng.integers(1, 10, size=32)
    target = float(np.linalg.norm(x)) ** 3
    tol = target / 12.0
    ok = 0
    for t in range(40):
        y = gaussian_embed(x, r=3072, p=3.0, seed=9000 + t)
        ok += int(abs(embed_norm_estimate(y, 3.0) - target) <= tol)
    assert ok >= 33


def test_embed_norm_estimate_validates():
    with pytest.raises(ValueError):
        embed_norm_estimate(np.array([]), 2.0)
