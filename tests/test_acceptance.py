"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Criteria 1 and 2 drive full protocol runs: in the full suite on a shared
2-core machine (Python 3.11.7, numpy 2.4.6) they took 7-8 s and 34-37 s. They
carry the `slow` marker so `-m "not slow"` skips them during development.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from fpmon.hardgen import (
    btx_eval,
    gen_bit_disj,
    gen_btx,
    gen_gap_maj,
    gen_quantile_instance,
    gen_two_disj,
    quantile_recover,
    validate_bit_disj,
    validate_btx,
    validate_gap_maj,
    validate_quantile,
    validate_two_disj,
)
from fpmon.harness import (
    StreamEvent,
    exact_fp_of_events,
    gen_uniform_stream,
    gen_zipf_stream,
    params_provenance,
    simulate,
    write_trace,
)
from fpmon.oracles import exact_distinct
from fpmon.protocol import FanRows, GlobalParams, members
from fpmon.reductions import (
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
from fpmon.sampling import SALT_INSTANCE, SALT_STREAM, derive, event_key
import reference

pytestmark = pytest.mark.acceptance


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.mark.slow
def test_criterion_1_threshold_correctness():
    # k=8, m=4096, p=2, eps=0.2, 2e4 uniform updates crossing tau=2.5e4:
    # over 60 seeds the output must never fire while F_p < tau/(1+eps) and
    # must have fired by the time F_p reaches 2^p tau, on >= 2/3 of seeds
    tau, four_tau, lo = 25000.0, 4 * 25000.0, 25000.0 / 1.2
    good = 0
    ratios = []
    for seed in range(60):
        g = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2, tau=tau,
                         b=128.0, r=25, seed=seed)
        events = gen_uniform_stream(4096, 8, 20000, seed=seed)
        rows = simulate(events, g)[0]
        fire = next((r for r in rows if r.fired_instances == 1), None)
        crossing = next((r for r in rows if r.true_fp >= four_tau), None)
        never_early = fire is None or fire.true_fp >= lo
        by_four_tau = crossing is None or crossing.fired_instances == 1
        if fire is not None:
            ratios.append(fire.true_fp / tau)
        good += int(never_early and by_four_tau)
    ok = good >= 40
    assert report(
        1, "threshold correctness", ok,
        f"{good}/60 seeds correct (need >= 40); fire at true/tau in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}]")


@pytest.mark.slow
def test_criterion_2_monitor_correctness():
    # same regime, monitor mode with a=3 amplification: the running estimate
    # stays within (1+eps)^2 of exact F_p at every event on >= 2/3 of seeds
    hi = 1.2**2
    lo = 1.0 / hi
    n_seeds, good = 12, 0
    worst_lo, worst_hi = math.inf, 0.0
    for seed in range(n_seeds):
        g = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2, b=32.0, r=15,
                         a=3, seed=seed)
        events = gen_uniform_stream(4096, 8, 20000, seed=seed)
        rows, _ = simulate(events, g, mode="monitor")
        ratios = [row.estimate / row.true_fp for row in rows]
        worst_lo = min(worst_lo, min(ratios))
        worst_hi = max(worst_hi, max(ratios))
        good += int(all(lo <= q <= hi for q in ratios))
    ok = good >= math.ceil(2 * n_seeds / 3)
    assert report(
        2, "monitor correctness", ok,
        f"{good}/{n_seeds} seeds inside [{lo:.3f}, {hi:.2f}] at every event "
        f"(need >= {math.ceil(2 * n_seeds / 3)}); observed estimate/true in "
        f"[{worst_lo:.3f}, {worst_hi:.3f}]")


def _mean_bits(k: int, p: float, trials: int = 3) -> float:
    total = 0
    for trial in range(trials):
        ri = np.random.Generator(
            np.random.PCG64(derive(0, SALT_STREAM, 31, trial)))
        rs = np.random.Generator(
            np.random.PCG64(derive(0, SALT_STREAM, 32, trial, k)))
        js = ri.integers(0, 4096, size=10000)
        sites = rs.integers(0, k, size=10000)
        events = [StreamEvent(t, int(sites[t]), int(js[t]))
                  for t in range(10000)]
        tau = max(1.0, float(exact_fp_of_events(events, p)) / 2.0)
        g = GlobalParams(k=k, m=4096, n=10000, p=p, eps=0.25, tau=tau,
                         b=64.0, r=15, seed=0)
        rows, _ = simulate(events, g, stride=len(events))
        total += rows[-1].cum_bits
    return total / trials


def test_criterion_3_communication_scaling():
    # fixed item sequence, sites reassigned per k: doubling k may grow mean
    # bits by at most 3x at p=2 (k log-law) and at most 6x at p=3 (k^2 law)
    results = {}
    for p, ks, cap in ((2.0, [4, 8, 16, 32], 3.0), (3.0, [4, 8, 16], 6.0)):
        bits = [_mean_bits(k, p) for k in ks]
        factors = [bits[i + 1] / bits[i] for i in range(len(bits) - 1)]
        results[p] = (factors, cap, all(f <= cap for f in factors))
    ok = all(v[2] for v in results.values())
    detail = "; ".join(
        f"p={p:g} doubling factors {[f'{f:.2f}' for f in fs]} (cap {cap:g})"
        for p, (fs, cap, _) in results.items())
    assert report(3, "communication scaling", ok, detail)


def test_criterion_4_counter_exactness_and_determinism(tmp_path):
    # zero tolerance: every coordinator counter equals its message count
    # times (tau/2^l)^(1/p)/b; reruns are byte-identical; each event's
    # messages follow from the site's own state and the fire bit alone
    g = GlobalParams(k=4, m=64, n=3000, p=2.0, eps=0.2, tau=5000.0, b=8.0,
                     r=9, seed=7)
    events = gen_zipf_stream(64, 4, 3000, seed=5)
    rows, inst = simulate(events, g)

    exact = True
    for l in range(g.l_max + 1):
        exact &= float(inst.u[l]) == (5000.0 / 2.0**l) ** 0.5 / 8.0
    levels_seen = set()
    for (z, l, j), count in inst.counts.items():
        levels_seen.add(l)
        exact &= count * float(inst.u[l]) == count * (5000.0 / 2.0**l) ** 0.5 / 8.0
    populated = len(inst.counts) > 100 and len(levels_seen) >= 4

    p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    write_trace(p1, rows, params_provenance(g, "threshold"))
    g2 = GlobalParams(k=4, m=64, n=3000, p=2.0, eps=0.2, tau=5000.0, b=8.0,
                      r=9, seed=7)
    rows2, _ = simulate(events, g2)
    write_trace(p2, rows2, params_provenance(g2, "threshold"))
    with open(p1, "rb") as fh:
        d1 = fh.read()
    with open(p2, "rb") as fh:
        d2 = fh.read()
    identical = d1 == d2

    # one-way: a site-only replay of the run. Each site knows its own
    # counts, the public seeds and the event keys; from the coordinator it
    # hears one bit, the fire notice, seen on the previous row
    copy = reference.Copy(g, g.tau, *(derive(g.seed, SALT_INSTANCE, 0, 0, s) for s in range(3)))
    own: Counter = Counter()  # (site, j) -> that site's count of j
    one_way, sent, fired = len(rows) == len(events), 0, False
    for ev, row in zip(events, rows):
        own[ev.site, ev.j] += 1
        replay = 0 if fired else len(copy.sends(own[ev.site, ev.j], ev.j,
                                                event_key(ev.site, ev.t)))
        one_way &= (row.t == ev.t and row.cum_messages - sent == replay
                    and row.cum_bits == row.cum_messages * g.message_bits())
        sent, fired = row.cum_messages, row.fired_instances == 1
    one_way &= fired  # the replay reached the fire notice
    ok = exact and populated and identical and one_way
    assert report(
        4, "counter exactness and determinism", ok,
        f"{len(inst.counts)} counters over levels {sorted(levels_seen)} all "
        f"exact={exact}; rerun byte-identical={identical}; one-way={one_way}")


def test_criterion_5_sampling_marginals():
    # empirical level-set membership within 4 sigma of 2^-l for l in 0..10
    m = 100_000
    g = GlobalParams(k=1, m=m, n=2, p=2.0, eps=0.5, r=2)
    rows = FanRows(g, [1.0], [2024], [0])  # one copy, public-coin seed 2024
    sets = members(rows, rows.coin_pm, np.arange(m))  # repetition 1: columns 0 .. l_max
    worst = 0.0
    ok = True
    for l in range(11):
        got = int(sets[:, l].sum())
        pr = 2.0**-l
        sigma = math.sqrt(m * pr * (1 - pr))
        if sigma == 0.0:
            ok &= got == m
            continue
        z = abs(got - m * pr) / sigma
        worst = max(worst, z)
        ok &= z <= 4.0
    assert report(5, "sampling marginals", ok,
                  f"max |z| over levels 0..10 is {worst:.2f} (cap 4)")


def test_criterion_6_btx_reduction_agreement():
    # the moment-combination decision agrees with the ground-truth block
    # count on >= 95% of 200 non-star instances at k=8, p=2, eps=0.25
    non_star = agree = 0
    t = 0
    while non_star < 200:
        inst = gen_btx(8, 2.0, 0.25, derive(0, 11, t))
        t += 1
        want = btx_eval(inst)
        if want is None:
            continue
        non_star += 1
        got = btx_from_moments(btx_moments(inst), 8, 2.0, 0.25)
        agree += int(got == want)
    frac = agree / non_star
    ok = frac >= 0.95
    assert report(6, "blockwise-XOR reduction", ok,
                  f"{agree}/{non_star} non-star agreement = {frac:.3f} "
                  f"(need >= 0.95; {t} instances generated)")


def test_criterion_7_distinct_count_recovery():
    # (a) occupied-bin count concentrates at its expectation within
    # 1/(10 eps) = 1 on >= 90% of 200 trials (100 balls, 40000 bins);
    # (b) the collision-corrected distinct-count reading recovers the
    # number of intersecting sites within 1/(4 eps) = 2.5 on >= 90% of trials
    e_occ = expected_distinct(100, 40000)
    ok_a = 0
    for t in range(200):
        rng = np.random.Generator(np.random.PCG64(derive(0, 16, t)))
        occupied = len(np.unique(rng.integers(0, 40000, size=100)))
        ok_a += int(abs(occupied - e_occ) <= 1.0)

    trials_b, ok_b = 60, 0
    nprime, lprime = 40003, 10001
    for t in range(trials_b):
        inst = gen_bit_disj(256, nprime, 0.25, derive(0, 12, t))
        n_true = sum(inst.z)
        union = exact_distinct(inst.xs, nprime)
        lam = collision_rate(n_true, lprime) if n_true >= 1 else 0.0
        est = bit_from_f0(float(union), nprime, lprime, lam)
        ok_b += int(abs(est - n_true) <= 2.5)

    ok = ok_a >= 180 and ok_b >= 0.9 * trials_b
    assert report(
        7, "distinct-count recovery", ok,
        f"bin-ball {ok_a}/200 within 1.0 of {e_occ:.3f} (need >= 180); "
        f"intersection total {ok_b}/{trials_b} within 2.5 (need >= "
        f"{math.ceil(0.9 * trials_b)})")


def test_criterion_8_gaussian_embedding():
    # r = embed_readings(p, eps) readings at eps = 0.25: 64/eps^2 = 1024 for
    # p <= 2, scaled by kappa_p / kappa_2 (kappa_p = G_2p/G_p^2 - 1, the
    # relative variance of one |y|^p reading) for p > 2, so 2504 at p = 3.
    # The mean p-th power of the readings must sit within eps/3 of
    # ||x||_2^p on >= 90 of 100 trials for p in {1, 2, 3}; each p's
    # predicted per-trial pass rate is 2*Phi(z) - 1 at z = (eps/3) /
    # sqrt(kappa_p / r). The normalizing constant must match quadrature
    # to 1e-6
    eps = 0.25
    rng = np.random.Generator(np.random.PCG64(derive(0, 13)))
    x = rng.integers(1, 10, size=32)
    counts, readings, predicted = {}, {}, {}
    for p in (1.0, 2.0, 3.0):
        r = embed_readings(p, eps)
        kappa = gp_moment(2 * p) / gp_moment(p) ** 2 - 1.0
        z = (eps / 3.0) / math.sqrt(kappa / r)
        readings[p], predicted[p] = r, math.erf(z / math.sqrt(2.0))
        target = float(np.linalg.norm(x)) ** p
        tol = (eps / 3.0) * target
        ok_p = 0
        for t in range(100):
            y = gaussian_embed(x, r, p, derive(0, 14, int(p), t))
            ok_p += int(abs(embed_norm_estimate(y, p) - target) <= tol)
        counts[p] = ok_p

    quad_ok = True
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        val, _ = quad(
            lambda t: abs(t) ** p * math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
            -np.inf, np.inf)
        quad_ok &= abs(gp_moment(p) - val) < 1e-6

    ok = all(c >= 90 for c in counts.values()) and quad_ok
    assert report(
        8, "Gaussian embedding", ok,
        "trials within tolerance: "
        + ", ".join(f"p={p:g}: {c}/100 (r={readings[p]}, "
                    f"predicted {predicted[p]:.3f})"
                    for p, c in counts.items())
        + f" (need >= 90 each); moment constant matches quadrature={quad_ok}")


def test_criterion_9_hard_instance_structure():
    # validators accept 1000 generated instances per family; block types are
    # uniform over the four values within 4 sigma; quantile recovery returns
    # the gap side of every decidable copy
    n = 1000
    type_counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    decidable = recovered = 0
    for seed in range(n):
        validate_two_disj(gen_two_disj(43, 0.25, seed))
        validate_bit_disj(gen_bit_disj(64, 43, 0.25, seed))
        btx = gen_btx(8, 2.0, 0.25, seed)
        validate_btx(btx)
        for typ in btx.types:
            type_counts[typ] += 1
        validate_gap_maj(gen_gap_maj(64, seed))
        q = gen_quantile_instance(64, 0.02, seed)
        validate_quantile(q)
        rec = quantile_recover(q)
        for i in range(q.l_rep):
            s = sum(q.z[i])
            if abs(s - 32) >= 8.0:
                decidable += 1
                recovered += int(rec[i] == (1 if s > 32 else 0))

    blocks = sum(type_counts.values())
    sigma = math.sqrt(blocks * 0.25 * 0.75)
    freq_ok = all(abs(c - blocks / 4) <= 4 * sigma for c in type_counts.values())
    round_trip_ok = decidable > 0 and recovered == decidable
    ok = freq_ok and round_trip_ok
    assert report(
        9, "hard-instance structure", ok,
        f"validators accepted {n} instances/type; type counts {type_counts} "
        f"within 4 sigma of {blocks // 4}={freq_ok}; quantile round trip "
        f"{recovered}/{decidable} decidable copies")
