"""Threshold protocol: parameters, site sends, coordinator counters."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmon.protocol import (
    C_FIRE,
    FanRows,
    GlobalParams,
    Message,
    SiteState,
    ThresholdInstance,
    ceil_log2,
    fanout,
    members,
    send_limit,
)
from fpmon.harness import gen_uniform_stream, plan_events, simulate
from fpmon.monitor import Monitor
from fpmon.sampling import MASK64, SALT_SEND, derive, member_threshold, premix64
import reference


def small_params(**kw):
    base = dict(k=4, m=64, n=1000, p=2.0, eps=0.2, tau=4096.0, b=8.0, r=9, seed=3)
    base.update(kw)
    return GlobalParams(**base)


def site_rows(g):
    """A threshold run's site rows, one block of FanRows, and its copy."""
    mon = Monitor(g, tau=g.tau)
    return mon.rows, mon.copies[0]


def sends(rows, gate, count_after, j: int, ev: int) -> np.ndarray:
    """Ascending flat rows that send for one update of coordinate j:
    fanout over the rows whose level set holds j."""
    cand = np.flatnonzero(members(rows, rows.coin_pm, [j]))
    return cand[fanout(rows, gate, count_after, ev, cand)]


def gate_of(rows, live):
    """fanout's gate for a live mask: the guard, or +inf where not live."""
    return np.where(live, rows.guards(), np.inf)


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(1024) == 10
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(k=3)
    with pytest.raises(ValueError):
        small_params(m=1)
    with pytest.raises(ValueError):
        small_params(p=1.0)
    with pytest.raises(ValueError):
        small_params(eps=0.0)
    with pytest.raises(ValueError):
        small_params(eps=1.0)
    with pytest.raises(ValueError):
        small_params(tau=0.5)
    with pytest.raises(ValueError):
        small_params(a=4)
    # fixed by eps, not settable: gamma = eps/10 and the fire line's C_FIRE
    for name in ("gamma", "c_fire"):
        with pytest.raises(TypeError, match=name):
            small_params(**{name: 0.25})


@pytest.mark.parametrize("field", ["p", "tau", "b", "c_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
        small_params(**{field: value})


@pytest.mark.parametrize("kw", [dict(i_max=-1), dict(i_max=-7), dict(i_max=-1, a=1)])
def test_params_reject_negative_i_max(kw):
    with pytest.raises(ValueError, match=r"^i_max must be >= 0, got -"):
        small_params(**kw)


def test_params_i_max_zero_resolves_the_default_a():
    # one rung at tau = 1; the default-a formula is read at i_max = 1
    assert small_params(i_max=0).a == 3
    for i_max in (1, 2, 57, 1000):
        assert small_params(i_max=i_max).a == 2 * math.ceil(0.15 * math.log(i_max * 10)) + 1


def largest_i_max(eps: float) -> int:
    """The largest i with (1 + eps)**(i + 0.5) a finite float."""
    i = 1
    while True:
        try:
            (1.0 + eps) ** (i + 1.5)
        except OverflowError:
            return i
        i += 1


def test_params_reject_a_top_rung_past_the_largest_float():
    # the ladder's largest value is its estimate (1+eps)**(i_max + 0.5)
    # once the top rung fires; at eps = 0.2 the top rung itself is finite
    # one rung further
    top = largest_i_max(0.2)
    assert small_params(i_max=top).i_max == top
    assert math.isfinite(1.2 ** (top + 1))
    for i_max in (top + 1, 5000):
        with pytest.raises(ValueError, match=rf"^i_max={i_max}: top rung estimate "):
            small_params(i_max=i_max)
    for eps in (0.01, 0.5, 0.9):
        top = largest_i_max(eps)
        assert small_params(eps=eps, i_max=top).i_max == top
        with pytest.raises(ValueError, match="^i_max="):
            small_params(eps=eps, i_max=top + 1)


@pytest.mark.parametrize("kw", [dict(n=10**200), dict(p=2000.0)])
def test_params_default_i_max_past_the_float_range_is_a_value_error(kw):
    # the default i_max is log_(1+eps)(n**2 * 2**p); a 201-digit n does not
    # convert to a float, and 2.0**2000 overflows
    g = {**dict(k=4, m=64, n=100, p=2.0, eps=0.2), **kw}
    with pytest.raises(ValueError, match=rf"^n={g['n']}, p={g['p']}: the default i_max"):
        GlobalParams(**g)
    assert GlobalParams(**g, i_max=10).i_max == 10


@pytest.mark.filterwarnings("error")  # and no numpy overflow warning before it
def test_tau_whose_bucket_tables_overflow_is_a_value_error():
    # the tables reach zeta**(p * (h_cap + 1)), and h_cap grows with tau
    g = GlobalParams(k=4, m=64, n=100, p=2.0, eps=0.2)
    assert ThresholdInstance(g, tau=1e300).h_cap > 0
    for build in (ThresholdInstance, Monitor):
        with pytest.raises(ValueError, match=r"^tau=1e\+308: its bucket tables pass the float"):
            build(g, tau=1e308)
    with pytest.raises(ValueError, match=r"^tau=1e\+308: "):
        ThresholdInstance(GlobalParams(k=4, m=64, n=100, p=2.0, eps=0.2, tau=1e308))
    # a ladder whose top rungs' level ratios tau / (eta**p b) overflow,
    # although the top rung estimate (1+eps)**(i_max + 1/2) is finite
    ladder = dict(k=4, m=16, n=100, p=2.0, eps=0.9, b=1.0, r=1, a=1)
    with pytest.raises(ValueError, match=r"^tau=\S+: its bucket tables pass the float"):
        Monitor(GlobalParams(**ladder, i_max=1105))
    events = gen_uniform_stream(16, 4, 100, 0)
    mon = Monitor(GlobalParams(**ladder, i_max=1100))
    mon.run(*plan_events(events, 4)[:3])
    assert mon.n_events == 100


@pytest.mark.filterwarnings("error")
def test_p_whose_eta_power_underflows_is_a_value_error():
    # at p = 2000 every eta**p underflows to 0.0, and the bucket count
    # log(n / eta**p) has no value
    with pytest.raises(ValueError, match=r"^p=2000\.0: eta\*\*p at eta=\S+ is 0\.0, "):
        Monitor(GlobalParams(k=4, m=64, n=50, p=2000.0, eps=0.2, i_max=5))


@pytest.mark.filterwarnings("error")
def test_n_whose_bucket_tables_overflow_is_a_value_error():
    # n, not tau, drives h_cap and with it zeta**(p * (h_cap + 1)) past the
    # float range; rung 0 has tau = 1
    with pytest.raises(ValueError, match=rf"^n={10**200}: h_cap=\d+ puts its bucket "):
        Monitor(GlobalParams(k=4, m=64, n=10**200, p=2.0, eps=0.2, i_max=5))


def test_params_defaults_resolve():
    g = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2)
    assert g.gamma == 0.2 / 10.0
    assert ThresholdInstance(g, tau=1000.0).fire_line == (1.0 - C_FIRE * 0.2) * 1000.0 == 950.0
    assert g.b == 64.0
    assert g.l_max == 12
    assert g.r == 5 * ceil_log2(20000)
    # ladder covers n^2 * 2^p
    assert (1 + g.eps) ** g.i_max >= 20000**2 * 2**2.0
    assert (1 + g.eps) ** (g.i_max - 1) < 20000**2 * 2**2.0
    assert g.a % 2 == 1 and g.a >= 1


def test_params_b_formula():
    g = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2, c_b=1.0)
    assert g.b == pytest.approx(0.2**-3 * 15**2)
    # explicit b wins over c_b
    g2 = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2, c_b=1.0, b=32.0)
    assert g2.b == 32.0


def test_message_bits_examples():
    g = GlobalParams(k=2, m=1024, n=1000, p=2.0, eps=0.5, r=32)
    assert g.l_max == 10
    assert g.message_bits() == 10 + 5 + 4
    g2 = GlobalParams(k=2, m=2, n=2, p=2.0, eps=0.5, r=1)
    assert g2.l_max == 1
    assert g2.message_bits() == 1 + 0 + 1
    # multiplexed copies pay an extra stream-id field
    assert g.message_bits(n_streams=8) == 19 + 3


def test_counter_value_is_count_times_increment():
    g = small_params(tau=10.0**5, b=64.0, k=1)
    inst = ThresholdInstance(g)
    root = g.tau ** (1.0 / g.p)
    for l in range(g.l_max + 1):
        expect = max(root / 2 ** (l / g.p) / g.b, 1.0)
        assert float(inst.u[l]) == expect
    # subsampled level: increment is exactly tau_l^{1/p} / b
    assert float(inst.u[0]) == root / g.b
    # deep level: increment clamps at one count per message
    assert float(inst.u[g.l_max]) == 1.0
    # the buckets read a counter at count * u_l: a run's counters, medians
    # and estimate are the reference's, which looks each such value up
    # among the edges and sorts each bucket's counts for its median
    events = gen_uniform_stream(g.m, g.k, g.n, seed=23)
    _, copy = simulate(events, g)
    _, (ref,) = reference.run(events, g)
    assert copy.counts == ref.counts and len(copy.counts) > 100
    assert np.array_equal(copy.med, ref.med) and np.count_nonzero(copy.med) > 5
    assert copy.est == ref.est > 0 and not copy.out


def test_guard_is_strict():
    # guard = tau_l^{1/p} / (k b); eligibility requires count strictly above
    g = small_params()  # root = 64, k*b = 32 -> guard(l=0) = 2.0
    rows, _ = site_rows(g)
    assert rows.guards()[0] == pytest.approx(2.0)
    row0 = np.zeros(rows.size, dtype=bool)
    row0[0] = True
    for j in range(40):
        assert 0 not in sends(rows, gate_of(rows, row0), 2, j, ev=j)


def test_site_never_sends_below_guard():
    g = small_params(tau=1024.0)
    rows, _ = site_rows(g)
    guard = rows.guards()
    counts: dict[int, int] = {}
    rng = random.Random(11)
    sent = 0
    for t in range(3000):
        j = rng.randrange(g.m)
        c = counts[j] = counts.get(j, 0) + 1
        flat = sends(rows, guard, c, j, ev=t)
        assert (c > guard[flat]).all()
        sent += flat.size
    assert sent > 0


def test_messages_ordered_by_repetition_then_level():
    g = small_params(tau=1024.0)
    rows, _ = site_rows(g)
    counts: dict[int, int] = {}
    rng = random.Random(5)
    seen_multi = 0
    for t in range(4000):
        j = rng.randrange(g.m)
        c = counts[j] = counts.get(j, 0) + 1
        flat = sends(rows, rows.guards(), c, j, ev=t)
        keys = [divmod(f, g.l_max + 1) for f in flat.tolist()]  # (z - 1, l)
        assert keys == sorted(keys)
        if len(keys) > 1:
            seen_multi += 1
    assert seen_multi > 0


def test_send_probability_binomial():
    # a level with q < 1: empirical send rate within 4 sigma of q
    g = small_params(tau=65536.0, b=8.0)  # root = 256, q(l=0) = 8/256
    rows, _ = site_rows(g)
    q = (int(rows.send_lim[0]) + 1 >> 11) / 2.0**53
    assert q == 8.0 / 256.0
    trials, sent = 20000, 0
    row0 = np.zeros(rows.size, dtype=bool)
    row0[0] = True
    count = int(rows.guards()[0]) + 10
    for ev in range(trials):
        if 0 in sends(rows, gate_of(rows, row0), count, 7, ev):
            sent += 1
    sigma = math.sqrt(trials * q * (1 - q))
    assert abs(sent - trials * q) <= 4 * sigma


def test_q_one_levels_always_send_when_sampled():
    # deep levels with tau_l^{1/p} <= b send every eligible sampled update
    g = small_params(tau=4096.0, b=64.0)  # root = 64 -> q = 1 at every level
    rows, inst = site_rows(g)
    assert (rows.send_lim == MASK64).all()
    js = np.arange(g.m)
    for flat in range(rows.size):
        z, l = flat // (g.l_max + 1) + 1, flat % (g.l_max + 1)
        mask = inst.coin.sample_mask(z, l, js)
        row = np.zeros(rows.size, dtype=bool)
        row[flat] = True
        count = int(math.ceil(rows.guards()[flat])) + 1
        for j in js[mask][:5]:
            assert flat in sends(rows, gate_of(rows, row), count, int(j), ev=0)


def test_fanout_of_several_updates_is_the_union_of_scalar_calls():
    # count_after and ev given per candidate: the result is each update's
    # own scalar call, shifted to its candidates' positions, with a live
    # mask, binding guards and levels that thin
    g = small_params(tau=65536.0)
    rows, inst = site_rows(g)
    gate = gate_of(rows, np.random.default_rng(1).random(rows.size) < 0.8)
    rng = random.Random(3)
    updates = [(rng.randrange(1, 40), rng.randrange(g.m), rng.randrange(2**64))
               for _ in range(60)]
    cands, want, offset = [], [], 0
    for c, j, ev in updates:
        cand = np.array([f for f in range(rows.size)
                         if inst.coin.in_sample(f // (g.l_max + 1) + 1, f % (g.l_max + 1), j)])
        assert cand.tolist() == np.flatnonzero(members(rows, rows.coin_pm, [j])).tolist()
        sent = fanout(rows, gate, c, ev, cand)
        assert cand[sent].tolist() == sends(rows, gate, c, j, ev).tolist()
        cands.append(cand)
        want += (sent + offset).tolist()
        offset += cand.size
    sizes = [cand.size for cand in cands]
    counts = np.repeat([c for c, _, _ in updates], sizes)
    evs = np.repeat(np.array([ev for _, _, ev in updates], dtype=np.uint64), sizes)
    got = fanout(rows, gate, counts, evs, np.concatenate(cands))
    assert got.tolist() == want
    assert 0 < len(want) < sum(sizes)


@pytest.mark.parametrize("q", [1.0, 3.0, 2.0**52, 2.0**53 - 1, 2.0**53,   # integral
                               0.5, 1.25, 3.5, 2.0**51 + 0.5,          # fractional
                               1e-300, 5e-324])                        # tiny
def test_send_limit_equals_the_float_trial(q):
    # h <= send_limit(q) iff (h >> 11) < q, at the last h that passes and
    # the first that fails
    lim = int(send_limit(np.array([q]))[0])
    c = math.ceil(q)
    hs = [((c - 1) << 11) | 0x7FF, c << 11, 0, MASK64]
    hs = [h for h in hs if h <= MASK64]
    for h in hs:
        assert (h <= lim) == ((h >> 11) < q), h
    h = np.array(hs, dtype=np.uint64)
    assert ((h >> np.uint64(11)).astype(np.float64) < q).tolist() == (h <= lim).tolist()
    assert hs[0] <= lim and (c == 2**53 or not hs[1] <= lim)


def test_fan_rows_keep_premixed_keys_and_integer_send_limits():
    g = small_params(tau=65536.0, b=64.0)  # q = 1 from level 4 on
    rows, inst = site_rows(g)
    for flat in range(rows.size):
        z, l = flat // (g.l_max + 1) + 1, flat % (g.l_max + 1)
        assert int(rows.coin_pm[flat]) == premix64(inst.coin.key(z, l))
        assert int(rows.send_pm[flat]) == premix64(derive(inst.send_seed, SALT_SEND, z, l))
        q = min(g.b / (g.tau ** (1.0 / g.p) / 2.0 ** (l / g.p)), 1.0)
        assert rows.send_lim[flat] == send_limit(np.array([q * 2.0**53]))[0]
        assert (rows.send_lim[flat] == MASK64) == (q == 1.0)
    assert (rows.send_lim < MASK64).any() and (rows.send_lim == MASK64).any()


def test_apply_order_invariance_without_fire():
    # counters commute; with no fire, an event sends the same messages in
    # any order of the events, and any order yields identical final
    # counters and estimate
    g = small_params(tau=10.0**5, b=64.0, k=1)
    count_after, js, keys, _ = plan_events(gen_uniform_stream(g.m, g.k, g.n, seed=7), g.k)
    perm = np.random.default_rng(7).permutation(js.size)
    a, b = Monitor(g, tau=g.tau), Monitor(g, tau=g.tau)
    sent = a.run(count_after, js, keys)
    assert b.run(count_after[perm], js[perm], keys[perm]).tolist() == sent[perm].tolist()
    a, b = a.copies[0], b.copies[0]
    assert a.counts == b.counts and sent.sum() > 300
    assert a.est == b.est > 0
    assert a.out == b.out == 0


def test_literal_and_incremental_estimates_are_identical():
    # the running estimate equals the reference's literal one, whose
    # medians are sorted counts, after every event
    g = small_params(tau=10.0**5, b=64.0, k=1, r=5)
    events = gen_uniform_stream(g.m, g.k, g.n, seed=13)
    rows, copy = simulate(events, g)
    want, _ = reference.run(events, g)
    assert [row.estimate for row in rows] == [w[2] for w in want]  # no tolerance
    assert len({row.estimate for row in rows}) > 10 and not copy.out


def test_recorded_estimates_match_the_reference_after_protocol_run():
    # a threshold run through the engine's own path. Only an event that
    # delivers a crossing message moves the estimate, and the Monitor's
    # record marks each one; each mark is checked on a replay that stops
    # right after its event: the running estimate there is the recorded one
    # and the reference's after that event
    g = small_params(tau=2000.0)
    events = gen_uniform_stream(g.m, g.k, g.n, seed=2)
    count_after, js, keys, _ = plan_events(events, g.k)
    mon = Monitor(g, tau=g.tau)
    mon.run(count_after, js, keys)
    assert mon.copies[0].out == 1  # tau = 2000 << F_2 of 1000 updates over 64 coordinates
    want, _ = reference.run(events, g)
    replay, at = Monitor(g, tau=g.tau), 0
    for i, est, _ in mon.record[1:]:
        replay.run(count_after[at : i + 1], js[at : i + 1], keys[at : i + 1])
        at = i + 1
        assert replay.copies[0].est == est == want[i][2]
    assert len(mon.record) > 2 and replay.copies[0].out == 1
    assert replay.record == mon.record  # stream positions, over every run call


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([1, 2, 3, 4, 15]), data=st.data())
def test_incremental_median_matches_a_sort(r, data):
    # random +-1 walks of the r repetition counts of one bucket, never below
    # zero: after each step the kept state is the sorted lower median
    inst = ThresholdInstance(small_params(r=r))
    h = data.draw(st.integers(0, inst.h_cap), label="h")
    shift, k = int(inst.lvl_of_h[h]), (r - 1) // 2
    counts = [0] * r
    for _ in range(data.draw(st.integers(1, 200), label="steps")):
        z = data.draw(st.integers(1, r), label="z")
        delta = 1 if counts[z - 1] == 0 else data.draw(st.sampled_from([1, -1]))
        before = sorted(counts)[k]
        counts[z - 1] += delta
        med = sorted(counts)[k]
        assert inst._hist_set(h, z, delta) == (med != before)
        below = sum(c < med for c in counts)
        at_or_below = sum(c <= med for c in counts)
        assert inst.hist[h] == [*counts, med, below, at_or_below]
        assert inst.med[h] == float(med << shift)


def test_bucket_interval_semantics():
    g = small_params()
    inst = ThresholdInstance(g)
    eta, zeta = inst.eta, 1.0 + g.gamma
    assert inst.bucket_of_value(eta) == 0
    assert inst.bucket_of_value(eta * 0.999) == -1
    assert inst.bucket_of_value(eta * zeta) == 1
    assert inst.bucket_of_value(eta * zeta**3 * 1.0000001) == 3
    assert inst.bucket_of_value(0.0) == -1


def test_fire_latches_and_drops_are_counted():
    # a threshold run that fires in the middle of an event: the copy's later
    # messages of that event are sent and dropped, and bump no counter; a
    # fired run's sites send nothing more, at whatever count they have
    # reached locally
    g = small_params(tau=100.0)
    mon = Monitor(g, tau=g.tau)
    count_after, js, keys, _ = plan_events(gen_uniform_stream(g.m, g.k, 400, seed=31), g.k)
    sent = mon.run(count_after, js, keys)
    copy, fire = mon.copies[0], mon.record[-1][0]  # the last crossing fired it
    assert copy.out and sent[fire] > copy.dropped > 0 and sent[fire + 1 :].sum() == 0
    received, dropped = copy.messages_received, copy.dropped
    assert received + dropped == sent.sum()
    for c in (1, int(count_after.max()) + 1, g.n):
        assert mon.on_event(c, 3, 0) == 0
    assert (copy.messages_received, copy.dropped) == (received, dropped)


def test_tau_required_and_positive():
    g = GlobalParams(k=4, m=64, n=100, p=2.0, eps=0.2)
    with pytest.raises(ValueError):
        ThresholdInstance(g)
    with pytest.raises(ValueError):
        ThresholdInstance(g, tau=0.25)
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau"):
            ThresholdInstance(g, tau=tau)


def test_site_state_has_no_receive_channel():
    # one-way structural check: sites expose no way to ingest a Message
    assert not hasattr(SiteState, "receive")
    assert not hasattr(SiteState, "apply")
    assert not hasattr(SiteState, "on_message")
    msg_fields = set(Message.__dataclass_fields__)
    assert msg_fields == {"j", "z", "l"}


def test_fan_rows_canonical_layout():
    g = small_params(r=3)
    rows, inst = site_rows(g)
    assert rows.size == 3 * (g.l_max + 1) and rows.shape == (1, 3, g.l_max + 1)
    # z-major then l: flat index i = (z-1)*(l_max+1) + l
    for i in range(rows.size):
        z, l = divmod(i, g.l_max + 1)
        assert int(rows.coin_pm[i]) == premix64(inst.coin.key(z + 1, l))
        assert int(rows.member_tile[i]) == member_threshold(l)


def test_fan_rows_guard_and_q_formulas():
    g = small_params(tau=6561.0, p=4.0, b=3.0, k=4)
    rows = FanRows(g, [6561.0], [ThresholdInstance(g).coin.master_seed], [1])
    root = 6561.0**0.25
    for i, guard in enumerate(rows.guards().tolist()):
        tau_l_root = root / 2 ** (i % (g.l_max + 1) / 4.0)
        assert guard == pytest.approx(tau_l_root / (4 * 3.0))
        assert (int(rows.send_lim[i]) + 1 >> 11) / 2.0**53 == pytest.approx(
            min(3.0 / tau_l_root, 1.0)
        )
