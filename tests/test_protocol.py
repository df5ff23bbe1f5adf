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
from fpmon.harness import gen_uniform_stream, plan_events
from fpmon.monitor import Monitor
from fpmon.sampling import MASK64, premix64_np, unpremix64_np
from replay import deliver, sends, site_rows


def small_params(**kw):
    base = dict(k=4, m=64, n=1000, p=2.0, eps=0.2, tau=4096.0, b=8.0, r=9, seed=3)
    base.update(kw)
    return GlobalParams(**base)


def gate_of(rows, live):
    """fanout's gate for a live mask: the guard, or +inf where not live."""
    return np.where(live, rows.guard, np.inf)


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
    g = small_params()
    inst = ThresholdInstance(g)
    root = g.tau ** (1.0 / g.p)
    for l in range(g.l_max + 1):
        expect = max(root / 2 ** (l / g.p) / g.b, 1.0)
        assert float(inst.u[l]) == expect
    deliver(inst, 5, 1, 0)
    deliver(inst, 5, 1, 0)
    deliver(inst, 5, 1, 0)
    assert inst.counter_value(1, 0, 5) == 3 * float(inst.u[0])
    # subsampled level: increment is exactly tau_l^{1/p} / b
    assert float(inst.u[0]) == root / g.b
    # deep level: increment clamps at one count per message
    assert float(inst.u[g.l_max]) == 1.0


def test_guard_is_strict():
    # guard = tau_l^{1/p} / (k b); eligibility requires count strictly above
    g = small_params()  # root = 64, k*b = 32 -> guard(l=0) = 2.0
    rows = site_rows(ThresholdInstance(g))
    assert rows.guard[0] == pytest.approx(2.0)
    row0 = np.zeros(rows.size, dtype=bool)
    row0[0] = True
    for j in range(40):
        assert 0 not in sends(rows, gate_of(rows, row0), 2, j, ev=j)


def test_site_never_sends_below_guard():
    g = small_params(tau=1024.0)
    rows = site_rows(ThresholdInstance(g))
    counts: dict[int, int] = {}
    rng = random.Random(11)
    sent = 0
    for t in range(3000):
        j = rng.randrange(g.m)
        c = counts[j] = counts.get(j, 0) + 1
        flat = sends(rows, rows.guard, c, j, ev=t)
        assert (c > rows.guard[flat]).all()
        sent += flat.size
    assert sent > 0


def test_messages_ordered_by_repetition_then_level():
    g = small_params(tau=1024.0)
    rows = site_rows(ThresholdInstance(g))
    counts: dict[int, int] = {}
    rng = random.Random(5)
    seen_multi = 0
    for t in range(4000):
        j = rng.randrange(g.m)
        c = counts[j] = counts.get(j, 0) + 1
        flat = sends(rows, rows.guard, c, j, ev=t)
        keys = list(zip(rows.z_of[flat].tolist(), rows.l_of[flat].tolist()))
        assert keys == sorted(keys)
        if len(keys) > 1:
            seen_multi += 1
    assert seen_multi > 0


def test_send_probability_binomial():
    # a level with q < 1: empirical send rate within 4 sigma of q
    g = small_params(tau=65536.0, b=8.0)  # root = 256, q(l=0) = 8/256
    rows = site_rows(ThresholdInstance(g))
    q = float(rows.qscaled[0]) / 2.0**53
    assert q == pytest.approx(8.0 / 256.0)
    trials, sent = 20000, 0
    row0 = np.zeros(rows.size, dtype=bool)
    row0[0] = True
    count = int(rows.guard[0]) + 10
    for ev in range(trials):
        if 0 in sends(rows, gate_of(rows, row0), count, 7, ev):
            sent += 1
    sigma = math.sqrt(trials * q * (1 - q))
    assert abs(sent - trials * q) <= 4 * sigma


def test_q_one_levels_always_send_when_sampled():
    # deep levels with tau_l^{1/p} <= b send every eligible sampled update
    g = small_params(tau=4096.0, b=64.0)  # root = 64 -> q = 1 at every level
    inst = ThresholdInstance(g)
    rows = site_rows(inst)
    assert (rows.qscaled == 2.0**53).all()
    js = np.arange(g.m)
    for flat in range(rows.size):
        z = int(rows.z_of[flat])
        l = int(rows.l_of[flat])
        mask = inst.coin.sample_mask(z, l, js)
        row = np.zeros(rows.size, dtype=bool)
        row[flat] = True
        count = int(math.ceil(rows.guard[flat])) + 1
        for j in js[mask][:5]:
            assert flat in sends(rows, gate_of(rows, row), count, int(j), ev=0)


def test_fanout_of_several_updates_is_the_union_of_scalar_calls():
    # count_after and ev given per candidate: the result is each update's
    # own scalar call, shifted to its candidates' positions, with a live
    # mask, binding guards and levels that thin
    g = small_params(tau=65536.0)
    inst = ThresholdInstance(g)
    rows = site_rows(inst)
    gate = gate_of(rows, np.random.default_rng(1).random(rows.size) < 0.8)
    rng = random.Random(3)
    updates = [(rng.randrange(1, 40), rng.randrange(g.m), rng.randrange(2**64))
               for _ in range(60)]
    cands, want, offset = [], [], 0
    for c, j, ev in updates:
        cand = np.array([f for f in range(rows.size)
                         if inst.coin.in_sample(int(rows.z_of[f]), int(rows.l_of[f]), j)])
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
    rows = site_rows(ThresholdInstance(g))
    assert (premix64_np(rows.coin_key) == rows.coin_pm).all()
    assert (premix64_np(rows.send_key) == rows.send_pm).all()
    assert (unpremix64_np(rows.coin_pm) == rows.coin_key).all()
    assert (rows.send_lim == send_limit(rows.qscaled)).all()
    assert (rows.qscaled < 2.0**53).any() and (rows.qscaled == 2.0**53).any()
    assert (rows.send_lim[rows.qscaled == 2.0**53] == MASK64).all()


def test_apply_order_invariance_without_fire():
    # counters commute; with no fire inside the sequence, any delivery order
    # yields identical final counters and estimate
    g = small_params(tau=10.0**9)
    msgs = []
    rng = random.Random(7)
    for _ in range(300):
        msgs.append((rng.randrange(g.m), rng.randrange(1, g.r + 1),
                     rng.randrange(g.l_max + 1)))
    a = ThresholdInstance(g)
    for j, z, l in msgs:
        deliver(a, j, z, l)
    shuffled = msgs[:]
    rng.shuffle(shuffled)
    b = ThresholdInstance(g)
    for j, z, l in shuffled:
        deliver(b, j, z, l)
    assert a.counts == b.counts
    assert a.est == b.est
    assert a.out == b.out == 0


def test_literal_and_incremental_estimates_are_identical():
    # the running estimate equals the literal recomputation from the raw
    # counters (the full pass) after every message
    g = small_params(tau=10.0**9, r=5)
    a = ThresholdInstance(g)
    rng = random.Random(13)
    for _ in range(600):
        j = rng.randrange(g.m)
        z = rng.randrange(1, g.r + 1)
        l = rng.randrange(g.l_max + 1)
        deliver(a, j, z, l)
        assert a.est == a.estimate_full()  # bit-identical, no tolerance


def test_estimate_full_matches_running_estimate_after_protocol_run():
    # a threshold run through the engine's own path. Only an event that
    # delivers a crossing message moves the estimate, and the Monitor's
    # record marks each one; each mark is checked on a replay that stops
    # right after its event: the running estimate there is the recorded one
    # and equals the full pass
    g = small_params(tau=2000.0)
    count_after, js, keys, _ = plan_events(gen_uniform_stream(g.m, g.k, g.n, seed=2), g.k)
    mon = Monitor(g, tau=g.tau)
    mon.run(count_after, js, keys)
    assert mon.copies[0].out == 1  # tau = 2000 << F_2 of 1000 updates over 64 coordinates
    replay, at = Monitor(g, tau=g.tau), 0
    for i, est, _ in mon.record[1:]:
        replay.run(count_after[at : i + 1], js[at : i + 1], keys[at : i + 1])
        at = i + 1
        assert replay.copies[0].est == est == replay.copies[0].estimate_full()
    assert len(mon.record) > 2 and replay.copies[0].out == 1
    assert replay.record == mon.record  # stream positions, over every run call


def test_full_pass_medians_match_maintained_medians():
    g = small_params(tau=10.0**8)
    inst = ThresholdInstance(g)
    rng = random.Random(23)
    for t in range(2500):
        j = rng.randrange(g.m)
        z = rng.randrange(1, g.r + 1)
        deliver(inst, j, z, rng.randrange(g.l_max + 1))
    assert np.array_equal(inst._full_pass()[0], inst.med)


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
    g = small_params(tau=100.0)
    inst = ThresholdInstance(g)
    fired = False
    received_at_fire = 0
    rng = random.Random(31)
    for t in range(4000):
        j = rng.randrange(g.m)
        z = rng.randrange(1, g.r + 1)
        ret = deliver(inst, j, z, 0)
        if ret:
            fired = True
            received_at_fire = inst.messages_received
            break
    assert fired and inst.out == 1
    for _ in range(5):
        assert deliver(inst, 1, 1, 0) is False
    assert inst.dropped == 5
    assert inst.messages_received == received_at_fire
    # a fired threshold run's sites send nothing more, at whatever count
    # they have reached locally
    mon = Monitor(g, tau=g.tau)
    count_after, js, keys, _ = plan_events(gen_uniform_stream(g.m, g.k, 400, seed=31), g.k)
    sent = mon.run(count_after, js, keys)
    copy = mon.copies[0]
    assert copy.out and sent[-1] == 0
    received = copy.messages_received
    for c in (1, int(count_after.max()) + 1, g.n):
        assert mon.on_event(c, 3, 0) == 0
    assert copy.messages_received == received


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
    rows = site_rows(ThresholdInstance(g))
    assert rows.size == 3 * (g.l_max + 1)
    # z-major then l: flat index i = (z-1)*(l_max+1) + l
    for i in range(rows.size):
        z, l = divmod(i, g.l_max + 1)
        assert rows.z_of[i] == z + 1
        assert rows.l_of[i] == l


def test_fan_rows_guard_and_q_formulas():
    g = small_params(tau=6561.0, p=4.0, b=3.0, k=4)
    rows = FanRows(g, [6561.0], [ThresholdInstance(g).coin.master_seed], [1])
    root = 6561.0**0.25
    for i in range(rows.size):
        l = int(rows.l_of[i])
        tau_l_root = root / 2 ** (l / 4.0)
        assert rows.guard[i] == pytest.approx(tau_l_root / (4 * 3.0))
        assert rows.qscaled[i] / 2.0**53 == pytest.approx(
            min(3.0 / tau_l_root, 1.0)
        )
