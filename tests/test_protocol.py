"""Threshold protocol: parameters, site sends, coordinator counters."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmon.protocol import (
    FanRows,
    GlobalParams,
    Message,
    SiteState,
    ThresholdInstance,
    ceil_log2,
    fanout,
    site_on_update,
)
from replay import deliver


def small_params(**kw):
    base = dict(k=4, m=64, n=1000, p=2.0, eps=0.2, tau=4096.0, b=8.0, r=9, seed=3)
    base.update(kw)
    return GlobalParams(**base)


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
        small_params(gamma=1.5)
    with pytest.raises(ValueError):
        small_params(c_fire=0.0)
    with pytest.raises(ValueError):
        small_params(a=4)


@pytest.mark.parametrize("field", ["p", "tau", "b", "c_b", "c_a"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
        small_params(**{field: value})


def test_params_defaults_resolve():
    g = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2)
    assert g.gamma == pytest.approx(0.02)
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
    inst = ThresholdInstance(g)
    assert inst.rows.guard[0] == pytest.approx(2.0)
    row0 = np.zeros(inst.rows.size, dtype=bool)
    row0[0] = True
    for j in range(40):
        assert 0 not in fanout(inst.rows, row0, 2, j, ev=j)


def test_site_never_sends_below_guard():
    g = small_params(tau=1024.0)
    inst = ThresholdInstance(g)
    site = SiteState(site_id=0)
    rng = random.Random(11)
    guard = {l: float(inst.rows.guard[l]) for l in range(g.l_max + 1)}
    for t in range(3000):
        j = rng.randrange(g.m)
        msgs = site_on_update(site, j, ev=t, inst=inst)
        c = site.counts[j]
        for msg in msgs:
            assert msg.j == j
            assert c > guard[msg.l]


def test_messages_ordered_by_repetition_then_level():
    g = small_params(tau=1024.0)
    inst = ThresholdInstance(g)
    site = SiteState(site_id=0)
    rng = random.Random(5)
    seen_multi = 0
    for t in range(4000):
        j = rng.randrange(g.m)
        msgs = site_on_update(site, j, ev=t, inst=inst)
        keys = [(m.z, m.l) for m in msgs]
        assert keys == sorted(keys)
        if len(msgs) > 1:
            seen_multi += 1
    assert seen_multi > 0


def test_send_probability_binomial():
    # a level with q < 1: empirical send rate within 4 sigma of q
    g = small_params(tau=65536.0, b=8.0)  # root = 256, q(l=0) = 8/256
    inst = ThresholdInstance(g)
    q = float(inst.rows.qscaled[0]) / 2.0**53
    assert q == pytest.approx(8.0 / 256.0)
    trials, sent = 20000, 0
    row0 = np.zeros(inst.rows.size, dtype=bool)
    row0[0] = True
    count = int(inst.rows.guard[0]) + 10
    for ev in range(trials):
        if 0 in fanout(inst.rows, row0, count, 7, ev):
            sent += 1
    sigma = math.sqrt(trials * q * (1 - q))
    assert abs(sent - trials * q) <= 4 * sigma


def test_q_one_levels_always_send_when_sampled():
    # deep levels with tau_l^{1/p} <= b send every eligible sampled update
    g = small_params(tau=4096.0, b=64.0)  # root = 64 -> q = 1 at every level
    inst = ThresholdInstance(g)
    assert (inst.rows.qscaled == 2.0**53).all()
    js = np.arange(g.m)
    for flat in range(inst.rows.size):
        z = int(inst.rows.z_of[flat])
        l = int(inst.rows.l_of[flat])
        mask = inst.coin.sample_mask(z, l, js)
        row = np.zeros(inst.rows.size, dtype=bool)
        row[flat] = True
        count = int(math.ceil(inst.rows.guard[flat])) + 1
        for j in js[mask][:5]:
            assert flat in fanout(inst.rows, row, count, int(j), ev=0)


def test_fanout_of_several_updates_is_the_union_of_scalar_calls():
    # count_after and ev given per candidate: the result is each update's
    # own scalar call, shifted to its candidates' positions, with a live
    # mask, binding guards and levels that thin
    g = small_params(tau=65536.0)
    inst = ThresholdInstance(g)
    rows = inst.rows
    live = np.random.default_rng(1).random(rows.size) < 0.8
    rng = random.Random(3)
    updates = [(rng.randrange(1, 40), rng.randrange(g.m), rng.randrange(2**64))
               for _ in range(60)]
    cands, want, offset = [], [], 0
    for c, j, ev in updates:
        cand = np.array([f for f in range(rows.size)
                         if inst.coin.in_sample(int(rows.z_of[f]), int(rows.l_of[f]), j)])
        sent = fanout(rows, live, c, j, ev, cand)
        assert cand[sent].tolist() == fanout(rows, live, c, j, ev).tolist()
        cands.append(cand)
        want += (sent + offset).tolist()
        offset += cand.size
    sizes = [cand.size for cand in cands]
    counts = np.repeat([c for c, _, _ in updates], sizes)
    evs = np.repeat(np.array([ev for _, _, ev in updates], dtype=np.uint64), sizes)
    got = fanout(rows, live, counts, None, evs, np.concatenate(cands))
    assert got.tolist() == want
    assert 0 < len(want) < sum(sizes)


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
    g = small_params(tau=2000.0)
    inst = ThresholdInstance(g)
    sites = [SiteState(site_id=i) for i in range(g.k)]
    rng = random.Random(2)
    for t in range(4000):
        s = rng.randrange(g.k)
        j = rng.randrange(g.m)
        for msg in site_on_update(sites[s], j, ev=t, inst=inst):
            deliver(inst, msg.j, msg.z, msg.l)
        assert inst.est == inst.estimate_full()
        if inst.terminated:
            break
    assert inst.out == 1  # tau = 2000 << 4000 updates squared concentration


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
    eta, zeta = inst.eta, inst.zeta
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
    assert fired and inst.out == 1 and inst.terminated
    for _ in range(5):
        assert deliver(inst, 1, 1, 0) is False
    assert inst.dropped == 5
    assert inst.messages_received == received_at_fire
    # terminated sites stop emitting but keep counting locally
    site = SiteState(site_id=0)
    assert site_on_update(site, 3, ev=0, inst=inst) == []
    assert site.counts[3] == 1


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
    inst = ThresholdInstance(g)
    rows = inst.rows
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
