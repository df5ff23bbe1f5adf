"""Ladder monitor: amplified threshold copies, majority vote, estimate."""

import bisect
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpmon.buckets
import fpmon.monitor
import fpmon.protocol
from fpmon.buckets import Buckets, Columns
from fpmon.harness import gen_uniform_stream, gen_zipf_stream, plan_events, simulate
from fpmon.monitor import Monitor
from fpmon.protocol import FanRows, GlobalParams, ThresholdInstance, send_limit
from fpmon.sampling import (
    GOLDEN,
    MASK64,
    SALT_INSTANCE,
    SALT_SEND,
    SLICE,
    PublicCoin,
    derive,
    event_key,
    member_threshold,
    premix64,
    unit_open_zero,
)
import reference
from test_golden import LADDER
from test_sampling import unmix64


def monitor_params(**kw):
    base = dict(k=4, m=64, n=800, p=2.0, eps=0.5, b=8.0, r=5, seed=17, a=1)
    base.update(kw)
    return GlobalParams(**base)


def spec_seeds(seed: int, i: int, c: int) -> tuple[int, int, int]:
    """Copy (i, c)'s coin, send and eta seeds, by the scalar spec."""
    return tuple(derive(seed, SALT_INSTANCE, i, c, s) for s in range(3))


def spec_coin(mon: Monitor, pair: int) -> PublicCoin:
    """The public coin of a Monitor's copy, by the scalar spec."""
    coin, _, _ = spec_seeds(mon.params.seed, *divmod(pair, mon.a))
    return PublicCoin(coin, mon.params.r, mon.params.l_max)


def assert_rows_hold_seeds(mon: Monitor, pair: int, coin: int, send: int) -> None:
    """Each of a copy's rows holds the coin and send keys of its (z, l)."""
    g, n_levels = mon.params, mon.params.l_max + 1
    key = PublicCoin(coin, g.r, g.l_max).key
    for within in range(mon.block):
        z, l, flat = within // n_levels + 1, within % n_levels, pair * mon.block + within
        assert int(mon.rows.coin_pm[flat]) == premix64(key(z, l))
        assert int(mon.rows.send_pm[flat]) == premix64(derive(send, SALT_SEND, z, l))


def drive(monitor: Monitor, events) -> list[tuple[int, float, int]]:
    """Feed events, returning (messages, estimate, max_fired) per event."""
    site_counts = [dict() for _ in range(monitor.params.k)]
    out = []
    for ev in events:
        d = site_counts[ev.site]
        c = d.get(ev.j, 0) + 1
        d[ev.j] = c
        msgs = monitor.on_event(c, ev.j, event_key(ev.site, ev.t))
        out.append((msgs, monitor.estimate(), monitor.max_fired))
    return out


def test_ladder_shape_and_bits():
    g = monitor_params(a=3)
    mon = Monitor(g)
    assert mon.n_instances == g.i_max + 1
    assert len(mon.copies) == mon.n_instances * 3
    assert mon.majority == 2
    assert mon.taus[0] == 1.0
    assert mon.taus[-1] == (1.5) ** g.i_max
    assert mon.message_bits == g.message_bits(n_streams=len(mon.copies))
    assert mon.rows.size == len(mon.copies) * mon.block == len(mon.copies) * g.r * (g.l_max + 1)


def test_estimate_starts_at_zero_then_tracks_highest_rung():
    g = monitor_params()
    mon = Monitor(g)
    assert mon.estimate() == 0.0  # nothing fired yet
    events = gen_uniform_stream(g.m, g.k, 800, seed=4)
    prev = 0.0
    saw_fire = False
    for _, est, max_fired in drive(mon, events):
        if est > 0.0:
            saw_fire = True
            assert est == (1.5) ** (max_fired + 0.5)
        assert est >= prev  # the max fired rung only moves up
        prev = est
    assert saw_fire


def with_site_counts(events, k: int):
    """Yield (event, the site's count of ev.j after the event)."""
    site_counts = [dict() for _ in range(k)]
    for ev in events:
        d = site_counts[ev.site]
        d[ev.j] = d.get(ev.j, 0) + 1
        yield ev, d[ev.j]


def test_one_rung_monitor_is_a_threshold_instance():
    # Monitor(g, tau=T) is the threshold run: one rung at T with one copy,
    # unamplified bits, and a copy with copy (0, 0)'s seeds and
    # ThresholdInstance(g)'s tables, which runs as the reference's threshold
    # run, event for event
    g = monitor_params(a=3, tau=2000.0)
    mon = Monitor(g, tau=g.tau)
    assert (mon.n_instances, mon.a, mon.majority) == (1, 1, 1)
    assert mon.taus == [g.tau]
    assert len(mon.copies) == 1
    assert mon.message_bits == g.message_bits()
    copy, solo = mon.copies[0], ThresholdInstance(g)
    coin, send, eta = spec_seeds(g.seed, 0, 0)
    assert_rows_hold_seeds(mon, 0, coin, send)
    assert copy.eta == solo.eta == unit_open_zero(eta)
    for name in ("u", "edge", "weight", "lvl_of_h"):
        assert np.array_equal(getattr(copy, name), getattr(solo, name)), name
    events = gen_uniform_stream(g.m, g.k, 600, seed=9)
    ref, cum = reference.Run(g), 0
    for ev, c in with_site_counts(events, g.k):
        cum += mon.on_event(c, ev.j, event_key(ev.site, ev.t))
        _, _, est, sent, _, fired = ref.event(*ev)
        assert (cum, mon.estimate(), mon.fired_count()) == (sent, est, fired)
        assert (copy.est, copy.dropped) == (ref.copies[0].est, ref.copies[0].dropped)
    assert copy.out == 1 and copy.dropped > 0  # the run crosses tau mid-event


def test_planned_runs_replay_unplanned_events(monkeypatch):
    # simulate drives the stream through Monitor.run, a run of events per
    # fanout call over the rows live at each run's start; bare on_event
    # calls are runs of one. Both send the same messages at every event and
    # leave every copy in the same state, also when pairs fall silent
    # inside a run
    calls = 0
    fanout_of_monitor = fpmon.monitor.fanout

    def counted(*args):
        nonlocal calls
        calls += 1
        return fanout_of_monitor(*args)

    for p, stream in itertools.product((1.5, 2.0, 3.0), ("uniform", "zipf")):
        g = monitor_params(a=3, p=p)
        if stream == "zipf":
            events = gen_zipf_stream(g.m, g.k, 600, seed=9, s=1.1)
        else:
            events = gen_uniform_stream(g.m, g.k, 600, seed=9)
        calls = 0
        with monkeypatch.context() as mp:
            mp.setattr(fpmon.monitor, "fanout", counted)
            rows, planned = simulate(events, g, mode="monitor")
        assert 0 < calls < len(events)
        bare = Monitor(g)
        msgs = [m for m, _, _ in drive(bare, events)]
        cum = [row.cum_messages for row in rows]
        assert [b - a for a, b in zip([0] + cum, cum)] == msgs
        for a, b in zip(planned.copies, bare.copies):
            assert (a.est, a.est_decreases, a.dropped) == (b.est, b.est_decreases, b.dropped)
            assert a.counts == b.counts
            assert np.array_equal(a.med, b.med)


def column_state(mon: Monitor) -> dict:
    """(j, flat row) -> (count, next crossing count) of every counter that
    took a message. A column's rows are those live when it was made, so
    two runs can hold different untouched rows: each must still be at count
    0 with its first crossing, in the column's count dtype, as its next one."""
    state = {}
    for j, (rows, count, nxt) in mon.columns.by_j.items():
        untouched = count == 0
        assert np.array_equal(nxt[untouched], mon.columns.first[rows[untouched]])
        for row, c, x in zip(rows.tolist(), count.tolist(), nxt.tolist()):
            if c:
                state[j, row] = (c, x)
    return state


@settings(max_examples=24, deadline=None)
@given(p=st.sampled_from([1.5, 2.0, 3.0]), a=st.sampled_from([1, 3]),
       stream=st.sampled_from(["uniform", "zipf"]), seed=st.integers(0, 2**16),
       n=st.integers(1, 500), split=st.integers(0, 500))
def test_run_equals_on_event_one_event_at_a_time(p, a, stream, seed, n, split):
    # Monitor.run over a whole stream (runs of several events at m = 64,
    # with fires inside them), the stream split over two run calls, and
    # on_event one event at a time send the same messages, leave the same
    # record (marks at stream positions, estimates and fired counts), and
    # leave every copy and every column in the same state
    g = monitor_params(a=a, p=p, seed=seed)
    if stream == "zipf":
        events = gen_zipf_stream(g.m, g.k, n, seed=seed, s=1.1)
    else:
        events = gen_uniform_stream(g.m, g.k, n, seed=seed)
    count_after, js, keys, _ = plan_events(events, g.k)
    ran, halves, bare = Monitor(g), Monitor(g), Monitor(g)
    assert SLICE // ran.rows.size > 1  # runs are longer than one event
    sent = ran.run(count_after, js, keys).tolist()
    cut = min(split, n)
    sent_halves = [halves.run(count_after[lo:hi], js[lo:hi], keys[lo:hi]).tolist()
                   for lo, hi in ((0, cut), (cut, n))]
    want = []
    for c, j, ev in zip(count_after.tolist(), js.tolist(), keys.tolist()):
        want.append(bare.on_event(c, j, ev))
        # the record's last entry is the reading after this event
        assert bare.record[-1][1:] == (bare.estimate(), bare.fired_count())
    assert sent == sent_halves[0] + sent_halves[1] == want
    marks = [t for t, _, _ in bare.record]
    assert marks == sorted(set(marks)) and marks[0] == -1 and marks[-1] < n
    for mon in (ran, halves):
        assert mon.n_events == bare.n_events == n
        assert mon.record == bare.record
        for x, y in zip(mon.copies, bare.copies):
            assert x.counts == y.counts
            assert np.array_equal(x.med, y.med)
            assert (x.est, x.est_decreases, x.dropped, x.out) == \
                (y.est, y.est_decreases, y.dropped, y.out)
        assert column_state(mon) == column_state(bare)
        assert np.array_equal(mon.live, bare.live)


@pytest.mark.parametrize("mode, p, a, seed", [
    ("threshold", 2.0, 1, 3), ("threshold", 3.0, 1, 9),
    ("monitor", 1.5, 3, 5), ("monitor", 2.0, 1, 7), ("monitor", 3.0, 3, 11),
])
def test_runs_across_chunks_equal_one_event_at_a_time(mode, p, a, seed, monkeypatch):
    # pools of one-column chunks: a run of many events gathers its columns
    # from, and scatters their counts to, several chunks; on a Zipf stream
    # at m = 64 its coordinates repeat, and copies fire in its middle. The
    # run sends the same messages as on_event one event at a time, leaves
    # the same record, copies and columns, and equals the reference
    monkeypatch.setattr(fpmon.buckets, "CHUNK", 1)
    g = monitor_params(a=a, p=p, seed=seed, n=600, tau=300.0)
    events = gen_zipf_stream(g.m, g.k, g.n, seed=seed, s=1.1)
    count_after, js, keys, _ = plan_events(events, g.k)
    ran, bare = (Monitor(g, tau=g.tau if mode == "threshold" else None) for _ in range(2))
    assert ran.columns.pooled and ran.columns.chunk_size == ran.rows.size
    shapes = []
    run_of, gather_of = Monitor._run, Columns.gather

    def run(self, counts, js, evs, start, stop, sent):
        end = run_of(self, counts, js, evs, start, stop, sent)
        shapes.append((stop - start, end - start, len(set(js[start:stop].tolist()))))
        return end

    def gather(self, jl):
        out = gather_of(self, jl)
        chunks.append(len(out[2]))
        return out

    chunks = []
    with monkeypatch.context() as mp:
        mp.setattr(Monitor, "_run", run)
        mp.setattr(Columns, "gather", gather)
        sent = ran.run(count_after, js, keys).tolist()
    # several chunks per run, repeated coordinates, and a fire mid-run
    assert max(chunks) >= 2 and len(ran.columns.chunks) > 2
    assert any(size > n_js for size, _, n_js in shapes)
    assert any(1 <= done < size for size, done, _ in shapes)
    want = [bare.on_event(c, j, ev) for c, j, ev in
            zip(count_after.tolist(), js.tolist(), keys.tolist())]
    assert sent == want and ran.record == bare.record
    assert column_state(ran) == column_state(bare)
    _, ref = reference.run(events, g, mode)
    for x, y, z in zip(ran.copies, bare.copies, ref):
        assert x.counts == y.counts == z.counts
        assert np.array_equal(x.med, y.med) and np.array_equal(x.med, z.med)
        assert (x.est, x.est_decreases, x.dropped, x.out) == \
            (y.est, y.est_decreases, y.dropped, y.out) == \
            (z.est, z.est_decreases, z.dropped, z.out)


def test_one_rung_monitor_estimate_is_its_copys():
    # a threshold run's estimate is its copy's class-weighted sum, after
    # every event, not a ladder bracket midpoint
    g = GlobalParams(k=4, m=64, n=2000, p=2.0, eps=0.2, tau=500.0, b=8.0, r=5, seed=3)
    mon = Monitor(g, tau=g.tau)
    count_after, js, keys, _ = plan_events(gen_uniform_stream(g.m, g.k, g.n, seed=1), g.k)
    for c, j, ev in zip(count_after.tolist(), js.tolist(), keys.tolist()):
        mon.on_event(c, j, ev)
        assert mon.estimate() == mon.copies[0].est
    assert mon.copies[0].out == 1 and mon.record[-1][1] == mon.copies[0].est > g.tau


def test_run_rejects_misaligned_arrays():
    mon = Monitor(monitor_params())
    counts, js, keys, _ = plan_events(gen_uniform_stream(64, 4, 10, seed=4), 4)
    for bad in ((counts[:-1], js, keys), (counts, js[:-1], keys),
                (counts, js, keys[:-1]), (counts[:, None], js[:, None], keys[:, None])):
        with pytest.raises(ValueError, match="aligned"):
            mon.run(*bad)
    assert mon.columns.by_j == {} and mon.live.all()


def test_run_rejects_events_past_n():
    # a counter's count never passes n, the bound its crossing table and its
    # column dtype are built for: run refuses, before it runs any of them,
    # the events that would take the Monitor past n over its run() calls
    mon = Monitor(monitor_params(n=10))
    counts, js, keys, _ = plan_events(gen_uniform_stream(64, 4, 10, seed=4), 4)
    mon.run(counts[:6], js[:6], keys[:6])
    with pytest.raises(ValueError, match=r"^5 events after 6 pass the stream bound n=10$"):
        mon.run(counts[5:], js[5:], keys[5:])
    assert mon.n_events == 6
    mon.run(counts[6:], js[6:], keys[6:])
    with pytest.raises(ValueError, match="after 10 pass"):
        mon.on_event(1, 0, 0)


@pytest.mark.parametrize("count_after, j, key", [
    (1, 64, 0), (1, 10**6, 0), (1, -1, 0),   # coordinate outside [0, m)
    (0, 3, 0), (-5, 3, 0),                   # a site count below 1
    (1, 3, -1), (1, 3, 2**64),               # an event key outside [0, 2**64)
])
def test_run_rejects_out_of_range_events(count_after, j, key):
    # run checks every event before it runs any, and names the first bad
    # one; on_event is a run of one
    mon = Monitor(monitor_params(tau=50.0), tau=50.0)
    counts, js, keys, _ = plan_events(gen_uniform_stream(64, 4, 10, seed=4), 4)
    counts, js, keys = counts.tolist(), js.tolist(), keys.tolist()
    counts[6], js[6], keys[6] = count_after, j, key
    with pytest.raises(ValueError, match=rf"^event 6: .* got j={j}, "
                                         rf"count_after={count_after}, key={key}$"):
        mon.run(counts, js, keys)
    with pytest.raises(ValueError, match=r"^event 0: "):
        mon.on_event(count_after, j, key)
    assert mon.columns.by_j == {} and mon.live.all()
    assert mon.copies[0].messages_received == 0


@pytest.mark.parametrize("count_after, j, key, bad", [
    ([1], [3.5], [7], "j=3.5"), ([1.5], [3], [7], "count_after=1.5"),
    ([1], [3], [7.9], "key=7.9"), ([1], np.array([3.7]), [7], "j=3.7"),
    ([1], [3], np.array([7.0]), "key=7.0"), ([1], [True], [7], "j=True"),
    (np.array([True]), [3], [7], "count_after=True"),
])
def test_run_rejects_non_integer_events(count_after, j, key, bad):
    # a float or bool event field is refused, not truncated: each of these
    # once ran coordinate 3 with count 1 and key 7, and sent 90 messages
    g = GlobalParams(k=4, m=64, n=100, p=2.0, eps=0.5, b=8.0, r=3, a=1, seed=1)
    assert Monitor(g).run([1], [3], [7]).tolist() == [90]
    mon = Monitor(g)
    with pytest.raises(ValueError, match=rf"^event 0: need integer j, count_after and key, "
                                         rf"got .*{bad}"):
        mon.run(count_after, j, key)
    assert mon.columns.by_j == {} and mon.n_events == 0


def test_run_names_the_first_non_integer_event():
    # integer dtypes, numpy integers in a list and Python ints past int64
    # run as before; the first event with a float field is named
    g = monitor_params()
    counts, js, keys, _ = plan_events(gen_uniform_stream(64, 4, 10, seed=4), 4)
    assert Monitor(g).run(counts.astype(np.int16), js.astype(np.uint8), keys).tolist() == \
        Monitor(g).run(list(counts), list(js), keys.tolist()).tolist()
    assert (keys >= 2**63).any()
    js = js.tolist()
    js[4] = 2.0
    with pytest.raises(ValueError, match=r"^event 4: need integer "):
        Monitor(g).run(counts, js, keys)


def test_run_reads_lists_as_exactly_as_arrays():
    # a list of keys both below and above 2**63 keeps every key exact
    g = monitor_params(a=3)
    counts, js, keys, _ = plan_events(gen_uniform_stream(64, 4, 200, seed=4), 4)
    assert (keys < 2**63).any() and (keys >= 2**63).any()
    lists, arrays = Monitor(g), Monitor(g)
    sent = lists.run(counts.tolist(), js.tolist(), keys.tolist())
    assert sent.tolist() == arrays.run(counts, js, keys).tolist() and sent.sum() > 0
    assert [c.counts for c in lists.copies] == [c.counts for c in arrays.copies]


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.5])
def test_monitor_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        Monitor(monitor_params(), tau=tau)


def test_silent_monitor_skips_fanout(monkeypatch):
    # once every pair is silent, on_event sends nothing and never fans out
    g = monitor_params(a=3)
    mon = Monitor(g)
    events = gen_uniform_stream(g.m, g.k, 800, seed=4)
    drive(mon, events[:400])
    block_live = [bool(mon.live[p * mon.block]) for p in range(len(mon.copies))]
    assert 0 < mon.live_pairs == sum(block_live) < len(mon.copies)

    one = Monitor(monitor_params(tau=50.0, n=2 * len(events)), tau=50.0)  # two drives
    drive(one, events)
    assert one.copies[0].out and one.live_pairs == 0

    def no_fanout(*args):
        raise AssertionError("fanout called with no live pair")

    monkeypatch.setattr("fpmon.monitor.fanout", no_fanout)
    assert [msgs for msgs, _, _ in drive(one, events)] == [0] * len(events)


def test_majority_vote_gates_instance_fire():
    g = monitor_params(a=3)
    mon = Monitor(g)
    events = gen_uniform_stream(g.m, g.k, 800, seed=21)
    drive(mon, events)
    # an instance counts as fired once a majority of its copies has fired
    assert mon.fired_count() == sum(f >= mon.majority for f in mon.fired_copies) > 0
    for i in range(mon.n_instances):
        copies = mon.copies[i * mon.a : (i + 1) * mon.a]
        assert mon.fired_copies[i] == sum(copy.out == 1 for copy in copies)


def test_fired_instances_fall_silent():
    g = monitor_params(a=3)
    mon = Monitor(g)
    events = gen_uniform_stream(g.m, g.k, 500, seed=2)
    drive(mon, events)
    live = mon.live
    for i in range(mon.n_instances):
        if mon.fired_copies[i] >= mon.majority:
            for c in range(mon.a):
                pair = i * mon.a + c
                lo = pair * mon.block
                assert not live[lo : lo + mon.block].any()


def test_message_conservation():
    # every message the fanout emits is delivered to exactly one copy,
    # either applied or dropped; no phantom traffic
    g = monitor_params(a=3)
    mon = Monitor(g)
    events = gen_uniform_stream(g.m, g.k, 500, seed=33)
    per_event = drive(mon, events)
    total = sum(msgs for msgs, _, _ in per_event)
    delivered = sum(c.messages_received + c.dropped for c in mon.copies)
    assert total == delivered


def test_rerun_is_deterministic():
    g1 = monitor_params(a=3)
    g2 = monitor_params(a=3)
    ev = gen_uniform_stream(64, 4, 400, seed=8)
    a = drive(Monitor(g1), ev)
    b = drive(Monitor(g2), ev)
    assert a == b


def test_copies_use_disjoint_randomness():
    g = monitor_params(a=3)
    mon = Monitor(g)
    etas = {c.eta for c in mon.copies}
    assert len(etas) == len(mon.copies)
    rows = mon.rows
    keys = {int(k) for lo in range(0, rows.size, mon.block)  # premixed: a bijection
            for k in (rows.coin_pm[lo], rows.send_pm[lo])}
    assert len(keys) == 2 * len(mon.copies)


def test_live_mask_layout_matches_pair_blocks():
    # silencing a copy clears exactly its block of flat rows, once
    g = monitor_params(a=3, r=3)
    mon = Monitor(g)
    assert mon.block == 3 * (g.l_max + 1)
    assert mon.live.shape == (mon.rows.size,) == (len(mon.copies) * mon.block,)
    for pair in range(len(mon.copies)):
        lo = pair * mon.block
        before = mon.live.copy()
        mon._silence_pair(pair)
        assert mon.live_pairs == len(mon.copies) - pair - 1
        assert not mon.live[lo : lo + mon.block].any()
        assert (mon.live[lo + mon.block :] == before[lo + mon.block :]).all()
        assert (mon.live[:lo] == before[:lo]).all()
        mon._silence_pair(pair)
        assert mon.live_pairs == len(mon.copies) - pair - 1
    assert not mon.live.any()


@pytest.mark.parametrize("seed", [0, 17, -5, 2**64 + 3])
def test_copy_seeds_equal_scalar_derive(seed):
    # copy (i, c)'s rows hold the keys of its coin and send seeds, and its
    # eta is that of its eta seed, derive(seed, SALT_INSTANCE, i, c, s) for
    # s = 0, 1, 2; a threshold run's one copy is copy (0, 0)
    g = monitor_params(a=3, seed=seed)
    mon = Monitor(g)
    assert len(mon.copies) == (g.i_max + 1) * 3
    for pair, inst in enumerate(mon.copies):
        i, c = divmod(pair, 3)
        coin, send, eta = spec_seeds(seed, i, c)
        assert_rows_hold_seeds(mon, pair, coin, send)
        assert inst.eta == unit_open_zero(eta)
        assert inst.tau == mon.taus[i]
    solo = Monitor(g, tau=10.0)
    coin, send, eta = spec_seeds(seed, 0, 0)
    assert_rows_hold_seeds(solo, 0, coin, send)
    assert solo.copies[0].eta == ThresholdInstance(g, tau=10.0).eta == unit_open_zero(eta)


def test_dropped_monitor_is_freed_without_the_cycle_collector():
    # copies hold no reference back to their Monitor, so dropping the last
    # reference frees it at once; a threshold run keeps copies[0] only
    g = monitor_params(a=3)
    mon = Monitor(g)
    drive(mon, gen_uniform_stream(g.m, g.k, 200, seed=4))
    copy0 = mon.copies[0]
    ref = weakref.ref(mon)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del mon
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert copy0.messages_received >= 0


def test_ladder_rows_equal_scalar_keys_and_formulas():
    # the ladder's flat rows, built in numpy in one go, equal the row-at-a-
    # time scalar definitions bit for bit, and each copy's own rows are its
    # block of them
    for p in (1.5, 2.0, 3.0):
        g = monitor_params(a=3, p=p, r=3, b=3.0)
        mon = Monitor(g)
        rows, n_levels, guard = mon.rows, g.l_max + 1, mon.rows.guards()
        for flat in range(rows.size):
            pair, within = divmod(flat, mon.block)
            z, l = within // n_levels + 1, within % n_levels
            copy, (_, send, _) = mon.copies[pair], spec_seeds(g.seed, *divmod(pair, g.a))
            tau_l_root = copy.tau ** (1.0 / p) / 2.0 ** (l / p)
            assert int(rows.coin_pm[flat]) == premix64(spec_coin(mon, pair).key(z, l))
            assert int(rows.send_pm[flat]) == premix64(derive(send, SALT_SEND, z, l))
            assert int(rows.member_tile[flat % n_levels]) == member_threshold(l)
            assert guard[flat] == tau_l_root / (g.k * g.b)
            qscaled = min(g.b / tau_l_root, 1.0) * 2.0**53
            assert rows.send_lim[flat] == send_limit(np.array([qscaled]))[0]
        for pair in (0, len(mon.copies) // 2, len(mon.copies) - 1):
            copy, block = mon.copies[pair], slice(pair * mon.block, (pair + 1) * mon.block)
            coin, send, _ = spec_seeds(g.seed, *divmod(pair, g.a))
            own = FanRows(g, [copy.tau], [coin], [send])
            for name in ("coin_pm", "send_pm", "send_lim"):
                assert np.array_equal(getattr(own, name), getattr(rows, name)[block]), name
            assert np.array_equal(own.guards(), guard[block])


def coordinate_hashing_to(key: int, h: int) -> int:
    """The coordinate j with mix64(key ^ coordinate_key(j)) == h."""
    return ((unmix64(h) ^ key) * pow(GOLDEN, -1, 2**64) - 1) & MASK64


@pytest.mark.parametrize("m", [4096, 2**40])
@pytest.mark.parametrize("slice_", [SLICE, 50])
def test_column_rows_equal_in_sample(m, slice_, monkeypatch):
    # a column holds exactly the live rows whose level set holds j, by the
    # scalar PublicCoin.in_sample, at every level up to l_max = 40; the
    # deep coordinates put a row's hash, or its hash before mix64's last
    # step, at the edge of its level set; with short slices, the hash
    # slices start at every offset of the level pattern
    monkeypatch.setattr(fpmon.protocol, "SLICE", slice_)
    g = GlobalParams(k=4, m=m, n=1000, p=2.0, eps=0.5, b=8.0, r=2, a=3, i_max=3, seed=5)
    mon = Monitor(g)
    mon._silence_pair(4)
    rows, live = mon.rows, mon.live
    rng = np.random.default_rng(m % 1001)
    js = rng.integers(0, m, 40).tolist()
    for pair, z, l in ((0, 1, g.l_max), (0, 2, g.l_max - 1), (7, 2, g.l_max),
                       (9, 1, min(32, g.l_max)), (10, 2, min(31, g.l_max - 2))):
        key = spec_coin(mon, pair).key(z, l)
        for y in (member_threshold(l), member_threshold(l) + 1):
            js += [coordinate_hashing_to(key, y), coordinate_hashing_to(key, y ^ (y >> 31))]
    js = list(dict.fromkeys(js))
    mon._build_columns(js[:20])
    for j in js[20:]:
        mon._build_columns([j])
    deep = 0
    n_levels = g.l_max + 1
    for j in js:
        want = [f for f in range(rows.size) if live[f] and spec_coin(mon, f // mon.block)
                .in_sample(f % mon.block // n_levels + 1, f % n_levels, j)]
        assert mon.columns.by_j[j][0].tolist() == want
        deep += sum(f % n_levels == g.l_max for f in want)
    assert deep >= 2


def crossings_of(mon: Monitor, pair: int, l: int) -> list[tuple[int, int, int]]:
    """(count, bucket left, bucket entered) of each crossing of copy pair's
    level-l counters, read from the Monitor's crossing table."""
    t, n_levels = mon._buckets.crossings, mon.params.l_max + 1
    key, count = np.divmod(t.at, mon.params.n + 1)
    sel = key == (pair + 1) * n_levels - 1 - l
    return list(zip(count[sel].tolist(), t.left[sel].tolist(), t.entered[sel].tolist()))


def scan(g: GlobalParams, copy: ThresholdInstance, l: int) -> list[tuple[int, int, int]]:
    """The crossings of a level-l counter, one count at a time, by the
    reference's bucket formulas: (c, left, entered) where the counter going
    from c - 1 to c leaves or enters a bucket readable at l."""
    u, h_cap, edge, _, lvl = reference.bucket_tables(g, copy.tau, copy.eta)
    out, h_prev = [], -1
    for c in range(1, g.n + 1):
        h = bisect.bisect_right(edge, c * u[l]) - 1
        left, entered = ((x if 0 <= x <= h_cap and lvl[x] == l else -1) for x in (h_prev, h))
        if h != h_prev and (left >= 0 or entered >= 0):
            out.append((c, left, entered))
        h_prev = h
    return out


def test_crossings_equal_a_scan_of_every_count():
    # a crossing is a count c at which a counter going from c - 1 to c leaves
    # or enters a bucket readable at its level; the table lists exactly those,
    # with the readable bucket left and the one entered
    for p in (1.5, 2.0, 3.0):
        g = monitor_params(a=1, p=p)
        mon = Monitor(g)
        for pair, copy in enumerate(mon.copies):
            for l in range(g.l_max + 1):
                assert crossings_of(mon, pair, l) == scan(g, copy, l), (copy.tau, l)


def test_bucket_tables_equal_scalar_formulas():
    # every copy's increments, bucket cap, edges, weights and bucket levels
    # equal the one-copy scalar definitions bit for bit, on a ladder at
    # p in {1.5, 2, 3} and on the one-rung threshold ladder
    for p, tau in itertools.product((1.5, 2.0, 3.0), (None, 2000.0)):
        g = monitor_params(a=3, p=p, tau=tau, n=3000, b=3.0)
        mon = Monitor(g) if tau is None else Monitor(g, tau=g.tau)
        for copy in mon.copies:
            u, h_cap, edge, weight, levels = reference.bucket_tables(g, copy.tau, copy.eta)
            assert copy.u.tolist() == u
            assert copy.h_cap == h_cap
            assert np.array_equal(copy.edge, edge)
            assert np.array_equal(copy.weight, weight)
            assert copy.lvl_of_h.tolist() == levels
        # the crossing table is built in bucket order and must come out sorted
        assert (np.diff(mon._buckets.crossings.at) > 0).all()


def test_threshold_run_with_no_crossing_at_all():
    # with n = 2 and tau far above what two messages can show, no count of
    # any level reaches a bucket readable at that level (seed 4 draws such
    # an eta): the crossing table is empty, and the run never fires
    g = GlobalParams(k=4, m=16, n=2, p=1.5, eps=0.9, b=1.0, tau=1e9, seed=4)
    mon = Monitor(g, tau=g.tau)
    for l in range(g.l_max + 1):
        assert scan(g, mon.copies[0], l) == crossings_of(mon, 0, l) == []
    table = mon._buckets.crossings
    assert table.at.size == 0 and (table.first == mon._buckets.never).all()
    events = gen_uniform_stream(16, 4, 2, seed=1)
    rows, inst = simulate(events, g, mode="threshold")
    assert [row.estimate for row in rows] == [0.0, 0.0] and not inst.out


def test_ladder_literal_path_replays_the_incremental_one():
    # the reference's literal path (every message bumps its counter, every
    # median is a sort) agrees bit for bit with the running state of every
    # copy right after every event, through mid-event fires, at p in
    # {1.5, 2, 3} on a uniform and a skewed stream
    checked = dropped = 0
    for p, stream in itertools.product((1.5, 2.0, 3.0), ("uniform", "zipf")):
        g = monitor_params(p=p, n=300)
        if stream == "zipf":
            events = gen_zipf_stream(g.m, g.k, g.n, seed=5, s=1.1)
        else:
            events = gen_uniform_stream(g.m, g.k, g.n, seed=5)
        mon, ref = Monitor(g), reference.Run(g, "monitor")
        for ev, c, j, key in zip(events, *(x.tolist() for x in plan_events(events, g.k)[:3])):
            mon.on_event(c, j, key)
            ref.event(*ev)
            for copy, want in zip(mon.copies, ref.copies):
                same = (copy.est, copy.out, copy.dropped) == (want.est, want.out, want.dropped)
                assert same and np.array_equal(copy.med, want.med), (copy.tau, ev)
                checked += copy.est > 0
        dropped += sum(copy.dropped > 0 for copy in mon.copies)
    assert checked > 0 and dropped > 0


@pytest.mark.parametrize("n, m, r, copies, counts, rows", [
    (32766, 2, 1, 1, np.int16, np.uint16),
    (32767, 2, 1, 1, np.int32, np.uint16),
    (500, 4, 5, 4369, np.int16, np.uint16),  # 3 levels: 65,535 rows
    (500, 2, 8, 4096, np.int16, np.int32),  # 2 levels: 65,536 rows
])
def test_column_dtypes_follow_the_runs_bounds(n, m, r, copies, counts, rows):
    # counts and next crossings are int16 up to n = 32766 and row ids uint16
    # up to 65,535 rows; past either bound the column array is int32
    g = GlobalParams(k=4, m=m, n=n, p=2.0, eps=0.5, b=8.0, r=r, a=1, seed=0)
    bk = Buckets(g, [100.0] * copies, [0.5] * copies)
    cols = Columns(bk, r)
    assert cols.first.size == copies * r * (g.l_max + 1)
    assert (bk.count_dtype, cols.row_dtype) == (counts, rows)
    cols.add([3], np.arange(2, dtype=rows), [2])
    assert [x.dtype for x in cols.by_j[3]] == [rows, counts, counts]
    # every count table is in the count dtype, whose max, the sentinel
    # never, is above every count 0 .. n
    assert bk.never == np.iinfo(counts).max > n
    assert (cols.table.next == bk.never).any()
    for table in (cols.first, cols.table.first, cols.table.next):
        assert table.dtype == counts
        assert (table[table != bk.never] <= n).all()


def test_columns_hold_six_bytes_per_entry_at_the_bench_size():
    # the bench's monitor ladder (231 copies, 45,045 rows, n = 500): uint16
    # row ids, int16 counts and int16 next crossings
    g = GlobalParams(k=8, m=4096, n=500, p=2.0, eps=0.2, b=32.0, r=15, a=3, seed=1)
    _, mon = simulate(gen_uniform_stream(4096, 8, 200, seed=1), g, mode="monitor")
    cols = mon.columns.by_j.values()
    entries = sum(rows.size for rows, _, _ in cols)
    assert entries > 10**5 and mon.rows.size == 45045
    assert sum(x.nbytes for col in cols for x in col) == 6 * entries


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_bench_ladders_run_one_event_at_a_time(p, monkeypatch):
    # the monitor workloads' ladder has more than SLICE // 2 rows: one _run
    # per event, and one array triple per add, with no pool
    g = GlobalParams(p=p, **LADDER)
    events = gen_zipf_stream(g.m, g.k, 200, seed=1, s=1.1) if p == 3.0 else \
        gen_uniform_stream(g.m, g.k, 200, seed=1)
    calls, adds = [], 0
    run_of, add_of = Monitor._run, Columns.add

    def run(self, counts, js, evs, start, stop, sent):
        calls.append(stop - start)
        return run_of(self, counts, js, evs, start, stop, sent)

    def add(self, js, rows, ends):
        nonlocal adds
        adds += 1
        add_of(self, js, rows, ends)

    monkeypatch.setattr(Monitor, "_run", run)
    monkeypatch.setattr(Columns, "add", add)
    _, mon = simulate(events, g, mode="monitor")
    assert mon.rows.size > SLICE // 2 and mon.live_pairs
    assert calls == [1] * 200
    cols = mon.columns
    assert not cols.pooled and cols.chunks == [] and cols.span == {}
    for field in range(3):
        assert len({id(col[field].base) for col in cols.by_j.values()}) == adds


def test_threshold_runs_hold_hundreds_of_events():
    # the criterion-1 threshold run (325 rows, 13 levels) runs
    # SLICE // 650 * 13 = 325 events at a time until its copy fires
    g = GlobalParams(k=8, m=4096, n=20000, p=2.0, eps=0.2, tau=25000.0, b=128.0, r=25,
                     seed=1)
    count_after, js, keys, _ = plan_events(gen_uniform_stream(g.m, g.k, g.n, seed=1), g.k)
    mon = Monitor(g, tau=g.tau)
    assert mon.columns.pooled and mon.rows.size == 325
    shapes = []
    run_of = mon._run

    def run(counts, js, evs, start, stop, sent):
        end = run_of(counts, js, evs, start, stop, sent)
        shapes.append((start, stop, end))
        return end

    mon._run = run
    mon.run(count_after, js, keys)
    *before, (start, stop, fire) = shapes
    assert mon.copies[0].out and fire < stop and fire > 5000
    assert all(end == stop and stop - start == 325 for start, stop, end in before)


def test_columns_keep_each_counters_next_crossing():
    # after mid-event fires, every column row's next crossing count is still
    # the first crossing of its (copy, level) above its count, or the
    # column's sentinel past the last one
    g = monitor_params(p=3.0, n=300)
    _, mon = simulate(gen_zipf_stream(64, 4, 300, seed=5, s=1.1), g, mode="monitor")
    assert sum(c.dropped for c in mon.copies) > 0
    n_levels = g.l_max + 1
    for rows, count, nxt in mon.columns.by_j.values():
        for row, c, want in zip(rows.tolist(), count.tolist(), nxt.tolist()):
            pair, within = divmod(row, mon.block)
            above = [at for at, _, _ in crossings_of(mon, pair, within % n_levels) if at > c]
            assert want == (above[0] if above else mon._buckets.never)
