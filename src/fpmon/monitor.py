"""Continuous F_p monitoring: a geometric ladder of threshold instances.

One threshold instance per tau_i = (1+eps)**i for i in 0..i_max, each
amplified by `a` independent copies with disjoint seed streams; an instance
counts as fired once a strict majority of its copies has fired. The running
estimate is the geometric midpoint of the bracket above the highest fired
instance. Fired instances stop generating traffic; everything stays one-way.

A single-threshold run is the one-rung, one-copy case of the same ladder,
driven by the same run driver (Monitor.run).
"""

from __future__ import annotations

import numpy as np

from .buckets import Buckets, Columns
from .protocol import FanRows, GlobalParams, ThresholdInstance, check_tau, fanout, members
from .sampling import MASK64, SALT_INSTANCE, SLICE, derive_np, unit_open_zero_np
# derive stays bound here: bench/tracing.py wraps monitor.derive
from .sampling import derive  # noqa: F401


class Monitor:
    """All ladder copies multiplexed over one site->coordinator channel.

    Copies share the site vectors; each (instance, copy) pair owns disjoint
    seed streams keyed by its indices. Message accounting includes messages
    that arrive after their copy terminated (they are delivered and dropped).

    With tau given, the ladder is a single rung at tau with a single copy:
    a threshold run. Its (0, 0) seeds are ThresholdInstance's defaults, so
    copies[0] is ThresholdInstance(params): the same seeds and tables, and
    the same state after the same messages. Its estimate() is that copy's.

    The Monitor records its own readings. Only an event that delivers a
    crossing message can move an estimate or fire a copy, so record holds
    (t, estimate(), fired_count()) after each such event t, a stream
    position counted over every run() call, from t = -1, before any event.

    The coordinator is columnar: the copies count in one Columns, and the
    fan-out and counter bumps run in numpy over the rows whose level set
    holds each event's coordinate. Their bucket and crossing tables are one
    Buckets, built with the Monitor. Only the crossing messages, whose new
    count is a crossing count of their row's (copy, level), go through
    Python, to their copy's apply(), the coordinator step; run() is the
    only caller that delivers messages.

    An event's messages depend only on the event and on which rows are
    live, and rows only ever fall silent. So run() takes a stream's events
    as arrays and drives them a run at a time: max(1, SLICE // live rows)
    events, fanned out in one numpy pass over the rows live at the run's
    start, whose crossing messages are found in one more. A fire silences
    rows, so a run ends with the event in which a copy fires, and the next
    run starts after it. on_event() is a run of one. run() is the one site
    path: it checks every event before it sends anything.
    """

    def __init__(self, params: GlobalParams, tau: float | None = None) -> None:
        self.params, self.tau = params, tau
        if tau is None:
            self.a = params.a
            self.taus = [(1.0 + params.eps) ** i for i in range(params.i_max + 1)]
        else:
            check_tau(tau)
            self.a, self.taus = 1, [tau]
        self.n_instances = len(self.taus)
        self.majority = self.a // 2 + 1

        # (coin, send, eta) seeds of copy (i, c): derive(seed, SALT_INSTANCE, i, c, s)
        seeds = derive_np(params.seed & MASK64, SALT_INSTANCE,
                          np.arange(self.n_instances)[:, None, None],
                          np.arange(self.a)[None, :, None],
                          np.arange(3)[None, None, :]).reshape(-1, 3)
        taus = [tau for tau in self.taus for _ in range(self.a)]
        self._buckets = Buckets(params, taus, unit_open_zero_np(seeds[:, 2]).tolist())
        self.columns = Columns(self._buckets, params.r)
        self.block = self.columns.block
        self.copies = [
            ThresholdInstance(params, tau=tau, coin_seed=coin, send_seed=send,
                              columns=self.columns, pair=pair)
            for pair, (tau, coin, send) in enumerate(zip(taus, *seeds[:, :2].T.tolist()))
        ]

        # flat candidate rows over (instance, copy, z, l), canonical order
        self.rows = FanRows(params, taus, seeds[:, 0], seeds[:, 1])
        # each row's guard, or +inf once its pair falls silent: fanout's one
        # gather per candidate
        self.gate = self.rows.guards()
        self.live_pairs = len(self.copies)
        # the live rows' flat indices and coin keys (one block of keys per
        # live pair), built when a column is next made after a pair falls
        # silent
        self._live_keys: tuple[np.ndarray, np.ndarray] | None = None

        self.fired_copies = [0] * self.n_instances
        self.instance_fired = [False] * self.n_instances
        self.max_fired, self.n_fired = -1, 0
        self.message_bits = params.message_bits(n_streams=len(self.copies))

        self.n_events = 0  # events run so far, over every run() call
        self.record = [(-1, self.estimate(), 0)]

    def fired_count(self) -> int:
        return self.n_fired

    def estimate(self) -> float:
        """A threshold run's copy estimate; on a ladder, the geometric
        midpoint (1+eps)**(M + 1/2) above the highest fired instance M, or
        0 before any instance fires."""
        if self.tau is not None:
            return self.copies[0].est
        if self.max_fired < 0:
            return 0.0
        return (1.0 + self.params.eps) ** (self.max_fired + 0.5)

    @property
    def live(self) -> np.ndarray:
        """Whether each flat row's pair is still live."""
        return self.gate < np.inf

    def _silence_pair(self, pair: int) -> None:
        lo = pair * self.block
        if self.gate[lo] < np.inf:
            self.gate[lo : lo + self.block] = np.inf
            self.live_pairs -= 1
            self._live_keys = None

    def _build_columns(self, js: list[int]) -> None:
        """Columns of new coordinates js, from one membership hash over
        (js x live rows). A silent row never speaks again, so it gets no
        column entry."""
        block, fan = self.block, self.rows
        if self._live_keys is None:
            pairs = np.flatnonzero(self.gate[::block] < np.inf).astype(np.int32)
            flat = (pairs[:, None] * block + np.arange(block, dtype=np.int32)).ravel()
            self._live_keys = flat, fan.coin_pm.reshape(-1, block)[pairs].ravel()
        # live rows are whole pair blocks, so a live key's level is its
        # place in them modulo the level count, as members needs
        flat, key = self._live_keys
        at = np.flatnonzero(members(fan, key, js))
        rows = np.take(flat, at, mode="wrap")  # at % flat.size: the live row
        self.columns.add(js, rows, at.searchsorted(np.arange(1, len(js) + 1) * flat.size))

    def on_event(self, count_after: int, j: int, ev: int) -> int:
        """One site update, as a run of one; returns the messages it sent."""
        return int(self.run([count_after], [j], [ev])[0])

    def run(self, count_after, js, evs) -> np.ndarray:
        """Run site updates, given as aligned arrays of each event's site
        count of its coordinate after the update, coordinate and event key,
        against every live copy; returns the messages each event sent.
        Messages are delivered in flat canonical order, and a copy that
        fires mid-event drops the rest of that event's messages addressed to
        it. Each event that delivered a crossing message is recorded, at its
        stream position. Raises ValueError, before any event runs, at the
        first event whose coordinate is outside [0, m), whose count is below
        1 or whose key is outside [0, 2**64)."""
        # a list's entries are compared as the Python ints they are: numpy
        # reads a list of keys both below and above 2**63 as float64
        count_after, js, evs = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
                                for x in (count_after, js, evs))
        if not count_after.shape == js.shape == evs.shape == (js.size,):
            raise ValueError("count_after, js and evs must be aligned 1-d arrays, got "
                             f"shapes {count_after.shape}, {js.shape}, {evs.shape}")
        bad = np.flatnonzero(~((js >= 0) & (js < self.params.m) & (count_after >= 1)
                               & (evs >= 0) & (evs <= MASK64)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"event {i}: need 0 <= j < {self.params.m}, count_after >= 1 "
                             f"and 0 <= key < 2**64, got j={js[i]}, "
                             f"count_after={count_after[i]}, key={evs[i]}")
        count_after, js, evs = (x.astype(t, copy=False) for x, t in
                                zip((count_after, js, evs), (np.int64, np.int64, np.uint64)))
        sent, at = np.zeros(js.size, dtype=np.int64), 0
        while at < js.size and self.live_pairs:
            stop = min(at + max(1, SLICE // (self.live_pairs * self.block)), js.size)
            at = self._run(count_after, js, evs, at, stop, sent)
        self.n_events += js.size
        return sent

    def _run(self, counts, js, evs, start: int, stop: int, sent: np.ndarray) -> int:
        """Deliver events start .. stop - 1, fanned out in one pass over the
        rows live now, and write their message counts into sent. Returns the
        event after the last one delivered: stop, or the event after the
        first one in which a copy fired, since a fire silences rows.

        A message's new count is its counter's count before the run plus
        its rank among the run's messages to that counter. It crosses iff
        that count is a crossing count of its row's (copy, level) key; only
        counts at or past the row's next crossing are looked up. Only the
        crossing messages go through Python, to apply(), and each event
        that delivered one is recorded."""
        jl = js[start:stop].tolist()
        by_j = self.columns.by_j
        new = [x for x in dict.fromkeys(jl) if x not in by_j]
        if new:
            self._build_columns(new)
        cols = [by_j[j] for j in jl]
        one = len(cols) == 1
        if one:  # fanout's scalar form, on the column itself
            rows, count, nxt = cols[0]
            pos = fanout(self.rows, self.gate, int(counts[start]), int(evs[start]), rows)
            cut, newc = [0, pos.size], count[pos] + 1
        else:  # positions pos into the run's concatenated columns
            sizes = [col[0].size for col in cols]
            rows, count, nxt = (np.concatenate(x) for x in zip(*cols))
            pos = fanout(self.rows, self.gate, np.repeat(counts[start:stop], sizes),
                         np.repeat(evs[start:stop], sizes), rows)
            ends = np.cumsum(sizes)
            starts, cut = ends - sizes, [0, *pos.searchsorted(ends).tolist()]
            per_event = np.diff(cut)
            within, newc = pos - np.repeat(starts, per_event), count[pos] + 1
            if len(set(jl)) < len(jl):
                # a coordinate repeats: key each message by its counter's
                # place in the first segment of its column
                first: dict[int, int] = {}
                base = [first.setdefault(j, lo) for j, lo in zip(jl, starts.tolist())]
                newc += occurrence(within + np.repeat(base, per_event)) - 1
        hit = np.flatnonzero(newc >= nxt[pos])
        end = len(cols)
        if hit.size:
            t, hit_pos = self.columns.table, pos[hit]
            hit_rows = rows[hit_pos]
            at = self.columns.row_at[hit_rows] + newc[hit]
            e = t.at.searchsorted(at)
            if not one:  # a repeated counter can pass its next crossing
                keep = np.flatnonzero(t.at.take(e, mode="clip") == at)
                hit, hit_pos, hit_rows, e = (x[keep] for x in (hit, hit_pos, hit_rows, e))
            nxtval = t.next[e]
            pair, z = np.divmod(hit_rows // self.columns.n_levels, self.params.r)
            ev_of = ([0] * hit.size if one else
                     np.searchsorted(cut[1:], hit, side="right").tolist())
            copies, last, base = self.copies, -1, self.n_events + start
            for k, i, p, zi, out, into in zip(hit.tolist(), ev_of, pair.tolist(),
                                              (z + 1).tolist(), t.left[e].tolist(),
                                              t.entered[e].tolist()):
                if i != last:
                    if i >= end:
                        break
                    if last >= 0:
                        self.record.append((base + last, self.estimate(), self.n_fired))
                    last = i
                inst = copies[p]
                if inst.terminated:  # fired earlier in this event
                    continue
                if inst.apply(zi, out, into):
                    # the copy's later messages of the event are dropped:
                    # no bump, and a crossing one keeps its next crossing
                    lo, hi = cut[i], cut[i + 1]
                    drop = lo + int(rows[pos[lo:hi]].searchsorted((p + 1) * self.block))
                    newc[k + 1 : drop] -= 1
                    h0, h1 = hit.searchsorted([k + 1, drop]).tolist()
                    nxtval[h0:h1] = newc[hit[h0:h1]] + 1
                    inst.dropped += drop - k - 1
                    self._fire(p)
                    end = i + 1
            self.record.append((base + last, self.estimate(), self.n_fired))
        # bump each delivered event's column, and set its next crossings
        self.columns.read_out = None
        if one:
            sent[start] = pos.size
            count[pos] = newc
            if hit.size:
                nxt[hit_pos] = nxtval
            return start + 1
        cut = cut[: end + 1]
        sent[start : start + end] = np.diff(cut)
        hcut, hit_at = hit.searchsorted(cut).tolist(), within[hit]
        for (_, count, nxt), lo, hi, h0, h1 in zip(cols, cut, cut[1:], hcut, hcut[1:]):
            if lo < hi:
                count[within[lo:hi]] = newc[lo:hi]
                if h0 < h1:
                    nxt[hit_at[h0:h1]] = nxtval[h0:h1]
        return start + end

    def _fire(self, pair: int) -> None:
        self._silence_pair(pair)
        i = pair // self.a
        self.fired_copies[i] += 1
        if self.fired_copies[i] == self.majority and not self.instance_fired[i]:
            self.instance_fired[i] = True
            self.n_fired += 1
            if i > self.max_fired:
                self.max_fired = i
            for c in range(self.a):
                self._silence_pair(i * self.a + c)


def occurrence(keys: np.ndarray) -> np.ndarray:
    """For each entry of keys, how many entries up to and including it hold
    its key: 1 at a key's first occurrence, 2 at its second, and so on."""
    order = np.argsort(keys, kind="stable")
    sorted_keys, idx = keys[order], np.arange(keys.size)
    head = np.ones(keys.size, dtype=bool)
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    out = np.empty(keys.size, dtype=np.int64)
    out[order] = idx - np.maximum.accumulate(np.where(head, idx, 0)) + 1
    return out
