"""Continuous F_p monitoring: a geometric ladder of threshold instances.

One threshold instance per tau_i = (1+eps)**i for i in 0..i_max, each
amplified by `a` independent copies with disjoint seed streams; an instance
counts as fired once a strict majority of its copies has fired. The running
estimate is the geometric midpoint of the bracket above the highest fired
instance. Fired instances stop generating traffic; everything stays one-way.

A single-threshold run is the one-rung, one-copy case of the same ladder,
driven by the same event loop.
"""

from __future__ import annotations

import numpy as np

from .buckets import Buckets, Columns
from .protocol import FanRows, GlobalParams, ThresholdInstance, check_tau, fanout
from .sampling import (GOLDEN, MASK64, SALT_INSTANCE, SLICE, derive_np, mix64_np,
                       unit_open_zero)
# derive stays bound here: bench/tracing.py wraps monitor.derive
from .sampling import derive  # noqa: F401


class Monitor:
    """All ladder copies multiplexed over one site->coordinator channel.

    Copies share the site vectors; each (instance, copy) pair owns disjoint
    seed streams keyed by its indices. Message accounting includes messages
    that arrive after their copy terminated (they are delivered and dropped).

    With tau given, the ladder is a single rung at tau with a single copy:
    a threshold run. Its (0, 0) seeds are ThresholdInstance's defaults, so
    copies[0] replays a standalone ThresholdInstance(params) exactly.

    The coordinator is columnar: the copies count in one Columns, and an
    event's fan-out and counter bumps run in numpy over the rows whose level
    set holds its coordinate. Their bucket and crossing tables are one
    Buckets, built with the Monitor; the messages that reach their next
    crossings look up the buckets they leave and enter in one
    Columns.crossed() call, and only they go through Python, to cross().

    An event's messages depend only on the event and on which rows are
    live, and rows only ever fall silent. So on_event fans out a run of
    upcoming events at once when the stream has been handed over through
    plan(): max(1, SLICE // live rows) of them, in one numpy pass over the
    rows live at the run's start. Each event then drops its messages from
    rows that have fallen silent since. Without a plan, each event is a
    run of one.
    """

    def __init__(self, params: GlobalParams, tau: float | None = None) -> None:
        self.params = params
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
                          np.arange(3)[None, None, :]).reshape(-1, 3).tolist()
        taus = [tau for tau in self.taus for _ in range(self.a)]
        self._buckets = Buckets(params, taus, [unit_open_zero(s[2]) for s in seeds])
        self.columns = Columns(self._buckets, params.r)
        self.block = self.columns.block
        self.copies = [
            ThresholdInstance(params, tau=tau, coin_seed=coin, send_seed=send,
                              eta_seed=eta, columns=self.columns, pair=pair)
            for pair, (tau, (coin, send, eta)) in enumerate(zip(taus, seeds))
        ]

        # flat candidate rows over (instance, copy, z, l), canonical order
        self.rows = FanRows(params, taus, [c.coin for c in self.copies],
                            [c.send_seed for c in self.copies])
        self.live = np.ones(self.rows.size, dtype=bool)
        self.live_pairs = len(self.copies)
        # the live rows' flat indices and coin keys (one block of keys per
        # live pair), built when a column is next made after a pair falls
        # silent
        self._live_keys: tuple[np.ndarray, np.ndarray] | None = None
        # the stream's (count_after, j, ev) arrays, the index of the next
        # planned event, and the run fanned out so far (see _fan_run)
        self._plan: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._at = 0
        self._run: tuple | None = None

        self.fired_copies = [0] * self.n_instances
        self.instance_fired = [False] * self.n_instances
        self.max_fired = -1
        self.message_bits = params.message_bits(n_streams=len(self.copies))

    def fired_count(self) -> int:
        return sum(self.instance_fired)

    def estimate(self) -> float:
        """Geometric midpoint (1+eps)**(M + 1/2) above the highest fired
        instance M; 0 before any instance fires."""
        if self.max_fired < 0:
            return 0.0
        return (1.0 + self.params.eps) ** (self.max_fired + 0.5)

    def _silence_pair(self, pair: int) -> None:
        lo = pair * self.block
        if self.live[lo]:
            self.live[lo : lo + self.block] = False
            self.live_pairs -= 1
            self._live_keys = None

    def plan(self, count_after: np.ndarray, js: np.ndarray, evs: np.ndarray) -> None:
        """Hand over the (count_after, j, ev) of every event still to come,
        as aligned arrays; on_event must then be called with exactly these
        events, in order."""
        self._plan = (np.asarray(count_after, dtype=np.int64),
                      np.asarray(js, dtype=np.int64), np.asarray(evs, dtype=np.uint64))
        self._at, self._run = 0, None

    def _build_columns(self, js: list[int]) -> None:
        """Columns of new coordinates js, from one membership hash over
        (js x live rows), in slices whose temporaries are 128 KiB. A silent
        row never speaks again, so it gets no column entry."""
        block = self.block
        if self._live_keys is None:
            pairs = np.flatnonzero(self.live[::block]).astype(np.int32)
            flat = (pairs[:, None] * block + np.arange(block, dtype=np.int32)).ravel()
            self._live_keys = flat, self.rows.coin_key.reshape(-1, block)[pairs]
        # live rows are whole pair blocks, and a row's member threshold
        # depends only on its place in the block
        flat, key = self._live_keys
        thresh = self.rows.member_thresh[:block]
        jk = (np.array(js, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
        jk = jk[:, None, None]
        member = np.empty((len(js), *key.shape), dtype=bool)
        step = max(1, SLICE // (len(js) * block))  # live pairs per slice
        for lo in range(0, key.shape[0], step):
            hi = lo + step
            member[:, lo:hi] = mix64_np(key[lo:hi] ^ jk) <= thresh
        at = np.flatnonzero(member)
        rows = np.take(flat, at, mode="wrap")  # at % flat.size: the live row
        self.columns.add(js, rows, at.searchsorted(np.arange(1, len(js) + 1) * flat.size))

    def _fan_run(self, count_after: int, j: int, ev: int) -> tuple:
        """Fan out the run of events that starts at this one: the planned
        ones, or this event alone without a plan. Returns (start, events,
        columns, sent, live pairs): for each event its (count_after, j, ev),
        its coordinate's column and its messages as ascending positions
        into that column, computed over the rows live now."""
        start = self._at
        if self._plan is None:
            events = [(count_after, j, ev)]
        else:
            counts, js, evs = self._plan
            stop = min(start + max(1, SLICE // (self.live_pairs * self.block)), js.size)
            if start == stop:
                raise ValueError(f"event {start} is past the end of the plan")
            events = list(zip(counts[start:stop].tolist(), js[start:stop].tolist(),
                              evs[start:stop].tolist()))
        by_j = self.columns.by_j
        new = [x for x in dict.fromkeys(e[1] for e in events) if x not in by_j]
        if new:
            self._build_columns(new)
        cols = [by_j[e[1]] for e in events]
        if len(events) == 1:
            (c, j, ev), = events
            sent = [fanout(self.rows, self.live, c, j, ev, cols[0][0])]
        else:
            sizes = [col[0].size for col in cols]
            pos = fanout(self.rows, self.live, np.repeat(counts[start:stop], sizes), None,
                         np.repeat(evs[start:stop], sizes),
                         np.concatenate([col[0] for col in cols]))
            ends = np.cumsum(sizes)
            cut = pos.searchsorted(ends)
            pos -= np.repeat(ends - sizes, np.diff(cut, prepend=0))
            cut = [0, *cut.tolist()]
            sent = [pos[lo:hi] for lo, hi in zip(cut, cut[1:])]
        return start, events, cols, sent, self.live_pairs

    def on_event(self, count_after: int, j: int, ev: int) -> int:
        """Run one site update against every live copy and return the number
        of messages it sent. Messages are delivered in flat canonical order;
        a copy that fires mid-event drops the rest of that event's messages
        addressed to it. With a plan, an event other than the next planned
        one raises ValueError."""
        if not self.live_pairs:
            return 0
        run = self._run
        if run is None or self._at - run[0] == len(run[1]):
            run = self._run = self._fan_run(count_after, j, ev)
        start, events, cols, sents, live_pairs = run
        i = self._at - start
        if events[i] != (count_after, j, ev):
            raise ValueError(f"event {self._at} is {(count_after, j, ev)}, "
                             f"planned as {events[i]}")
        self._at += 1
        col = cols[i]
        rows, count, nxt = col
        sent = sents[i]
        if self.live_pairs < live_pairs:
            sent = sent[self.live[rows[sent]]]
        if sent.size:
            self.columns.read_out = None
            count[sent] += 1
            hit = count[sent] >= nxt[sent]
            if hit.any():
                self._cross(col, sent, hit)
        return int(sent.size)

    def _cross(self, col, sent: np.ndarray, hit: np.ndarray) -> None:
        """Deliver an event's crossing messages to their copies in canonical
        order. The counters stay bumped and each crossing row's next crossing
        count is set up front; a message that fires its copy takes back the
        bumps of the copy's later messages of the event, which it drops."""
        rows, count, nxt = col
        qs = sent[hit]
        left, entered = self.columns.crossed(col, qs)
        pair, z = np.divmod(rows[qs] // self.columns.n_levels, self.params.r)
        copies = self.copies
        for i, (p, zi, out, into) in enumerate(zip(pair.tolist(), (z + 1).tolist(),
                                                   left, entered)):
            inst = copies[p]
            if inst.terminated:  # fired earlier in this event
                continue
            if inst.cross(zi, out, into):
                k = int(sent.searchsorted(qs[i]))
                end = int(rows[sent].searchsorted((p + 1) * self.block))
                later, crossing = sent[k + 1 : end], hit[k + 1 : end]
                count[later] -= 1
                nxt[later[crossing]] = count[later[crossing]] + 1
                inst.dropped += end - k - 1
                self._fire(p)

    def _fire(self, pair: int) -> None:
        self._silence_pair(pair)
        i = pair // self.a
        self.fired_copies[i] += 1
        if self.fired_copies[i] == self.majority and not self.instance_fired[i]:
            self.instance_fired[i] = True
            if i > self.max_fired:
                self.max_fired = i
            for c in range(self.a):
                self._silence_pair(i * self.a + c)
