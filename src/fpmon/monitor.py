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

from dataclasses import dataclass

import numpy as np

from .buckets import Buckets
from .protocol import FanRows, GlobalParams, ThresholdInstance, fanout, member_mask
# derive stays bound here: bench/tracing.py wraps monitor.derive
from .sampling import MASK64, SALT_INSTANCE, derive, derive_np, unit_open_zero


@dataclass
class EventOutcome:
    """Per-event accounting from the monitor."""

    messages: int


class Columns:
    """Per-coordinate counters of a ladder. For each coordinate j seen so
    far, by_j[j] holds the ascending flat rows whose level set held j (among
    the rows live when j first arrived) and, aligned with them, each row's
    message count and the count at its next crossing. Holds no reference to
    the copies or their Monitor, which both point here."""

    def __init__(self, block: int, n_levels: int) -> None:
        self.block, self.n_levels = block, n_levels
        self.by_j: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.read_out: dict[int, dict[tuple[int, int, int], int]] | None = None

    def counts_of(self, pair: int) -> dict[tuple[int, int, int], int]:
        """(z, l, j) -> count for one copy, built for every copy on the first
        read after the counters last moved."""
        if self.read_out is None:
            self.read_out = self._read_all()
        return self.read_out.get(pair, {})

    def _read_all(self) -> dict[int, dict[tuple[int, int, int], int]]:
        parts = []
        for j, (rows, count, _) in self.by_j.items():
            nz = np.flatnonzero(count)
            parts.append((rows[nz], count[nz], np.full(nz.size, j)))
        if not parts:
            return {}
        rows, count, js = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(rows, kind="stable")
        pair, within = np.divmod(rows[order], self.block)
        z, l = np.divmod(within, self.n_levels)
        keys = list(zip((z + 1).tolist(), l.tolist(), js[order].tolist()))
        values = count[order].tolist()
        pairs, starts = np.unique(pair, return_index=True)
        ends = [*starts[1:].tolist(), len(keys)]
        return {p: dict(zip(keys[lo:hi], values[lo:hi]))
                for p, lo, hi in zip(pairs.tolist(), starts.tolist(), ends)}


class Monitor:
    """All ladder copies multiplexed over one site->coordinator channel.

    Copies share the site vectors; each (instance, copy) pair owns disjoint
    seed streams keyed by its indices. Message accounting includes messages
    that arrive after their copy terminated (they are delivered and dropped).

    With tau given, the ladder is a single rung at tau with a single copy:
    a threshold run. Its (0, 0) seeds are ThresholdInstance's defaults, so
    copies[0] replays a standalone ThresholdInstance(params) exactly.

    The coordinator is columnar: an event's fan-out and counter bumps run in
    numpy over the rows whose level set holds its coordinate. The copies'
    bucket tables and crossing table are one Buckets, built in one pass;
    the messages that reach their counters' next crossings look up the
    buckets they leave and enter there in one search, and only they go
    through Python, to their copies' cross().
    """

    def __init__(self, params: GlobalParams, tau: float | None = None) -> None:
        self.params = params
        if tau is None:
            self.a = params.a
            self.taus = [(1.0 + params.eps) ** i for i in range(params.i_max + 1)]
        else:
            self.a, self.taus = 1, [tau]
        self.n_instances = len(self.taus)
        self.majority = self.a // 2 + 1

        n_levels = params.l_max + 1
        self.block = params.r * n_levels
        self.columns = Columns(self.block, n_levels)
        # (coin, send, eta) seeds of copy (i, c): derive(seed, SALT_INSTANCE, i, c, s)
        seeds = derive_np(params.seed & MASK64, SALT_INSTANCE,
                          np.arange(self.n_instances)[:, None, None],
                          np.arange(self.a)[None, :, None],
                          np.arange(3)[None, None, :]).reshape(-1, 3).tolist()
        taus = [tau for tau in self.taus for _ in range(self.a)]
        self._buckets = Buckets(params, taus, [unit_open_zero(s[2]) for s in seeds])
        self.copies = [
            ThresholdInstance(params, tau=tau, coin_seed=coin, send_seed=send,
                              eta_seed=eta, columns=self.columns, pair=pair,
                              buckets=self._buckets)
            for pair, (tau, (coin, send, eta)) in enumerate(zip(taus, seeds))
        ]

        # flat candidate rows over (instance, copy, z, l), canonical order
        self.rows = FanRows(params, taus, [c.coin for c in self.copies],
                            [c.send_seed for c in self.copies])
        self.live = np.ones(self.rows.size, dtype=bool)
        self.live_pairs = len(self.copies)
        # each flat row's first crossing count, and its (copy, level) key's
        # base in the crossing table's `at` values
        table, shape = self._buckets.crossings, (len(self.copies), params.r, n_levels)
        self._first_crossing = np.broadcast_to(
            table.first.reshape(-1, 1, n_levels), shape).ravel()
        self._row_at = np.broadcast_to(table.base.reshape(-1, 1, n_levels), shape).ravel()

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

    def _column(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate j's column, made on its first event from the live rows
        (a silent row never speaks again)."""
        col = self.columns.by_j.get(j)
        if col is None:
            rows = np.flatnonzero(member_mask(self.rows, j) & self.live).astype(np.int32)
            col = (rows, np.zeros(rows.size, dtype=np.int32), self._first_crossing[rows])
            self.columns.by_j[j] = col
        return col

    def on_event(self, count_after: int, j: int, ev: int) -> EventOutcome:
        """Run one site update against every live copy. Messages are
        delivered in flat canonical order; a copy that fires mid-event drops
        the rest of that event's messages addressed to it."""
        if not self.live_pairs:
            return EventOutcome(messages=0)
        col = self._column(j)
        rows, count, nxt = col
        sent = fanout(self.rows, self.live, count_after, j, ev, rows)
        if sent.size:
            self.columns.read_out = None
            count[sent] += 1
            hit = count[sent] >= nxt[sent]
            if hit.any():
                self._cross(col, sent, hit)
        return EventOutcome(messages=int(sent.size))

    def _cross(self, col, sent: np.ndarray, hit: np.ndarray) -> None:
        """Deliver an event's crossing messages to their copies in canonical
        order. The counters stay bumped and each crossing row's next crossing
        count is set up front; a message that fires its copy takes back the
        bumps of the copy's later messages of the event, which it drops.
        Under literal_estimation each crossing bump waits for its own
        message, so that every full pass reads the counters delivered so
        far."""
        rows, count, nxt = col
        qs = sent[hit]
        crossed, bumped = rows[qs], count[qs]
        table = self._buckets.crossings
        e = table.at.searchsorted(self._row_at[crossed] + bumped)
        nxt[qs] = table.next[e]
        pair, z = np.divmod(crossed // self.columns.n_levels, self.params.r)
        literal = self.params.literal_estimation
        if literal:
            count[qs] = bumped - 1
        copies, columns = self.copies, self.columns
        for i, (p, zi, out, into) in enumerate(zip(
                pair.tolist(), (z + 1).tolist(), table.left[e].tolist(),
                table.entered[e].tolist())):
            inst = copies[p]
            if inst.terminated:  # fired earlier in this event
                continue
            if literal:
                count[qs[i]] += 1
                columns.read_out = None
            if inst.cross(zi, out, into):
                k = int(sent.searchsorted(qs[i]))
                end = int(rows[sent].searchsorted((p + 1) * self.block))
                later, crossing = sent[k + 1 : end], hit[k + 1 : end]
                count[later[~crossing] if literal else later] -= 1
                nxt[later[crossing]] = count[later[crossing]] + 1
                columns.read_out = None
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
