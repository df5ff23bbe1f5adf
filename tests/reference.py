"""The one-way F_p protocol transcribed message by message in plain Python:
the reference that the engine (harness.simulate) is checked against.

It shares no engine code. From fpmon it takes only GlobalParams, C_FIRE and
the scalar definitions in fpmon.sampling: derive and its salts, mix64,
coordinate_key, member_threshold, event_key, unit_open_zero, level_of and
PublicCoin. A site update is tried on every row of every live copy in
canonical order (copy, then z, then l); each message that gets through bumps
one counter, whose value count * u_l is placed among its copy's bucket
edges; a bucket's median is read by sorting its r repetition counts; and
the estimate is the dot product of medians and weights.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from fpmon.protocol import C_FIRE, GlobalParams
from fpmon.sampling import (
    SALT_INSTANCE,
    SALT_SEND,
    PublicCoin,
    coordinate_key,
    derive,
    event_key,
    level_of,
    member_threshold,
    mix64,
    unit_open_zero,
)


def bucket_tables(g: GlobalParams, tau: float, eta: float) -> tuple:
    """One copy's per-level increments u, bucket cap h_cap, bucket edges
    (h = 0 .. h_cap + 1), weights and levels (h = 0 .. h_cap)."""
    p, gamma, zeta = g.p, g.gamma, 1.0 + g.gamma
    root = tau ** (1.0 / p)
    u = [max(root / 2.0 ** (l / p) / g.b, 1.0) for l in range(g.l_max + 1)]
    h_full = math.ceil((1.0 / gamma) * math.log(g.n / eta**p, zeta))
    top = g.n * u[0]
    h_reach = int(math.floor(math.log(top / eta, zeta))) + 2 if top >= eta else 1
    h_cap = min(h_full, h_reach)
    hs = np.arange(h_cap + 2, dtype=np.float64)
    weight = eta**p * zeta ** (p * hs[: h_cap + 1])
    lvl = [level_of(h, eta, gamma, p, tau, g.b, g.l_max) for h in range(h_cap + 1)]
    return u, h_cap, (eta * zeta**hs).tolist(), weight, lvl


class Copy:
    """One threshold instance: its rows at the sites, and its coordinator's
    counters, histograms, medians and estimate."""

    def __init__(self, g: GlobalParams, tau: float, coin_seed: int, send_seed: int,
                 eta_seed: int) -> None:
        self.tau, self.r, self.eta = tau, g.r, unit_open_zero(eta_seed)
        self.u, self.h_cap, self.edge, self.weight, self.lvl = bucket_tables(g, tau, self.eta)
        coin = PublicCoin(coin_seed, g.r, g.l_max)
        self.rows = [(z, l, coin.key(z, l), derive(send_seed, SALT_SEND, z, l))
                     for z in range(1, g.r + 1) for l in range(g.l_max + 1)]
        tau_l_root = [tau ** (1.0 / g.p) / 2.0 ** (l / g.p) for l in range(g.l_max + 1)]
        self.guard = [x / (g.k * g.b) for x in tau_l_root]
        self.q = [min(g.b / x, 1.0) * 2.0**53 for x in tau_l_root]  # times 2**53
        self.fire_line = (1.0 - C_FIRE * g.eps) * tau
        # (z, l, send key) of the rows whose level set holds j, by j: each
        # row's test of PublicCoin.in_sample, with its key derived once
        self.members: dict[int, list[tuple[int, int, int]]] = {}
        self.counts: dict[tuple[int, int, int], int] = {}
        self.hist: dict[int, list[int]] = {}
        self.med = np.zeros(self.h_cap + 1)
        self.est, self.out, self.dropped, self.est_decreases = 0.0, 0, 0, 0
        self.held = 0  # member rows that the guard held back

    def sends(self, count_after: int, j: int, ev: int) -> list[tuple[int, int]]:
        """The (z, l) of each row that reports a site update: j is in the
        row's level set, the site's count of j is above the row's guard, and
        the thinning trial on the row's send key and the event key passes."""
        if j not in self.members:
            self.members[j] = [(z, l, send) for z, l, coin, send in self.rows
                               if mix64(coin ^ coordinate_key(j)) <= member_threshold(l)]
        out = []
        for z, l, send in self.members[j]:
            if count_after <= self.guard[l]:
                self.held += 1
            elif (mix64(send ^ ev) >> 11) < self.q[l]:
                out.append((z, l))
        return out

    def bucket(self, l: int, count: int) -> int:
        """The bucket of a level-l counter at count: the last edge at or
        below its value count * u_l, -1 below the first."""
        return bisect.bisect_right(self.edge, count * self.u[l]) - 1

    def deliver(self, z: int, l: int, j: int) -> bool:
        """One message (j, z, l) at the coordinator; True when it fires the
        copy. A fired copy drops it."""
        if self.out:
            self.dropped += 1
            return False
        c = self.counts[z, l, j] = self.counts.get((z, l, j), 0) + 1
        left, entered = self.bucket(l, c - 1), self.bucket(l, c)
        moved = False
        for h, step in ((left, -1), (entered, 1)) if left != entered else ():
            if 0 <= h <= self.h_cap and self.lvl[h] == l:  # readable at l
                hist = self.hist.setdefault(h, [0] * self.r)
                hist[z - 1] += step
                self.med[h] = float(sorted(hist)[(self.r - 1) // 2] * 2**l)
                moved = True
        if not moved:
            return False
        est = float(np.dot(self.med, self.weight))
        self.est_decreases += est < self.est
        self.est = est
        self.out = int(est > self.fire_line)
        return bool(self.out)


class Run:
    """A threshold run, one copy at g.tau with the default seeds, or a
    monitor run, a copies of each rung (1+eps)**i for i = 0 .. i_max.

    Each event's messages are the rows that report it among the copies live
    at its start, in canonical order. A copy fires when its estimate passes
    its fire line; its later messages of that event are sent and dropped,
    and its rows are silent from the next event on. A rung fires once a
    strict majority of its copies has, and all of its copies fall silent."""

    def __init__(self, g: GlobalParams, mode: str = "threshold") -> None:
        if mode == "threshold":
            taus, self.a = [g.tau], 1
        else:
            taus, self.a = [(1.0 + g.eps) ** i for i in range(g.i_max + 1)], g.a
        self.g, self.threshold = g, mode == "threshold"
        self.copies = [Copy(g, tau, *(derive(g.seed, SALT_INSTANCE, i, c, s) for s in range(3)))
                       for i, tau in enumerate(taus) for c in range(self.a)]
        self.live, self.fired = [True] * len(self.copies), [0] * len(taus)
        self.n_fired, self.top = 0, -1
        self.bits = g.message_bits(n_streams=len(self.copies))
        self.site_count: dict[tuple[int, int], int] = {}
        self.count: dict[int, int] = {}
        self.fp, self.sent = 0, 0

    def event(self, t: int, site: int, j: int) -> tuple:
        """Site `site` receives coordinate j at time t. Returns the trace
        row after it: (t, true_fp, estimate, cum_messages, cum_bits,
        fired_instances)."""
        g, a, copies, live = self.g, self.a, self.copies, self.live
        c = self.site_count[site, j] = self.site_count.get((site, j), 0) + 1
        x = self.count[j] = self.count.get(j, 0) + 1
        if float(g.p).is_integer():
            self.fp += x ** int(g.p) - (x - 1) ** int(g.p)
        else:
            self.fp += float(x) ** g.p - (float(x - 1) ** g.p if x > 1 else 0)
        ev = event_key(site, t)
        msgs = [(pair, z, l) for pair, copy in enumerate(copies) if live[pair]
                for z, l in copy.sends(c, j, ev)]
        self.sent += len(msgs)
        for pair, z, l in msgs:
            if copies[pair].deliver(z, l, j):
                live[pair], i = False, pair // a
                self.fired[i] += 1
                if self.fired[i] == a // 2 + 1:
                    self.n_fired, self.top = self.n_fired + 1, max(self.top, i)
                    live[i * a : (i + 1) * a] = [False] * a
        est = (copies[0].est if self.threshold else
               0.0 if self.top < 0 else (1.0 + g.eps) ** (self.top + 0.5))
        return t, float(self.fp), est, self.sent, self.sent * self.bits, self.n_fired


def run(events, g: GlobalParams, mode: str = "threshold") -> tuple[list[tuple], list[Copy]]:
    """Drive (t, site, j) events through a Run; returns the trace row after
    each event, and the copies."""
    ref = Run(g, mode)
    return [ref.event(*ev) for ev in events], ref.copies
