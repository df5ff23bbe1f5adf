"""Bucket machinery of threshold instances, for one instance or a whole
ladder of copies at once: per-level counter increments, geometric bucket
edges, weights and levels, the crossing table, and the per-coordinate
counter columns that look up in it each message that moves a readable
bucket.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .sampling import SLICE, level_of_np

if TYPE_CHECKING:
    from .protocol import GlobalParams

# next-crossing count of a counter past its last crossing
NEVER = np.iinfo(np.int32).max


def pow_overflows(x: float, y: float) -> bool:
    """Whether the float power x**y is past the float range."""
    try:
        return not math.isfinite(x**y)
    except OverflowError:
        return True


class Crossings(NamedTuple):
    """A crossing table: one entry per crossing, in ascending order of
    at = base + count, where base[copy * n_levels + level] spaces the
    (copy, level) keys n + 1 apart, a copy's levels in descending order."""

    at: np.ndarray
    left: np.ndarray  # the readable bucket left, -1 for none
    entered: np.ndarray  # the readable bucket entered, -1 for none
    next: np.ndarray  # the key's next crossing count, NEVER past its last
    base: np.ndarray  # by key
    first: np.ndarray  # by key: the first crossing count, NEVER for none


class Buckets:
    """Bucket machinery of one threshold instance or, copy after copy, of a
    ladder's instances, built in numpy a run of whole copies at a time (see
    _runs): each copy's eta (as given), per-level counter increments u,
    bucket cap h_cap, and bucket edges, weights and levels; and, on first
    use, one crossing table for every copy.

    Copy c owns slots off[c] .. off[c] + h_cap[c] + 1 of the flat bucket
    arrays; its last slot holds only edge h_cap + 1, and level -1. Scalar
    powers and logs run in Python, once per copy or once per h, and the
    rest elementwise: the same IEEE operations, in the same order, as one
    copy at a time (`sampling.level_of` for the levels).
    """

    def __init__(self, params: GlobalParams, tau: Sequence[float],
                 eta: Sequence[float]) -> None:
        p, b, gamma, n = params.p, params.b, params.gamma, params.n
        zeta, self.n_levels, self.n, self.eta = 1.0 + gamma, params.l_max + 1, n, eta
        root = np.array([t ** (1.0 / p) for t in tau])
        level_div = np.array([2.0 ** (l / p) for l in range(self.n_levels)])
        self.u = np.maximum(root[:, None] / level_div / b, 1.0)
        eta_p = [e**p for e in eta]
        self.h_cap = []
        for t, e, e_p, top in zip(tau, eta, eta_p, (n * self.u[:, 0]).tolist()):
            if e_p == 0.0 or n / e_p == math.inf:
                raise ValueError(f"p={p}: eta**p at eta={e} is {e_p}, too small for the "
                                 f"bucket count log(n / eta**p)")
            h_full = math.ceil((1.0 / gamma) * math.log(n / e_p, zeta))
            h_reach = int(math.floor(math.log(top / e, zeta))) + 2 if top >= e else 1
            self.h_cap.append(h := min(h_full, h_reach))
            # the tables' extremes, checked before any is built: the level
            # ratio tau / (eta**p b) at h = 0, and zeta**(p h) at the last slot
            if t / (e_p * b) == math.inf:
                raise ValueError(f"tau={t}: its bucket tables pass the float range at eta={e}")
            if pow_overflows(zeta, p * (h + 1)):
                raise ValueError(f"n={n}: h_cap={h} puts its bucket weights "
                                 f"(1+gamma)**(p*(h_cap+1)) past the float range")

        sizes = np.array(self.h_cap) + 2
        self.off = np.concatenate(([0], np.cumsum(sizes)))
        # powers of zeta, once per h: numpy's for edges and weights, and
        # Python's for the levels, as in level_of
        hs = np.arange(sizes.max(), dtype=np.float64)
        zeta_h, zeta_ph = zeta**hs, zeta ** (p * hs)
        level_ph = np.array([zeta ** (p * h) for h in range(hs.size)])
        tau, eta, eta_p = np.array(tau), np.array(eta), np.array(eta_p)
        self.edge, self.weight = np.empty(self.off[-1]), np.empty(self.off[-1])
        self.lvl = np.empty(self.off[-1], dtype=np.int32)
        for lo, hi in self._runs():
            run = slice(self.off[lo], self.off[hi])
            copy, h = self._slots(lo, hi)
            self.edge[run] = eta[copy] * zeta_h[h]
            self.weight[run] = eta_p[copy] * zeta_ph[h]
            self.lvl[run] = level_of_np(tau[copy], eta_p[copy] * level_ph[h] * b,
                                        params.l_max)
        self.lvl[self.off[1:] - 1] = -1

    def _runs(self) -> list[tuple[int, int]]:
        """Runs of whole copies lo .. hi - 1 of about SLICE bucket slots,
        over which the tables are built: over a whole ladder at once, the
        build's temporaries raise the peak RSS by several MB."""
        runs = np.flatnonzero(np.diff(self.off[:-1] // SLICE, prepend=-1)).tolist()
        return list(zip(runs, [*runs[1:], len(self.h_cap)]))

    def _slots(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Each bucket slot's copy and h, over copies lo .. hi - 1."""
        copy = np.repeat(np.arange(lo, hi), np.diff(self.off[lo : hi + 1]))
        return copy, np.arange(self.off[lo], self.off[hi]) - self.off[copy]

    @functools.cached_property
    def crossings(self) -> Crossings:
        """Every copy's crossings: for each (copy, level), the ascending
        counts c in 1..n at which a counter of that level going from c - 1
        to c leaves or enters a bucket readable at the level, and at each,
        the readable bucket left and the one entered.

        A copy's bucket levels never rise with h (level_of is nonincreasing
        in h), so with its keys in descending level order the runs list
        their crossings in slot order already sorted."""
        parts = [self._solve(lo, hi) for lo, hi in self._runs()]
        at, left, entered, key, count = map(np.concatenate, zip(*parts))
        head = np.diff(key, prepend=-1) != 0
        nxt = np.full(count.size, NEVER, dtype=np.int32)
        nxt[:-1] = np.where(head[1:], NEVER, count[1:])
        first = np.full(len(self.h_cap) * self.n_levels, NEVER, dtype=np.int32)
        first[key[head]] = count[head]
        base = (np.arange(len(self.h_cap))[:, None] * self.n_levels
                + np.arange(self.n_levels)[::-1])
        return Crossings(at, left, entered, nxt, base.ravel() * (self.n + 1), first)

    def _solve(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """The crossings of copies lo .. hi - 1, in order: at, left, entered,
        (copy, level) key and count.

        x(e) is the least count whose value reaches bucket edge e, in the
        float products that bucket_of_value is given. Counts in
        [x(h), x(h + 1)) lie in bucket h, readable at its level, and at one
        level these ranges ascend with h. So each edge is solved once: a
        bucket's upper edge is the next one's lower edge when both share a
        level, and only a band's last bucket (the next is at a lower level,
        or is the copy's last slot) solves its upper edge on its own. A
        nonempty bucket is entered at x(h) and left at x(h + 1), past n
        never; the leave of one and the enter of the key's next nonempty
        bucket fall on one count and are one crossing."""
        n_levels, stride, past = self.n_levels, self.n + 1, float(self.n + 1)
        start = self.off[lo]
        lvl = self.lvl[start : self.off[hi]]
        slot = np.flatnonzero(lvl >= 0)  # all but each copy's last slot
        copy = np.repeat(np.arange(lo, hi), np.diff(self.off[lo : hi + 1]) - 1)
        level = lvl[slot]
        key = copy * n_levels + level
        end = np.flatnonzero(lvl[slot + 1] != level)
        u = self.u.ravel()[np.concatenate((key, key[end]))]
        edge = self.edge[start + np.concatenate((slot, slot[end] + 1))]
        x = np.clip(np.ceil(edge / u), 1.0, past)
        while (low := (x < past) & (x * u < edge)).any():
            x += low
        while (high := (x > 1.0) & ((x - 1.0) * u >= edge)).any():
            x -= high
        enter, leave = x[: slot.size], np.empty(slot.size)
        leave[:-1], leave[end] = enter[1:], x[slot.size :]
        full = np.flatnonzero(enter < leave)
        key, level, enter, leave = key[full], level[full], enter[full], leave[full]
        h = (slot[full] + start - self.off[copy[full]]).astype(np.int32)
        # an (enter, leave) pair of entries per nonempty bucket, and one
        # index sel of those kept: a key's first bucket is entered from
        # none, a later one by the crossing that leaves the one before it
        head = np.diff(key, prepend=-1) != 0
        into = np.roll(np.where(head, -1, h), -1)
        sel = np.flatnonzero(np.column_stack((head, leave < past)))
        count = np.column_stack((enter, leave)).ravel()[sel].astype(np.int32)
        left = np.column_stack((np.full_like(h, -1), h)).ravel()[sel]
        entered = np.column_stack((h, into)).ravel()[sel]
        key, level = key[sel >> 1], level[sel >> 1]
        at = (key + (n_levels - 1) - 2 * level) * stride + count
        return at, left, entered, key.astype(np.int32), count


class Columns:
    """Message counters of every copy of a Buckets, per coordinate. A flat
    row is one (copy, z, l); by_j[j] holds the ascending flat rows that take
    coordinate j's messages (a Monitor's: those whose level set held j among
    the rows live when the run of events that first reached j was fanned
    out) and, aligned with them, each row's message count and the count at
    its next crossing. Building it builds the crossing table, in which a
    Monitor's run looks up its crossing messages before it hands each to
    its copy's apply(). Holds no reference to the copies or their Monitor,
    which point here."""

    def __init__(self, buckets: Buckets, r: int) -> None:
        n_levels = buckets.n_levels
        self.buckets, self.n_levels, self.block = buckets, n_levels, r * n_levels
        self.table = t = buckets.crossings
        # each flat row's first crossing count, and its (copy, level) key's
        # base in the crossing table's `at` values
        shape = (len(buckets.h_cap), r, n_levels)
        self.first = np.broadcast_to(t.first.reshape(-1, 1, n_levels), shape).ravel()
        self.row_at = np.broadcast_to(t.base.reshape(-1, 1, n_levels), shape).ravel()
        self.by_j: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.med = np.zeros(buckets.off[-1])  # each copy's medians, by slot
        self.read_out: dict[int, dict[tuple[int, int, int], int]] | None = None

    def add(self, js: Sequence[int], rows: np.ndarray, ends: Sequence[int]) -> None:
        """Columns of new coordinates js, at count 0: js[i]'s rows are
        rows[ends[i - 1]:ends[i]]."""
        count, nxt = np.zeros(rows.size, dtype=np.int32), np.take(self.first, rows)
        for j, lo, hi in zip(js, [0, *ends], ends):
            self.by_j[j] = (rows[lo:hi], count[lo:hi], nxt[lo:hi])

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
