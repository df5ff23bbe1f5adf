"""Bucket machinery of threshold instances, for one instance or a whole
ladder of copies at once: per-level counter increments, geometric bucket
edges, weights and levels, the crossing table, and the per-coordinate
counter columns that look up in it each message that moves a readable
bucket.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Mapping
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .sampling import SLICE, level_of_np

CHUNK = 1 << 20  # entries per chunk of a pooled Columns

if TYPE_CHECKING:
    from .protocol import GlobalParams


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
    next: np.ndarray  # the key's next crossing count, Buckets.never past its last
    base: np.ndarray  # by key
    first: np.ndarray  # by key: the first crossing count, Buckets.never for none


class Buckets:
    """Bucket machinery of one threshold instance or, copy after copy, of a
    ladder's instances, built in numpy a run of whole copies at a time (see
    _runs): each copy's eta (as given), per-level counter increments u,
    bucket cap h_cap, bucket edges, weights and levels, and medians that
    the copies keep; and, on first use, one crossing table for every copy.

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
        # every count table's dtype: no count passes n, and never means no crossing
        self.count_dtype = np.dtype(np.int16 if n < np.iinfo(np.int16).max else np.int32)
        self.never = int(np.iinfo(self.count_dtype).max)
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
        self.med = np.zeros(self.off[-1])  # each copy's bucket medians

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
        nxt = np.full(count.size, self.never, dtype=self.count_dtype)
        nxt[:-1] = np.where(head[1:], self.never, count[1:])
        first = np.full(len(self.h_cap) * self.n_levels, self.never, dtype=self.count_dtype)
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
        count = np.column_stack((enter, leave)).ravel()[sel].astype(self.count_dtype)
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
    which point here.

    Each column array has the narrowest dtype that the run's own bounds
    allow, on one code path. Counts and next crossings are in the Buckets'
    count_dtype, as first, each flat row's first crossing count, and the
    crossing table are, so new entries and crossing write-backs need no
    cast. Row ids are uint16 when there are at most 65,535 rows, so that a
    copy's end row fits too, else int32. An entry takes 6 bytes on the
    bench's monitor ladders (45,045 and 47,385 rows at n = 500) and 8 in
    the criterion-2 regime (69,030 rows at n = 20000): there, 12 bytes made
    its 26,286,287 entries 315 MB of a 365 MB peak RSS, and the peak is now
    267 MB.

    Where the columns live depends on the number of rows. On at most
    SLICE // 2 rows (pooled), a Monitor runs many events at a time, and
    the columns are slices of a pool of (rows, count, nxt) chunks of
    max(CHUNK, rows) entries, which never move: span[j] is column j's
    (lo, hi) pool positions, chunk lo // chunk_size, so that a run gathers
    and scatters its columns with one index per chunk it touches (gather,
    take, put), and by_j makes a column's views when it is read. On more
    rows, a Monitor runs one event at a time, and each
    add() allocates one array triple for its columns: a fresh chunk costs
    page faults and peak RSS that one-event runs do not win back."""

    def __init__(self, buckets: Buckets, r: int) -> None:
        n_levels = buckets.n_levels
        self.buckets, self.n_levels, self.block = buckets, n_levels, r * n_levels
        self.table = t = buckets.crossings
        # each flat row's first crossing count, and its (copy, level) key's
        # base in the crossing table's `at` values
        shape = (len(buckets.h_cap), r, n_levels)
        self.first = np.broadcast_to(t.first.reshape(-1, 1, n_levels), shape).ravel()
        self.row_at = np.broadcast_to(t.base.reshape(-1, 1, n_levels), shape).ravel()
        few = self.first.size <= np.iinfo(np.uint16).max
        self.row_dtype = np.dtype(np.uint16 if few else np.int32)
        self.read_out: dict[int, dict[tuple[int, int, int], int]] | None = None
        self.pooled = self.first.size <= SLICE // 2
        # a column holds at most every row, so it fits in one chunk
        self.chunk_size = max(CHUNK, self.first.size)
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.span: dict[int, tuple[int, int]] = {}
        self._fill = 0  # pool positions used, up to the last chunk's end
        self.by_j: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] | PoolView = \
            PoolView(self.span, self.chunks, self.chunk_size) if self.pooled else {}

    def add(self, js: Sequence[int], rows: np.ndarray, ends: Sequence[int]) -> None:
        """Columns of new coordinates js, at count 0: js[i]'s rows are
        rows[ends[i - 1]:ends[i]], in row_dtype."""
        ends = list(ends)
        starts = [0, *ends[:-1]]
        if not self.pooled:
            count = np.zeros(rows.size, dtype=self.first.dtype)
            nxt = np.take(self.first, rows)
            self.by_j.update((j, (rows[lo:hi], count[lo:hi], nxt[lo:hi]))
                             for j, lo, hi in zip(js, starts, ends))
            return
        size, i = self.chunk_size, 0
        while i < len(js):
            # columns i .. k - 1 fit in what is left of the last chunk
            room = len(self.chunks) * size - self._fill
            k = bisect.bisect_right(ends, starts[i] + room, i)
            if k == i or room == 0:
                self._fill = len(self.chunks) * size
                self.chunks.append((np.empty(size, dtype=self.row_dtype),
                                    np.empty(size, dtype=self.first.dtype),
                                    np.empty(size, dtype=self.first.dtype)))
                continue
            lo, hi, at = starts[i], ends[k - 1], self._fill % size
            r, count, nxt = self.chunks[-1]
            r[at : at + hi - lo] = rows[lo:hi]
            count[at : at + hi - lo] = 0
            np.take(self.first, rows[lo:hi], out=nxt[at : at + hi - lo])
            shift = self._fill - lo
            self.span.update(zip(js[i:k], zip([shift + a for a in starts[i:k]],
                                              [shift + b for b in ends[i:k]])))
            self._fill += hi - lo
            i = k

    def gather(self, js: Sequence[int]) -> tuple[np.ndarray, np.ndarray, range]:
        """The pool positions of the columns of js, one after another, each
        column's end among them, and the chunks they touch."""
        lo, hi = (np.array(x) for x in zip(*map(self.span.__getitem__, js)))
        sizes = hi - lo
        ends = np.cumsum(sizes)
        where = np.arange(ends[-1]) + np.repeat(lo - (ends - sizes), sizes)
        size = self.chunk_size
        return where, ends, range(int(lo.min()) // size, int(hi.max() - 1) // size + 1)

    def take(self, field: int, where: np.ndarray, chunks: range) -> np.ndarray:
        """Field 0 (rows), 1 (count) or 2 (nxt) at pool positions where,
        which lie in chunks."""
        size = self.chunk_size
        if len(chunks) == 1:
            return self.chunks[chunks[0]][field][where - chunks[0] * size]
        out = np.empty(where.size, dtype=self.chunks[0][field].dtype)
        for c, sel in self._split(where, chunks):
            out[sel] = self.chunks[c][field][where[sel] - c * size]
        return out

    def put(self, field: int, where: np.ndarray, values: np.ndarray, chunks: range,
            at_most_once: bool = True) -> None:
        """Set field 1 (count) or 2 (nxt) at pool positions where to values.
        Unless each position is there at most once, each takes its largest
        value: numpy leaves the order of a repeated-index assignment
        undefined, and a counter's counts and next crossings only rise."""
        size = self.chunk_size
        for c, sel in self._split(where, chunks):
            arr, at = self.chunks[c][field], where[sel] - c * size
            if at_most_once:
                arr[at] = values[sel]
            else:
                np.maximum.at(arr, at, values[sel])

    def _split(self, where: np.ndarray, chunks: range):
        """(chunk, positions of where in it) for each chunk of chunks."""
        if len(chunks) == 1:
            yield chunks[0], slice(None)
            return
        of = where // self.chunk_size
        for c in chunks:
            yield c, np.flatnonzero(of == c)

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


class PoolView(Mapping):
    """A pooled Columns' by_j: column j's (rows, count, nxt), as views of
    its chunk, made when read. It holds the pool's span and chunks, not
    the Columns, so that no reference cycle keeps a pool alive."""

    def __init__(self, span: dict[int, tuple[int, int]],
                 chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], size: int) -> None:
        self.span, self.chunks, self.size = span, chunks, size

    def __getitem__(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi = self.span[j]
        c, at = divmod(lo, self.size)
        return tuple(x[at : at + hi - lo] for x in self.chunks[c])

    def __contains__(self, j: object) -> bool:
        return j in self.span

    def __iter__(self):
        return iter(self.span)

    def __len__(self) -> int:
        return len(self.span)
