"""One-way threshold protocol for frequency moments F_p over k sites.

Each site forwards a sampled, probabilistically thinned view of its local
updates; the coordinator maintains per-repetition counters, groups them into
geometric value classes, and raises its output bit once the class-weighted
sum of medians crosses the firing line just below tau.

Sites send messages to the coordinator. The coordinator's one signal back
is a fire notice: once a copy fires, its rows at the sites send nothing more
(the notice is not billed yet).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .buckets import Buckets, Columns, pow_overflows
from .sampling import (
    SALT_COIN,
    SALT_INSTANCE,
    SALT_SEND,
    SLICE,
    coordinate_key_np,
    derive,
    derive_np,
    finish64_np,
    member_threshold,
    premix64,
    premix64_np,
    unit_open_zero,
)

_TWO53 = 2.0**53
C_FIRE = 0.25  # an instance fires once its estimate exceeds (1 - C_FIRE * eps) * tau


def ceil_log2(x: int) -> int:
    """Smallest c with 2**c >= x, for integer x >= 1."""
    if x < 1:
        raise ValueError(f"ceil_log2 needs x >= 1, got {x}")
    return (x - 1).bit_length()


def check_tau(tau: float) -> None:
    """Reject a threshold that is not a finite number >= 1."""
    if not 1.0 <= tau < math.inf:
        raise ValueError(f"threshold tau must be finite and >= 1, got {tau}")


def as_int(value, name: str) -> int:
    """value as a Python int, if it is an integer (a numpy integer too, but
    not a bool or a float, even an integral one)."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value}")


@dataclass
class GlobalParams:
    """Resolved run configuration shared by sites and coordinator.

    Required: k sites (power of two), universe size m, stream-length bound n,
    moment order p > 1, accuracy eps in (0, 1). tau is required for a single
    threshold run and ignored by the monitor ladder.

    Optional knobs resolve in __post_init__: the counter resolution b
    defaults to 64 (or c_b * eps**-3 * ceil(log2 n)**2, floored at 8, when
    c_b is given); the repetition count r defaults to 5 * ceil(log2 n); the
    ladder's top rung i_max defaults to ceil(log_{1+eps}(n**2 * 2**p)), and
    its odd amplification a to 2 * ceil(0.15 * ln(10 * max(i_max, 1))) + 1.
    Not settable: the bucket width gamma = eps/10, l_max = ceil(log2 m), and
    the fire line (1 - C_FIRE * eps) * tau, which the estimate must exceed.
    The integer fields k, m, n, r, seed, a and i_max take Python or numpy
    integers, kept as int; a float or a bool there is a ValueError.
    """

    k: int
    m: int
    n: int
    p: float
    eps: float
    tau: Optional[float] = None
    b: Optional[float] = None
    c_b: Optional[float] = None
    r: Optional[int] = None
    seed: int = 0
    a: Optional[int] = None
    i_max: Optional[int] = None
    gamma: float = field(init=False)
    l_max: int = field(init=False)

    def __post_init__(self) -> None:
        for name in ("k", "m", "n", "r", "seed", "a", "i_max"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, as_int(value, name))
        for name in ("p", "tau", "b", "c_b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k < 1 or (self.k & (self.k - 1)) != 0:
            raise ValueError(f"k must be a power of two, got {self.k}")
        if self.m < 2:
            raise ValueError(f"universe size m must be >= 2, got {self.m}")
        if self.n < 2:
            raise ValueError(f"stream bound n must be >= 2, got {self.n}")
        try:
            float(self.n)
        except OverflowError:
            raise ValueError(f"stream bound n={self.n} is past the float range") from None
        if not self.p > 1:
            raise ValueError(f"moment order p must exceed 1, got {self.p}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.tau is not None:
            check_tau(self.tau)
        if self.b is None:
            if self.c_b is not None:
                self.b = max(8.0, self.c_b * self.eps**-3 * ceil_log2(self.n) ** 2)
            else:
                self.b = 64.0
        if self.b < 1.0:
            raise ValueError(f"counter resolution b must be >= 1, got {self.b}")
        if self.r is None:
            self.r = 5 * ceil_log2(self.n)
        if self.r < 1:
            raise ValueError(f"repetition count r must be >= 1, got {self.r}")
        self.gamma = self.eps / 10.0
        self.l_max = ceil_log2(self.m)
        if self.i_max is None:
            try:
                self.i_max = math.ceil(math.log(self.n**2 * 2.0**self.p, 1.0 + self.eps))
            except OverflowError:
                raise ValueError(f"n={self.n}, p={self.p}: the default i_max, log_(1+eps) of "
                                 f"n**2 * 2**p, is past the float range") from None
        if self.i_max < 0:
            raise ValueError(f"i_max must be >= 0, got {self.i_max}")
        # the largest value a ladder computes: its estimate once the top rung
        # (1+eps)**i_max fires
        if pow_overflows(1.0 + self.eps, self.i_max + 0.5):
            raise ValueError(f"i_max={self.i_max}: top rung estimate (1+eps)**(i_max+0.5) "
                             f"= {1.0 + self.eps}**{self.i_max + 0.5} is not a finite float")
        if self.a is None:
            self.a = 2 * math.ceil(0.15 * math.log(max(self.i_max, 1) * 10)) + 1
        if self.a < 1 or self.a % 2 == 0:
            raise ValueError(f"amplification a must be odd and >= 1, got {self.a}")

    def message_bits(self, n_streams: int = 1) -> int:
        """Bits per message: coordinate + repetition + level identifiers,
        plus a stream identifier when several protocol copies multiplex."""
        bits = ceil_log2(self.m) + ceil_log2(self.r) + ceil_log2(self.l_max + 1)
        if n_streams > 1:
            bits += ceil_log2(n_streams)
        return bits


class FanRows:
    """Per-(z, l) site-side arrays in canonical order (z-major, then l), one
    block per instance, for one instance or a ladder of instances.

    Shared by every site: the guard and thinning limit depend only on the
    instance and level, membership and send trials are keyed per (z, l) and
    hashed with the coordinate and event keys at use time. tau, coin and
    send_seed are equal-length sequences of the instances' thresholds,
    public-coin master seeds and send seeds.

    The coin and send keys are stored premixed (coin_pm, send_pm: see
    sampling.premix64), so each row's hash starts with one xor. A send hash
    h passes the thinning trial iff h <= send_lim, the integer form of
    (h >> 11) < q * 2**53 for the row's send probability
    q = min(b / tau_l^(1/p), 1) (see send_limit).
    """

    def __init__(self, params: GlobalParams, tau: Sequence[float],
                 coin: Sequence[int], send_seed: Sequence[int]) -> None:
        r, n_levels = params.r, params.l_max + 1
        self.shape = shape = (len(coin), r, n_levels)
        self.size = shape[0] * r * n_levels
        z = np.arange(1, r + 1, dtype=np.int32)[None, :, None]
        l = np.arange(n_levels, dtype=np.int32)[None, None, :]
        seeds = np.asarray(coin, dtype=np.uint64)[:, None, None]
        self.coin_pm = premix64_np(derive_np(seeds, SALT_COIN, z, l).ravel())
        seeds = np.asarray(send_seed, dtype=np.uint64)[:, None, None]
        self.send_pm = premix64_np(derive_np(seeds, SALT_SEND, z, l).ravel())
        # row i's member threshold is member_tile[i % n_levels], and the tile
        # is long enough for a slice of up to SLICE rows from any row
        thresh = np.array([member_threshold(v) for v in range(n_levels)], dtype=np.uint64)
        self.member_tile = np.tile(thresh, -(-min(SLICE, self.size) // n_levels) + 1)
        # scalar powers in Python, the rest elementwise on the (instance,
        # level) grid: the same IEEE operations, in the same order, as one
        # row at a time
        root = np.array([float(t) ** (1.0 / params.p) for t in tau])[:, None, None]
        tau_l_root = root / np.array([2.0 ** (v / params.p) for v in range(n_levels)])
        self._guard = tau_l_root / (params.k * params.b)
        qscaled = np.minimum(params.b / tau_l_root, 1.0) * _TWO53
        self.send_lim = np.broadcast_to(send_limit(qscaled), shape).ravel()

    def guards(self) -> np.ndarray:
        """A new array of each row's guard tau_l^(1/p) / (k b); a Monitor's
        gate starts as one."""
        return np.broadcast_to(self._guard, self.shape).flatten()


def send_limit(qscaled: np.ndarray) -> np.ndarray:
    """The largest send hash h that passes the thinning trial
    (h >> 11) < qscaled, for 0 < qscaled <= 2**53: the trial is
    u < ceil(qscaled) for the integer u = h >> 11, that is
    h <= (ceil(qscaled) << 11) - 1. At qscaled = 2**53 (q = 1) the shift
    wraps to 0 and the limit is 2**64 - 1, so every h passes."""
    c = np.ceil(np.asarray(qscaled, dtype=np.float64)).astype(np.uint64)
    return (c << np.uint64(11)) - np.uint64(1)


def members(rows: FanRows, keys: np.ndarray, js) -> np.ndarray:
    """(len(js), keys.size) mask: whether the level set of each row, given
    by its premixed coin key, holds each coordinate of js. keys are those
    of whole blocks of rows, so that keys[i] is at level i % n_levels.

    Hashed in place, SLICE elements at a time, each slice compared against
    a contiguous stretch of rows.member_tile. mix64's last step,
    y -> y ^ (y >> 31), is left out: it maps [0, 2**k) into itself and is a
    bijection, so it maps [0, 2**k) onto itself, and y < 2**k iff its image
    is. A level-l test is h < 2**(64 - l), so it gives the same answer on y
    as on mix64's h, at every level."""
    jk = premix64_np(coordinate_key_np(js))[:, None]
    tile, n_levels = rows.member_tile, rows.shape[2]
    out = np.empty((jk.size, keys.size), dtype=bool)
    step = max(1, SLICE // jk.size)
    h = np.empty((jk.size, min(step, keys.size)), dtype=np.uint64)
    scratch = np.empty_like(h)
    for lo in range(0, keys.size, step):
        hi = min(lo + step, keys.size)
        x = h[:, : hi - lo]
        np.bitwise_xor(keys[lo:hi], jk, out=x)
        finish64_np(x, scratch[:, : hi - lo], last=False)
        first = lo % n_levels
        np.less_equal(x, tile[first : first + hi - lo], out=out[:, lo:hi])
    return out


def fanout(rows: FanRows, gate: np.ndarray, count_after, ev,
           cand: np.ndarray) -> np.ndarray:
    """Ascending positions into cand of the rows that emit a message: cand
    holds flat indices of rows whose level set holds the update's
    coordinate, the post-increment count clears the row's gate, and the
    keyed thinning trial succeeds.

    gate holds each row's guard, or +inf for a row that sends nothing: a
    Monitor's gate is +inf on the rows of a silent pair, and rows.guards()
    lets every row send.

    count_after and ev are one update's scalars, or arrays aligned with
    cand that give each candidate its own update: then the result is the
    union of the per-update calls, each shifted to its candidates'
    positions."""
    idx = np.flatnonzero(np.take(gate, cand) < count_after)
    if idx.size == 0:
        return idx
    flat = np.take(cand, idx)
    ev = np.asarray(ev, dtype=np.uint64)
    h = np.take(rows.send_pm, flat)
    h ^= premix64_np(np.take(ev, idx)) if ev.ndim else np.uint64(premix64(int(ev)))
    finish64_np(h)
    return idx[h <= np.take(rows.send_lim, flat)]


class ThresholdInstance:
    """Coordinator state for one threshold tau.

    Counters are exact rationals in disguise: each (z, l, j) holds an integer
    message count, and the counter value is count * u_l with a fixed
    per-level increment u_l = max(tau_l**(1/p) / b, 1), the reciprocal of the
    thinning probability, so each delivered message contributes one expected
    unit of local count.

    Estimation groups counter values into geometric buckets
    [eta * (1+gamma)**h, eta * (1+gamma)**(h+1)), reads bucket h at the level
    matched to its sampling rate, takes the lower median over repetitions of
    2**l * |bucket population|, and sums medians weighted by
    eta**p * (1+gamma)**(p h). Only a message that takes its counter into or
    out of a readable bucket can move a median, and each such message moves
    one or two histograms and their medians.

    Counters live in a buckets.Columns, whose owner bumps them and calls
    apply(), the coordinator step, only at the counts that its crossing
    table lists: a Monitor's run is the one caller that delivers messages.
    A ladder copy is copy `pair` of its Monitor's Columns and Buckets, and
    its seeds are its Monitor's FanRows keys. A standalone instance is the
    one-copy case, at copy (0, 0)'s eta: its own Buckets, and on first use
    Columns. counts and messages_received are read from the columns.
    """

    def __init__(self, params: GlobalParams, tau: Optional[float] = None,
                 columns: Optional[Columns] = None, pair: int = 0) -> None:
        self.params = params
        self.tau = params.tau if tau is None else tau
        if self.tau is None:
            raise ValueError("threshold tau is required")
        check_tau(self.tau)
        self._pair = pair

        # per-level counter increments u_l (subsampled levels have u_l > 1),
        # bucket tables and medians: a ladder copy's are its Monitor's
        if columns is not None:
            self.columns, buckets = columns, columns.buckets
        else:
            eta = unit_open_zero(derive(params.seed, SALT_INSTANCE, 0, 0, 2))
            buckets = Buckets(params, [self.tau], [eta])
        self._buckets, self.eta = buckets, buckets.eta[pair]
        self.u = buckets.u[pair]
        self.h_cap = h_cap = buckets.h_cap[pair]
        lo = int(buckets.off[pair])
        self.edge = buckets.edge[lo : lo + h_cap + 2]
        self.weight = buckets.weight[lo : lo + h_cap + 1]
        self.lvl_of_h = buckets.lvl[lo : lo + h_cap + 1]
        self.med = buckets.med[lo : lo + h_cap + 1]
        self.fire_line = (1.0 - C_FIRE * params.eps) * self.tau
        self._r, self._med_idx = params.r, (params.r - 1) // 2

        self.hist: dict[int, list[int]] = {}
        self.est = 0.0
        self.out = 0  # 1 once fired; a fired copy takes no more messages
        self.dropped = 0
        self.est_decreases = 0

    @functools.cached_property
    def columns(self) -> Columns:
        """The counters; a standalone instance builds its own on first use."""
        return Columns(self._buckets, self.params.r)

    @property
    def counts(self) -> dict[tuple[int, int, int], int]:
        """(z, l, j) -> message count, for every counter that has one."""
        return self.columns.counts_of(self._pair)

    @property
    def messages_received(self) -> int:
        """Messages delivered while live; each bumped one counter by one."""
        return sum(self.counts.values())

    # -- bucket helpers ----------------------------------------------------

    def bucket_of_value(self, value: float) -> int:
        """Bucket index of a counter value; -1 below the first edge,
        h_cap + 1 beyond the last tracked edge."""
        return int(np.searchsorted(self.edge, value, side="right")) - 1

    # -- estimation --------------------------------------------------------

    def _hist_set(self, h: int, z: int, delta: int) -> bool:
        """Step |bucket h| for repetition z by delta = +-1; True if the
        median moved.

        hist[h] holds the r counts, then the lower median m (sorted index
        (r-1)//2), then how many counts lie below m and at or below it. A
        step moves m by at most one: up when a count at m rises and too few
        stay at or below it, down when a count at m falls and too many lie
        below it."""
        r, k = self._r, self._med_idx
        arr = self.hist.get(h)
        if arr is None:
            arr = self.hist[h] = [0] * r + [0, 0, r]
        v = arr[z - 1]
        arr[z - 1] = v + delta
        m = arr[r]
        if delta > 0:
            if v == m - 1:
                arr[r + 1] -= 1
            elif v == m:
                arr[r + 2] -= 1
                if arr[r + 2] == k:
                    m += 1
                    arr[r : r + 3] = m, k, k + arr[:r].count(m)
                    self.med[h] = float(m << int(self.lvl_of_h[h]))
                    return True
        elif v == m + 1:
            arr[r + 2] += 1
        elif v == m:
            arr[r + 1] += 1
            if arr[r + 1] == k + 1:
                m -= 1
                arr[r : r + 3] = m, k + 1 - arr[:r].count(m), k + 1
                self.med[h] = float(m << int(self.lvl_of_h[h]))
                return True
        return False

    # -- coordinator step ---------------------------------------------------

    def apply(self, z: int, left: int, entered: int) -> bool:
        """Apply one crossing message: a repetition-z counter has just left
        readable bucket `left` and entered readable bucket `entered` (-1 for
        none). Moves the histograms, medians and estimate, and returns True
        exactly when this fires the output bit. A message that crosses no
        readable bucket edge changes no median, so nothing else comes here;
        the caller bumps the counter and drops a fired copy's messages."""
        changed = False
        if left >= 0:
            changed |= self._hist_set(left, z, -1)
        if entered >= 0:
            changed |= self._hist_set(entered, z, +1)
        if not changed:
            return False
        new_est = float(np.dot(self.med, self.weight))
        if new_est < self.est:
            self.est_decreases += 1
        self.est = new_est
        if self.est > self.fire_line:
            self.out = 1
            return True
        return False
