"""Exact reference computations on frequency vectors and multisets.

These are the ground-truth quantities the protocol approximates: frequency
moments, distinct counts, quantiles, heavy hitters, and empirical entropy.
Integer powers are evaluated in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def _check_p(p: float) -> None:
    if not p > 0:
        raise ValueError(f"moment order p must be positive, got {p}")


@dataclass
class FreqVector:
    """Sparse nonnegative frequency vector over coordinates [0, m)."""

    m: int
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"dimension m must be >= 1, got {self.m}")
        for j, c in self.counts.items():
            self._check_coord(j)
            if c < 0:
                raise ValueError(f"negative count {c} at coordinate {j}")

    def _check_coord(self, j: int) -> None:
        if not 0 <= j < self.m:
            raise ValueError(f"coordinate {j} outside [0, {self.m})")

    def add(self, j: int, delta: int = 1) -> int:
        """Add delta to coordinate j and return the new count."""
        self._check_coord(j)
        c = self.counts.get(j, 0) + delta
        if c < 0:
            raise ValueError(f"count at {j} would become negative")
        if c == 0:
            self.counts.pop(j, None)
        else:
            self.counts[j] = c
        return c

    def total(self) -> int:
        return sum(self.counts.values())

    def copy(self) -> "FreqVector":
        return FreqVector(self.m, dict(self.counts))


@dataclass
class SignedMultiset:
    """Sequence of (item, sign) updates with sign in {+1, -1}."""

    items: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for item, sign in self.items:
            if sign not in (1, -1):
                raise ValueError(f"sign for item {item} must be +1 or -1, got {sign}")

    def freqs(self) -> dict[int, int]:
        f: dict[int, int] = {}
        for item, sign in self.items:
            f[item] = f.get(item, 0) + sign
        return {j: c for j, c in f.items() if c != 0}


def apply_update(v: FreqVector, j: int) -> FreqVector:
    """Apply one insertion of coordinate j; rejects out-of-range coordinates."""
    v.add(j, 1)
    return v


def fp_power(count: int, p: float):
    """count**p, exact for integer p."""
    if count == 0:
        return 0
    if float(p).is_integer():
        return count ** int(p)
    return float(count) ** p


def exact_fp(v: FreqVector, p: float):
    """Frequency moment F_p = sum_j count_j**p; exact int for integer p."""
    _check_p(p)
    if float(p).is_integer():
        q = int(p)
        return sum(c**q for c in v.counts.values())
    return math.fsum(float(c) ** p for c in v.counts.values())


def exact_f0(v: FreqVector) -> int:
    """Number of coordinates with nonzero count."""
    return len(v.counts)


def exact_distinct(items, universe: int) -> int:
    """Number of distinct values in an integer array over [0, universe),
    read off a boolean table of the universe."""
    items = np.asarray(items, dtype=np.int64).ravel()
    if items.size and not 0 <= items.min() <= items.max() < universe:
        raise ValueError(f"items must lie in [0, {universe})")
    seen = np.zeros(universe, dtype=bool)
    seen[items] = True
    return int(np.count_nonzero(seen))


def exact_quantile(items: Sequence[int] | Iterable[int], phi: float) -> int:
    """phi-quantile of a multiset: the smallest value x with at most phi*L
    items strictly below and at most (1-phi)*L items strictly above.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must be in [0, 1], got {phi}")
    a = sorted(items)
    if not a:
        raise ValueError("quantile of an empty multiset")
    ln = len(a)
    lo_cap = phi * ln
    hi_cap = (1.0 - phi) * ln
    # for each distinct value in order: counts strictly below / strictly above
    i = 0
    while i < ln:
        x = a[i]
        j = i
        while j < ln and a[j] == x:
            j += 1
        below, above = i, ln - j
        if below <= lo_cap and above <= hi_cap:
            return x
        i = j
    raise ValueError("no value satisfies the quantile rank bounds")


def exact_heavy_hitters(items: Sequence[int] | Iterable[int], phi: float) -> set[int]:
    """Items whose multiplicity is at least phi times the multiset size."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must be in [0, 1], got {phi}")
    f: dict[int, int] = {}
    n = 0
    for x in items:
        f[x] = f.get(x, 0) + 1
        n += 1
    if n == 0:
        raise ValueError("heavy hitters of an empty multiset")
    return {x for x, c in f.items() if c >= phi * n}


def exact_entropy(a: SignedMultiset) -> float:
    """Empirical entropy sum_j (|f_j|/L) log2(L/|f_j|) with L = sum_j |f_j|."""
    f = a.freqs()
    total = sum(abs(c) for c in f.values())
    if total == 0:
        raise ValueError("entropy undefined: all frequencies cancel to zero")
    return math.fsum(
        (abs(c) / total) * math.log2(total / abs(c)) for c in f.values()
    )
