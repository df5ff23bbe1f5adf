"""Estimator-side reductions: turning approximate aggregates back into
decisions and equivalent-norm estimates.

Covers the blockwise-XOR decision from three moment readings, distinct-count
recovery of an intersection total, and the Gaussian sketch that rewrites an
l_2 norm as an l_p moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hardgen import BtxInstance, btx_to_stream
from .harness import exact_fp_of_events
from .sampling import SALT_EMBED, derive


@dataclass(frozen=True)
class MomentTriple:
    """F_p readings of the union over all sites (w0), the first half of the
    sites (w1), and the second half (w2)."""

    w0: float
    w1: float
    w2: float


def btx_moments(inst: BtxInstance, p: Optional[float] = None) -> MomentTriple:
    """Exact-oracle moment triple of a blockwise-XOR instance."""
    p = inst.p if p is None else p
    events, _ = btx_to_stream(inst)
    # the stream is site-major: its first events are the first half's ones
    cut = int(np.count_nonzero(inst.matrices[:, : inst.k // 2]))
    return MomentTriple(*(float(exact_fp_of_events(part, p))
                          for part in (events, events[:cut], events[cut:])))


def btx_from_moments(t: MomentTriple, k: int, p: float,
                     eps: float) -> int:
    """Blockwise-XOR decision from the three moments: the combination
    w = (2**(p-1) (w1 + w2) - w0) / (2**(p-1) - 1) cancels the singleton
    mass, leaving the special columns; compare 2**p w / k**p against its
    centered value (2**p + 1)/(2 eps**2) with margin 1.5/eps."""
    if not p > 1:
        raise ValueError(f"moment order p must exceed 1, got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    scale = 2.0 ** (p - 1)
    w = (scale * (t.w1 + t.w2) - t.w0) / (scale - 1.0)
    centered = 2.0**p * w / float(k) ** p - (2.0**p + 1.0) / (2.0 * eps**2)
    return 1 if abs(centered) >= 1.5 / eps else 0


# -- distinct-count recovery --------------------------------------------------


def expected_distinct(n_balls: int, n_bins: int) -> float:
    """Expected number of occupied bins after n_balls uniform throws:
    n_bins * (1 - (1 - 1/n_bins)**n_balls)."""
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    if n_balls < 0:
        raise ValueError(f"ball count must be nonnegative, got {n_balls}")
    return n_bins * (1.0 - (1.0 - 1.0 / n_bins) ** n_balls)


def collision_rate(n_balls: int, n_bins: int) -> float:
    """lambda with E[occupied] = (1 - lambda) * n_balls."""
    if n_balls < 1:
        raise ValueError(f"need at least one ball, got {n_balls}")
    return 1.0 - expected_distinct(n_balls, n_bins) / n_balls


def bit_from_f0(w_tilde: float, nprime: int, lprime: int, lam: float) -> float:
    """Recover the intersection total from a distinct-count reading:
    (w_tilde - (nprime - lprime)) / (1 - lam)."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"collision rate lambda must be in [0, 1), got {lam}")
    return (w_tilde - (nprime - lprime)) / (1.0 - lam)


# -- Gaussian sketch -----------------------------------------------------------


def gp_moment(p: float) -> float:
    """E|N(0,1)|**p = 2**(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if not p > 0:
        raise ValueError(f"moment order p must be positive, got {p}")
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def _moment_kappa(p: float) -> float:
    """Relative variance of one |y_j|**p reading: G_{2p} / G_p**2 - 1."""
    return gp_moment(2.0 * p) / gp_moment(p) ** 2 - 1.0


def embed_readings(p: float, eps: float) -> int:
    """Readings r for a (1 +- eps/3) mean-of-|y|**p estimate of ||x||_2**p.

    The mean of r readings has relative variance kappa_p / r, and kappa_p
    grows with p (kappa_2 = 2, kappa_3 ~ 4.89). r = 64/eps**2 puts the eps/3
    tolerance at 1.89 standard errors for p = 2; r is scaled by
    kappa_p / kappa_2 for p > 2 so every p gets that same margin, and p <= 2
    keeps 64/eps**2.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    scale = max(1.0, _moment_kappa(p) / _moment_kappa(2.0))
    return round(64.0 / eps**2 * scale)


def gaussian_embed(x: Sequence[float], r: int, p: float, seed: int) -> np.ndarray:
    """r readings y_j = <v_j, x> / G_p**(1/p) with i.i.d. standard normal
    v_j, so E|y_j|**p = ||x||_2**p.

    Their mean |y_j|**p lands within (1 +- eps/3) of ||x||_2**p on at least
    about 94% of seeds when r = embed_readings(p, eps); at p = 3 that is
    2.45x the 64/eps**2 readings that suffice for p <= 2.
    """
    if r < 1:
        raise ValueError(f"need at least one reading, got {r}")
    gp = gp_moment(p)
    rng = np.random.Generator(np.random.PCG64(derive(seed, SALT_EMBED)))
    v = rng.standard_normal((r, len(x)))
    return (v @ np.asarray(x, dtype=np.float64)) / gp ** (1.0 / p)


def embed_norm_estimate(y: np.ndarray, p: float) -> float:
    """Estimate of ||x||_2**p from the readings: the mean of |y_j|**p."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ValueError("no readings")
    return float(np.mean(np.abs(y) ** p))
