"""Seed-keyed randomness: 64-bit mixing, shared level sets, bucket-to-level rule.

Every random decision in the simulator is a pure function of a 64-bit seed and
integer labels, so that runs replay bit-identically. The mixer is the
splitmix64 finalizer; distinct consumers are separated by salt labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Domain-separation labels, one per consumer of randomness.
SALT_COIN = 0x434F494E01
SALT_SEND = 0x53454E4402
SALT_ETA = 0x45544103
SALT_INSTANCE = 0x494E535404
SALT_STREAM = 0x5354524D05
SALT_HARD = 0x4841524406
SALT_EMBED = 0x454D424407
SALT_EVENT = 0x45564E5408

# elements per slice of a numpy pass over a whole ladder: larger temporaries
# are fresh blocks that the process has to fault in, and they raise its
# peak RSS
SLICE = 1 << 14

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def premix64(x: int) -> int:
    """mix64's first step, x ^ (x >> 30). It is linear over xor, so
    premix64(a ^ b) == premix64(a) ^ premix64(b): a key stored premixed
    meets a premixed coordinate or event key with one xor."""
    x &= MASK64
    return x ^ (x >> 30)


def premix64_np(x) -> np.ndarray:
    """premix64 over a uint64 array, into a new array."""
    x = np.asarray(x, dtype=np.uint64)
    t = x >> np.uint64(30)
    return np.bitwise_xor(x, t, out=t)


def finish64_np(x: np.ndarray, scratch: np.ndarray | None = None,
                last: bool = True) -> np.ndarray:
    """The rest of mix64, in place on a premixed uint64 array x, so that
    finish64_np(premix64_np(y)) == mix64_np(y); scratch, when given, is an
    array of x's shape for the one temporary. last=False leaves out the
    final x ^ (x >> 31), which a test h < 2**k does not need (see
    protocol.members)."""
    if scratch is None:
        scratch = np.empty_like(x)
    x *= np.uint64(_M1)
    x ^= np.right_shift(x, np.uint64(27), out=scratch)
    x *= np.uint64(_M2)
    if last:
        x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def mix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array, into a new array."""
    return finish64_np(premix64_np(x))


def derive(seed: int, *labels: int) -> int:
    """Derive an independent 64-bit subseed from a seed and integer labels."""
    h = mix64(seed ^ GOLDEN)
    for lab in labels:
        h = mix64(h ^ mix64((lab + GOLDEN) & MASK64))
    return h


def derive_np(seed, *labels) -> np.ndarray:
    """derive() element by element over broadcast uint64 arrays of seeds and
    nonnegative labels."""
    h = mix64_np(np.atleast_1d(np.asarray(seed, dtype=np.uint64)) ^ np.uint64(GOLDEN))
    for lab in labels:
        lab = np.atleast_1d(np.asarray(lab, dtype=np.uint64))
        h = mix64_np(h ^ mix64_np(lab + np.uint64(GOLDEN)))
    return h


def unit_open_zero(seed: int) -> float:
    """Uniform in (0, 1] with 53-bit precision; zero is excluded."""
    return ((mix64(seed ^ SALT_ETA) >> 11) + 1) * 2.0**-53


def unit_open_zero_np(seed: np.ndarray) -> np.ndarray:
    """unit_open_zero over a uint64 array, exactly: (h >> 11) + 1 <= 2**53
    converts to float64 without rounding."""
    h = mix64_np(seed ^ np.uint64(SALT_ETA)) >> np.uint64(11)
    return (h + np.uint64(1)) * 2.0**-53


def coordinate_key(j: int) -> int:
    """Per-coordinate hash input shared by scalar and vectorized membership."""
    return ((j + 1) * GOLDEN) & MASK64


def coordinate_key_np(js) -> np.ndarray:
    """coordinate_key over an array of coordinates."""
    return (np.asarray(js, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)


def event_key(site: int, t: int) -> int:
    """Per-(site, event) hash input for send trials."""
    return derive(SALT_EVENT, site, t)


def member_threshold(level: int) -> int:
    """Largest hash value admitted at a level; admission rate is 2**-level."""
    if level < 0 or level > 64:
        raise ValueError(f"level {level} outside [0, 64]")
    return (1 << (64 - level)) - 1


@dataclass(frozen=True)
class PublicCoin:
    """Shared level sets: coordinate j belongs to the level-l set of
    repetition z with probability 2**-l, as a pure function of
    (master_seed, z, l, j). Distinct (z, l) pairs use independent hash
    streams; the sets are not nested.
    """

    master_seed: int
    r: int
    l_max: int

    def key(self, z: int, l: int) -> int:
        if not 1 <= z <= self.r:
            raise ValueError(f"repetition index {z} outside [1, {self.r}]")
        if not 0 <= l <= self.l_max:
            raise ValueError(f"level {l} outside [0, {self.l_max}]")
        return derive(self.master_seed, SALT_COIN, z, l)

    def in_sample(self, z: int, l: int, j: int) -> bool:
        if j < 0:
            raise ValueError(f"coordinate {j} is negative")
        h = mix64(self.key(z, l) ^ coordinate_key(j))
        return h <= member_threshold(l)

    def sample_mask(self, z: int, l: int, js: np.ndarray) -> np.ndarray:
        """Vectorized membership for an array of coordinates."""
        h = mix64_np(np.uint64(self.key(z, l)) ^ coordinate_key_np(js))
        return h <= np.uint64(member_threshold(l))


def level_of(h: int, eta: float, gamma: float, p: float, tau: float,
             b: float, l_max: int) -> int:
    """Level whose sampling rate matches bucket h: the l with
    2**l <= tau / (eta**p (1+gamma)**(p h) b) < 2**(l+1), or 0 when the
    ratio is below 1, clamped to [0, l_max].
    """
    denom = eta**p * (1.0 + gamma) ** (p * h) * b
    if not math.isfinite(denom) or denom <= 0.0:
        return 0
    ratio = tau / denom
    if ratio < 1.0:
        return 0
    l = int(math.floor(math.log2(ratio)))
    # float log2 can land one off right at a power-of-two boundary
    while 2.0 ** (l + 1) <= ratio:
        l += 1
    while l > 0 and 2.0**l > ratio:
        l -= 1
    return min(l, l_max)


def level_of_np(tau, denom, l_max: int) -> np.ndarray:
    """level_of over arrays, given each bucket's denominator
    eta**p * (1+gamma)**(p*h) * b. The exponent frexp returns is
    floor(log2(ratio)) + 1 exactly, so no boundary correction is needed."""
    denom = np.asarray(denom, dtype=np.float64)
    ok = np.isfinite(denom) & (denom > 0.0)
    ratio = tau / np.where(ok, denom, np.inf)
    level = np.minimum(np.frexp(ratio)[1] - 1, l_max)
    return np.where(ratio >= 1.0, level, 0).astype(np.int32)
