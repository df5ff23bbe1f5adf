"""Structured input generators that stress distributed moment estimation.

Families: promise set-disjointness pairs (TWODISJ), their k-site lift with
one shared reference set (BITDISJ), blockwise XOR instances whose moments
encode a counting decision (BTX), plain majority bit vectors (GAPMAJ), and
interleaved bit multisets for quantile recovery (QUANTILE). Each family has
a generator, structural validator, evaluator where a decision is defined,
and a line-oriented serialization with hidden structure in a #meta section.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

import numpy as np

from . import harness
from .harness import StreamEvent, events_of
from .sampling import SALT_HARD, derive


_I64, _I32, _U16 = np.iinfo(np.int64), np.iinfo(np.int32), np.iinfo(np.uint16)


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive(seed, SALT_HARD, *labels)))


def _check_nprime(nprime: int) -> int:
    """Universe size for disjointness families: returns the set size."""
    if nprime < 3 or nprime % 4 != 3:
        raise ValueError(f"universe size must be ≡ 3 (mod 4) and >= 3, got {nprime}")
    return (nprime + 1) // 4


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"intersection probability beta must be in [0, 1], got {beta}")


# -- promise disjointness pair ----------------------------------------------


def _set_dtype(lo: int, hi: int) -> type:
    """The dtype of a set whose elements lie in [lo, hi]: uint16 while
    0 <= lo and hi < 2**16, int32 while 0 <= lo and hi < 2**31, else int64.
    Elements index a universe [0, n'), so a negative one (only ever in a
    hand-built set) keeps the full width and is stored as written."""
    if lo < 0 or hi > _I32.max:
        return np.int64
    return np.uint16 if hi <= _U16.max else np.int32


def _frozen_ints(values) -> np.ndarray:
    """values as a read-only integer array at the dtype `_set_dtype` gives
    their range, so every bench, criterion and CLI universe (n' <= 2**16)
    stores its sets as uint16. A view when values already has that dtype:
    the caller's array stays writable."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = np.asarray(values, dtype=np.int64)
    if a.dtype != np.uint16:  # no narrower set dtype, so no scan
        dt = _set_dtype(int(a.min()), int(a.max())) if a.size else np.uint16
        a = a.astype(dt, copy=False)
    a = a.view()
    a.flags.writeable = False
    return a


class _ValueEq:
    """Field-by-field equality that compares array fields by shape and
    values, so instances read back from a file equal the ones written."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray):
                if not (a.shape == b.shape and np.array_equal(a, b)):
                    return False
            elif a != b:
                return False
        return True


@dataclass(frozen=True, eq=False)
class TwoDisjInstance(_ValueEq):
    """Pair of size-l sets over [nprime] with |x ∩ y| in {0, 1}; the
    intersecting branch is taken with probability beta (analysis regime
    beta <= 1/4; larger values are accepted for direct testing). x and y
    are read-only arrays at the dtype `_frozen_ints` gives their values:
    uint16 for any nprime <= 2**16."""

    nprime: int
    beta: float
    seed: int
    x: np.ndarray
    y: np.ndarray
    intersecting: bool
    witness: Optional[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _frozen_ints(self.x))
        object.__setattr__(self, "y", _frozen_ints(self.y))


def gen_two_disj(nprime: int, beta: float, seed: int) -> TwoDisjInstance:
    lp = _check_nprime(nprime)
    _check_beta(beta)
    rng = _rng(seed, 1)
    intersecting = bool(rng.random() < beta)
    perm = rng.permutation(nprime).astype(_set_dtype(0, nprime - 1))
    if intersecting:
        w = int(perm[0])
        x = np.sort(perm[: lp])                      # includes w
        y = np.sort(np.concatenate((perm[:1], perm[lp : 2 * lp - 1])))
        witness: Optional[int] = w
    else:
        x = np.sort(perm[:lp])
        y = np.sort(perm[lp : 2 * lp])
        witness = None
    return TwoDisjInstance(nprime, beta, seed, x, y, intersecting, witness)


def _check_set(name: str, s: np.ndarray, lp: int, nprime: int) -> None:
    srt = np.sort(s)
    if len(srt) != lp or (np.diff(srt) == 0).any():
        raise ValueError(f"{name} must hold {lp} distinct elements")
    if srt[0] < 0 or srt[-1] >= nprime:
        raise ValueError(f"{name} has an element outside [0, {nprime})")


def validate_two_disj(inst: TwoDisjInstance) -> None:
    lp = _check_nprime(inst.nprime)
    _check_beta(inst.beta)
    _check_set("x", inst.x, lp, inst.nprime)
    _check_set("y", inst.y, lp, inst.nprime)
    inter = np.intersect1d(inst.x, inst.y).tolist()
    if inst.intersecting:
        if inter != [inst.witness]:
            raise ValueError("intersecting instance must share exactly the witness")
    else:
        if inter or inst.witness is not None:
            raise ValueError("disjoint instance must share no element")


def _outside(y, nprime: int) -> np.ndarray:
    """[0, nprime) without the elements of y, in order."""
    keep = np.ones(nprime, dtype=bool)
    keep[np.asarray(y)] = False
    return np.flatnonzero(keep)


def sample_x_given_y(y: np.ndarray, nprime: int, beta: float,
                     rng: np.random.Generator,
                     outside: Optional[np.ndarray] = None
                     ) -> tuple[np.ndarray, int]:
    """Draw x from the conditional pair law given y: with probability beta,
    one uniform element of y plus |y|-1 uniform elements outside y; else |y|
    uniform elements outside y. Returns (sorted x, intersect_bit).

    The outside elements are a uniform subset of `outside` (sorted, the
    complement of y in [0, nprime)): `Generator.choice` without replacement
    shuffles only as many positions as it keeps. They are marked, with the
    witness, in a table of [0, nprime) whose nonzero positions are x in
    order, so nothing is permuted or sorted whole."""
    lp = len(y)
    if outside is None:
        outside = _outside(y, nprime)
    x = np.zeros(nprime, dtype=bool)
    bit = int(rng.random() < beta)
    if bit:
        x[y[int(rng.integers(lp))]] = True
    x[outside[rng.choice(outside.size, lp - bit, replace=False, shuffle=False)]] = True
    return np.flatnonzero(x), bit


# -- k-site lift with shared reference set ----------------------------------


@dataclass(frozen=True, eq=False)
class BitDisjInstance(_ValueEq):
    """k sets over [nprime], each drawn from the pair law conditioned on a
    single shared y; z_i records whether site i intersects y. y is a
    read-only array and xs a read-only (k, l') array whose row i is site
    i's set, sorted; both at the dtype `_frozen_ints` gives their values,
    uint16 for any nprime <= 2**16 (5 MB for k = 256 at nprime = 40003)."""

    k: int
    nprime: int
    beta: float
    seed: int
    y: np.ndarray
    xs: np.ndarray
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", _frozen_ints(self.y))
        object.__setattr__(self, "xs", _frozen_ints(self.xs))


def gen_bit_disj(k: int, nprime: int, beta: float, seed: int) -> BitDisjInstance:
    if k < 2:
        raise ValueError(f"need at least 2 sites, got {k}")
    lp = _check_nprime(nprime)
    _check_beta(beta)
    if beta * k < 8:
        warnings.warn(
            f"beta*k = {beta * k:.3g} < 8: expected intersection count is too "
            "small for the concentration regime", stacklevel=2)
    first = gen_two_disj(nprime, beta, derive(seed, 2))
    y = first.y
    xs = np.empty((k, lp), dtype=_set_dtype(0, nprime - 1))
    xs[0] = first.x
    z = [1 if first.intersecting else 0]
    outside = _outside(y, nprime)
    rng = _rng(seed, 3)
    for i in range(1, k):
        xs[i], bit = sample_x_given_y(y, nprime, beta, rng, outside=outside)
        z.append(bit)
    return BitDisjInstance(k, nprime, beta, seed, y, xs, tuple(z))


def validate_bit_disj(inst: BitDisjInstance) -> None:
    """Checks every site at once; the error names the first site that
    fails, with the first of its checks that fails."""
    lp = _check_nprime(inst.nprime)
    _check_beta(inst.beta)
    xs, z = inst.xs, np.asarray(inst.z)
    if xs.ndim != 2:
        raise ValueError(f"xs must be a (k, {lp}) array, got shape {xs.shape}")
    if len(xs) != inst.k or len(z) != inst.k:
        raise ValueError(f"site {min(len(xs), len(z), inst.k)}: need one set and "
                         f"one bit per site, got {len(xs)} sets and {len(z)} "
                         f"bits for k = {inst.k}")
    _check_set("y", inst.y, lp, inst.nprime)
    if xs.shape[1] != lp:
        raise ValueError(f"site 0: set must hold {lp} distinct elements")
    # one comparison of neighbours serves both tests: a generated instance
    # rises strictly, so it is sorted and has no duplicate; otherwise sort,
    # and a step that does not rise is a duplicate
    rises = xs[:, 1:] > xs[:, :-1]
    srt = xs
    if not rises.all():
        srt = np.sort(xs, axis=1)
        rises = srt[:, 1:] > srt[:, :-1]
    # |x ∩ y| by lookup in a membership table of [0, nprime); an element
    # out of range is clipped, and its site fails the range check first
    in_y = np.zeros(inst.nprime, dtype=bool)
    in_y[inst.y] = True
    hits = np.count_nonzero(in_y.take(srt, mode="clip"), axis=1)
    checks = [
        (~rises.all(axis=1), f"set must hold {lp} distinct elements"),
        ((srt[:, 0] < 0) | (srt[:, -1] >= inst.nprime),
         f"element outside [0, {inst.nprime})"),
        (hits != z, "|x ∩ y| must equal z_i = {bit}"),
        ((z != 0) & (z != 1), "z_i must be 0 or 1"),
    ]
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        msg = next(text for failed, text in checks if failed[i])
        raise ValueError(f"site {i}: " + msg.format(bit=inst.z[i]))


# -- blockwise XOR instances -------------------------------------------------


@dataclass(eq=False)
class BtxInstance:
    """round(1/eps**2) independent k x round(k**p) bit blocks. In every
    block each non-special column holds at most a single one, placed at a
    uniform owner row with a fair coin; one special column is overwritten so
    its first k/2 rows all carry bit x and its last k/2 rows all carry bit y.
    The block type "xy" is hidden structure: the XOR test (some column with
    exactly k/2 ones) holds exactly for types 01 and 10 once k >= 4."""

    k: int
    p: float
    eps: float
    seed: int
    n_cols: int
    n_blocks: int
    inv_eps: int
    matrices: np.ndarray = field(repr=False)   # (n_blocks, k, n_cols) uint8
    owners: np.ndarray = field(repr=False)     # (n_blocks, n_cols) int32
    specials: np.ndarray = field(repr=False)   # (n_blocks,) int32
    types: tuple[str, ...] = ()


def gen_btx(k: int, p: float, eps: float, seed: int) -> BtxInstance:
    if k < 4 or (k & (k - 1)) != 0:
        raise ValueError(f"k must be a power of two and >= 4, got {k}")
    if not p > 1:
        raise ValueError(f"moment order p must exceed 1, got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    n_cols = round(k**p)
    n_blocks = round(eps**-2)
    inv_eps = round(1.0 / eps)
    rng = _rng(seed, 4)
    matrices = np.zeros((n_blocks, k, n_cols), dtype=np.uint8)
    owners = rng.integers(0, k, size=(n_blocks, n_cols)).astype(np.int32)
    bits = rng.integers(0, 2, size=(n_blocks, n_cols)).astype(np.uint8)
    specials = rng.integers(0, n_cols, size=n_blocks).astype(np.int32)
    xy = rng.integers(0, 2, size=(n_blocks, 2))
    cols = np.arange(n_cols)
    types = []
    for blk in range(n_blocks):
        matrices[blk, owners[blk], cols] = bits[blk]
        msp = int(specials[blk])
        x, y = int(xy[blk, 0]), int(xy[blk, 1])
        matrices[blk, :, msp] = 0
        matrices[blk, : k // 2, msp] = x
        matrices[blk, k // 2 :, msp] = y
        types.append(f"{x}{y}")
    return BtxInstance(k, p, eps, seed, n_cols, n_blocks, inv_eps, matrices,
                       owners, specials, tuple(types))


_BTX_TYPES = ("00", "01", "10", "11")


def validate_btx(inst: BtxInstance) -> None:
    """Checks every block at once; the error names the first block that
    fails, with the first of its checks that fails."""
    k, n_cols, n_blocks = inst.k, inst.n_cols, inst.n_blocks
    if k < 4 or (k & (k - 1)) != 0:
        raise ValueError(f"k must be a power of two and >= 4, got {k}")
    mats = inst.matrices
    if mats.shape != (n_blocks, k, n_cols):
        raise ValueError(f"matrix shape {mats.shape} does not match "
                         f"({n_blocks}, {k}, {n_cols})")
    owners, specials = np.asarray(inst.owners), np.asarray(inst.specials)
    for name, a, shape in (("owners", owners, (n_blocks, n_cols)),
                           ("specials", specials, (n_blocks,))):
        if a.shape != shape:
            raise ValueError(f"{name} shape {a.shape} does not match {shape}")
    if len(inst.types) != n_blocks:
        raise ValueError("need one type per block")
    blocks = np.arange(n_blocks)
    special = np.arange(n_cols) == specials[:, None]
    # an out-of-range special column or owner is not looked up (the special
    # column reads as zeros, the owner as row 0): its block fails the range
    # check first
    sp_ok = special.any(axis=1)
    col = np.zeros((n_blocks, k), dtype=mats.dtype)
    col[sp_ok] = mats[blocks[sp_ok], :, specials[sp_ok]]
    xy = np.array([[int(t[0]), int(t[1])] if t in _BTX_TYPES else [0, 0]
                   for t in inst.types], dtype=np.int64).reshape(n_blocks, 2)
    want = np.repeat(xy, k // 2, axis=1)     # x on the top half, y below
    own_ok = (owners >= 0) & (owners < k)
    sums = mats.sum(axis=1, dtype=np.int64)
    placed = mats[blocks[:, None], np.where(own_ok, owners, 0), np.arange(n_cols)]

    def first_bad_owner(b: int) -> str:
        c = int(np.argmin(own_ok[b]))
        return f"owner {owners[b, c]} of column {c} outside [0, {k})"

    checks = [
        (((mats != 0) & (mats != 1)).any(axis=(1, 2)),
         lambda b: "entries must be bits"),
        (~sp_ok, lambda b: f"special column {specials[b]} out of range"),
        (np.array([t not in _BTX_TYPES for t in inst.types], dtype=bool),
         lambda b: f"unknown type {inst.types[b]!r}"),
        ((col != want).any(axis=1),
         lambda b: f"special column does not match type {inst.types[b]}"),
        (((sums > 1) & ~special).any(axis=1),
         lambda b: "a non-special column holds two ones"),
        (~own_ok.all(axis=1), first_bad_owner),
        (((placed != sums) & ~special).any(axis=1),
         lambda b: "a one sits off its owner row"),
    ]
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if bad.any():
        b = int(np.argmax(bad))
        msg = next(text for failed, text in checks if failed[b])
        raise ValueError(f"block {b}: {msg(b)}")


def xor_eval(matrix: np.ndarray) -> int:
    """1 iff some column of the k x n block has exactly k/2 ones."""
    k = matrix.shape[0]
    return int((matrix.sum(axis=0) == k // 2).any())


def _btx_decide(total: int, inst: BtxInstance) -> Optional[int]:
    dev = abs(total - inst.n_blocks / 2.0)
    if dev >= 2 * inst.inv_eps:
        return 1
    if dev <= inst.inv_eps:
        return 0
    return None


def btx_eval(inst: BtxInstance) -> Optional[int]:
    """Decision from the raw matrices: 1 when the number of XOR-positive
    blocks deviates from n_blocks/2 by at least 2/eps, 0 when by at most
    1/eps, None (star) inside the promise gap."""
    total = sum(xor_eval(inst.matrices[blk]) for blk in range(inst.n_blocks))
    return _btx_decide(total, inst)


def btx_eval_from_meta(inst: BtxInstance) -> Optional[int]:
    """Same decision computed from the hidden block types alone."""
    total = sum(1 for t in inst.types if t in ("01", "10"))
    return _btx_decide(total, inst)


def btx_to_stream(inst: BtxInstance) -> tuple[list[StreamEvent], int]:
    """Flatten an instance into an insertion stream over the coordinate
    space block * n_cols + col, ordered site-major then (block, column)-major.
    Returns (events, universe size)."""
    sites, blocks, cols = np.nonzero(inst.matrices.transpose(1, 0, 2))
    return (events_of(np.arange(sites.size), sites, blocks * inst.n_cols + cols),
            inst.n_blocks * inst.n_cols)


# -- majority bits -----------------------------------------------------------


@dataclass(frozen=True)
class GapMajInstance:
    """k fair bits; the decision asks which side of k/2 the sum falls on,
    with a sqrt(k/2)-wide undecided band."""

    k: int
    seed: int
    z: tuple[int, ...]


def gen_gap_maj(k: int, seed: int) -> GapMajInstance:
    if k < 1:
        raise ValueError(f"need at least 1 site, got {k}")
    rng = _rng(seed, 5)
    z = rng.integers(0, 2, size=k)
    return GapMajInstance(k, seed, tuple(int(v) for v in z))


def validate_gap_maj(inst: GapMajInstance) -> None:
    if len(inst.z) != inst.k:
        raise ValueError("need one bit per site")
    if any(b not in (0, 1) for b in inst.z):
        raise ValueError("entries must be bits")


def gap_maj_eval(z: tuple[int, ...], beta: float = 0.5) -> Optional[int]:
    """0 when sum(z) <= beta*k - sqrt(beta*k), 1 when >= beta*k + sqrt(beta*k),
    None (star) in between."""
    k = len(z)
    s = sum(z)
    center = beta * k
    gap = math.sqrt(beta * k)
    if s <= center - gap:
        return 0
    if s >= center + gap:
        return 1
    return None


# -- interleaved bit multisets for quantile recovery -------------------------


@dataclass(frozen=True)
class QuantileInstance:
    """l_rep = round(1/(eps*sqrt(k))) majority instances packed into one
    multiset: copy i contributes value 2*i + z[i][site] at each site, so the
    (i + 1/2)/l_rep-quantile of the union recovers copy i's majority bit."""

    k: int
    eps: float
    seed: int
    l_rep: int
    z: tuple[tuple[int, ...], ...]          # (l_rep, k)
    sites: tuple[tuple[int, ...], ...]      # (k, l_rep) sorted values


def gen_quantile_instance(k: int, eps: float, seed: int) -> QuantileInstance:
    if k < 1:
        raise ValueError(f"need at least 1 site, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    l_rep = round(1.0 / (eps * math.sqrt(k)))
    if l_rep < 1:
        raise ValueError(
            f"eps = {eps} with k = {k} leaves no room for even one copy")
    rng = _rng(seed, 6)
    z = rng.integers(0, 2, size=(l_rep, k))
    sites = tuple(
        tuple(sorted(2 * i + int(z[i, site]) for i in range(l_rep)))
        for site in range(k)
    )
    zt = tuple(tuple(int(v) for v in row) for row in z)
    return QuantileInstance(k, eps, seed, l_rep, zt, sites)


def validate_quantile(inst: QuantileInstance) -> None:
    expect = round(1.0 / (inst.eps * math.sqrt(inst.k)))
    if inst.l_rep != expect:
        raise ValueError(f"l_rep {inst.l_rep} does not match round(1/(eps*sqrt(k)))"
                         f" = {expect}")
    if len(inst.z) != inst.l_rep or any(len(row) != inst.k for row in inst.z):
        raise ValueError("bit matrix must be l_rep x k")
    if len(inst.sites) != inst.k:
        raise ValueError("need one value set per site")
    for site in range(inst.k):
        want = sorted(2 * i + inst.z[i][site] for i in range(inst.l_rep))
        if list(inst.sites[site]) != want:
            raise ValueError(f"site {site}: values do not encode the bit column")


def quantile_recover(inst: QuantileInstance) -> list[int]:
    """Recovered majority bit per copy, via exact quantiles of the union."""
    from .oracles import exact_quantile

    union: list[int] = [v for site in inst.sites for v in site]
    out = []
    for i in range(inst.l_rep):
        phi = (i + 0.5) / inst.l_rep
        out.append(exact_quantile(union, phi) - 2 * i)
    return out


# -- serialization ------------------------------------------------------------


def _decimal(values) -> bytes:
    """Integers as space-separated decimals, byte for byte what
    " ".join(map(str, values)) writes, formatted a whole row at a time. An
    unsigned row (a uint16 site set) is formatted in its own width."""
    row = np.asarray(values)
    if row.dtype.kind == "u":
        mag = row
    else:
        row = np.asarray(values, dtype=np.int64)
        mag = np.abs(row).astype(np.uint64)  # abs(-2**63) wraps; the cast mends it
    width = len(str(int(mag.max()))) if row.size else 0
    # one column for the sign, width for the digits, one for the separator;
    # NUL marks a byte to drop (no sign, a zero left of the leading digit)
    buf = np.empty((row.size, width + 2), dtype=np.uint8)
    buf[:, 0] = np.where(row < 0, ord("-"), 0)
    buf[:, -1] = ord(" ")
    for col in range(width, 0, -1):
        q = mag // 10
        digit = mag - q * 10 + ord("0")
        buf[:, col] = digit if col == width else np.where(mag > 0, digit, 0)
        mag = q
    return buf.tobytes().translate(None, b"\0")[:-1]


_INT = re.compile(rb"-?[0-9]+")  # one int of _ints' grammar: int() also reads "1_0" and "+1"
_FLOAT = re.compile(harness._FLOAT.pattern.encode())  # read_trace's: float() also reads "0.2_5"


def _ints(text: bytes) -> np.ndarray:
    """Space-separated tokens of the form -?[0-9]+ as an int64 array, parsed
    a whole row at a time; ValueError for any other token."""
    if text.translate(None, b"0123456789 -") or b"-" in text and (
            b"--" in text or b"- " in text or text.endswith(b"-")
            or text.count(b"-") != text.count(b" -") + text.startswith(b"-")):
        raise ValueError("expected integers separated by spaces")
    if not text.strip(b" "):
        return np.empty(0, dtype=np.int64)
    vals = np.fromstring(text, dtype=np.int64, sep=" ")
    # fromstring saturates out-of-range values at the int64 limits
    if vals.max() == _I64.max or vals.min() == _I64.min:
        raise ValueError(f"integer outside ({_I64.min}, {_I64.max})")
    return vals


def write_instance(path: str, inst: object) -> None:
    """Serialize any instance: a "TYPE k n eps seed" header, one "site: items"
    row per site, then hidden structure in "#meta key value" lines. Integer
    rows are written whole, from arrays."""
    if isinstance(inst, TwoDisjInstance):
        header = f"TWODISJ 2 {inst.nprime} {inst.beta!r} {inst.seed}"
        rows: Iterable = (inst.x, inst.y)
        meta: list[tuple[str, object]] = [
            ("intersecting", str(int(inst.intersecting))),
            ("witness", str(-1 if inst.witness is None else inst.witness))]
    elif isinstance(inst, BitDisjInstance):
        header = f"BITDISJ {inst.k} {inst.nprime} {inst.beta!r} {inst.seed}"
        rows = inst.xs
        meta = [("y", inst.y), ("z", inst.z)]
    elif isinstance(inst, BtxInstance):
        header = f"BTX {inst.k} {inst.n_cols} {inst.eps!r} {inst.seed}"
        rows = []
        for site in range(inst.k):
            blocks, cols = np.nonzero(inst.matrices[:, site, :])
            rows.append(blocks * inst.n_cols + cols)
        meta = [("p", repr(inst.p)), ("blocks", str(inst.n_blocks)),
                ("inv_eps", str(inst.inv_eps)), ("specials", inst.specials),
                ("types", " ".join(inst.types))]
        meta += [(f"owners{blk}", inst.owners[blk]) for blk in range(inst.n_blocks)]
    elif isinstance(inst, GapMajInstance):
        header = f"GAPMAJ {inst.k} 1 0.5 {inst.seed}"
        rows = [(b,) for b in inst.z]
        meta = []
    elif isinstance(inst, QuantileInstance):
        header = f"QUANTILE {inst.k} {2 * inst.l_rep} {inst.eps!r} {inst.seed}"
        rows = inst.sites
        meta = [(f"z{i}", row) for i, row in enumerate(inst.z)]
    else:
        raise ValueError(f"cannot serialize {type(inst).__name__}")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for i, row in enumerate(rows):
            fh.write(b"%d: %s\n" % (i, _decimal(row)))
        for key, value in meta:
            text = value.encode() if isinstance(value, str) else _decimal(value)
            fh.write(b"#meta %s %s\n" % (key.encode(), text))


def read_instance(path: str):
    """Parse a serialized instance back into its dataclass. A malformed file
    raises a ValueError that names the path and the line."""

    def fail(no: int, msg: str) -> ValueError:
        return ValueError(f"{path}: line {no}: {msg}")

    def parse(no: int, text: bytes, conv=_ints):
        try:
            value = conv(text)
            if (conv is int and not _INT.fullmatch(text)
                    or conv is float and not (_FLOAT.fullmatch(text)
                                              and math.isfinite(value))):
                raise ValueError(f"bad {conv.__name__} {text.decode(errors='replace')!r}")
            return value
        except ValueError as exc:
            raise fail(no, str(exc)) from None

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lines = ((no, ln.rstrip(b"\r\n")) for no, ln in enumerate(fh, 1))
        lines = ((no, ln) for no, ln in lines if ln)
        hno, header = next(lines, (0, b""))
        if not header:
            raise ValueError(f"{path}: empty instance file")
        head = header.split()
        if len(head) != 5:
            raise fail(hno, "header must be 'TYPE k n eps seed'")
        typ = head[0].decode(errors="replace")
        k, n, eps, seed = map(parse, [hno] * 4, head[1:], (int, int, float, int))
        try:
            # the families whose rows all have one length
            if typ in ("TWODISJ", "BITDISJ"):
                width: Optional[int] = _check_nprime(n)
            elif typ == "GAPMAJ":
                width = 1
            elif typ == "QUANTILE":
                width = n // 2
            elif typ == "BTX":
                width = None
            else:
                raise ValueError(f"unknown instance type {typ!r}")
        except ValueError as exc:
            raise fail(hno, str(exc)) from None
        if typ == "TWODISJ" and k != 2:
            raise fail(hno, f"a TWODISJ instance has 2 sites, not {k}")
        if width is not None and not 0 <= k * width <= size:
            raise fail(hno, f"{k} rows of {width} items cannot fit in {size} bytes")

        # rows go straight into one (k, width) array when they share a length
        sites: list[np.ndarray] = []
        site_nos: list[int] = []  # each site row's line, for the BTX checks
        table = None if width is None else np.empty((k, width), dtype=np.int64)
        metas: dict[str, tuple[int, bytes]] = {}
        no = hno
        for no, ln in lines:
            if ln.startswith(b"#meta"):
                parts = ln.split(None, 2) + [b""]
                if len(parts) < 3:
                    raise fail(no, "#meta line without a key")
                metas[parts[1].decode(errors="replace")] = (no, parts[2])
                continue
            lead, _, rest = ln.partition(b":")
            if parse(no, lead, int) != len(sites):
                raise fail(no, f"site rows out of order at site {int(lead)}")
            row = parse(no, rest)
            if len(sites) == k:
                raise fail(no, f"more than k = {k} site rows")
            if table is not None:
                if len(row) != width:
                    raise fail(no, f"site {len(sites)} holds {len(row)} items, "
                                   f"not {width}")
                table[len(sites)] = row
                row = table[len(sites)]
            sites.append(row)
            site_nos.append(no)
    if len(sites) != k:
        raise fail(no, f"{len(sites)} site rows for k = {k}")

    def meta(key: str, conv=_ints):
        if key not in metas:
            raise fail(hno, f"{typ} instance has no '#meta {key}' line")
        return parse(*metas[key], conv)

    def int32s(key: str) -> np.ndarray:
        # the BTX owner and special tables are int32: a value past that
        # range is an error, not a wrap into it
        vals = meta(key)
        if ((vals < _I32.min) | (vals > _I32.max)).any():
            raise fail(metas[key][0], f"'#meta {key}' holds a value outside "
                                      f"[{_I32.min}, {_I32.max}]")
        return vals.astype(np.int32)

    if typ == "TWODISJ":
        witness = meta("witness", int)
        return TwoDisjInstance(n, eps, seed, table[0], table[1],
                               bool(meta("intersecting", int)),
                               None if witness < 0 else witness)
    if typ == "BITDISJ":
        return BitDisjInstance(k, n, eps, seed, meta("y"), table,
                               tuple(meta("z").tolist()))
    if typ == "GAPMAJ":
        return GapMajInstance(k, seed, tuple(table[:, 0].tolist()))
    if typ == "QUANTILE":
        z = tuple(tuple(meta(f"z{i}").tolist()) for i in range(width))
        return QuantileInstance(k, eps, seed, width, z,
                                tuple(map(tuple, table.tolist())))
    n_blocks = meta("blocks", int)
    if n_blocks < 0:
        raise fail(metas["blocks"][0], f"negative block count {n_blocks}")
    matrices = np.zeros((n_blocks, k, n), dtype=np.uint8)
    for site, (no, row) in enumerate(zip(site_nos, sites)):
        if ((row < 0) | (row >= n_blocks * n)).any():
            raise fail(no, f"site {site} holds an item outside [0, {n_blocks * n})")
        matrices[row // n, site, row % n] = 1
    owners = np.empty((n_blocks, n), dtype=np.int32)
    for blk in range(n_blocks):
        row = int32s(f"owners{blk}")
        if row.size != n:
            raise fail(metas[f"owners{blk}"][0],
                       f"block {blk} has {row.size} owners, not {n}")
        owners[blk] = row
    return BtxInstance(k, meta("p", float), eps, seed, n, n_blocks,
                       meta("inv_eps", int), matrices, owners,
                       int32s("specials"),
                       tuple(meta("types", bytes.decode).split()))
