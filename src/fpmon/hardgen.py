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
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .harness import StreamEvent
from .sampling import SALT_HARD, derive


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


@dataclass(frozen=True)
class TwoDisjInstance:
    """Pair of size-l sets over [nprime] with |x ∩ y| in {0, 1}; the
    intersecting branch is taken with probability beta (analysis regime
    beta <= 1/4; larger values are accepted for direct testing)."""

    nprime: int
    beta: float
    seed: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    intersecting: bool
    witness: Optional[int]


def gen_two_disj(nprime: int, beta: float, seed: int) -> TwoDisjInstance:
    lp = _check_nprime(nprime)
    _check_beta(beta)
    rng = _rng(seed, 1)
    intersecting = bool(rng.random() < beta)
    perm = rng.permutation(nprime)
    if intersecting:
        w = int(perm[0])
        x = np.sort(perm[: lp])                      # includes w
        y = np.sort(np.concatenate(([w], perm[lp : 2 * lp - 1])))
        witness: Optional[int] = w
    else:
        x = np.sort(perm[:lp])
        y = np.sort(perm[lp : 2 * lp])
        witness = None
    return TwoDisjInstance(nprime, beta, seed, tuple(x.tolist()),
                           tuple(y.tolist()), intersecting, witness)


def validate_two_disj(inst: TwoDisjInstance) -> None:
    lp = _check_nprime(inst.nprime)
    _check_beta(inst.beta)
    for name, s in (("x", inst.x), ("y", inst.y)):
        if len(s) != lp or len(set(s)) != lp:
            raise ValueError(f"{name} must hold {lp} distinct elements")
        if any(not 0 <= v < inst.nprime for v in s):
            raise ValueError(f"{name} has an element outside [0, {inst.nprime})")
    inter = set(inst.x) & set(inst.y)
    if inst.intersecting:
        if len(inter) != 1 or inst.witness not in inter:
            raise ValueError("intersecting instance must share exactly the witness")
    else:
        if inter or inst.witness is not None:
            raise ValueError("disjoint instance must share no element")


def sample_x_given_y(y: tuple[int, ...], nprime: int, beta: float,
                     rng: np.random.Generator,
                     outside: Optional[np.ndarray] = None
                     ) -> tuple[tuple[int, ...], int]:
    """Draw x from the conditional pair law given y: with probability beta,
    one uniform element of y plus |y|-1 uniform elements outside y; else |y|
    uniform elements outside y. Returns (x, intersect_bit)."""
    lp = len(y)
    if outside is None:
        outside = np.setdiff1d(np.arange(nprime), np.asarray(y))
    if bool(rng.random() < beta):
        w = int(y[int(rng.integers(lp))])
        rest = rng.permutation(outside)[: lp - 1]
        x = np.sort(np.concatenate(([w], rest)))
        return tuple(x.tolist()), 1
    x = np.sort(rng.permutation(outside)[:lp])
    return tuple(x.tolist()), 0


# -- k-site lift with shared reference set ----------------------------------


@dataclass(frozen=True)
class BitDisjInstance:
    """k sets over [nprime], each drawn from the pair law conditioned on a
    single shared y; z_i records whether site i intersects y."""

    k: int
    nprime: int
    beta: float
    seed: int
    y: tuple[int, ...]
    xs: tuple[tuple[int, ...], ...]
    z: tuple[int, ...]


def gen_bit_disj(k: int, nprime: int, beta: float, seed: int) -> BitDisjInstance:
    if k < 2:
        raise ValueError(f"need at least 2 sites, got {k}")
    _check_nprime(nprime)
    _check_beta(beta)
    if beta * k < 8:
        warnings.warn(
            f"beta*k = {beta * k:.3g} < 8: expected intersection count is too "
            "small for the concentration regime", stacklevel=2)
    first = gen_two_disj(nprime, beta, derive(seed, 2))
    y = first.y
    xs = [first.x]
    z = [1 if first.intersecting else 0]
    outside = np.setdiff1d(np.arange(nprime), np.asarray(y))
    rng = _rng(seed, 3)
    for _ in range(k - 1):
        x, bit = sample_x_given_y(y, nprime, beta, rng, outside=outside)
        xs.append(x)
        z.append(bit)
    return BitDisjInstance(k, nprime, beta, seed, y, tuple(xs), tuple(z))


def validate_bit_disj(inst: BitDisjInstance) -> None:
    lp = _check_nprime(inst.nprime)
    _check_beta(inst.beta)
    if len(inst.xs) != inst.k or len(inst.z) != inst.k:
        raise ValueError("need one set and one bit per site")
    if len(inst.y) != lp or len(set(inst.y)) != lp:
        raise ValueError(f"y must hold {lp} distinct elements")
    ys = set(inst.y)
    for i, (x, bit) in enumerate(zip(inst.xs, inst.z)):
        if len(x) != lp or len(set(x)) != lp:
            raise ValueError(f"site {i}: set must hold {lp} distinct elements")
        if any(not 0 <= v < inst.nprime for v in x):
            raise ValueError(f"site {i}: element outside [0, {inst.nprime})")
        if len(ys.intersection(x)) != bit:
            raise ValueError(f"site {i}: |x ∩ y| must equal z_i = {bit}")
        if bit not in (0, 1):
            raise ValueError(f"site {i}: z_i must be 0 or 1")


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


def validate_btx(inst: BtxInstance) -> None:
    k, n_cols, n_blocks = inst.k, inst.n_cols, inst.n_blocks
    if k < 4 or (k & (k - 1)) != 0:
        raise ValueError(f"k must be a power of two and >= 4, got {k}")
    if inst.matrices.shape != (n_blocks, k, n_cols):
        raise ValueError(f"matrix shape {inst.matrices.shape} does not match "
                         f"({n_blocks}, {k}, {n_cols})")
    if len(inst.types) != n_blocks:
        raise ValueError("need one type per block")
    for blk in range(n_blocks):
        mat = inst.matrices[blk]
        if not np.isin(mat, (0, 1)).all():
            raise ValueError(f"block {blk}: entries must be bits")
        msp = int(inst.specials[blk])
        if not 0 <= msp < n_cols:
            raise ValueError(f"block {blk}: special column {msp} out of range")
        typ = inst.types[blk]
        if typ not in ("00", "01", "10", "11"):
            raise ValueError(f"block {blk}: unknown type {typ!r}")
        x, y = int(typ[0]), int(typ[1])
        if not ((mat[: k // 2, msp] == x).all() and (mat[k // 2 :, msp] == y).all()):
            raise ValueError(f"block {blk}: special column does not match type {typ}")
        rest = np.delete(mat, msp, axis=1)
        owners = np.delete(inst.owners[blk], msp)
        sums = rest.sum(axis=0)
        if (sums > 1).any():
            raise ValueError(f"block {blk}: a non-special column holds two ones")
        placed = rest[owners, np.arange(n_cols - 1)]
        if not (placed == sums).all():
            raise ValueError(f"block {blk}: a one sits off its owner row")


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
    m = inst.n_blocks * inst.n_cols
    events = []
    t = 0
    for site in range(inst.k):
        blocks, cols = np.nonzero(inst.matrices[:, site, :])
        for blk, col in zip(blocks.tolist(), cols.tolist()):
            events.append(StreamEvent(t, site, blk * inst.n_cols + col))
            t += 1
    return events, m


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


def _site_lines(rows: list[tuple[int, ...]]) -> list[str]:
    return [f"{i}: " + " ".join(str(v) for v in row) for i, row in enumerate(rows)]


def write_instance(path: str, inst: object) -> None:
    """Serialize any instance: a "TYPE k n eps seed" header, one "site: items"
    row per site, then hidden structure in #meta lines."""
    lines: list[str] = []
    if isinstance(inst, TwoDisjInstance):
        lines.append(f"TWODISJ 2 {inst.nprime} {inst.beta!r} {inst.seed}")
        lines += _site_lines([inst.x, inst.y])
        lines.append(f"#meta intersecting {int(inst.intersecting)}")
        lines.append(f"#meta witness {-1 if inst.witness is None else inst.witness}")
    elif isinstance(inst, BitDisjInstance):
        lines.append(f"BITDISJ {inst.k} {inst.nprime} {inst.beta!r} {inst.seed}")
        lines += _site_lines(list(inst.xs))
        lines.append("#meta y " + " ".join(str(v) for v in inst.y))
        lines.append("#meta z " + " ".join(str(v) for v in inst.z))
    elif isinstance(inst, BtxInstance):
        lines.append(f"BTX {inst.k} {inst.n_cols} {inst.eps!r} {inst.seed}")
        rows = []
        for site in range(inst.k):
            blocks, cols = np.nonzero(inst.matrices[:, site, :])
            rows.append(tuple((blocks * inst.n_cols + cols).tolist()))
        lines += _site_lines(rows)
        lines.append(f"#meta p {inst.p!r}")
        lines.append(f"#meta blocks {inst.n_blocks}")
        lines.append(f"#meta inv_eps {inst.inv_eps}")
        lines.append("#meta specials " + " ".join(str(int(v)) for v in inst.specials))
        lines.append("#meta types " + " ".join(inst.types))
        for blk in range(inst.n_blocks):
            lines.append(f"#meta owners{blk} "
                         + " ".join(str(int(v)) for v in inst.owners[blk]))
    elif isinstance(inst, GapMajInstance):
        lines.append(f"GAPMAJ {inst.k} 1 0.5 {inst.seed}")
        lines += _site_lines([(b,) for b in inst.z])
    elif isinstance(inst, QuantileInstance):
        lines.append(f"QUANTILE {inst.k} {2 * inst.l_rep} {inst.eps!r} {inst.seed}")
        lines += _site_lines(list(inst.sites))
        for i, row in enumerate(inst.z):
            lines.append(f"#meta z{i} " + " ".join(str(v) for v in row))
    else:
        raise ValueError(f"cannot serialize {type(inst).__name__}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_sites(body: list[str], path: str) -> list[tuple[int, ...]]:
    rows = []
    for line in body:
        head, _, rest = line.partition(":")
        try:
            idx = int(head)
        except ValueError:
            raise ValueError(f"{path}: bad site row {line!r}")
        if idx != len(rows):
            raise ValueError(f"{path}: site rows out of order at {line!r}")
        rows.append(tuple(int(v) for v in rest.split()))
    return rows


def read_instance(path: str):
    """Parse a serialized instance back into its dataclass."""
    with open(path, "r") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ValueError(f"{path}: empty instance file")
    head = lines[0].split()
    if len(head) != 5:
        raise ValueError(f"{path}: header must be 'TYPE k n eps seed'")
    typ, k, n, eps, seed = (head[0], int(head[1]), int(head[2]),
                            float(head[3]), int(head[4]))
    body = [ln for ln in lines[1:] if not ln.startswith("#meta")]
    meta: dict[str, str] = {}
    for ln in lines[1:]:
        if ln.startswith("#meta"):
            parts = ln.split(None, 2)
            meta[parts[1]] = parts[2] if len(parts) > 2 else ""
    sites = _parse_sites(body, path)

    if typ == "TWODISJ":
        witness = int(meta["witness"])
        return TwoDisjInstance(n, eps, seed, sites[0], sites[1],
                               bool(int(meta["intersecting"])),
                               None if witness < 0 else witness)
    if typ == "BITDISJ":
        y = tuple(int(v) for v in meta["y"].split())
        z = tuple(int(v) for v in meta["z"].split())
        return BitDisjInstance(k, n, eps, seed, y, tuple(sites), z)
    if typ == "BTX":
        n_blocks = int(meta["blocks"])
        p = float(meta["p"])
        matrices = np.zeros((n_blocks, k, n), dtype=np.uint8)
        for site, row in enumerate(sites):
            for item in row:
                matrices[item // n, site, item % n] = 1
        owners = np.array(
            [[int(v) for v in meta[f"owners{blk}"].split()]
             for blk in range(n_blocks)], dtype=np.int32)
        specials = np.array([int(v) for v in meta["specials"].split()],
                            dtype=np.int32)
        return BtxInstance(k, p, eps, seed, n, n_blocks, int(meta["inv_eps"]),
                           matrices, owners, specials,
                           tuple(meta["types"].split()))
    if typ == "GAPMAJ":
        return GapMajInstance(k, seed, tuple(row[0] for row in sites))
    if typ == "QUANTILE":
        l_rep = n // 2
        z = tuple(
            tuple(int(v) for v in meta[f"z{i}"].split()) for i in range(l_rep))
        return QuantileInstance(k, eps, seed, l_rep, z, tuple(sites))
    raise ValueError(f"{path}: unknown instance type {typ!r}")
