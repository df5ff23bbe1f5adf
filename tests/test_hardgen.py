"""Hard-instance families: generators, validators, evaluators, files."""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from fpmon.hardgen import (
    BitDisjInstance,
    BtxInstance,
    GapMajInstance,
    QuantileInstance,
    TwoDisjInstance,
    btx_eval,
    btx_eval_from_meta,
    btx_to_stream,
    gap_maj_eval,
    gen_bit_disj,
    gen_btx,
    gen_gap_maj,
    gen_quantile_instance,
    gen_two_disj,
    quantile_recover,
    read_instance,
    sample_x_given_y,
    validate_bit_disj,
    validate_btx,
    validate_gap_maj,
    validate_quantile,
    validate_two_disj,
    write_instance,
    xor_eval,
)
from fpmon.harness import StreamEvent, validate_stream
from fpmon.oracles import FreqVector, exact_fp
from fpmon.sampling import SALT_HARD, SLICE, derive


# -- promise disjointness pair ------------------------------------------------


def test_two_disj_structure():
    for seed in range(40):
        inst = gen_two_disj(nprime=23, beta=0.5, seed=seed)
        validate_two_disj(inst)
        assert len(inst.x) == len(inst.y) == 6  # (23+1)/4
        inter = set(inst.x) & set(inst.y)
        if inst.intersecting:
            assert inter == {inst.witness}
        else:
            assert inter == set() and inst.witness is None


def test_two_disj_beta_edges():
    assert not gen_two_disj(23, 0.0, seed=1).intersecting
    assert gen_two_disj(23, 1.0, seed=1).intersecting


def test_two_disj_rejects_bad_universe():
    with pytest.raises(ValueError):
        gen_two_disj(24, 0.5, seed=0)  # not 3 mod 4
    with pytest.raises(ValueError):
        gen_two_disj(2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_two_disj(23, 1.5, seed=0)


def test_two_disj_validator_catches_mutations():
    inst = gen_two_disj(23, 1.0, seed=3)
    bad = dataclasses.replace(inst, intersecting=False, witness=None)
    with pytest.raises(ValueError):
        validate_two_disj(bad)
    bad = dataclasses.replace(inst, x=np.append(inst.x[:-1], inst.x[0]))  # duplicate
    with pytest.raises(ValueError, match="x must hold 6 distinct"):
        validate_two_disj(bad)
    bad = dataclasses.replace(inst, x=np.append(inst.x[:-1], 99))  # out of range
    with pytest.raises(ValueError, match="x has an element outside"):
        validate_two_disj(bad)
    bad = dataclasses.replace(inst, y=inst.y[:-1])  # short
    with pytest.raises(ValueError, match="y must hold 6 distinct"):
        validate_two_disj(bad)
    disj = gen_two_disj(23, 0.0, seed=3)
    bad = dataclasses.replace(disj, intersecting=True, witness=disj.x[0])
    with pytest.raises(ValueError):
        validate_two_disj(bad)


def test_intersecting_rate_matches_beta():
    beta, trials = 0.25, 300
    hits = sum(gen_two_disj(23, beta, seed=s).intersecting for s in range(trials))
    sigma = math.sqrt(trials * beta * (1 - beta))
    assert abs(hits - trials * beta) <= 4 * sigma


def test_conditional_sampler_matches_pair_law():
    # nprime = 7: sets of size 2, 10 intersecting and 10 disjoint outcomes,
    # each equally likely within its branch
    nprime, beta, draws = 7, 0.5, 50_000
    y = (1, 4)
    rng = np.random.Generator(np.random.PCG64(derive(99, SALT_HARD, 7)))
    freq: dict[tuple[int, ...], int] = {}
    bits = 0
    for _ in range(draws):
        x, bit = sample_x_given_y(y, nprime, beta, rng)
        key = tuple(x.tolist())
        freq[key] = freq.get(key, 0) + 1
        bits += bit
    outside = [v for v in range(nprime) if v not in y]
    expect: dict[tuple[int, ...], float] = {}
    for w in y:
        for o in outside:
            expect[tuple(sorted((w, o)))] = beta / (len(y) * len(outside))
    for i, o1 in enumerate(outside):
        for o2 in outside[i + 1 :]:
            expect[tuple(sorted((o1, o2)))] = (1 - beta) / 10.0
    assert set(freq) <= set(expect)
    tv = 0.5 * sum(
        abs(freq.get(x, 0) / draws - pr) for x, pr in expect.items()
    )
    assert tv < 0.02
    sigma = math.sqrt(draws * beta * (1 - beta))
    assert abs(bits - draws * beta) <= 4 * sigma


def _chi_square(observed, expected) -> float:
    return float((((observed - expected) ** 2) / expected).sum())


def _chi_square_cap(bins: int) -> float:
    """4 sigma above the mean of a chi-square with bins - 1 degrees of
    freedom."""
    return (bins - 1) + 4 * math.sqrt(2 * (bins - 1))


def test_conditional_sampler_law_at_bench_size():
    # nprime = 40003, the criterion-7 and bench size: l' = 10001 of 30002
    # outside elements, where Generator.choice shuffles a tail (the
    # nprime = 7 test above reaches Floyd's algorithm instead). Over many
    # draws every outside element is as likely as any other to be picked,
    # the intersecting branch comes up at rate beta, and the witness is
    # uniform over y; each is checked in equal-width bins
    nprime, beta, draws, bins = 40003, 0.5, 600, 20
    y = gen_two_disj(nprime, 0.0, seed=5).y
    lp = y.size
    outside = np.setdiff1d(np.arange(nprime), y)
    in_y = np.zeros(nprime, dtype=bool)
    in_y[y] = True
    rng = np.random.Generator(np.random.PCG64(derive(99, SALT_HARD, 8)))
    picked = np.zeros(bins)
    witnessed = np.zeros(bins // 2)
    bits = 0
    for _ in range(draws):
        x, bit = sample_x_given_y(y, nprime, beta, rng, outside=outside)
        assert x.size == lp and (np.diff(x) > 0).all()
        hit = in_y[x]
        assert hit.sum() == bit
        bits += bit
        if bit:
            witnessed[np.searchsorted(y, x[hit][0]) * witnessed.size // lp] += 1
        picked += np.bincount(np.searchsorted(outside, x[~hit]) * bins // outside.size,
                              minlength=bins)

    width = np.bincount(np.arange(outside.size) * bins // outside.size)
    expect = picked.sum() * width / outside.size
    assert _chi_square(picked, expect) <= _chi_square_cap(bins)
    sigma = math.sqrt(draws * beta * (1 - beta))
    assert abs(bits - draws * beta) <= 4 * sigma
    width = np.bincount(np.arange(lp) * witnessed.size // lp)
    assert _chi_square(witnessed, bits * width / lp) <= _chi_square_cap(witnessed.size)


# -- k-site lift ----------------------------------------------------------------


def test_bit_disj_structure():
    inst = gen_bit_disj(k=64, nprime=43, beta=0.25, seed=5)
    validate_bit_disj(inst)
    assert inst.k == 64 and len(inst.xs) == 64 and len(inst.z) == 64
    ys = set(inst.y)
    for x, bit in zip(inst.xs, inst.z):
        assert len(ys.intersection(x)) == bit


def test_bit_disj_warns_below_concentration_regime():
    with pytest.warns(UserWarning):
        gen_bit_disj(k=8, nprime=23, beta=0.25, seed=1)  # beta*k = 2


def test_bit_disj_validator_catches_mutations():
    inst = gen_bit_disj(k=64, nprime=43, beta=0.25, seed=9)
    flipped = tuple(1 - b for b in inst.z)
    bad = dataclasses.replace(inst, z=flipped)
    with pytest.raises(ValueError):
        validate_bit_disj(bad)
    bad = dataclasses.replace(inst, xs=inst.xs[:-1])
    with pytest.raises(ValueError):
        validate_bit_disj(bad)
    bad = dataclasses.replace(inst, y=np.append(inst.y[:-1], inst.y[0]))
    with pytest.raises(ValueError):
        validate_bit_disj(bad)


def _bit_disj_mutants():
    inst = gen_bit_disj(k=64, nprime=43, beta=0.25, seed=9)  # l' = 11
    xs, y, z = inst.xs, inst.y, inst.z

    def mutant(cells=(), bits=()):
        new_xs, new_z = xs.copy(), list(z)
        for (site, col), value in cells:
            new_xs[site, col] = value
        for site, bit in bits:
            new_z[site] = bit
        return dataclasses.replace(inst, xs=new_xs, z=tuple(new_z))

    s = z.index(0)  # a disjoint site that takes two elements of y
    return [
        pytest.param(mutant(cells=[((5, -1), xs[5, 0])]),
                     "site 5: set must hold 11 distinct elements", id="duplicate"),
        pytest.param(mutant(cells=[((6, -1), 43)]),
                     "site 6: element outside [0, 43)", id="out of range"),
        pytest.param(mutant(bits=[(7, 1 - z[7])]),
                     f"site 7: |x ∩ y| must equal z_i = {1 - z[7]}",
                     id="wrong intersection"),
        pytest.param(mutant(cells=[((s, 0), y[0]), ((s, 1), y[1])], bits=[(s, 2)]),
                     f"site {s}: z_i must be 0 or 1", id="z_i not a bit"),
        pytest.param(dataclasses.replace(inst, xs=xs[:, :-1]),
                     "site 0: set must hold 11 distinct elements", id="short rows"),
        pytest.param(dataclasses.replace(inst, xs=xs[:-1]),
                     "site 63: need one set and one bit per site", id="missing site"),
        pytest.param(mutant(cells=[((9, -1), xs[9, 0]), ((3, -1), 43)]),
                     "site 3: element outside [0, 43)", id="first failing site"),
    ]


@pytest.mark.parametrize("bad, message", _bit_disj_mutants())
def test_bit_disj_validator_names_the_failing_site(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_bit_disj(bad)


# faults in a uint16 site table: comparisons, not differences, find them,
# so no unsigned wrap (3 - 5 = 65534) reads as a rise
_UINT16_FAULTS = {
    # a descent whose value repeats an element two places back: only the
    # sorted row shows the duplicate
    "descending pair": lambda row: {5: row[2]},
    "duplicate": lambda row: {4: row[3]},
    "element n'": lambda row: {10: 43},
    "element 2**16 - 1": lambda row: {0: 2**16 - 1},
}


@pytest.mark.parametrize("fault", sorted(_UINT16_FAULTS))
def test_bit_disj_validator_names_the_site_of_a_uint16_fault(fault):
    inst = gen_bit_disj(k=64, nprime=43, beta=0.25, seed=9)  # l' = 11
    assert inst.xs.dtype == np.uint16
    xs = inst.xs.copy()
    for site in (23, 40):  # the error names the first
        for col, value in _UINT16_FAULTS[fault](xs[site]).items():
            xs[site, col] = value
    message = ("site 23: set must hold 11 distinct elements"
               if fault in ("descending pair", "duplicate")
               else "site 23: element outside [0, 43)")
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_bit_disj(dataclasses.replace(inst, xs=xs))


@pytest.mark.parametrize("fault", ["bit", "cell"])
@pytest.mark.parametrize("k, sites", [(64, (15,)), (64, (16,)), (64, (16, 15)),
                                      (70, (69,)), (70, (69, 64))])
def test_bit_disj_validator_counts_hits_across_row_blocks(k, sites, fault):
    # l' = 1001 puts 16 rows in a block of SLICE elements, so sites 15 and 16
    # end and start a block, and k = 70 ends on a block of 6 rows
    inst = gen_bit_disj(k=k, nprime=4003, beta=0.25, seed=3)
    assert SLICE // 1001 == 16
    validate_bit_disj(inst)
    xs, z = inst.xs.copy(), list(inst.z)
    for site in sites:
        if fault == "bit":
            z[site] = 1 - z[site]
        else:  # one element of y in place of one outside it: |x ∩ y| = z_i + 1
            row = xs[site]
            drop = row[~np.isin(row, inst.y)][0]
            xs[site] = np.sort(np.append(row[row != drop], np.setdiff1d(inst.y, row)[0]))
    first = min(sites)
    with pytest.raises(ValueError, match=re.escape(
            f"site {first}: |x ∩ y| must equal z_i = {z[first]}")):
        validate_bit_disj(dataclasses.replace(inst, xs=xs, z=tuple(z)))


def test_bit_disj_rejects_single_site():
    with pytest.raises(ValueError):
        gen_bit_disj(k=1, nprime=23, beta=0.5, seed=0)


# -- blockwise XOR instances ----------------------------------------------------


def test_btx_shape_and_validation():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=2)
    validate_btx(inst)
    assert inst.n_cols == 64
    assert inst.n_blocks == 16
    assert inst.inv_eps == 4
    assert inst.matrices.shape == (16, 8, 64)
    assert len(inst.types) == 16


def test_btx_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_btx(k=6, p=2.0, eps=0.25, seed=0)
    with pytest.raises(ValueError):
        gen_btx(k=2, p=2.0, eps=0.25, seed=0)
    with pytest.raises(ValueError):
        gen_btx(k=8, p=1.0, eps=0.25, seed=0)
    with pytest.raises(ValueError):
        gen_btx(k=8, p=2.0, eps=0.0, seed=0)


def test_btx_special_column_encodes_type():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=11)
    for blk in range(inst.n_blocks):
        msp = int(inst.specials[blk])
        x, y = (int(c) for c in inst.types[blk])
        col = inst.matrices[blk, :, msp]
        assert (col[:4] == x).all() and (col[4:] == y).all()


def test_btx_validator_catches_mutations():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=4)
    # flip one special-column bit
    inst.matrices[0, 0, int(inst.specials[0])] ^= 1
    with pytest.raises(ValueError):
        validate_btx(inst)
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=4)
    # put a second one into a non-special column
    blk = 0
    col = 0 if int(inst.specials[0]) != 0 else 1
    inst.matrices[blk, :, col] = 0
    inst.matrices[blk, 0, col] = 1
    inst.matrices[blk, 1, col] = 1
    with pytest.raises(ValueError):
        validate_btx(inst)
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=4)
    # move a one off its owner row
    blk, col = None, None
    for b in range(inst.n_blocks):
        sums = inst.matrices[b].sum(axis=0)
        sums[int(inst.specials[b])] = 0
        nz = np.flatnonzero(sums == 1)
        if nz.size:
            blk, col = b, int(nz[0])
            break
    assert blk is not None
    owner = int(inst.owners[blk, col])
    inst.matrices[blk, owner, col] = 0
    inst.matrices[blk, (owner + 1) % inst.k, col] = 1
    with pytest.raises(ValueError):
        validate_btx(inst)


def _btx_mutants():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=4)  # 16 blocks of 8 x 64

    def mutant(*cells):
        """inst with each (array name, index, value) cell set."""
        new = dataclasses.replace(inst, matrices=inst.matrices.copy(),
                                  owners=inst.owners.copy(),
                                  specials=inst.specials.copy())
        for name, index, value in cells:
            getattr(new, name)[index] = value
        return new

    def one_col(blk, row=None):
        """A non-special column of blk whose one sits on its owner row (on
        `row` if given), and that owner."""
        sums = inst.matrices[blk].sum(axis=0)
        sums[int(inst.specials[blk])] = 0
        col = next(int(c) for c in np.flatnonzero(sums == 1)
                   if row is None or inst.owners[blk, c] == row)
        return col, int(inst.owners[blk, col])

    def two_ones(blk):
        col, owner = one_col(blk)
        return [("matrices", (blk, (owner + 1) % 8, col), 1)]

    def moved_one(blk):
        col, owner = one_col(blk)
        return [("matrices", (blk, owner, col), 0),
                ("matrices", (blk, (owner + 1) % 8, col), 1)]

    zero2 = int(np.flatnonzero(inst.matrices[2].sum(axis=0) == 0)[0])
    sp5 = int(inst.specials[5])
    row3, _ = one_col(0, row=3)
    col9, _ = one_col(9)
    return [
        pytest.param(mutant(("matrices", (2, 1, zero2), 2)),
                     "block 2: entries must be bits", id="not a bit"),
        pytest.param(mutant(("specials", 3, 64)),
                     "block 3: special column 64 out of range",
                     id="special out of range"),
        pytest.param(dataclasses.replace(
                         inst, types=inst.types[:4] + ("2x",) + inst.types[5:]),
                     "block 4: unknown type '2x'", id="unknown type"),
        pytest.param(mutant(("matrices", (5, 0, sp5), 1 - inst.matrices[5, 0, sp5])),
                     f"block 5: special column does not match type {inst.types[5]}",
                     id="special column off its type"),
        pytest.param(mutant(*two_ones(6)),
                     "block 6: a non-special column holds two ones", id="two ones"),
        pytest.param(mutant(*moved_one(7)),
                     "block 7: a one sits off its owner row", id="one off its owner"),
        # as an index, -5 wraps round to row 3, where this column's one sits
        pytest.param(mutant(("owners", (0, row3), -5)),
                     f"block 0: owner -5 of column {row3} outside [0, 8)",
                     id="negative owner"),
        pytest.param(mutant(("owners", (9, col9), 8)),
                     f"block 9: owner 8 of column {col9} outside [0, 8)",
                     id="owner past k"),
        pytest.param(dataclasses.replace(inst, owners=inst.owners[:, :-1]),
                     "owners shape (16, 63) does not match (16, 64)",
                     id="owners shape"),
        pytest.param(dataclasses.replace(inst, specials=inst.specials[:-1]),
                     "specials shape (15,) does not match (16,)",
                     id="specials shape"),
        pytest.param(mutant(*moved_one(10), *two_ones(1)),
                     "block 1: a non-special column holds two ones",
                     id="first failing block"),
    ]


@pytest.mark.parametrize("bad, message", _btx_mutants())
def test_btx_validator_names_the_failing_block(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_btx(bad)


def _validate_btx_per_block(inst):
    """The per-block loop that validate_btx checks at once, for owners in
    [0, k) and arrays of the right shape: the first failing block's first
    failing check, or None."""
    k, n_cols = inst.k, inst.n_cols
    for blk in range(inst.n_blocks):
        mat = inst.matrices[blk]
        if not np.isin(mat, (0, 1)).all():
            return f"block {blk}: entries must be bits"
        msp = int(inst.specials[blk])
        if not 0 <= msp < n_cols:
            return f"block {blk}: special column {msp} out of range"
        typ = inst.types[blk]
        if typ not in ("00", "01", "10", "11"):
            return f"block {blk}: unknown type {typ!r}"
        x, y = int(typ[0]), int(typ[1])
        if not ((mat[: k // 2, msp] == x).all() and (mat[k // 2 :, msp] == y).all()):
            return f"block {blk}: special column does not match type {typ}"
        rest = np.delete(mat, msp, axis=1)
        sums = rest.sum(axis=0)
        if (sums > 1).any():
            return f"block {blk}: a non-special column holds two ones"
        placed = rest[np.delete(inst.owners[blk], msp), np.arange(n_cols - 1)]
        if not (placed == sums).all():
            return f"block {blk}: a one sits off its owner row"
    return None


def test_btx_validator_equals_a_per_block_loop():
    # random edits of cells, owners, specials and types, one to three at a
    # time: validate_btx raises exactly the loop's first message, or passes
    # where the loop finds nothing
    rng = np.random.Generator(np.random.PCG64(derive(7, SALT_HARD, 9)))
    base = gen_btx(k=8, p=2.0, eps=0.25, seed=4)
    failed = 0
    for _ in range(300):
        inst = dataclasses.replace(base, matrices=base.matrices.copy(),
                                   owners=base.owners.copy(),
                                   specials=base.specials.copy())
        for _ in range(rng.integers(1, 4)):
            blk = int(rng.integers(inst.n_blocks))
            edit = rng.integers(4)
            if edit == 0:
                inst.matrices[blk, rng.integers(8), rng.integers(64)] = rng.integers(3)
            elif edit == 1:
                inst.owners[blk, rng.integers(64)] = rng.integers(8)
            elif edit == 2:
                inst.specials[blk] = rng.integers(-2, 67)
            else:
                types = list(inst.types)
                types[blk] = ("00", "01", "10", "11", "2x")[rng.integers(5)]
                inst.types = tuple(types)
        want = _validate_btx_per_block(inst)
        if want is None:
            validate_btx(inst)
        else:
            failed += 1
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                validate_btx(inst)
    assert failed >= 200


def test_btx_file_with_an_owner_past_k_fails_validation(tmp_path):
    # line 15 of a k = 8 file is "#meta owners0 ..."; its first owner
    # becomes k or more, which fits int32, so the file reads and the
    # validator rejects it
    for owner in (8, 99):
        path = str(tmp_path / f"btx{owner}.txt")
        write_instance(path, gen_btx(8, 2.0, 0.25, 1))
        _edit_line(path, 15, lambda ln: f"#meta owners0 {owner} " + ln.split(None, 3)[3])
        inst = read_instance(path)
        assert inst.owners[0, 0] == owner
        with pytest.raises(ValueError, match=re.escape(f"block 0: owner {owner} of column 0")):
            validate_btx(inst)


def test_btx_type_frequencies():
    inst = gen_btx(k=8, p=2.0, eps=0.05, seed=6)  # 400 blocks
    assert inst.n_blocks == 400
    for typ in ("00", "01", "10", "11"):
        cnt = inst.types.count(typ)
        # binomial(400, 1/4): 4 sigma band around 100
        assert 100 - 4 * math.sqrt(75) <= cnt <= 100 + 4 * math.sqrt(75), typ


def test_xor_eval_examples():
    m = np.zeros((4, 5), dtype=np.uint8)
    assert xor_eval(m) == 0
    m[:2, 3] = 1  # one column with exactly k/2 = 2 ones
    assert xor_eval(m) == 1
    m[:, 3] = 1  # full column: 4 ones is not k/2
    assert xor_eval(m) == 0
    m[0, 0] = 1  # single one elsewhere does not trip the test
    assert xor_eval(m) == 0
    m[1, 0] = 1
    assert xor_eval(m) == 1


def test_btx_eval_matches_meta():
    for seed in range(25):
        inst = gen_btx(k=8, p=2.0, eps=0.25, seed=seed)
        assert btx_eval(inst) == btx_eval_from_meta(inst)


def test_btx_decision_branches():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=1)  # 16 blocks, inv_eps = 4
    inst.types = tuple(["01"] * 8 + ["00"] * 8)       # dev 0 -> 0
    assert btx_eval_from_meta(inst) == 0
    inst.types = tuple(["01"] * 16)                   # dev 8 >= 8 -> 1
    assert btx_eval_from_meta(inst) == 1
    inst.types = tuple(["01"] * 14 + ["00"] * 2)      # dev 6 in (4, 8) -> star
    assert btx_eval_from_meta(inst) is None
    inst.types = tuple(["00"] * 16)                   # dev 8 on the low side
    assert btx_eval_from_meta(inst) == 1


def test_btx_to_stream_conservation():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=13)
    events, m = btx_to_stream(inst)
    assert m == inst.n_blocks * inst.n_cols
    assert len(events) == int(inst.matrices.sum())
    validate_stream(events, m=m, k=inst.k, n=len(events))
    # per-site event counts match per-site ones
    for site in range(inst.k):
        ones = int(inst.matrices[:, site, :].sum())
        assert sum(1 for ev in events if ev.site == site) == ones


@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_btx_to_stream_equals_a_per_site_loop(k, p):
    # the reference: each site's ones in (block, column) order, site after site
    for seed in (0, 1):
        inst = gen_btx(k=k, p=p, eps=0.5, seed=seed)
        want = []
        for site in range(k):
            blocks, cols = np.nonzero(inst.matrices[:, site, :])
            for blk, col in zip(blocks.tolist(), cols.tolist()):
                want.append(StreamEvent(len(want), site, blk * inst.n_cols + col))
        events, m = btx_to_stream(inst)
        assert m == inst.n_blocks * inst.n_cols
        assert events == want
        assert all(type(ev) is StreamEvent and all(type(x) is int for x in ev)
                   for ev in events)


def test_btx_stream_moment_matches_column_sums():
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=17)
    events, m = btx_to_stream(inst)
    v = FreqVector(m=m)
    for ev in events:
        v.add(ev.j)
    col_sums = inst.matrices.sum(axis=1)  # (n_blocks, n_cols)
    assert exact_fp(v, 2) == int((col_sums.astype(np.int64) ** 2).sum())


# -- majority bits ----------------------------------------------------------------


def test_gap_maj_structure_and_eval():
    inst = gen_gap_maj(k=64, seed=3)
    validate_gap_maj(inst)
    assert len(inst.z) == 64
    assert gap_maj_eval((0,) * 16) == 0
    assert gap_maj_eval((1,) * 16) == 1
    assert gap_maj_eval((1,) * 8 + (0,) * 8) is None  # dead center
    # band edges: center 8, gap sqrt(8) = 2.83
    assert gap_maj_eval((1,) * 5 + (0,) * 11) == 0
    assert gap_maj_eval((1,) * 11 + (0,) * 5) == 1
    assert gap_maj_eval((1,) * 6 + (0,) * 10) is None
    # beta != 1/2 moves the center
    assert gap_maj_eval((1,) * 8 + (0,) * 8, beta=0.25) == 1


def test_gap_maj_validator_catches_mutations():
    inst = gen_gap_maj(k=16, seed=1)
    with pytest.raises(ValueError):
        validate_gap_maj(dataclasses.replace(inst, z=inst.z[:-1]))
    with pytest.raises(ValueError):
        validate_gap_maj(dataclasses.replace(inst, z=inst.z[:-1] + (2,)))


# -- quantile recovery --------------------------------------------------------------


def test_quantile_instance_arithmetic():
    inst = gen_quantile_instance(k=64, eps=0.05, seed=2)
    validate_quantile(inst)
    assert inst.l_rep == round(1.0 / (0.05 * 8.0)) == 2
    inst = gen_quantile_instance(k=16, eps=0.01, seed=2)
    assert inst.l_rep == 25
    with pytest.raises(ValueError):
        gen_quantile_instance(k=64, eps=0.9, seed=0)


def test_quantile_sites_encode_bits():
    inst = gen_quantile_instance(k=16, eps=0.05, seed=7)
    validate_quantile(inst)
    for site in range(inst.k):
        want = sorted(2 * i + inst.z[i][site] for i in range(inst.l_rep))
        assert list(inst.sites[site]) == want


def test_quantile_all_zero_bits_give_even_values():
    l_rep, k = 3, 4
    z = tuple((0,) * k for _ in range(l_rep))
    sites = tuple(tuple(2 * i for i in range(l_rep)) for _ in range(k))
    inst = QuantileInstance(k=k, eps=1.0 / (l_rep * 2.0), seed=0, l_rep=l_rep,
                            z=z, sites=sites)
    validate_quantile(inst)
    assert quantile_recover(inst) == [0, 0, 0]


def test_quantile_recovery_in_decidable_regime():
    for seed in range(12):
        inst = gen_quantile_instance(k=64, eps=0.02, seed=seed)
        rec = quantile_recover(inst)
        for i in range(inst.l_rep):
            s = sum(inst.z[i])
            if abs(s - inst.k / 2) >= math.sqrt(inst.k):
                assert rec[i] == (1 if s > inst.k / 2 else 0)


def test_quantile_validator_catches_mutations():
    inst = gen_quantile_instance(k=16, eps=0.05, seed=3)
    bad_rows = list(inst.sites)
    bad_rows[0] = tuple(v + 2 for v in bad_rows[0])
    with pytest.raises(ValueError):
        validate_quantile(dataclasses.replace(inst, sites=tuple(bad_rows)))
    with pytest.raises(ValueError):
        validate_quantile(dataclasses.replace(inst, l_rep=inst.l_rep + 1))


# -- serialization --------------------------------------------------------------------


def test_two_disj_round_trip(tmp_path):
    for seed in (0, 5):
        inst = gen_two_disj(23, 0.5, seed=seed)
        path = str(tmp_path / f"td{seed}.txt")
        write_instance(path, inst)
        assert read_instance(path) == inst


def test_bit_disj_file_bytes_are_pinned(tmp_path):
    # the draws and the file format together: the digest is re-recorded
    # only for an intended change of the draws (the format alone is pinned
    # below)
    path = tmp_path / "bd.txt"
    write_instance(str(path), gen_bit_disj(k=256, nprime=403, beta=0.25, seed=11))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d0b2da2ef7234afb62f33f149e1fa69d5afbccfac2b07b1ea1cf629aaca8cc8e")


def test_bit_disj_file_format_is_pinned(tmp_path):
    # the format alone, on a hand-built instance: no sampler is involved
    inst = BitDisjInstance(k=2, nprime=7, beta=0.25, seed=3,
                           y=np.array([1, 4]), xs=np.array([[1, 5], [0, 6]]),
                           z=(1, 0))
    path = tmp_path / "bd.txt"
    write_instance(str(path), inst)
    assert path.read_bytes() == (b"BITDISJ 2 7 0.25 3\n"
                                 b"0: 1 5\n"
                                 b"1: 0 6\n"
                                 b"#meta y 1 4\n"
                                 b"#meta z 1 0\n")
    validate_bit_disj(inst)
    assert read_instance(str(path)) == inst


def test_bit_disj_round_trip(tmp_path):
    inst = gen_bit_disj(k=64, nprime=43, beta=0.25, seed=4)
    path = str(tmp_path / "bd.txt")
    write_instance(path, inst)
    assert read_instance(path) == inst


def test_disj_equality_sees_one_element_and_one_bit(tmp_path):
    inst = gen_bit_disj(k=64, nprime=43, beta=0.25, seed=4)
    path = str(tmp_path / "bd.txt")
    write_instance(path, inst)
    back = read_instance(path)
    assert back == inst and not back != inst
    assert back.xs.shape == (64, 11) and back.xs.dtype == np.uint16
    assert (np.diff(back.xs, axis=1) > 0).all()
    with pytest.raises(ValueError):
        back.xs[0, 0] = 1  # read-only
    xs = back.xs.copy()
    xs[17, 4] += 1
    assert dataclasses.replace(back, xs=xs) != inst
    y = back.y.copy()
    y[0] += 1
    assert dataclasses.replace(back, y=y) != inst
    z = list(back.z)
    z[5] = 1 - z[5]
    assert dataclasses.replace(back, z=tuple(z)) != inst
    pair = gen_two_disj(23, 0.5, seed=0)
    x = pair.x.copy()
    x[2] += 1
    assert dataclasses.replace(pair, x=x) != pair
    assert dataclasses.replace(pair, x=pair.x.copy()) == pair


def test_disj_rows_are_written_as_str_writes_them(tmp_path):
    # rows are formatted and parsed a whole array at a time; any int64 but
    # the two extremes comes back as written, in the bytes str() gives it
    xs = np.array([[0, 9, 10, 99, 100],
                   [-1, -10, 2**63 - 2, -(2**63) + 2, 7]])
    inst = BitDisjInstance(k=2, nprime=19, beta=0.25, seed=1,
                           y=np.array([3, -4, 5, 6, 1000]), xs=xs, z=(0, 1))
    path = str(tmp_path / "bd.txt")
    write_instance(path, inst)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[1:] == ["0: 0 9 10 99 100",
                         "1: " + " ".join(map(str, xs[1].tolist())),
                         "#meta y 3 -4 5 6 1000", "#meta z 0 1"]
    assert read_instance(path) == inst


@pytest.mark.parametrize("nprime, dtype", [(43, np.uint16), (65535, np.uint16),
                                           (65539, np.int32)])
def test_disj_sets_take_the_narrowest_dtype_of_their_values(tmp_path, nprime, dtype):
    # uint16 while every element is below 2**16, else int32; the rule reads
    # the values, so a file reads back at the dtype it was written from
    inst = gen_bit_disj(k=32, nprime=nprime, beta=0.25, seed=7)
    pair = gen_two_disj(nprime, 0.25, seed=7)
    assert inst.xs.dtype == dtype and inst.xs.max() >= nprime - 4
    for name, path, obj in (("bd", tmp_path / "bd.txt", inst),
                            ("td", tmp_path / "td.txt", pair)):
        write_instance(str(path), obj)
        back = read_instance(str(path))
        assert back == obj
        for field_name in ("xs", "y") if name == "bd" else ("x", "y"):
            a, b = getattr(obj, field_name), getattr(back, field_name)
            want = np.uint16 if a.max() < 2**16 else np.int32
            assert a.dtype == b.dtype == want, (name, field_name)
            assert not b.flags.writeable
    with open(tmp_path / "bd.txt") as fh:
        fh.readline()
        assert fh.readline() == "0: " + " ".join(map(str, inst.xs[0].tolist())) + "\n"


@pytest.mark.parametrize("extreme, dtype", [(-1, np.int64), (2**31, np.int64),
                                             (2**31 - 1, np.int32),
                                             (2**16, np.int32),
                                             (2**16 - 1, np.uint16)])
def test_hand_built_disj_sets_keep_their_values(tmp_path, extreme, dtype):
    # a negative element, or one past int32, keeps the set at int64, so it
    # is stored and written as given
    xs = np.array([[0, 9, 10, 99], [1, 2, 3, extreme]])
    inst = BitDisjInstance(k=2, nprime=15, beta=0.25, seed=1,
                           y=np.array([3, 4, 5, extreme]), xs=xs, z=(0, 1))
    assert inst.xs.dtype == inst.y.dtype == dtype
    assert inst.xs.tolist() == xs.tolist() and xs.flags.writeable
    path = str(tmp_path / "bd.txt")
    write_instance(path, inst)
    with open(path) as fh:
        assert fh.read().splitlines()[1:] == [
            "0: 0 9 10 99", f"1: 1 2 3 {extreme}", f"#meta y 3 4 5 {extreme}",
            "#meta z 0 1"]
    back = read_instance(path)
    assert back == inst and back.xs.dtype == back.y.dtype == dtype


@pytest.mark.parametrize("middle, last, dtype", [
    ((1, 2, 3, 4), (5, 6, 7, 2**16), np.int32),
    ((1, 2, 3, 4), (5, 6, 7, -1), np.int64),
    ((1, 2, 3, 4), (5, 6, 7, 2**31), np.int64),
    ((1, 2, 3, 2**16), (5, 6, 7, -(2**63) + 2), np.int64),  # widened twice
    ((1, 2, 3, 2**31 - 1), (5, 6, 7, 8), np.int32),  # a narrow row after a wide one
])
def test_read_instance_widens_the_table_for_a_late_row(tmp_path, middle, last, dtype):
    # the reader stores rows at the dtype of the values read so far, so the
    # first row, inside the header's universe [0, 15), is stored as uint16
    # before a later row widens the table
    xs = np.array([(0, 9, 10, 14), middle, last])
    inst = BitDisjInstance(k=3, nprime=15, beta=0.25, seed=1,
                           y=np.array([3, 4, 5, 6]), xs=xs, z=(0, 1, 0))
    path = str(tmp_path / "bd.txt")
    write_instance(path, inst)
    back = read_instance(path)
    assert back == inst and back.xs.tolist() == xs.tolist()
    assert back.xs.dtype == inst.xs.dtype == dtype and back.y.dtype == np.uint16
    # a pair's two rows share the table, but each set takes its own dtype
    pair = TwoDisjInstance(15, 0.25, 1, np.array(xs[0]), np.array(last), False, None)
    write_instance(path, pair)
    back = read_instance(path)
    assert back == pair and back.x.dtype == np.uint16 and back.y.dtype == pair.y.dtype


def _traced_peak(fn) -> int:
    """Bytes of the highest traced allocation level while fn runs, above
    the level before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_bit_disj_validate_and_read_make_no_full_width_copy(tmp_path):
    # the validator looks up blocks of SLICE elements and the reader stores
    # rows at the dtype of their values, so neither makes an intp or int64
    # copy of the (k, l') table: 4x the bytes of the uint16 table each
    inst = gen_bit_disj(k=64, nprime=40003, beta=0.25, seed=7)
    assert inst.xs.dtype == np.uint16
    path = str(tmp_path / "bd.txt")
    write_instance(path, inst)
    assert _traced_peak(lambda: validate_bit_disj(inst)) <= 1.5 * inst.xs.nbytes
    assert _traced_peak(lambda: read_instance(path)) <= 2 * inst.xs.nbytes


def _edit_line(path, lineno, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if edit is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = edit(lines[lineno - 1])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# (instance, line number, edit of that line or None to delete it, line the
# error names); line 1 is the header, lines 2.. the site rows
_MALFORMED = {
    "non-integer token": ("bit", 3, lambda ln: ln + " x", 3),
    "plus sign": ("bit", 4, lambda ln: ln.replace(" ", " +", 1), 4),
    "float token": ("bit", 2, lambda ln: ln + " 1.0", 2),
    "no meta y": ("bit", 66, None, 1),
    "no meta z": ("bit", 67, None, 1),
    "bad header number": ("bit", 1, lambda ln: ln.replace(" 43 ", " 4x3 "), 1),
    "bit row too short": ("bit", 5, lambda ln: ln.rsplit(" ", 1)[0], 5),
    "bit row too long": ("bit", 65, lambda ln: ln + " 42", 65),
    "missing bit row": ("bit", 65, None, 66),
    "two row too short": ("two", 3, lambda ln: ln.rsplit(" ", 1)[0], 3),
    "no meta witness": ("two", 5, None, 1),
    # int() and float() read more than write_instance prints: every integer
    # field has the rows' -?[0-9]+ grammar, and the header float is finite
    "header seed 1_0": ("two", 1, lambda ln: "TWODISJ 2 23 0.5 1_0", 1),
    "header k plus sign": ("bit", 1, lambda ln: ln.replace(" 64 ", " +64 "), 1),
    "nan header float": ("two", 1, lambda ln: "TWODISJ 2 23 nan 0", 1),
    "inf header float": ("bit", 1, lambda ln: ln.replace(" 0.25 ", " inf "), 1),
    # the header float has read_trace's grammar: float() also reads "0.2_5"
    "header float 0.2_5": ("bit", 1, lambda ln: ln.replace(" 0.25 ", " 0.2_5 "), 1),
    "header float 1e999": ("two", 1, lambda ln: "TWODISJ 2 23 1e999 0", 1),
    "site label 1_0": ("bit", 12, lambda ln: "1_0" + ln[2:], 12),
    "site label plus sign": ("bit", 3, lambda ln: "+" + ln, 3),
    "meta witness 1_0": ("two", 5, lambda ln: "#meta witness 1_0", 5),
    "meta intersecting plus sign": ("two", 4, lambda ln: "#meta intersecting +1", 4),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_disj_file_names_path_and_line(tmp_path, case):
    kind, lineno, edit, named = _MALFORMED[case]
    inst = (gen_bit_disj(k=64, nprime=43, beta=0.25, seed=4) if kind == "bit"
            else gen_two_disj(23, 0.5, seed=0))
    path = str(tmp_path / "inst.txt")
    write_instance(path, inst)
    _edit_line(path, lineno, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {named}: ")):
        read_instance(path)


# a BTX site row's items index its (block, column) matrix cells, so the
# reader range-checks them, the row count and the block count itself, and
# counts each block's owners;
# (line, edit of that line or None to delete it, line the error names):
# lines 2..9 are the site rows of a k = 8 instance, line 11 its block count,
# line 15 block 0's owners, and line 30 its last
_MALFORMED_BTX = {
    "short owner row": (15, lambda ln: ln.rsplit(" ", 1)[0], 15),
    # owners and specials are int32: 2**40 + 3 must not read back as 3
    "owner past int32": (15, lambda ln: "#meta owners0 1099511627779 " + ln.split(None, 3)[3],
                         15),
    "owner below int32": (16, lambda ln: "#meta owners1 -2147483649 " + ln.split(None, 3)[3],
                          16),
    "special past int32": (13, lambda ln: "#meta specials 2147483648 " + ln.split(None, 3)[3],
                           13),
    "item past the last block": (3, lambda ln: ln + " 99999", 3),
    "negative item": (5, lambda ln: ln + " -1", 5),
    "site row k": (9, lambda ln: ln + "\n8: 0", 10),
    "missing last site row": (9, None, 29),
    "negative block count": (11, lambda ln: "#meta blocks -1", 11),
    # checked against the file's size before n_blocks * k * n bytes (46.6 TiB
    # here) are allocated
    "block count past the file": (11, lambda ln: "#meta blocks 100000000000", 11),
    "negative column count": (1, lambda ln: ln.replace(" 64 ", " -64 ", 1), 1),
    "block count 1_6": (11, lambda ln: "#meta blocks 1_6", 11),
    "inv_eps plus sign": (12, lambda ln: "#meta inv_eps +4", 12),
    "nan p": (10, lambda ln: "#meta p nan", 10),
    "inf p": (10, lambda ln: "#meta p -inf", 10),
    "p 2_0.0": (10, lambda ln: "#meta p 2_0.0", 10),
    "p 2.0_0": (10, lambda ln: "#meta p 2.0_0", 10),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_BTX))
def test_malformed_btx_file_names_path_and_line(tmp_path, case):
    lineno, edit, named = _MALFORMED_BTX[case]
    path = str(tmp_path / "btx.txt")
    write_instance(path, gen_btx(8, 2.0, 0.25, 1))
    _edit_line(path, lineno, edit)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {named}: ")):
        read_instance(path)


def test_btx_round_trip(tmp_path):
    inst = gen_btx(k=8, p=2.0, eps=0.25, seed=21)
    path = str(tmp_path / "btx.txt")
    write_instance(path, inst)
    back = read_instance(path)
    assert isinstance(back, BtxInstance)
    for name in ("k", "p", "eps", "seed", "n_cols", "n_blocks", "inv_eps",
                 "types"):
        assert getattr(back, name) == getattr(inst, name), name
    assert (back.matrices == inst.matrices).all()
    assert (back.owners == inst.owners).all()
    assert (back.specials == inst.specials).all()
    validate_btx(back)


def test_gap_maj_round_trip(tmp_path):
    inst = gen_gap_maj(k=32, seed=9)
    path = str(tmp_path / "gm.txt")
    write_instance(path, inst)
    assert read_instance(path) == inst


def test_quantile_round_trip(tmp_path):
    inst = gen_quantile_instance(k=16, eps=0.05, seed=13)
    path = str(tmp_path / "q.txt")
    write_instance(path, inst)
    assert read_instance(path) == inst


def test_read_instance_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("")
    with pytest.raises(ValueError):
        read_instance(path)
    with open(path, "w") as fh:
        fh.write("WHAT 1 2\n")
    with pytest.raises(ValueError):
        read_instance(path)
    with open(path, "w") as fh:
        fh.write("NOSUCH 2 23 0.5 0\n0: 1 2\n1: 3 4\n")
    with pytest.raises(ValueError):
        read_instance(path)
