"""Golden traces: fixed (stream, params, seed) runs whose trace bytes and
per-copy counters must never change.

Each case writes its trace with `params_provenance` only, so no file path
enters the digest. The expected values were recorded once and are not to be
edited; a change that alters one of them changes the protocol's behaviour
or what a trace records.
"""

import hashlib

import numpy as np
import pytest

from fpmon import buckets
from fpmon.harness import (
    exact_fp_of_events,
    gen_uniform_stream,
    gen_zipf_stream,
    params_provenance,
    simulate,
    write_trace,
)
from fpmon.monitor import Monitor
from fpmon.protocol import GlobalParams
from fpmon.sampling import SALT_INSTANCE, derive

M, K = 256, 4
THRESHOLD_N, MONITOR_N = 1500, 300

# case id -> (sha256 of the trace file, copy 0's messages_received, dropped,
# est_decreases)
GOLDEN = {
    "threshold-uniform-p1.5": (
        "89c81ef87037bcc0bec5587b3137105e71bdf6c1bdacd0c592406dde22e9293f",
        846, 1, 14),
    "threshold-uniform-p2": (
        "cd1ac4e07d361bc83332b1d25c742c5aebf08fa48fb86c8d94e225eb117eff41",
        1902, 0, 10),
    "threshold-uniform-p3": (
        "42c667b393654f1c82615c0e283788528c15286fc686e3abd21f85146dc11bbb",
        5561, 2, 18),
    "threshold-zipf-p1.5": (
        "fb6fd9f714fe9bcdb68622de394317290c54dcf869051bdf852fb4b6543df557",
        1266, 0, 30),
    "threshold-zipf-p2": (
        "04deb086eebdb3ce22bba3fc1a8418d194d6598620387e95e4a058a1f7f7f75d",
        635, 0, 14),
    "threshold-zipf-p3": (
        "6e43db4b5cffbed5d78f2bc710a60189254c7fac74e1d21ab6c084fa186aed10",
        572, 0, 5),
    "monitor-uniform-p1.5": (
        "5ea11fe0c78d48ff5284f3bf0d30262649e0224d31958d344f7b41a029f8bf98",
        7, 6, 0),
    "monitor-uniform-p2": (
        "147a229fbf70528fd6deec590f3671d485495c6ac687401b405b99114a516d64",
        7, 6, 0),
    "monitor-uniform-p3": (
        "d73ff0fa02b96ea78b6d57427e8c7d22a1e593adf83dc4841cf5bcf25514b56e",
        7, 6, 0),
    "monitor-zipf-p1.5": (
        "4e5078d4a4bbbc33fa00cdf25de76fce6f30b9a0085edcbdcaf8e9af92883d05",
        4, 4, 0),
    "monitor-zipf-p2": (
        "bac8c61d2668b65b7cd7a0318f1e3801e958b0b203454db7f61fd18434c3ab0a",
        4, 4, 0),
    "monitor-zipf-p3": (
        "cf3a3e4b767364c552da1d2a82ba0327bd4ca0072f81457f4b4b2e1430868a09",
        4, 4, 0),
}


def run_case(case: str, tmp_path):
    parts = case.split("-")
    mode, stream, p = parts[0], parts[1], float(parts[2][1:])
    n = THRESHOLD_N if mode == "threshold" else MONITOR_N
    if stream == "zipf":
        events = gen_zipf_stream(M, K, n, seed=5, s=1.1)
    else:
        events = gen_uniform_stream(M, K, n, seed=5)
    kw = dict(k=K, m=M, n=n, p=p, eps=0.5, b=16.0, r=5, seed=3)
    if mode == "threshold":
        kw.update(tau=float(exact_fp_of_events(events, p)) / 3.0, a=1)
    else:
        kw.update(a=3)
    params = GlobalParams(**kw)
    rows, state = simulate(events, params, mode=mode)
    path = tmp_path / "trace.csv"
    write_trace(str(path), rows, params_provenance(params, mode))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    copy0 = state.copies[0] if mode == "monitor" else state
    return rows, (digest, copy0.messages_received, copy0.dropped,
                  copy0.est_decreases)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace(case, tmp_path):
    rows, got = run_case(case, tmp_path)
    # every case exercises a firing: the threshold, or some ladder rung
    assert rows[-1].fired_instances >= 1
    assert got == GOLDEN[case]


# the monitor workloads' ladder: 231 copies at p = 2
LADDER = dict(k=8, m=4096, n=500, eps=0.2, b=32.0, r=15, a=3, seed=1)

# p -> sha256 over ladder_tables(Monitor(GlobalParams(p=p, **LADDER)))
LADDER_TABLES = {
    1.5: "c5fd17c618bc15f868d131c33a3d81f2b73ab5e9ec2f64c0473230eb5830aeba",
    2.0: "6fb00dae281c5275fbaa6928d08c32a939b278473503a1dc094109d29f2a2b8d",
    3.0: "02b0c79770a7d56effe1519834e4d95527a69d87874c4a49e8d20b9e0108366f",
}


def ladder_tables(mon: Monitor) -> dict[str, np.ndarray]:
    """Every table a Monitor builds with its ladder, by name. Tables are
    rebuilt, as they were once stored, from the stored ones: the count
    tables as int32, with int32's max for no crossing; the rows' keys
    unpremixed, and each row's send probability times 2**53 from its
    formula; and each copy's coin and send seeds, which no engine table
    holds, from the scalar derive."""
    bk, rows, g = mon._buckets, mon.rows, mon.params

    def wide(counts: np.ndarray) -> np.ndarray:
        # widened before the sentinel is set: int32's max does not fit int16
        counts = counts.astype(np.int32)
        return np.where(counts == bk.never, np.iinfo(np.int32).max, counts)

    table = bk.crossings._asdict()
    table.update(next=wide(table["next"]), first=wide(table["first"]))
    tables = dict(u=bk.u, h_cap=np.asarray(bk.h_cap, dtype=np.int64), off=bk.off,
                  edge=bk.edge, weight=bk.weight, lvl=bk.lvl,
                  first=wide(mon.columns.first), row_at=mon.columns.row_at)
    tables.update((f"crossings.{k}", v) for k, v in table.items())
    z = np.arange(1, g.r + 1, dtype=np.int32)[:, None]
    l = np.arange(g.l_max + 1, dtype=np.int32)
    root = np.array([c.tau ** (1.0 / g.p) for c in mon.copies])[:, None, None]
    tau_l_root = root / np.array([2.0 ** (v / g.p) for v in range(g.l_max + 1)])
    tables.update({
        "rows.z_of": np.broadcast_to(z, rows.shape).ravel(),
        "rows.l_of": np.broadcast_to(l, rows.shape).ravel(),
        **{f"rows.{name}_key": pm ^ (pm >> np.uint64(30)) ^ (pm >> np.uint64(60))
           for name, pm in (("coin", rows.coin_pm), ("send", rows.send_pm))},
        "rows.member_thresh": np.resize(rows.member_tile, rows.size),
        "rows.guard": rows.guards(),
        "rows.qscaled": np.broadcast_to(np.minimum(g.b / tau_l_root, 1.0) * 2.0**53,
                                        rows.shape).ravel()})
    pairs = [divmod(pair, mon.a) for pair in range(len(mon.copies))]
    tables.update(
        eta=np.array([c.eta for c in mon.copies]),
        **{name: np.array([derive(g.seed, SALT_INSTANCE, i, c, s) for i, c in pairs],
                          dtype=np.uint64) for s, name in enumerate(("coin", "send"))})
    return tables


def tables_digest(tables: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name, v in tables.items():
        h.update(f"{name} {v.dtype.str} {v.shape}\n".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("p", sorted(LADDER_TABLES))
def test_ladder_tables_digest(p):
    mon = Monitor(GlobalParams(p=p, **LADDER))
    assert tables_digest(ladder_tables(mon)) == LADDER_TABLES[p]


@pytest.mark.parametrize("p", sorted(LADDER_TABLES))
def test_ladder_tables_do_not_depend_on_run_boundaries(p, monkeypatch):
    # the tables are built a run of whole copies at a time; cut into runs of
    # one copy each, the ladder must come out the same, array for array
    g = GlobalParams(p=p, **LADDER)
    whole = Monitor(g)
    assert len(whole._buckets._runs()) < len(whole.copies)
    monkeypatch.setattr(buckets, "SLICE", 1)
    cut = Monitor(g)
    assert len(cut._buckets._runs()) == len(cut.copies)
    a, b = ladder_tables(whole), ladder_tables(cut)
    assert list(a) == list(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name]), name
