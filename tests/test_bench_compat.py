"""The bench's layer tracer (bench/tracing.py) wraps fpmon functions by
name; removing or renaming one of them must fail here, in tier-1."""

import importlib.util
import sys
import types
from pathlib import Path

from fpmon import hardgen, harness, monitor, protocol, reductions, sampling
from fpmon.harness import gen_uniform_stream, simulate
from fpmon.protocol import GlobalParams

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
RUN = BENCH / "run.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("fpmon_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_tracer_installs_runs_and_restores():
    tracing = load_tracing()
    fp = types.SimpleNamespace(harness=harness, hardgen=hardgen, monitor=monitor,
                               protocol=protocol, reductions=reductions,
                               sampling=sampling)
    owners = [harness, monitor, protocol, sampling, hardgen, reductions,
              protocol.ThresholdInstance, protocol.FanRows, monitor.Monitor,
              sampling.PublicCoin]
    before = [dict(vars(o)) for o in owners]
    g = GlobalParams(k=4, m=64, n=200, p=2.0, eps=0.5, b=8.0, r=3, seed=1, a=1)
    events = gen_uniform_stream(g.m, g.k, 200, seed=2)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, fp)
        rows, _ = harness.simulate(events, g, mode="monitor")
    finally:
        tr.restore()
    assert [dict(vars(o)) for o in owners] == before
    assert tr.calls("harness.simulate") == 1
    # simulate hands the whole stream to one Monitor.run, which the tracer
    # does not wrap: no per-event on_event call, and one fanout per run of
    # events, fewer than the events
    assert tr.calls("monitor.on_event") == 0
    assert tr.calls("monitor.init") == 1
    assert 0 < tr.calls("protocol.fanout") < len(events)
    # the traced run is the untraced one
    assert simulate(events, g, mode="monitor")[0] == rows


def load_run(monkeypatch):
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    spec = importlib.util.spec_from_file_location("fpmon_bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_bench_hist_moves_counts_every_crossing(monkeypatch):
    # bench/run.py recomputes each copy's histogram moves from its final
    # counters; the sum over copies is the number of crossing messages the
    # Monitor sent through ThresholdInstance.cross
    run = load_run(monkeypatch)

    calls = 0
    cross = protocol.ThresholdInstance.cross

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return cross(self, *args)

    monkeypatch.setattr(protocol.ThresholdInstance, "cross", counted)
    g = GlobalParams(k=4, m=64, n=400, p=2.0, eps=0.5, b=8.0, r=3, seed=1, a=3)
    _, mon = simulate(gen_uniform_stream(g.m, g.k, 400, seed=2), g, mode="monitor")
    assert calls > 0 and sum(c.dropped for c in mon.copies) > 0
    assert sum(run.hist_moves(c) for c in mon.copies) == calls


def test_bench_hardgen_workload_passes_its_checks_at_tiny_size(monkeypatch, tmp_path):
    # the hardgen workload uses the instance types directly (back != inst,
    # np.asarray over back.xs, sum(back.z)); a type change that breaks one
    # of them fails the pass's checks here
    run = load_run(monkeypatch)
    fp = types.SimpleNamespace(harness=harness, hardgen=hardgen, monitor=monitor,
                               protocol=protocol, reductions=reductions,
                               sampling=sampling)
    cfg = dict(run.WORKLOADS["hardgen"], **run.TINY["hardgen"])
    wl = run.HardgenWorkload(fp, cfg, 3, tmp_path)
    wl.make_inputs()
    wl.after_pass(*wl.one_pass(run.Clock()))
    assert wl.run.notes == [] and wl.run.failed == 0
    assert wl.run.attempted == 1 + cfg["btx_batch"]
    assert wl.info["hardgen.items"] > cfg["k"] * (cfg["nprime"] + 1) // 4


def test_construction_builds_no_more_than_the_bench_times():
    # the bench times ThresholdInstance(params) as threshold-uniform's
    # setup_s and Monitor(params) as the monitor workloads': a standalone
    # instance builds its crossing table and counters on its first message,
    # and a Monitor builds its table in __init__, not on its first event
    g = GlobalParams(k=4, m=64, n=2000, p=2.0, eps=0.5, b=8.0, r=3, seed=1,
                     tau=50.0, a=1)
    inst = protocol.ThresholdInstance(g)
    assert "crossings" not in vars(inst._buckets)
    assert "columns" not in vars(inst)
    inst.apply(0, 1, 0)
    assert "crossings" in vars(inst._buckets) and list(inst.columns.by_j) == [0]
    for mon in (monitor.Monitor(g), monitor.Monitor(g, tau=g.tau)):
        assert "crossings" in vars(mon._buckets)
        assert mon.columns.table is mon._buckets.crossings
        assert mon.columns.by_j == {}
