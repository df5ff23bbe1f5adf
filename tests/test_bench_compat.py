"""The bench's layer tracer (bench/tracing.py) wraps fpmon functions by
name; removing or renaming one of them must fail here, in tier-1."""

import importlib.util
import types
from pathlib import Path

from fpmon import hardgen, harness, monitor, protocol, reductions, sampling
from fpmon.harness import gen_uniform_stream, simulate
from fpmon.protocol import GlobalParams

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
    assert tr.calls("monitor.on_event") == len(events)
    assert tr.calls("monitor.init") == 1
    assert tr.calls("protocol.fanout") > 0
    # the traced run is the untraced one
    assert simulate(events, g, mode="monitor")[0] == rows
