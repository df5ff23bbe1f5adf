"""The engine against tests/reference.py, a per-message transcription of the
protocol that shares no engine code: equal trace rows and equal copies."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reference
from fpmon.harness import gen_uniform_stream, gen_zipf_stream, simulate
from fpmon.protocol import GlobalParams

# the only names the reference takes from fpmon: the parameters, the fire
# constant, and the scalar definitions of the sampling spec
SPEC = {
    "fpmon.protocol": {"C_FIRE", "GlobalParams"},
    "fpmon.sampling": {"SALT_INSTANCE", "SALT_SEND", "PublicCoin", "coordinate_key",
                       "derive", "event_key", "level_of", "member_threshold", "mix64",
                       "unit_open_zero"},
}


def test_reference_imports_no_engine_code():
    tree = ast.parse(Path(reference.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    for node in imports:
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "fpmon" for a in node.names)
        elif (node.module or "").split(".")[0] == "fpmon":
            assert {a.name for a in node.names} <= SPEC.get(node.module, set()), node.module
    assert any(getattr(node, "module", None) == "fpmon.sampling" for node in imports)


def difference(mode: str, p: float, a: int, stream: str, seed: int, n: int, tau: float,
               m: int = 64) -> tuple[str | None, int, int]:
    """Run one stream through simulate and the reference, which must agree
    on every trace row and on every copy's counters, medians, estimate,
    output bit, drops and estimate decreases. Returns the first difference
    (None if there is none), and the reference's rows held back by a guard
    and messages dropped. The runs are not kept: a shrinking Hypothesis
    reruns a failing test many times, and keeps its failures."""
    g = GlobalParams(k=4, m=m, n=n, p=p, eps=0.5, b=8.0, r=5, seed=seed, a=a, tau=tau)
    if stream == "zipf":
        events = gen_zipf_stream(m, 4, n, seed=seed, s=1.1)
    else:
        events = gen_uniform_stream(m, 4, n, seed=seed)
    rows, state = simulate(events, g, mode=mode)
    want_rows, want = reference.run(events, g, mode)
    copies = [state] if mode == "threshold" else state.copies
    if (len(rows), len(copies)) != (len(want_rows), len(want)):
        return "the runs differ in length", 0, 0
    for i, (x, y) in enumerate(zip(rows, want_rows)):
        if x != y:
            return f"trace row {i}: {x} != {y}", 0, 0
    for pair, (copy, ref) in enumerate(zip(copies, want)):
        got = (copy.est, copy.out, copy.dropped, copy.est_decreases)
        if got != (ref.est, ref.out, ref.dropped, ref.est_decreases):
            return (f"copy {pair}: (est, out, dropped, est_decreases) {got} != "
                    f"{ref.est, ref.out, ref.dropped, ref.est_decreases}"), 0, 0
        if copy.counts != ref.counts or not np.array_equal(copy.med, ref.med):
            return f"copy {pair}: counts or medians differ", 0, 0
    return None, sum(ref.held for ref in want), sum(ref.dropped for ref in want)


RUNS = dict(mode=st.sampled_from(["threshold", "monitor"]), p=st.sampled_from([1.5, 2.0, 3.0]),
            a=st.sampled_from([1, 3]), stream=st.sampled_from(["uniform", "zipf"]),
            seed=st.integers(0, 2**16), tau=st.floats(1.0, 1e5))


@settings(max_examples=50, deadline=None)
@given(**RUNS, n=st.integers(2, 300), reach=st.none())
# a guard that binds: rows whose guard is at least 1 hold back a site's
# count-1 update of a coordinate in their level set
@example(mode="threshold", p=2.0, a=1, stream="uniform", seed=9, n=300, tau=2000.0,
         reach="guard")
# copies that fire in the middle of an event and drop the rest of it
@example(mode="threshold", p=3.0, a=1, stream="zipf", seed=9, n=300, tau=2000.0,
         reach="drop")
@example(mode="monitor", p=1.5, a=3, stream="uniform", seed=9, n=300, tau=1.0,
         reach="drop")
def test_simulate_equals_the_reference(mode, p, a, stream, seed, n, tau, reach):
    problem, held, dropped = difference(mode, p, a, stream, seed, n, tau)
    assert problem is None, problem
    assert held > 0 if reach == "guard" else dropped > 0 if reach == "drop" else True


# no shrink phase: on streams this long, shrinking a failure took minutes;
# the fast test above shrinks the same failures on short streams
@pytest.mark.slow
@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(**RUNS, n=st.integers(2, 2000), m=st.sampled_from([16, 64, 1024]))
def test_simulate_equals_the_reference_on_longer_streams(mode, p, a, stream, seed, n, tau, m):
    problem, _, _ = difference(mode, p, a, stream, seed, n, tau, m)
    assert problem is None, problem
