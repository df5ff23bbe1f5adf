"""Simulator, stream/trace file formats, stream generators."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpmon.monitor
from fpmon.harness import (
    TRACE_HEADER,
    WRITE_ROWS,
    StreamEvent,
    TraceRow,
    exact_fp_of_events,
    gen_uniform_stream,
    gen_zipf_stream,
    params_provenance,
    plan_events,
    read_stream,
    read_trace,
    simulate,
    validate_stream,
    write_stream,
    write_trace,
)
from fpmon.oracles import FreqVector, exact_fp, fp_power
from fpmon.protocol import GlobalParams
from fpmon.sampling import event_key


def sim_params(**kw):
    base = dict(k=4, m=64, n=2000, p=2.0, eps=0.5, tau=3000.0, b=8.0, r=5,
                seed=1, a=1)
    base.update(kw)
    return GlobalParams(**base)


# -- stream files ------------------------------------------------------------


def test_stream_round_trip(tmp_path):
    path = str(tmp_path / "s.txt")
    events = gen_uniform_stream(64, 4, 200, seed=5)
    write_stream(path, events, m=64, k=4, n=200)
    m, k, n, back = read_stream(path)
    assert (m, k, n) == (64, 4, 200)
    assert back == events
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"64 4 200\n")
    assert b"\r" not in data


def test_stream_rejects_malformed_lines(tmp_path):
    path = str(tmp_path / "bad.txt")

    def attempt(text):
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError) as err:
            read_stream(path)
        return str(err.value)

    assert "empty" in attempt("")
    assert "line 1" in attempt("64 4\n")
    assert "line 2" in attempt("64 4 10\n0 0\n")
    assert "line 3" in attempt("64 4 10\n0 0 1\n1 0 x\n")
    # semantic violations name the offending event
    assert "not strictly increasing" in attempt("64 4 10\n5 0 1\n5 0 2\n")
    assert "site" in attempt("64 4 10\n0 4 1\n")
    assert "coordinate" in attempt("64 4 10\n0 0 64\n")
    assert "exceed" in attempt("64 4 1\n0 0 1\n1 0 2\n")


MALFORMED_STREAMS = [
    # (file text, message after "<path>: ")
    ("", "empty stream file"),
    ("64 4\n", "line 1: expected 'm k n', got '64 4'"),
    ("64 x 10\n", "line 1: non-integer header '64 x 10'"),
    ("64 4 10\n0 0\n", "line 2: expected 't site j', got '0 0'"),
    ("64 4 10\n0 0 1\n1 0 x\n", "line 3: non-integer field in '1 0 x'"),
    ("64 4 10\n5 0 1\n5 0 2\n", "event 1: time 5 not strictly increasing"),
    ("64 4 10\n0 4 1\n", "event 0: site 4 outside [0, 4)"),
    ("64 4 10\n0 0 64\n", "event 0: coordinate 64 outside [0, 64)"),
    ("64 4 1\n0 0 1\n1 0 2\n", "2 events exceed declared bound 1"),
    ("64 4 10\n0 0 1\n   \n1 0 2\n", "line 3: expected 't site j', got '   '"),
    ("64 4 10\n0 0 1\n\t\n", "line 3: expected 't site j', got '\\t'"),
    ("64 4 10\n0 0 1\n1 0 2 3\n2 0 1\n", "line 3: expected 't site j', got '1 0 2 3'"),
    ("64 4 10\n0 0 1\n1 0 2\n2 0 2.5\n", "line 4: non-integer field in '2 0 2.5'"),
    ("64 4 10\n0 0 1\n\n1 0 x\n", "line 4: non-integer field in '1 0 x'"),
    ("64 4 10\n0 0 1\n1 0 2\n2 -1 3\n", "event 2: site -1 outside [0, 4)"),
    ("64 4 10\n0 0 1\n1 0 2\n2 1 -3\n", "event 2: coordinate -3 outside [0, 64)"),
    ("64 4 10\n-1 0 1\n", "event 0: time -1 not strictly increasing"),
    # an event with several defects names its time, then its site
    ("64 4 10\n5 0 1\n5 9 99\n", "event 1: time 5 not strictly increasing"),
    ("64 4 10\n5 0 1\n6 9 99\n", "event 1: site 9 outside [0, 4)"),
    # every line parses before any event is checked
    ("64 4 10\n5 0 1\n5 0 2\n6 0\n", "line 4: expected 't site j', got '6 0'"),
    # times past int64 are read and checked like any other
    ("64 4 10\n18446744073709551621 0 1\n1 0 x\n", "line 3: non-integer field in '1 0 x'"),
    ("64 4 10\n18446744073709551621 0 1\n5 0 1\n",
     "event 1: time 5 not strictly increasing"),
    ("64 4 10\n0 0 1\n18446744073709551621 9 1\n",
     "event 1: site 9 outside [0, 4)"),
]


@pytest.fixture(params=["numpy", "scan"])
def stream_parser(request, monkeypatch):
    """read_stream as shipped, and with its one-call numpy parse made to fail,
    so that the per-line scan alone reads every file."""
    if request.param == "scan":
        def reject(*args, **kwargs):
            raise ValueError("numpy parse disabled")

        monkeypatch.setattr(fpmon.harness.np, "loadtxt", reject)
    return read_stream


@pytest.mark.parametrize("text,message", MALFORMED_STREAMS)
def test_malformed_stream_files_name_path_and_place(tmp_path, stream_parser, text,
                                                    message):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError) as err:
        stream_parser(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("data,events", [
    # blank lines in the body are skipped, and keep their line numbers
    (b"64 4 10\n0 0 1\n\n\n3 1 2\n", [(0, 0, 1), (3, 1, 2)]),
    (b"64 4 10\r\n0 0 1\r\n3 1 2\r\n", [(0, 0, 1), (3, 1, 2)]),
    (b"64 4 10\n0 0 1\n18446744073709551621 1 2\n", [(0, 0, 1), (2**64 + 5, 1, 2)]),
    (b"64 4 10\n +0\t0 1 \n3 1 +2\n", [(0, 0, 1), (3, 1, 2)]),
    (b"64 4 10\n", []),
    (b"64 4 10\n\n", []),
])
def test_stream_files_read_as_written(tmp_path, stream_parser, data, events):
    path = str(tmp_path / "s.txt")
    with open(path, "wb") as fh:
        fh.write(data)
    m, k, n, back = stream_parser(path)
    assert (m, k, n) == (64, 4, 10)
    assert back == events
    assert all(type(ev) is StreamEvent and all(type(x) is int for x in ev)
               for ev in back)


@pytest.mark.parametrize("text,line", [
    ("64 4 10\n0 0 1\n1_0 0 1\n", 3),  # int() reads "1_0" as 10
    ("64 4 10\n11 0 ٣\n", 2),  # an Arabic-Indic three
    ("64 4 10\n0 0 1\n18446744073709551621 0 1\n2_0 0 1\n", 4),
    ("6_4 4 10\n0 0 1\n", 1),
])
def test_stream_fields_are_ascii_decimal(tmp_path, stream_parser, text, line):
    path = str(tmp_path / "s.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: non-integer")):
        stream_parser(path)


@pytest.mark.parametrize("data,message", [
    (b"64 4 10\n0 0 1\n1 0 \xff\n", "line 3: non-integer field in '1 0 \\udcff'"),
    (b"64 4 \xc3\xa910\n0 0 1\n", "line 1: non-integer header '64 4 \\udcc3\\udca910'"),
    (b"64 4 10\n0 0 1\n\xc2\xa0\n", "line 3: expected 't site j', got '\\udcc2\\udca0'"),
], ids=["field", "header", "no-break-space"])
def test_stream_byte_outside_ascii_names_path_and_line(tmp_path, stream_parser, data,
                                                       message):
    # a byte that is not UTF-8 raised a UnicodeDecodeError that named no
    # file or line; each byte past ASCII now reads as a field no rule accepts
    path = str(tmp_path / "s.txt")
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ValueError) as err:
        stream_parser(path)
    assert str(err.value) == f"{path}: {message}"


def test_validate_stream_accepts_gaps_in_time():
    validate_stream(
        [StreamEvent(0, 0, 1), StreamEvent(7, 1, 2), StreamEvent(8, 0, 0)],
        m=4, k=2, n=5,
    )


def reference_validate_stream(events, m, k, n, path="<stream>"):
    """validate_stream as a loop over the events, checking each in turn."""
    if len(events) > n:
        raise ValueError(f"{path}: {len(events)} events exceed declared bound {n}")
    prev = -1
    for pos, ev in enumerate(events):
        where = f"{path}: event {pos}"
        if ev.t <= prev:
            raise ValueError(f"{where}: time {ev.t} not strictly increasing")
        prev = ev.t
        if not 0 <= ev.site < k:
            raise ValueError(f"{where}: site {ev.site} outside [0, {k})")
        if not 0 <= ev.j < m:
            raise ValueError(f"{where}: coordinate {ev.j} outside [0, {m})")


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as err:
        return str(err)
    return None


BIG = 2**70


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_stream_names_the_defect_an_event_loop_names(data):
    # a valid stream, with times up to past 2**64, and one defect injected:
    # a time not above the one before it, a site or coordinate out of range
    # on either side, or a declared bound below the event count
    k, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 64))
    size = data.draw(st.integers(1, 30))
    gaps = data.draw(st.lists(st.integers(1, 9) | st.integers(1, 2**66),
                              min_size=size - 1, max_size=size - 1))
    start = data.draw(st.integers(0, 99) | st.integers(0, BIG))
    ts = list(itertools.accumulate([start, *gaps]))
    sites = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    js = data.draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    n = data.draw(st.integers(size, size + 3))
    pos = data.draw(st.integers(0, size - 1))
    defect = data.draw(st.sampled_from(["time", "site", "coordinate", "bound", "none"]))
    if defect == "time":
        ts[pos] = data.draw(st.integers(-BIG, ts[pos - 1] if pos else -1))
    elif defect == "site":
        sites[pos] = data.draw(st.integers(-BIG, -1) | st.integers(k, BIG))
    elif defect == "coordinate":
        js[pos] = data.draw(st.integers(-BIG, -1) | st.integers(m, BIG))
    elif defect == "bound":
        n = data.draw(st.integers(0, size - 1))
    events = [StreamEvent(*ev) for ev in zip(ts, sites, js)]
    want = raised(reference_validate_stream, events, m, k, n, "s.txt")
    assert (want is None) == (defect == "none")
    assert raised(validate_stream, events, m, k, n, "s.txt") == want


# -- trace files -------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [
        TraceRow(0, 1.0, 0.0, 0, 0, 0),
        TraceRow(5, 123456.789012, 98765.4321, 17, 323, 2),
    ]
    prov = {"mode": "threshold", "seed": 3, "eps": 0.25}
    write_trace(path, rows, prov)
    back_prov, back_rows = read_trace(path)
    assert back_prov == {"mode": "threshold", "seed": "3", "eps": "0.25"}
    assert back_rows == rows
    with open(path) as fh:
        text = fh.read()
    # provenance lines sorted by key, then the fixed header
    assert text.splitlines()[3] == TRACE_HEADER
    assert "123456.789012" in text
    # floats are printed to 12 significant digits; extra digits are cut
    write_trace(path, [TraceRow(0, 123456.789012345, 0.0, 0, 0, 0)], {})
    assert read_trace(path)[1][0].true_fp == 123456.789012


def test_trace_missing_header_rejected(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write("# seed=1\n0,1,2\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_trace_short_row_names_path_and_line(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write(f"# seed=1\n{TRACE_HEADER}\n0,1,0,0,0,0\n1,2,0,0\n")
    where = re.escape(f"{path}: line 4: ")
    with pytest.raises(ValueError, match=where + r".*'1,2,0,0'"):
        read_trace(path)


def test_trace_byte_outside_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(f"# stream=caf\xe9\n{TRACE_HEADER}\n0,1,0,0,0,0\n".encode()
                     + b"1,2,\xff,0,0,0\n")
    with pytest.raises(ValueError) as err:
        read_trace(str(path))
    assert str(err.value) == f"{path}: line 4: non-numeric field in '1,2,\\udcff,0,0,0'"
    path.write_bytes(f"# stream=caf\xe9\n{TRACE_HEADER}\n".encode())
    assert read_trace(str(path)) == ({"stream": "caf\xe9"}, [])


def test_trace_non_numeric_field_names_path_and_line(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write(f"{TRACE_HEADER}\n0,1,0,0,0,0\n\n2,4,0,x,0,0\n")
    where = re.escape(f"{path}: line 4: ")
    with pytest.raises(ValueError, match=where + r".*'2,4,0,x,0,0'"):
        read_trace(path)


def reference_write_trace(path, rows, provenance):
    """write_trace as one f-string per row."""
    with open(path, "w", newline="\n") as fh:
        for key in sorted(provenance):
            fh.write(f"# {key}={provenance[key]}\n")
        fh.write(TRACE_HEADER + "\n")
        for row in rows:
            fh.write(
                f"{row.t},{row.true_fp:.12g},{row.estimate:.12g},"
                f"{row.cum_messages},{row.cum_bits},{row.fired_instances}\n"
            )


def assert_same_trace_bytes(tmp, rows, prov):
    write_trace(str(tmp / "chunked.csv"), rows, prov)
    reference_write_trace(str(tmp / "per_row.csv"), rows, prov)
    with open(tmp / "chunked.csv", "rb") as fh, open(tmp / "per_row.csv", "rb") as ref:
        assert fh.read() == ref.read()


COUNTS = st.integers(0, BIG)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.builds(TraceRow, COUNTS, st.floats(), st.floats(), COUNTS,
                               COUNTS, COUNTS), max_size=30))
def test_write_trace_matches_a_per_row_writer(tmp_path_factory, rows):
    # floats over the whole double range, inf, nan and -0.0 included
    assert_same_trace_bytes(tmp_path_factory.mktemp("trace"), rows, {"seed": 3})


def test_write_trace_matches_a_per_row_writer_across_writes(tmp_path):
    rng = random.Random(5)
    specials = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e16]
    rows = [TraceRow(rng.randrange(BIG), rng.choice(specials),
                     rng.uniform(-1e300, 1e300) * 10.0 ** -rng.randrange(600),
                     rng.randrange(BIG), rng.randrange(2**40), rng.randrange(9))
            for _ in range(2 * WRITE_ROWS + 3)]
    assert_same_trace_bytes(tmp_path, rows, {"mode": "threshold", "k": 8})
    assert_same_trace_bytes(tmp_path, rows[:WRITE_ROWS], {})
    assert_same_trace_bytes(tmp_path, [], {"mode": "threshold"})


def trace_body(path):
    """A trace file's row lines: no provenance, no header."""
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize("true_fp", [
    [1e12 - 1, 3.0, 0.0],   # whole, 12 digits: the %d form
    [1e12, 3.0],            # 13 digits: "%.12g" prints 1e+12
    [2.0**53, 7.0],         # whole, far past 12 digits
    [0.5, 2.25, 1e11],      # fractional
    [-0.0, 1.0],            # whole, but "%.12g" keeps the sign
    [-4.0, 9.0],            # negative whole
])
def test_write_trace_true_fp_and_shared_estimates_print_as_12g(tmp_path, true_fp):
    zero = 0.0
    ests = [zero, zero, -0.0, 1.5, 1.5, float("nan"), 1e300, 1e300]
    rows = [TraceRow(i, true_fp[i % len(true_fp)], ests[i % len(ests)], i, 3 * i, 0)
            for i in range(WRITE_ROWS + 20)]
    assert_same_trace_bytes(tmp_path, rows, {})
    body = trace_body(tmp_path / "chunked.csv")
    for row, line in zip(rows, body):
        fields = line.split(",")
        assert fields[1] == "%.12g" % row.true_fp and fields[2] == "%.12g" % row.estimate


def test_write_trace_of_a_p_one_and_a_half_run_prints_as_12g(tmp_path):
    events = gen_uniform_stream(64, 4, 400, seed=2)
    params = GlobalParams(k=4, m=64, n=400, p=1.5, eps=0.5, b=8.0, r=5, a=1, seed=2)
    rows, _ = simulate(events, params, mode="monitor")
    assert any(not row.true_fp.is_integer() for row in rows)
    assert len({row.estimate for row in rows}) > 1
    assert_same_trace_bytes(tmp_path, rows, {"p": 1.5})
    body = trace_body(tmp_path / "chunked.csv")
    assert [line.split(",")[1:3] for line in body] == [
        ["%.12g" % row.true_fp, "%.12g" % row.estimate] for row in rows]


# -- generators --------------------------------------------------------------


def test_uniform_stream_shape_and_determinism():
    a = gen_uniform_stream(100, 8, 500, seed=9)
    b = gen_uniform_stream(100, 8, 500, seed=9)
    c = gen_uniform_stream(100, 8, 500, seed=10)
    assert a == b
    assert a != c
    assert len(a) == 500
    assert all(ev.t == i for i, ev in enumerate(a))
    assert all(0 <= ev.site < 8 and 0 <= ev.j < 100 for ev in a)


@pytest.mark.parametrize("gen", [gen_uniform_stream, gen_zipf_stream])
def test_stream_generators_check_their_shape(gen):
    for (m, k, n), name in (((0, 4, 10), "m"), ((64, 0, 10), "k"), ((64, 4, -5), "n")):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            gen(m, k, n, 3)
    assert gen(1, 1, 0, 3) == []
    assert {ev.j for ev in gen(1, 1, 5, 3)} == {0}


@pytest.mark.parametrize("gen", [gen_uniform_stream, gen_zipf_stream])
def test_stream_generators_build_int_events(gen):
    events = gen(64, 4, 300, 3)
    assert [ev.t for ev in events] == list(range(300))
    assert all(type(ev) is StreamEvent and all(type(x) is int for x in ev)
               for ev in events)
    assert {ev.site for ev in events} <= set(range(4))
    assert {ev.j for ev in events} <= set(range(64))


def test_zipf_stream_is_skewed():
    events = gen_zipf_stream(1000, 4, 5000, seed=3, s=1.3)
    counts = {}
    for ev in events:
        counts[ev.j] = counts.get(ev.j, 0) + 1
    top = max(counts.values())
    assert top > 5 * (5000 / 1000)  # far above the uniform per-coordinate mean
    with pytest.raises(ValueError):
        gen_zipf_stream(10, 2, 10, seed=0, s=0.0)


# -- simulation --------------------------------------------------------------


def test_empty_stream_produces_empty_trace():
    assert simulate([], sim_params())[0] == []


def test_single_event_trace():
    rows = simulate([StreamEvent(0, 0, 7)], sim_params())[0]
    assert len(rows) == 1
    assert rows[0].t == 0
    assert rows[0].true_fp == 1.0
    assert rows[0].cum_bits == rows[0].cum_messages * sim_params().message_bits()


def test_trace_true_fp_matches_oracle_at_checkpoints():
    g = sim_params()
    events = gen_uniform_stream(g.m, g.k, 1200, seed=11)
    rows = simulate(events, g, stride=100)[0]
    by_t = {row.t: row for row in rows}
    v = FreqVector(m=g.m)
    for pos, ev in enumerate(events):
        v.add(ev.j)
        if ev.t in by_t:
            assert by_t[ev.t].true_fp == float(exact_fp(v, 2))
    # final event always recorded
    assert rows[-1].t == events[-1].t
    assert rows[-1].true_fp == float(exact_fp_of_events(events, 2))


def sequential_fp(events, p):
    """F_p after each event as one running sum in stream order, the way
    the per-event simulation loop kept it: exact ints for integer p."""
    agg, total, out = {}, 0, []
    for ev in events:
        c = agg.get(ev.j, 0) + 1
        agg[ev.j] = c
        total += fp_power(c, p) - fp_power(c - 1, p)
        out.append(float(total))
    return out


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
def test_true_fp_equals_a_sequential_running_sum(p):
    # simulate fills true_fp with a cumulative sum over a table of fp_power
    # values: int64 while F_p fits, exact ints past that, float64 for
    # non-integer p, added in stream order, so every row is bit for bit
    # the running sum. At p = 10 on a Zipf stream F_p passes 2**63
    g = sim_params(p=p, tau=1e9)
    events = gen_zipf_stream(g.m, g.k, 1500, seed=3, s=1.1)
    rows = simulate(events, g)[0]
    want = sequential_fp(events, p)
    assert [row.true_fp for row in rows] == want
    if p == 1.5:  # the exact oracle sums with math.fsum instead
        return
    exact = exact_fp_of_events(events, p)
    assert rows[-1].true_fp == float(exact)
    if p == 10.0:
        assert exact > 2**63


def test_stride_past_the_stream_keeps_the_first_and_last_rows():
    g = sim_params()
    events = gen_uniform_stream(g.m, g.k, 40, seed=29)
    full = simulate(events, g)[0]
    assert simulate(events, g, stride=1000)[0] == [full[0], full[-1]]
    assert simulate(events[:1], g, stride=1000)[0] == full[:1]
    assert simulate([], g, stride=1000)[0] == []


def test_trace_monotonicity_invariants():
    g = sim_params()
    events = gen_uniform_stream(g.m, g.k, 1500, seed=13)
    rows = simulate(events, g)[0]
    for a, b in zip(rows, rows[1:]):
        assert b.true_fp >= a.true_fp
        assert b.cum_messages >= a.cum_messages
        assert b.cum_bits >= a.cum_bits
        assert b.fired_instances >= a.fired_instances
    bits = g.message_bits()
    assert all(row.cum_bits == row.cum_messages * bits for row in rows)


def test_threshold_run_fires_and_freezes_traffic():
    g = sim_params(tau=500.0)
    events = gen_uniform_stream(g.m, g.k, 2000, seed=7)
    rows, inst = simulate(events, g)
    assert rows[-1].fired_instances == 1
    fire_pos = next(i for i, row in enumerate(rows) if row.fired_instances == 1)
    # after the firing event no further messages are ever sent
    tail = rows[fire_pos:]
    assert all(row.cum_messages == tail[0].cum_messages for row in tail)
    assert inst.out == 1


def test_plan_events_match_the_per_event_definitions():
    # site counts after each update, coordinates, keys equal to the scalar
    # event_key, and aggregate counts after each update, on a whole stream
    # and with a time past 2**64
    events = gen_uniform_stream(64, 4, 500, seed=3)
    events.append(StreamEvent(2**64 + 5, 2, events[0].j))
    counts, js, keys, agg = plan_events(events, 4)
    site_counts = [dict() for _ in range(4)]
    total: dict[int, int] = {}
    want, want_agg = [], []
    for ev in events:
        d = site_counts[ev.site]
        d[ev.j] = d.get(ev.j, 0) + 1
        want.append(d[ev.j])
        total[ev.j] = total.get(ev.j, 0) + 1
        want_agg.append(total[ev.j])
    assert counts.tolist() == want and max(want) > 1
    assert agg.tolist() == want_agg and max(want_agg) > max(want)
    assert js.tolist() == [ev.j for ev in events]
    assert keys.tolist() == [event_key(ev.site, ev.t) for ev in events]
    assert [a.size for a in plan_events([], 4)] == [0, 0, 0, 0]


def test_threshold_run_fans_out_runs_of_events(monkeypatch):
    # a one-copy run has few live rows, so each fanout call covers a run of
    # many planned events; one call per event means the plan was lost
    calls = 0
    fanout = fpmon.monitor.fanout

    def counted(*args):
        nonlocal calls
        calls += 1
        return fanout(*args)

    monkeypatch.setattr(fpmon.monitor, "fanout", counted)
    g = sim_params()
    events = gen_uniform_stream(g.m, g.k, 2000, seed=7)
    rows, inst = simulate(events, g)
    fire_pos = next(i for i, row in enumerate(rows) if row.fired_instances == 1)
    assert inst.out and fire_pos > 500
    assert 0 < calls <= fire_pos // 50


def test_monitor_mode_accounting():
    g = sim_params(a=1)
    events = gen_uniform_stream(g.m, g.k, 600, seed=19)
    rows, mon = simulate(events, g, mode="monitor")
    bits = mon.message_bits
    assert bits == g.message_bits(n_streams=len(mon.copies))
    assert all(row.cum_bits == row.cum_messages * bits for row in rows)
    assert rows[-1].fired_instances == mon.fired_count()
    assert rows[-1].estimate == mon.estimate()


def test_rerun_is_byte_identical(tmp_path):
    g1 = sim_params()
    g2 = sim_params()
    events = gen_uniform_stream(g1.m, g1.k, 800, seed=23)
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    write_trace(p1, simulate(events, g1)[0], params_provenance(g1, "threshold"))
    write_trace(p2, simulate(events, g2)[0], params_provenance(g2, "threshold"))
    with open(p1, "rb") as fh:
        d1 = fh.read()
    with open(p2, "rb") as fh:
        d2 = fh.read()
    assert d1 == d2


def test_simulate_validates_inputs():
    g = sim_params()
    with pytest.raises(ValueError):
        simulate([], g, mode="blended")
    with pytest.raises(ValueError):
        simulate([], g, stride=0)
    with pytest.raises(ValueError):
        simulate([StreamEvent(0, 99, 0)], g)
    with pytest.raises(ValueError, match="tau"):
        simulate([], sim_params(tau=None))  # threshold mode never runs the ladder


def test_stride_records_every_kth_plus_final():
    g = sim_params()
    events = gen_uniform_stream(g.m, g.k, 100, seed=29)
    rows = simulate(events, g, stride=30)[0]
    assert [row.t for row in rows] == [0, 30, 60, 90, 99]


def test_trace_rows_share_their_events_time_ints():
    # a row's t is its event's own int, not a new one made per row, also
    # past int64
    g = sim_params()
    for base in (10**6, 2**64):
        events = [StreamEvent(base + 3 * t, t % g.k, t % g.m) for t in range(100)]
        rows = simulate(events, g, stride=7)[0]
        picks = [*range(0, 100, 7), 99]
        assert [row.t for row in rows] == [events[i].t for i in picks]
        assert all(row.t is events[i].t for row, i in zip(rows, picks))


def test_exact_fp_of_events_int_and_float():
    events = [StreamEvent(t, 0, j) for t, j in enumerate([1, 1, 2, 1, 3])]
    assert exact_fp_of_events(events, 2) == 9 + 1 + 1
    assert exact_fp_of_events(events, 2.5) == pytest.approx(3**2.5 + 2.0)
    assert exact_fp_of_events([], 2) == 0 and exact_fp_of_events([], 2.5) == 0.0
    # the exact oracle's checks: p > 0 and coordinates >= 0
    for p in (0, -1.5):
        with pytest.raises(ValueError, match="moment order p must be positive"):
            exact_fp_of_events(events, p)
    with pytest.raises(ValueError, match="coordinate -1 outside"):
        exact_fp_of_events(events + [StreamEvent(5, 0, -1)], 2)


def test_provenance_contains_resolved_config():
    g = sim_params()
    prov = params_provenance(g, "monitor")
    for key in ("mode", "k", "m", "n", "p", "eps", "tau", "gamma", "b", "r",
                "c_fire", "a", "i_max", "seed"):
        assert key in prov
    assert prov["mode"] == "monitor"
    assert prov["b"] == 8.0


def test_provenance_records_the_ladder_only_in_monitor_mode():
    # a threshold run reads neither the amplification a nor the top rung
    # i_max, so its trace does not record them; a monitor trace does
    g = sim_params()
    assert "a" not in params_provenance(g, "threshold")
    assert "i_max" not in params_provenance(g, "threshold")
    prov = params_provenance(g, "monitor")
    assert (prov["a"], prov["i_max"]) == (g.a, g.i_max)
