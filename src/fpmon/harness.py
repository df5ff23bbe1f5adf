"""Simulation driver and file formats for streams and traces.

Stream files: first line "m k n", then one "t site j" line per event,
LF-terminated. Every field is an ASCII decimal integer, [+-]?[0-9]+, fields
are separated by whitespace, and blank lines are skipped. Trace files:
"#"-prefixed provenance lines holding the fully resolved configuration, a CSV
header t,true_fp,estimate,cum_messages,cum_bits,fired_instances, then one row
per recorded event with floats printed to 12 significant digits.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from .monitor import Monitor, occurrence
from .oracles import FreqVector, exact_fp, fp_power
# fanout is not called here, and event_key only in its vectorized form
# (plan_events); bench/tracing.py patches both as harness globals
from .protocol import C_FIRE, GlobalParams, fanout  # noqa: F401
from .sampling import MASK64, SALT_EVENT, SALT_STREAM, derive, derive_np
from .sampling import event_key  # noqa: F401

TRACE_HEADER = "t,true_fp,estimate,cum_messages,cum_bits,fired_instances"
# one stream field; int() alone also reads "1_0" and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+")
WRITE_ROWS = 4096  # trace rows formatted per write


class StreamEvent(NamedTuple):
    """One insertion: at time t, site receives coordinate j."""

    t: int
    site: int
    j: int


class TraceRow(NamedTuple):
    t: int
    true_fp: float
    estimate: float
    cum_messages: int
    cum_bits: int
    fired_instances: int


# -- stream files ----------------------------------------------------------


def write_stream(path: str, events: Iterable[StreamEvent], m: int, k: int,
                 n: int) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m} {k} {n}\n")
        for ev in events:
            fh.write(f"{ev.t} {ev.site} {ev.j}\n")


def read_lines(path: str, encoding: str) -> list[str]:
    """A text file's lines, as str.splitlines() cuts them. A byte that does
    not decode reads as a lone surrogate (U+DC80..U+DCFF), which no field of
    a stream, trace or config accepts, so its parser names the line."""
    with open(path, "rb") as fh:
        return fh.read().decode(encoding, "surrogateescape").splitlines()


def read_stream(path: str) -> tuple[int, int, int, list[StreamEvent]]:
    """Parse a stream file; malformed input raises ValueError naming the
    offending line, and a byte outside ASCII is a bad field of its line."""
    lines = read_lines(path, "ascii")
    if not lines:
        raise ValueError(f"{path}: empty stream file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"{path}: line 1: expected 'm k n', got {lines[0]!r}")
    if not all(map(_DECIMAL.fullmatch, head)):
        raise ValueError(f"{path}: line 1: non-integer header {lines[0]!r}")
    m, k, n = map(int, head)
    try:
        # the header row keeps loadtxt from warning on a body with no data
        cols = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)[1:].T
        if cols.shape != (3, len(lines) - 1 - lines.count("")):
            raise ValueError  # loadtxt skipped a whitespace-only line
    except ValueError:  # scan line by line for the bad line, or times past int64
        rows = []
        for i, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: line {i}: expected 't site j', got {line!r}")
            if not all(map(_DECIMAL.fullmatch, parts)):
                raise ValueError(f"{path}: line {i}: non-integer field in {line!r}")
            rows.append(tuple(map(int, parts)))
        cols = _stream_columns(rows)
    del lines  # before the events are built, for peak memory
    _check_stream(*cols, m, k, n, path)
    return m, k, n, events_of(*cols)


def events_of(ts, sites, js) -> list[StreamEvent]:
    """The StreamEvent list of a stream's aligned t, site and j arrays."""
    return _tuples(StreamEvent, (ts, sites, js))


def _tuples(cls: type, cols) -> list:
    """cls rows from aligned columns, without a Python call per row."""
    return list(map(tuple.__new__, repeat(cls), zip(*(c.tolist() for c in cols))))


def _stream_columns(events: Iterable[tuple[int, int, int]]) -> list[np.ndarray]:
    """A stream's t, site and j columns: int64, or Python ints past int64."""
    return list(map(_int_column, tuple(zip(*events)) or ((), (), ())))


def _int_column(col: tuple[int, ...]) -> np.ndarray:
    try:
        return np.array(col, dtype=np.int64)
    except OverflowError:
        return np.array(col, dtype=object)


def validate_stream(events: list[StreamEvent], m: int, k: int, n: int,
                    path: str = "<stream>") -> None:
    _check_stream(*_stream_columns(events), m, k, n, path)


def _check_stream(ts, sites, js, m: int, k: int, n: int, path: str) -> None:
    """validate_stream on a stream's columns: the first bad event raises."""
    if ts.size > n:
        raise ValueError(f"{path}: {ts.size} events exceed declared bound {n}")
    prev = np.concatenate((np.array([-1], ts.dtype), ts[:-1]))
    bad = (ts <= prev) | (sites < 0) | (sites >= k) | (js < 0) | (js >= m)
    for i in np.flatnonzero(bad)[:1].tolist():  # the first bad event, if any
        t, site, j, where = int(ts[i]), int(sites[i]), int(js[i]), f"{path}: event {i}"
        raise ValueError(f"{where}: time {t} not strictly increasing" if t <= prev[i] else
                         f"{where}: site {site} outside [0, {k})" if not 0 <= site < k else
                         f"{where}: coordinate {j} outside [0, {m})")


# -- trace files -----------------------------------------------------------


def write_trace(path: str, rows: Iterable[TraceRow],
                provenance: dict[str, object]) -> None:
    with open(path, "w", newline="\n") as fh:
        for key in sorted(provenance):
            fh.write(f"# {key}={provenance[key]}\n")
        fh.write(TRACE_HEADER + "\n")
        fields = chain.from_iterable(rows)
        while chunk := list(islice(fields, 6 * WRITE_ROWS)):
            fmt = _row_format(chunk)
            args = tuple(chunk)
            del chunk  # one copy of the fields while the chunk is formatted
            fh.write(fmt * (len(args) // 6) % args)


def _row_format(flat: list) -> str:
    """The %-format of one trace row, for rows whose fields are laid out
    flat, whose bytes are "%d,%.12g,%.12g,%d,%d,%d\n" % row ("%.12g" % x
    equals f"{x:.12g}" for every double). Two shortcuts keep those bytes:
    - a whole true_fp below 1e12 in magnitude and without a sign bit has at
      most 12 digits, so "%.12g" prints it as "%d" does; the format uses %d
      when every row's true_fp is such;
    - rows between two crossings share one estimate, so each run of equal
      bits is formatted once, and flat's estimates become those strings."""
    fp = np.array(flat[1::6], dtype=np.float64)
    whole = ((np.abs(fp) < 1e12) & (fp == np.floor(fp)) & ~np.signbit(fp)).all()
    bits = np.array(flat[2::6], dtype=np.float64).view(np.int64)
    head = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    est = ["%.12g" % x for x in bits[head].view(np.float64).tolist()]
    flat[2::6] = np.repeat(np.array(est, dtype=object), np.diff(head, append=bits.size)).tolist()
    return "%d,%d,%s,%d,%d,%d\n" if whole else "%d,%.12g,%s,%d,%d,%d\n"


def read_trace(path: str) -> tuple[dict[str, str], list[TraceRow]]:
    provenance: dict[str, str] = {}
    rows: list[TraceRow] = []
    body = []
    for i, line in enumerate(read_lines(path, "utf-8"), start=1):
        if line.startswith("#"):
            text = line[1:].strip()
            if "=" in text:
                key, val = text.split("=", 1)
                provenance[key.strip()] = val
        elif line:
            body.append((i, line))
    if not body or body[0][1] != TRACE_HEADER:
        raise ValueError(f"{path}: missing trace header")
    for i, line in body[1:]:
        f = line.split(",")
        if len(f) != 6:
            raise ValueError(f"{path}: line {i}: expected 6 fields, got {line!r}")
        try:
            rows.append(TraceRow(int(f[0]), float(f[1]), float(f[2]), int(f[3]),
                                 int(f[4]), int(f[5])))
        except ValueError:
            raise ValueError(f"{path}: line {i}: non-numeric field in {line!r}")
    return provenance, rows


# -- stream generators -----------------------------------------------------


def _check_shape(m: int, k: int, n: int) -> None:
    for name, value, least in (("m", m, 1), ("k", k, 1), ("n", n, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def gen_uniform_stream(m: int, k: int, n: int, seed: int) -> list[StreamEvent]:
    """n insertions with uniform coordinates and uniform sites."""
    _check_shape(m, k, n)
    rng = np.random.Generator(np.random.PCG64(derive(seed, SALT_STREAM, 0)))
    sites = rng.integers(0, k, size=n)
    return events_of(np.arange(n), sites, rng.integers(0, m, size=n))


def gen_zipf_stream(m: int, k: int, n: int, seed: int,
                    s: float = 1.1) -> list[StreamEvent]:
    """n insertions with coordinate ranks drawn from a Zipf(s) law over [m]."""
    _check_shape(m, k, n)
    if s <= 0:
        raise ValueError(f"zipf exponent must be positive, got {s}")
    rng = np.random.Generator(np.random.PCG64(derive(seed, SALT_STREAM, 1)))
    w = np.arange(1, m + 1, dtype=np.float64) ** -s
    w /= w.sum()
    js = rng.choice(m, size=n, p=w)
    return events_of(np.arange(n), rng.integers(0, k, size=n), js)


# -- simulation ------------------------------------------------------------


def params_provenance(params: GlobalParams, mode: str) -> dict[str, object]:
    """Fully resolved configuration; a trace is reproducible from this. The
    ladder's a and i_max are left out of threshold mode, which reads
    neither."""
    prov: dict[str, object] = {
        "mode": mode,
        "k": params.k,
        "m": params.m,
        "n": params.n,
        "p": params.p,
        "eps": params.eps,
        "tau": params.tau,
        "gamma": params.gamma,
        "b": params.b,
        "r": params.r,
        "c_fire": C_FIRE,
        "seed": params.seed,
    }
    if mode == "monitor":
        prov.update(a=params.a, i_max=params.i_max)
    return prov


def plan_events(events: list[StreamEvent], k: int) -> tuple[np.ndarray, ...]:
    """Per-event arrays of a stream: the site's count of the coordinate
    after the update, the coordinate, the send-trial key event_key(site, t)
    (derive() takes labels modulo 2**64), and the coordinate's aggregate
    count over all sites after the update."""
    return _plan(*_stream_columns(events), k)


def _plan(ts: np.ndarray, sites: np.ndarray, js: np.ndarray, k: int) -> tuple:
    keys = derive_np(SALT_EVENT, sites.astype(np.uint64),
                     (ts & MASK64 if ts.dtype == object else ts).astype(np.uint64))
    return occurrence(js * k + sites), js, keys, occurrence(js)


def running_fp(agg: np.ndarray, p: float) -> np.ndarray:
    """F_p after each event, given each event's aggregate count c of its
    coordinate: the running sum of c**p - (c - 1)**p, read from a table of
    fp_power values. The table is int64 while F_p fits (F_p <= max(c)**(p-1)
    * events bounds it), exact Python ints past that, and float64 for
    non-integer p, where np.cumsum adds in order, as a running sum does."""
    top = int(agg.max()) if agg.size else 0
    dtype = (np.float64 if not float(p).is_integer() else
             np.int64 if top ** (int(p) - 1) * agg.size < 2**63 else object)
    table = np.array([fp_power(c, p) for c in range(top + 1)], dtype=dtype)
    return np.cumsum(table[agg] - table[agg - 1])


def simulate(events: list[StreamEvent], params: GlobalParams,
             mode: str = "threshold",
             stride: int = 1) -> tuple[list[TraceRow], object]:
    """Drive a stream through the protocol; returns the recorded trace rows
    and the final protocol state. Records one TraceRow per event whose
    position is a multiple of stride, plus the final event.

    Both modes run one engine, a Monitor: the full ladder in monitor mode,
    and in threshold mode the one-rung, one-copy ladder at params.tau, whose
    copy (a ThresholdInstance) is the state returned. The stream goes
    through one Monitor.run() call on the arrays of plan_events(), and only
    the recorded rows are built, from arrays: true_fp is running_fp() of the
    aggregate counts, exact for integer p; cum_messages the running sum of
    the messages per event; estimate and fired_instances are read from the
    Monitor's record of its crossing events, the only events that move them.
    """
    if mode not in ("threshold", "monitor"):
        raise ValueError(f"mode must be 'threshold' or 'monitor', got {mode}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    times, sites, js = tuple(zip(*events)) or ((), (), ())
    ts, sites, js = map(_int_column, (times, sites, js))
    _check_stream(ts, sites, js, params.m, params.k, params.n, "<stream>")
    times = np.array(times, dtype=object)  # the rows' t: the events' own ints

    threshold = mode == "threshold"
    if threshold and params.tau is None:
        raise ValueError("threshold tau is required")
    monitor = Monitor(params, tau=params.tau if threshold else None)
    count_after, js, keys, agg = _plan(ts, sites, js, params.k)
    cum = np.cumsum(monitor.run(count_after, js, keys))
    true_fp = running_fp(agg, params.p)
    picks = np.arange(0, len(events), stride)
    if picks.size and picks[-1] != len(events) - 1:
        picks = np.append(picks, len(events) - 1)
    marks, ests, fired = zip(*monitor.record)
    # an object array shares each estimate's float among the rows that carry it
    marks, ests, fired = np.array(marks), np.array(ests, dtype=object), np.array(fired)
    rows: list[TraceRow] = []
    for lo in range(0, picks.size, 1024):  # whole-stream columns raised peak RSS
        i = picks[lo : lo + 1024]
        s, c = np.searchsorted(marks, i, side="right") - 1, cum[i]
        rows += _tuples(TraceRow, (times[i], true_fp[i].astype(np.float64), ests[s], c,
                                   c * monitor.message_bits, fired[s]))
    return rows, (monitor.copies[0] if threshold else monitor)


def exact_fp_of_events(events: list[StreamEvent], p: float) -> float | int:
    """Independent recomputation of a stream's final F_p: the exact oracle."""
    counts = Counter(map(attrgetter("j"), events))
    return exact_fp(FreqVector(1 + max([0, *counts]), counts), p)
