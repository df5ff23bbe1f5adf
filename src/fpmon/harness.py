"""Simulation driver and file formats for streams and traces.

Stream files: first line "m k n", then one "t site j" line per event,
LF-terminated. Trace files: "#"-prefixed provenance lines holding the fully
resolved configuration, a CSV header
t,true_fp,estimate,cum_messages,cum_bits,fired_instances, then one row per
recorded event with floats printed to 12 significant digits.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .monitor import Monitor, occurrence
from .oracles import fp_power
# fanout is not called here, and event_key only in its vectorized form
# (plan_events); bench/tracing.py patches both as harness globals
from .protocol import GlobalParams, fanout  # noqa: F401
from .sampling import MASK64, SALT_EVENT, SALT_STREAM, derive, derive_np
from .sampling import event_key  # noqa: F401

TRACE_HEADER = "t,true_fp,estimate,cum_messages,cum_bits,fired_instances"


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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- stream files ----------------------------------------------------------


def write_stream(path: str, events: Iterable[StreamEvent], m: int, k: int,
                 n: int) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m} {k} {n}\n")
        for ev in events:
            fh.write(f"{ev.t} {ev.site} {ev.j}\n")


def read_stream(path: str) -> tuple[int, int, int, list[StreamEvent]]:
    """Parse a stream file; malformed input raises ValueError naming the
    offending line."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty stream file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"{path}: line 1: expected 'm k n', got {lines[0]!r}")
    try:
        m, k, n = (int(x) for x in head)
    except ValueError:
        raise ValueError(f"{path}: line 1: non-integer header {lines[0]!r}")
    events = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: line {i}: expected 't site j', got {line!r}")
        try:
            t, site, j = (int(x) for x in parts)
        except ValueError:
            raise ValueError(f"{path}: line {i}: non-integer field in {line!r}")
        events.append(StreamEvent(t, site, j))
    validate_stream(events, m, k, n, path=path)
    return m, k, n, events


def validate_stream(events: list[StreamEvent], m: int, k: int, n: int,
                    path: str = "<stream>") -> None:
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


# -- trace files -----------------------------------------------------------


def write_trace(path: str, rows: Iterable[TraceRow],
                provenance: dict[str, object]) -> None:
    with open(path, "w", newline="\n") as fh:
        for key in sorted(provenance):
            fh.write(f"# {key}={provenance[key]}\n")
        fh.write(TRACE_HEADER + "\n")
        for row in rows:
            fh.write(
                f"{row.t},{_fmt(row.true_fp)},{_fmt(row.estimate)},"
                f"{row.cum_messages},{row.cum_bits},{row.fired_instances}\n"
            )


def read_trace(path: str) -> tuple[dict[str, str], list[TraceRow]]:
    provenance: dict[str, str] = {}
    rows: list[TraceRow] = []
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    body = []
    for i, line in enumerate(lines, start=1):
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


def gen_uniform_stream(m: int, k: int, n: int, seed: int) -> list[StreamEvent]:
    """n insertions with uniform coordinates and uniform sites."""
    rng = np.random.Generator(np.random.PCG64(derive(seed, SALT_STREAM, 0)))
    sites = rng.integers(0, k, size=n)
    js = rng.integers(0, m, size=n)
    return [StreamEvent(t, int(sites[t]), int(js[t])) for t in range(n)]


def gen_zipf_stream(m: int, k: int, n: int, seed: int,
                    s: float = 1.1) -> list[StreamEvent]:
    """n insertions with coordinate ranks drawn from a Zipf(s) law over [m]."""
    if s <= 0:
        raise ValueError(f"zipf exponent must be positive, got {s}")
    rng = np.random.Generator(np.random.PCG64(derive(seed, SALT_STREAM, 1)))
    w = np.arange(1, m + 1, dtype=np.float64) ** -s
    w /= w.sum()
    js = rng.choice(m, size=n, p=w)
    sites = rng.integers(0, k, size=n)
    return [StreamEvent(t, int(sites[t]), int(js[t])) for t in range(n)]


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
        "c_fire": params.c_fire,
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
    ts, sites, js = zip(*events) if events else ((), (), ())
    js, sites = np.array(js, dtype=np.int64), np.array(sites, dtype=np.int64)
    keys = derive_np(SALT_EVENT, sites.astype(np.uint64),
                     np.fromiter((t & MASK64 for t in ts), np.uint64, len(ts)))
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
    the messages per event; estimate (the instance's class-weighted sum, or
    the ladder bracket midpoint) and fired_instances carried forward from
    the crossing events that run() reports, the only events that move them.
    """
    if mode not in ("threshold", "monitor"):
        raise ValueError(f"mode must be 'threshold' or 'monitor', got {mode}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    validate_stream(events, params.m, params.k, params.n)

    if mode == "threshold":
        if params.tau is None:
            raise ValueError("threshold tau is required")
        monitor = Monitor(params, tau=params.tau)
        estimate = monitor.copies[0].estimate
    else:
        monitor = Monitor(params)
        estimate = monitor.estimate

    count_after, js, keys, agg = plan_events(events, params.k)
    # the estimate and fired count before the stream, then after each
    # crossing event marks[s - 1]
    marks: list[int] = []
    ests, fired = [float(estimate())], [monitor.fired_count()]

    def on_cross(i: int) -> None:
        marks.append(i)
        ests.append(float(estimate()))
        fired.append(monitor.fired_count())

    cum = np.cumsum(monitor.run(count_after, js, keys, on_cross))
    true_fp = running_fp(agg, params.p)
    picks = np.arange(0, len(events), stride)
    if picks.size and picks[-1] != len(events) - 1:
        picks = np.append(picks, len(events) - 1)
    cols = (picks, true_fp[picks], np.searchsorted(marks, picks, side="right"), cum[picks])
    bits, rows = monitor.message_bits, []
    for lo in range(0, picks.size, 1024):  # whole-stream lists raised peak RSS
        rows += [TraceRow(events[i].t, float(fp), ests[s], c, c * bits, fired[s])
                 for i, fp, s, c in zip(*(x[lo : lo + 1024].tolist() for x in cols))]
    return rows, (monitor.copies[0] if mode == "threshold" else monitor)


def exact_fp_of_events(events: list[StreamEvent], p: float) -> float | int:
    """Independent recomputation of the final F_p of a stream."""
    agg: dict[int, int] = {}
    for ev in events:
        agg[ev.j] = agg.get(ev.j, 0) + 1
    if float(p).is_integer():
        return sum(c ** int(p) for c in agg.values())
    return math.fsum(float(c) ** p for c in agg.values())
