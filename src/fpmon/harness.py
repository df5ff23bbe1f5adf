"""Simulation driver and file formats for streams and traces.

Stream files: first line "m k n", then one "t site j" line per event,
LF-terminated. Trace files: "#"-prefixed provenance lines holding the fully
resolved configuration, a CSV header
t,true_fp,estimate,cum_messages,cum_bits,fired_instances, then one row per
recorded event with floats printed to 12 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .monitor import Monitor
from .oracles import fp_power
# fanout is not called here, and event_key only in its vectorized form
# (plan_events); bench/tracing.py patches both as harness globals
from .protocol import GlobalParams, fanout  # noqa: F401
from .sampling import MASK64, SALT_EVENT, SALT_STREAM, derive, derive_np
from .sampling import event_key  # noqa: F401

TRACE_HEADER = "t,true_fp,estimate,cum_messages,cum_bits,fired_instances"


@dataclass(frozen=True)
class StreamEvent:
    """One insertion: at time t, site receives coordinate j."""

    t: int
    site: int
    j: int


@dataclass(frozen=True)
class TraceRow:
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


def plan_events(events: list[StreamEvent],
                k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-event arrays of a stream, in one pass: the site's count of the
    coordinate after the update, the coordinate, and the send-trial key
    event_key(site, t), whose labels derive() takes modulo 2**64."""
    site_counts: list[dict[int, int]] = [dict() for _ in range(k)]
    # filled in place: lists grown by append are reallocated as they grow,
    # which on a 20000-event stream left 0.9 MB more peak RSS
    n = len(events)
    counts, js, sites, ts = [0] * n, [0] * n, [0] * n, [0] * n
    for i, ev in enumerate(events):
        d = site_counts[ev.site]
        c = d.get(ev.j, 0) + 1
        d[ev.j] = c
        counts[i] = c
        js[i] = ev.j
        sites[i] = ev.site
        ts[i] = ev.t & MASK64
    keys = derive_np(SALT_EVENT, np.array(sites, dtype=np.uint64),
                     np.array(ts, dtype=np.uint64))
    return np.array(counts, dtype=np.int64), np.array(js, dtype=np.int64), keys


def simulate(events: list[StreamEvent], params: GlobalParams,
             mode: str = "threshold",
             stride: int = 1) -> tuple[list[TraceRow], object]:
    """Drive a stream through the protocol; returns the recorded trace rows
    and the final protocol state. Records one TraceRow per event whose
    position is a multiple of stride, plus the final event.

    Both modes run one engine, a Monitor: the full ladder in monitor mode,
    and in threshold mode the one-rung, one-copy ladder at params.tau, whose
    copy (a ThresholdInstance) is the state returned. The Monitor is handed
    the whole stream's plan_events() first, so that it can fan out runs of
    events at once.

    true_fp is maintained incrementally in exact arithmetic for integer p;
    estimate is the instance's class-weighted sum (threshold mode) or the
    ladder bracket midpoint (monitor mode).
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

    count_after, js, keys = plan_events(events, params.k)
    monitor.plan(count_after, js, keys)
    agg: dict[int, int] = {}
    true_fp: float | int = 0
    cum_messages = 0
    rows: list[TraceRow] = []

    last = len(events) - 1
    for pos, (ev, c_site, key) in enumerate(zip(events, count_after, keys)):
        c_agg = agg.get(ev.j, 0) + 1
        agg[ev.j] = c_agg
        true_fp += fp_power(c_agg, params.p) - fp_power(c_agg - 1, params.p)

        cum_messages += monitor.on_event(c_site, ev.j, key)

        if pos % stride == 0 or pos == last:
            rows.append(TraceRow(ev.t, float(true_fp), float(estimate()),
                                 cum_messages, cum_messages * monitor.message_bits,
                                 monitor.fired_count()))
    return rows, (monitor.copies[0] if mode == "threshold" else monitor)


def exact_fp_of_events(events: list[StreamEvent], p: float) -> float | int:
    """Independent recomputation of the final F_p of a stream."""
    agg: dict[int, int] = {}
    for ev in events:
        agg[ev.j] = agg.get(ev.j, 0) + 1
    if float(p).is_integer():
        return sum(c ** int(p) for c in agg.values())
    return math.fsum(float(c) ** p for c in agg.values())
