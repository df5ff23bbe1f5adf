#!/usr/bin/env python3
"""Benchmark of the fpmon simulator: one workload per run, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fpmon is imported from its src/ directory
and from nowhere else. Each run is a closed loop on one thread: a pass over
the workload starts only after the previous pass has ended, and a pass feeds
its stream to the program one event at a time. The load is the stream size
(or instance size) fixed in WORKLOADS. Inputs are generated from --seed
before any timing, and the program receives only the generated files and
objects. Passes repeat for --seconds, and never fewer than MIN_PASSES.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 spends
half of --seconds on plain passes and half on passes with every public layer
call site wrapped in timed spans (tracing.py), and reports the per-layer
metrics; the ratio of the two pass times is the tracing overhead. Every pass
is checked. The lines before the last describe the run and its checks; the
last stdout line is the JSON result. NOTES.md explains the workloads, the
metrics and how pass time is measured.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".fpmon-bench"

MIN_PASSES = 2
# before each pass, set-up calls run until they have taken this share of the
# previous pass's time or made SETUP_CALLS calls, and at least once
SETUP_SHARE = 0.25
SETUP_CALLS = 20
# clock stamps per sequence handed to the program (see Clock)
SEGMENTS = 64
# the reference burst's time on a quiet machine (2 vCPUs, Python 3.11.7);
# it only sets the scale of the normalized seconds (NOTES.md, "Measurement")
REF_S = 0.0005

_MONITOR = dict(kind="monitor", k=8, m=4096, n=500, eps=0.2, b=32.0, r=15, a=3)

WORKLOADS: dict[str, dict] = {
    # criterion-1 regime: one instance, fires near event 8000, after which
    # only the simulation loop, event_key and the oracle run
    "threshold-uniform": dict(kind="threshold", stream="uniform", k=8, m=4096,
                              n=20000, p=2.0, eps=0.2, tau=25000.0, b=128.0,
                              r=25),
    # criterion-2 regime: the ladder, with almost one counter per message
    "monitor-uniform": dict(_MONITOR, stream="uniform", p=2.0),
    # the same ladder at p=3 on a skewed stream: counters repeat, estimates
    # go down, and the ladder ceiling (ROADMAP 4a) shows as measured
    "monitor-zipf-p3": dict(_MONITOR, stream="zipf", zipf_s=1.1, p=3.0),
    # criterion-7 bit-disjointness pipeline plus a batch of criterion-6
    # instances; no protocol code runs
    "hardgen": dict(kind="hardgen", k=256, nprime=40003, beta=0.25, btx_k=8,
                    btx_p=2.0, btx_eps=0.25, btx_batch=20),
}

# sizes for the smoke test: every code path, well under a second per pass
TINY: dict[str, dict] = {
    "threshold-uniform": dict(m=256, n=1000, tau=2000.0),
    "monitor-uniform": dict(m=256, n=60),
    "monitor-zipf-p3": dict(m=256, n=60),
    "hardgen": dict(k=32, nprime=403, btx_batch=2),
}

STREAM_NAME = "stream.txt"  # recorded in trace provenance; keeps digests path-free


def import_fpmon() -> types.SimpleNamespace:
    """Import fpmon from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "fpmon"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: {pkg} not found; run from a checkout of fpmon")
    sys.path.insert(0, str(ROOT / "src"))
    import fpmon
    from fpmon import hardgen, harness, monitor, protocol, reductions, sampling

    if Path(fpmon.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: imported fpmon from {fpmon.__file__}, not {pkg}")
    return types.SimpleNamespace(harness=harness, hardgen=hardgen, monitor=monitor,
                                 protocol=protocol, reductions=reductions,
                                 sampling=sampling)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- pass timing -------------------------------------------------------------


def reference_burst() -> None:
    """A fixed piece of interpreter work, about REF_S long on a quiet
    machine, run between segments of a pass to read the machine's current
    speed: dict updates and integer arithmetic, like the program's loops."""
    d: dict[int, int] = {}
    s = 0
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i
        s += (i * 2654435761) & 0xFFFF


def timed_burst(burst) -> float:
    t0 = time.perf_counter()
    burst()
    return time.perf_counter() - t0


def normalized(work_s: float, ref_before: float, ref_after: float) -> float:
    """Work time in normalized seconds: in units of the reference bursts
    timed just before and after it, times REF_S."""
    return REF_S * work_s * 2.0 / (ref_before + ref_after)


class Clock:
    """Times one pass. The bench stamps between the calls it makes, and each
    sequence it hands to the program (stream events, trace rows) stamps as
    the program iterates it, once every 1/SEGMENTS of its length. Each stamp
    ends a segment of program work and times a reference burst, which the
    segments exclude; a segment's time is normalized by the bursts on either
    side of it, so that a stretch in which other tenants slow the machine
    down counts at the machine's quiet speed."""

    def __init__(self, burst=reference_burst) -> None:
        self.burst = burst
        self.segments: list[float] = []
        self.refs = [timed_burst(burst)]
        self.t = time.perf_counter()

    def stamp(self) -> None:
        self.segments.append(time.perf_counter() - self.t)
        self.refs.append(timed_burst(self.burst))
        self.t = time.perf_counter()

    def seq(self, items: list) -> list:
        return _StampedList(items, self)

    def raw_s(self) -> float:
        return sum(self.segments)

    def normalized_segments(self) -> list[float]:
        r = self.refs
        return [normalized(w, r[i], r[i + 1]) for i, w in enumerate(self.segments)]

    def normalized_s(self) -> float:
        return sum(self.normalized_segments())


class _StampedList(list):
    """A list whose iteration stamps the pass clock every few items; its
    contents, length and indexing are those of the list it copies."""

    def __init__(self, items: list, clock: Clock) -> None:
        super().__init__(items)
        self._clock = clock
        self._every = max(1, len(self) // SEGMENTS)

    def __iter__(self):
        it = super().__iter__()
        stamp, every = self._clock.stamp, self._every
        for _ in range(0, len(self), every):
            stamp()
            yield from itertools.islice(it, every)


class SetupTimer:
    """Times separate calls that build the workload's state, normalized like
    pass segments. The calls are spread over the run, a slice before every
    pass, so that their median covers the same stretch of machine time as
    the passes do."""

    def __init__(self, build) -> None:
        self.build = build
        self.samples: list[float] = []
        self.raw: list[float] = []

    def slice(self, pass_s: float) -> None:
        spent = 0.0
        ref = timed_burst(reference_burst)
        for _ in range(SETUP_CALLS):
            t0 = time.perf_counter()
            obj = self.build()
            dt = time.perf_counter() - t0
            del obj
            ref_after = timed_burst(reference_burst)
            self.samples.append(normalized(dt, ref, ref_after))
            self.raw.append(dt)
            ref = ref_after
            spent += dt
            if spent >= SETUP_SHARE * pass_s:
                return


class Run:
    """Accounting shared by all workloads: attempted and failed operations,
    and the first output digest that every pass must match."""

    def __init__(self) -> None:
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.notes: list[str] = []

    def check(self, ops: int, digest: str, problems: list[str]) -> None:
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"digest {digest} differs from first pass {self.digest}")
        self.passes += 1
        self.attempted += ops
        if problems:
            self.failed += ops
            self.notes += problems


def run_passes(wl, seconds: float, setup: SetupTimer | None = None,
               tracer: tracing.Tracer | None = None) -> tuple[list[Clock], tuple]:
    """Closed loop: run wl.one_pass() for `seconds`, and at least MIN_PASSES
    times. A pass starts only if it is expected to end within `seconds`.
    Each pass's outputs are checked by wl.after_pass outside the timed
    region and dropped before the set-up slice and the next pass, so that
    at most one pass's or set-up call's state is alive. Returns each pass's
    clock and the last pass's outputs."""
    one_pass, burst = wl.one_pass, reference_burst
    if tracer is not None:
        one_pass = tracer.wrap("bench.pass", one_pass)
        burst = tracer.wrap("bench.ref", burst)
    start = time.perf_counter()
    clocks: list[Clock] = []
    cycles: list[float] = []
    while True:
        out = ()
        t0 = time.perf_counter()
        if setup is not None:
            setup.slice(clocks[-1].raw_s() if clocks else 0.0)
        clock = Clock(burst)
        out = one_pass(clock)
        clock.stamp()
        clocks.append(clock)
        wl.after_pass(*out)
        now = time.perf_counter()
        cycles.append(now - t0)
        if (len(clocks) >= MIN_PASSES
                and now - start + statistics.median(cycles) > seconds):
            return clocks, out


def pass_time(clocks: list[Clock]) -> float:
    """Normalized pass time: for each segment, the median of its normalized
    time over the passes, summed. Passes of one run are cut alike, since the
    program is deterministic; if they were not, the median pass."""
    segs = [c.normalized_segments() for c in clocks]
    if len({len(s) for s in segs}) != 1:
        return statistics.median(sum(s) for s in segs)
    return sum(statistics.median(col) for col in zip(*segs))


# -- protocol workloads ------------------------------------------------------


class ProtocolWorkload:
    """threshold-uniform, monitor-uniform and monitor-zipf-p3: the CLI path
    read_stream -> simulate(stride=1) -> write_trace over one stream."""

    def __init__(self, fp, cfg: dict, seed: int, work: Path) -> None:
        self.fp, self.cfg, self.seed = fp, cfg, seed
        self.mode = cfg["kind"]
        self.stream_path = work / STREAM_NAME
        self.trace_path = work / "trace.csv"
        self.run = Run()

    def params(self, m: int, k: int, n: int):
        c = self.cfg
        kw = dict(k=k, m=m, n=n, p=c["p"], eps=c["eps"], b=c["b"], r=c["r"],
                  seed=self.seed)
        if self.mode == "threshold":
            kw["tau"] = c["tau"]
        else:
            kw["a"] = c["a"]
        return self.fp.protocol.GlobalParams(**kw)

    def make_inputs(self) -> None:
        h, c = self.fp.harness, self.cfg
        if c["stream"] == "zipf":
            events = h.gen_zipf_stream(c["m"], c["k"], c["n"], self.seed, s=c["zipf_s"])
        else:
            events = h.gen_uniform_stream(c["m"], c["k"], c["n"], self.seed)
        h.write_stream(str(self.stream_path), events, c["m"], c["k"], c["n"])
        self.exact_fp = h.exact_fp_of_events(events, c["p"])

    def build_state(self):
        c = self.cfg
        params = self.params(c["m"], c["k"], c["n"])
        if self.mode == "monitor":
            return self.fp.monitor.Monitor(params)
        return self.fp.protocol.ThresholdInstance(params)

    def one_pass(self, clock: Clock) -> tuple:
        h = self.fp.harness
        m, k, n, events = h.read_stream(str(self.stream_path))
        clock.stamp()
        params = self.params(m, k, n)
        rows, state = h.simulate(clock.seq(events), params, mode=self.mode, stride=1)
        clock.stamp()
        prov = h.params_provenance(params, self.mode)
        prov["stream"] = STREAM_NAME
        prov["stride"] = 1
        h.write_trace(str(self.trace_path), clock.seq(rows), prov)
        return rows, state

    def after_pass(self, rows, state) -> None:
        n = self.cfg["n"]
        problems = []
        if len(rows) != n:
            problems.append(f"trace has {len(rows)} rows, stream has {n} events")
        elif rows[-1].true_fp != float(self.exact_fp):
            problems.append(f"final true_fp {rows[-1].true_fp!r} != exact "
                            f"{self.exact_fp!r}")
        self.run.check(n, sha256(self.trace_path), problems)

    def counters(self, rows, state) -> dict:
        """Post-run protocol counters, read from public state."""
        c = self.cfg
        copies = state.copies if self.mode == "monitor" else [state]
        received = sum(inst.messages_received for inst in copies)
        last = rows[-1]
        out = {
            "messages": last.cum_messages,
            "bits_vs_forward":
                last.cum_bits / (c["n"] * self.fp.protocol.ceil_log2(c["m"])),
            "ops_failed_frac": accuracy_misses(rows, c, self.mode) / len(rows),
            "final_estimate_ratio": last.estimate / last.true_fp,
            "protocol.apply.received": received,
            "protocol.apply.dropped": sum(inst.dropped for inst in copies),
            "protocol.est_decreases": sum(inst.est_decreases for inst in copies),
            "protocol.counters": sum(len(inst.counts) for inst in copies),
            "protocol.apply.hist_update_share":
                sum(hist_moves(inst) for inst in copies) / received if received else 0.0,
            "harness.trace_bytes": self.trace_path.stat().st_size,
        }
        if self.mode == "monitor":
            out.update({
                "monitor.copies": len(state.copies),
                "monitor.rows": int(state.rows.size),
                "monitor.fired_rungs": state.fired_count(),
                "monitor.live_share": float(state.live.mean()),
            })
        return out

    def events_per_pass(self) -> int:
        return self.cfg["n"]


def hist_moves(inst) -> int:
    """Messages that moved a readable bucket, recomputed from the final
    counters: the message that took a counter from x-1 to x did so when the
    buckets of the two values differ and either is readable at its level.
    Messages dropped after termination bumped no counter and are not
    counted."""
    by_level: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
    for (z, l, j), c in inst.counts.items():
        by_level[l][c] += 1
    total = 0
    for l, finals in by_level.items():
        u = float(inst.u[l])

        def readable(h: int) -> bool:
            return 0 <= h <= inst.h_cap and int(inst.lvl_of_h[h]) == l

        moves_upto = [0]
        h_prev = -1
        for x in range(1, max(finals) + 1):
            h = inst.bucket_of_value(x * u)
            moved = h != h_prev and (readable(h_prev) or readable(h))
            moves_upto.append(moves_upto[-1] + int(moved))
            h_prev = h
        total += sum(moves_upto[c] * cnt for c, cnt in finals.items())
    return total


def accuracy_misses(rows, cfg: dict, mode: str) -> int:
    """Events at which the protocol's output misses its guarantee: a monitor
    estimate outside [(1+eps)^-2, (1+eps)^2] F_p, or a threshold output bit
    of 1 while F_p < tau/(1+eps) or of 0 while F_p >= 2^p tau."""
    p, eps = cfg["p"], cfg["eps"]
    if mode == "monitor":
        hi = (1.0 + eps) ** 2
        return sum(not (r.true_fp / hi <= r.estimate <= r.true_fp * hi) for r in rows)
    lo, top = cfg["tau"] / (1.0 + eps), 2.0**p * cfg["tau"]
    return sum((r.fired_instances == 1 and r.true_fp < lo)
               or (r.fired_instances == 0 and r.true_fp >= top) for r in rows)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- hard instances ----------------------------------------------------------


class HardgenWorkload:
    """One unit: a criterion-7 bit-disjointness instance through generate,
    validate, write/read round trip and the distinct-count reduction, plus a
    fixed batch of criterion-6 blockwise-XOR instances through generate,
    validate, moments and decision. Every pass repeats the same unit."""

    def __init__(self, fp, cfg: dict, seed: int, work: Path) -> None:
        self.fp, self.cfg, self.seed = fp, cfg, seed
        self.inst_path = work / "bitdisj.txt"
        self.run = Run()
        self.info: dict | None = None

    def make_inputs(self) -> None:
        # instances are generated inside the pass, since generation is the
        # pipeline's first step; their seeds come from --seed
        derive = self.fp.sampling.derive
        self.disj_seed = derive(self.seed, 0x4244)
        self.btx_seeds = [derive(self.seed, 0x4258, i) for i in range(self.cfg["btx_batch"])]

    def build_state(self):
        # the reference pair that every site set of an instance is drawn
        # against, which is the only state a bit-disjointness instance shares
        c = self.cfg
        return self.fp.hardgen.gen_two_disj(c["nprime"], c["beta"],
                                            self.fp.sampling.derive(self.disj_seed, 2))

    def one_pass(self, clock: Clock) -> tuple:
        hg, red, c = self.fp.hardgen, self.fp.reductions, self.cfg
        invalid: list[str] = []
        inst = hg.gen_bit_disj(c["k"], c["nprime"], c["beta"], self.disj_seed)
        clock.stamp()
        try:
            hg.validate_bit_disj(inst)
        except ValueError as exc:
            invalid.append(f"bit-disjointness instance: {exc}")
        clock.stamp()
        hg.write_instance(str(self.inst_path), inst)
        clock.stamp()
        back = hg.read_instance(str(self.inst_path))
        clock.stamp()
        lprime = (c["nprime"] + 1) // 4
        n_true = sum(back.z)
        union = np.unique(np.concatenate([np.asarray(x) for x in back.xs])).size
        lam = red.collision_rate(n_true, lprime) if n_true >= 1 else 0.0
        est = red.bit_from_f0(float(union), c["nprime"], lprime, lam)
        clock.stamp()
        batch = []
        for s in self.btx_seeds:
            b = hg.gen_btx(c["btx_k"], c["btx_p"], c["btx_eps"], s)
            try:
                hg.validate_btx(b)
            except ValueError as exc:
                invalid.append(f"blockwise-XOR instance {s}: {exc}")
            t = red.btx_moments(b)
            batch.append((b, t, red.btx_from_moments(t, c["btx_k"], c["btx_p"], c["btx_eps"])))
            clock.stamp()
        return inst, back, est, batch, invalid

    def after_pass(self, inst, back, est, batch, invalid) -> None:
        problems = list(invalid)
        if back != inst:
            problems.append("bit-disjointness instance changed in the write/read round trip")
        digest = hashlib.sha256(self.inst_path.read_bytes())
        bad_moments = agree = decided = btx_events = 0
        for b, t, decision in batch:
            bad_moments += int((t.w0, t.w1, t.w2) != btx_oracle_moments(b))
            truth = self.fp.hardgen.btx_eval(b)
            if truth is not None:
                decided += 1
                agree += int(decision == truth)
            btx_events += int(b.matrices.sum())
            digest.update(repr((t.w0, t.w1, t.w2, decision)).encode())
        if bad_moments:
            problems.append(f"{bad_moments} blockwise-XOR moment triples "
                            f"disagree with the column-sum oracle")
        self.run.check(1 + len(batch), digest.hexdigest(), problems)
        if self.info is None:
            n_true = sum(inst.z)
            self.info = {
                "hardgen.items": sum(len(x) for x in inst.xs) + btx_events,
                "hardgen.instance_bytes": self.inst_path.stat().st_size,
                "hardgen.btx_batch": len(batch),
                "ops_failed_frac": len(invalid) / (1 + len(batch)),
                "reductions.sites_true": n_true,
                "reductions.sites_recovered": est,
                "reductions.recovered_within_2.5": int(abs(est - n_true) <= 2.5),
                "reductions.btx_decided": decided,
                "reductions.btx_agree": agree,
            }

    def counters(self, *out) -> dict:
        return dict(self.info)

    def events_per_pass(self) -> int:
        return self.info["hardgen.items"]


def btx_oracle_moments(b) -> tuple[float, float, float]:
    """F_p of the union, first-half and second-half sites from column sums."""
    p = int(b.p)
    half = b.k // 2
    full = b.matrices.sum(axis=1, dtype=np.int64)
    first = b.matrices[:, :half, :].sum(axis=1, dtype=np.int64)
    return tuple(float(int((x**p).sum())) for x in (full, first, full - first))


# -- per-layer metrics -------------------------------------------------------

# (metric, span, statistic), per traced pass; a layer the workload never
# calls reads 0
SPAN_METRICS = [
    ("sampling.derive.calls", "sampling.derive", "calls"),
    ("sampling.derive.s", "sampling.derive", "total"),
    ("sampling.event_key.s", "sampling.event_key", "total"),
    ("protocol.ThresholdInstance.calls", "protocol.ThresholdInstance", "calls"),
    ("protocol.ThresholdInstance.s", "protocol.ThresholdInstance", "total"),
    ("protocol.FanRows.calls", "protocol.FanRows", "calls"),
    ("protocol.FanRows.s", "protocol.FanRows", "total"),
    ("protocol.fanout.calls", "protocol.fanout", "calls"),
    ("protocol.fanout.s", "protocol.fanout", "total"),
    ("protocol.apply.calls", "protocol.apply", "calls"),
    ("protocol.apply.self_s", "protocol.apply", "self"),
    ("monitor.init_s", "monitor.init", "total"),
    ("monitor.on_event.self_s", "monitor.on_event", "self"),
    ("oracles.fp_power.calls", "oracles.fp_power", "calls"),
    ("oracles.fp_power.s", "oracles.fp_power", "total"),
    ("harness.simulate.self_s", "harness.simulate", "self"),
    ("harness.read_stream.s", "harness.read_stream", "total"),
    ("harness.write_trace.s", "harness.write_trace", "total"),
    ("hardgen.gen_bit_disj.s", "hardgen.gen_bit_disj", "total"),
    ("hardgen.validate_bit_disj.s", "hardgen.validate_bit_disj", "total"),
    ("hardgen.write_instance.s", "hardgen.write_instance", "total"),
    ("hardgen.read_instance.s", "hardgen.read_instance", "total"),
    ("hardgen.gen_btx.s", "hardgen.gen_btx", "total"),
    ("hardgen.validate_btx.s", "hardgen.validate_btx", "total"),
    ("hardgen.btx_to_stream.s", "hardgen.btx_to_stream", "total"),
    ("reductions.btx_moments.s", "reductions.btx_moments", "total"),
    ("reductions.bit_from_f0.s", "reductions.bit_from_f0", "total"),
]

# read once, after the last pass, from public state and outputs; a workload
# without the layer reads 0
STATE_METRICS = [
    "messages", "bits_vs_forward", "ops_failed_frac",
    "protocol.apply.received", "protocol.apply.hist_update_share",
    "protocol.apply.dropped", "protocol.est_decreases", "protocol.counters",
    "monitor.copies", "monitor.rows", "monitor.fired_rungs", "monitor.live_share",
    "harness.trace_bytes", "hardgen.instance_bytes",
]


def layer_metrics(tr: tracing.Tracer, clocks: list[Clock], state: dict) -> dict:
    """Span metrics per traced pass, with span seconds normalized by the
    traced passes' own ratio of normalized to measured time."""
    passes = len(clocks)
    scale = sum(c.normalized_s() for c in clocks) / sum(c.raw_s() for c in clocks)
    stat = {"calls": tr.calls,
            "total": lambda span: tr.total_s(span) * scale,
            "self": lambda span: tr.self_s(span) * scale}
    out = {m: stat[kind](span) / passes for m, span, kind in SPAN_METRICS}
    out.update({m: state.get(m, 0) for m in STATE_METRICS})
    fan_calls = tr.calls("protocol.fanout")
    out["protocol.fanout.msgs_per_call"] = (
        state.get("messages", 0) * passes / fan_calls if fan_calls else 0.0)
    return out


# -- main --------------------------------------------------------------------


def fmt_times(times: list[float]) -> str:
    return "[" + ", ".join(f"{t:.4f}" for t in times) + "]"


def metric_block(values: dict, specs: list[dict]) -> dict:
    names = [s["name"] for s in specs]
    if set(values) != set(names):
        missing, extra = set(names) - set(values), set(values) - set(names)
        raise SystemExit(f"bench: metrics do not match BENCHMARK.json "
                         f"(missing {sorted(missing)}, extra {sorted(extra)})")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    args = ap.parse_args(argv)

    spec = load_spec()
    fp = import_fpmon()
    cfg = dict(WORKLOADS[args.workload])
    if args.size == "tiny":
        cfg.update(TINY[args.workload])

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        kind = HardgenWorkload if cfg["kind"] == "hardgen" else ProtocolWorkload
        wl = kind(fp, cfg, args.seed, work)
        t0 = time.perf_counter()
        wl.make_inputs()
        gen_s = time.perf_counter() - t0
        run = wl.run

        if args.trace == 0:
            setup = SetupTimer(wl.build_state)
            clocks, out = run_passes(wl, args.seconds, setup=setup)
            pass_s = pass_time(clocks)
            values = {
                "events_per_s": wl.events_per_pass() / pass_s,
                "instances_per_s": 1.0 / pass_s,
                "setup_s": statistics.median(setup.samples),
                "peak_rss_mb": peak_rss_mb(),
            }
            state = wl.counters(*out)
            metrics = metric_block(values, spec["end_to_end"])
        else:
            plain, _ = run_passes(wl, args.seconds / 2)
            tr = tracing.Tracer()
            tracing.install(tr, fp)
            try:
                clocks, out = run_passes(wl, args.seconds / 2, tracer=tr)
            finally:
                tr.restore()
            pass_s = pass_time(clocks)
            state = wl.counters(*out)
            values = layer_metrics(tr, clocks, state)
            values["harness.gen_stream.s"] = gen_s
            values["trace.overhead_frac"] = pass_s / pass_time(plain) - 1.0
            # program time inside a pass that no program span covers
            values["trace.residual_frac"] = tr.self_s("bench.pass") / (
                tr.total_s("bench.pass") - tr.total_s("bench.ref"))
            metrics = metric_block(values, spec["per_layer"])
        del out

        print(f"workload={args.workload} seed={args.seed} size={args.size} "
              f"trace={args.trace} passes={run.passes} "
              f"events_per_pass={wl.events_per_pass()} inputs_s={gen_s:.3f}")
        timings = [("traced_", clocks), ("plain_", plain)] if args.trace else [("", clocks)]
        for label, cs in timings:
            print(f"{label}pass_s={fmt_times([c.normalized_s() for c in cs])} "
                  f"pass_time={pass_time(cs):.4f} measured_s="
                  f"{fmt_times([c.raw_s() for c in cs])}")
        refs = [r for c in clocks for r in c.refs]
        print(f"reference_burst_s median={statistics.median(refs):.6f} "
              f"min={min(refs):.6f} ({len(refs)} bursts; REF_S={REF_S})")
        if args.trace:
            print(tr.report(len(clocks), base="bench.pass", exclude="bench.ref"))
        else:
            print(f"setup_s median={statistics.median(setup.samples):.6f} "
                  f"min={min(setup.samples):.6f} max={max(setup.samples):.6f} "
                  f"measured median={statistics.median(setup.raw):.6f} "
                  f"({len(setup.samples)} calls)")
        for name, value in state.items():
            print(f"{name}={value:.6g}")
        print(f"digest sha256={run.digest} (identical on all {run.passes} passes: "
              f"{not any('digest' in note for note in run.notes)})")
        for note in run.notes:
            print(f"CHECK FAILED: {note}")
        result = {"correct": run.failed == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
