"""Timed spans around the public call sites of fpmon's layers.

The tracer rebinds functions and methods from outside the program: each
wrapped call pushes a frame on a span stack, and on return its duration is
added to its own name and to the frame of the span that called it, so a
span's self time is its duration minus the time its child spans cover.
Spans are aggregated per name (calls, total, self); the monitor workloads
make millions of `apply` calls, so only the outer phases (the bench's own
passes and the calls named in OUTER) are also kept one by one.
"""

from __future__ import annotations

import functools
import time

# spans kept individually, with start, end and depth
OUTER = {"bench.pass", "harness.read_stream", "harness.simulate",
         "harness.write_trace", "hardgen.gen_bit_disj", "hardgen.write_instance",
         "hardgen.read_instance"}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, depth
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _agg(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        """fn, timed as a span recorded under name."""
        agg = self._agg(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        outer = name in OUTER

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += stack.pop()
                if stack:
                    stack[-1] += dt
                if outer:
                    spans.append((name, t0, t1, len(stack)))

        return timed

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace owner.attr (a module global or a class's own method) by a
        timed wrapper recorded under name."""
        orig = vars(owner)[attr]
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        calls, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def report(self, per: int, base: str, exclude: str) -> str:
        """Per-name table, per pass, slowest self time first, with each self
        time's share of the program time of `base` (its total less the spans
        named `exclude`); then the outer spans of the first `base` span,
        relative to its start."""
        program = self.total_s(base) - self.total_s(exclude)
        lines = [f"{'span':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} "
                 f"{'self_share':>10s}"]
        for name in sorted(self.stats, key=self.self_s, reverse=True):
            if not self.calls(name):
                continue
            share = f"{self.self_s(name) / program:10.4f}" if name != exclude else ""
            lines.append(f"{name:32s} {self.calls(name) / per:10.0f} "
                         f"{self.total_s(name) / per:10.4f} "
                         f"{self.self_s(name) / per:10.4f} {share}")
        first = [s for s in self.spans if s[0] == base][:1]
        if first:
            _, p0, p1, _ = first[0]
            for name, t0, t1, depth in sorted(self.spans, key=lambda s: (s[1], s[3])):
                if p0 <= t0 and t1 <= p1:
                    lines.append(f"span {'  ' * depth}{name} "
                                 f"start={t0 - p0:.4f} end={t1 - p0:.4f}")
        return "\n".join(lines)


def install(tracer: Tracer, fp) -> None:
    """Wrap every layer call site the workloads reach. `fp` is a namespace
    holding the fpmon modules."""
    h, mon, proto, samp = fp.harness, fp.monitor, fp.protocol, fp.sampling
    hg, red = fp.hardgen, fp.reductions
    sites = [
        # harness I/O and simulation loop
        (h, "read_stream", "harness.read_stream"),
        (h, "simulate", "harness.simulate"),
        (h, "write_trace", "harness.write_trace"),
        # site fan-out, bound into both event loops
        (h, "fanout", "protocol.fanout"),
        (mon, "fanout", "protocol.fanout"),
        # coordinator and ladder
        (proto.ThresholdInstance, "apply", "protocol.apply"),
        (proto.ThresholdInstance, "__init__", "protocol.ThresholdInstance"),
        (proto.FanRows, "__init__", "protocol.FanRows"),
        (mon.Monitor, "on_event", "monitor.on_event"),
        (mon.Monitor, "__init__", "monitor.init"),
        # seed derivation while protocol state is built: the ladder's and the
        # instances' seeds, and each row's coin and send keys
        (proto, "derive", "sampling.derive"),
        (mon, "derive", "sampling.derive"),
        (samp.PublicCoin, "key", "sampling.derive"),
        # per-event send-trial key
        (h, "event_key", "sampling.event_key"),
        # exact oracle inside the simulation loop
        (h, "fp_power", "oracles.fp_power"),
        # hard instances and reductions
        (hg, "gen_bit_disj", "hardgen.gen_bit_disj"),
        (hg, "validate_bit_disj", "hardgen.validate_bit_disj"),
        (hg, "write_instance", "hardgen.write_instance"),
        (hg, "read_instance", "hardgen.read_instance"),
        (hg, "gen_btx", "hardgen.gen_btx"),
        (hg, "validate_btx", "hardgen.validate_btx"),
        (red, "btx_to_stream", "hardgen.btx_to_stream"),
        (red, "btx_moments", "reductions.btx_moments"),
        (red, "btx_from_moments", "reductions.btx_from_moments"),
        (red, "collision_rate", "reductions.collision_rate"),
        (red, "bit_from_f0", "reductions.bit_from_f0"),
    ]
    for owner, attr, name in sites:
        tracer.patch(owner, attr, name)
