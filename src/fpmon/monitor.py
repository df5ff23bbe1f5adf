"""Continuous F_p monitoring: a geometric ladder of threshold instances.

One threshold instance per tau_i = (1+eps)**i for i in 0..i_max, each
amplified by `a` independent copies with disjoint seed streams; an instance
counts as fired once a strict majority of its copies has fired. The running
estimate is the geometric midpoint of the bracket above the highest fired
instance. Fired instances stop generating traffic; everything stays one-way.

A single-threshold run is the one-rung, one-copy case of the same ladder,
driven by the same event loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import FanRows, GlobalParams, ThresholdInstance, fanout
from .sampling import SALT_INSTANCE, derive


@dataclass
class EventOutcome:
    """Per-event accounting from the monitor."""

    messages: int
    newly_fired_instances: int


class Monitor:
    """All ladder copies multiplexed over one site->coordinator channel.

    Copies share the site vectors; each (instance, copy) pair owns disjoint
    seed streams keyed by its indices. Message accounting includes messages
    that arrive after their copy terminated (they are delivered and dropped).

    With tau given, the ladder is a single rung at tau with a single copy:
    a threshold run. Its (0, 0) seeds are ThresholdInstance's defaults, so
    copies[0] replays a standalone ThresholdInstance(params) exactly.
    """

    def __init__(self, params: GlobalParams, tau: float | None = None) -> None:
        self.params = params
        if tau is None:
            self.a = params.a
            self.taus = [(1.0 + params.eps) ** i for i in range(params.i_max + 1)]
        else:
            self.a, self.taus = 1, [tau]
        self.n_instances = len(self.taus)
        self.majority = self.a // 2 + 1

        self.copies: list[ThresholdInstance] = []
        pair_rows: list[FanRows] = []
        for i in range(self.n_instances):
            for c in range(self.a):
                inst = ThresholdInstance(
                    params,
                    tau=self.taus[i],
                    coin_seed=derive(params.seed, SALT_INSTANCE, i, c, 0),
                    send_seed=derive(params.seed, SALT_INSTANCE, i, c, 1),
                    eta_seed=derive(params.seed, SALT_INSTANCE, i, c, 2),
                )
                self.copies.append(inst)
                pair_rows.append(inst.rows)

        # flat candidate rows over (instance, copy, z, l), canonical order
        self.block = pair_rows[0].size
        self.rows = _concat_rows(pair_rows)
        self.pair_of = np.repeat(
            np.arange(len(self.copies), dtype=np.int32), self.block
        )
        self.live = np.ones(self.rows.size, dtype=bool)
        self.live_pairs = len(self.copies)

        self.fired_copies = [0] * self.n_instances
        self.instance_fired = [False] * self.n_instances
        self.max_fired = -1
        self.message_bits = params.message_bits(n_streams=len(self.copies))

    def fired_count(self) -> int:
        return sum(self.instance_fired)

    def estimate(self) -> float:
        """Geometric midpoint (1+eps)**(M + 1/2) above the highest fired
        instance M; 0 before any instance fires."""
        if self.max_fired < 0:
            return 0.0
        return (1.0 + self.params.eps) ** (self.max_fired + 0.5)

    def _silence_pair(self, pair: int) -> None:
        lo = pair * self.block
        if self.live[lo]:
            self.live[lo : lo + self.block] = False
            self.live_pairs -= 1

    def on_event(self, count_after: int, j: int, ev: int) -> EventOutcome:
        """Run one site update against every live copy. Messages are
        delivered in flat canonical order; a copy that fires mid-event drops
        the rest of that event's messages addressed to it."""
        if not self.live_pairs:
            return EventOutcome(messages=0, newly_fired_instances=0)
        emit = fanout(self.rows, self.live, count_after, j, ev)
        newly_fired = 0
        if emit.size:
            for pair, z, l in zip(self.pair_of[emit].tolist(),
                                  self.rows.z_of[emit].tolist(),
                                  self.rows.l_of[emit].tolist()):
                inst = self.copies[pair]
                if inst.apply(j, z, l):
                    self._silence_pair(pair)
                    i = pair // self.a
                    self.fired_copies[i] += 1
                    if (
                        self.fired_copies[i] == self.majority
                        and not self.instance_fired[i]
                    ):
                        self.instance_fired[i] = True
                        newly_fired += 1
                        if i > self.max_fired:
                            self.max_fired = i
                        for c in range(self.a):
                            self._silence_pair(i * self.a + c)
        return EventOutcome(messages=int(emit.size), newly_fired_instances=newly_fired)


def _concat_rows(blocks: list[FanRows]) -> FanRows:
    """Concatenate per-pair row arrays without recomputing keys."""
    out = FanRows.__new__(FanRows)
    out.size = sum(b.size for b in blocks)
    out.z_of = np.concatenate([b.z_of for b in blocks])
    out.l_of = np.concatenate([b.l_of for b in blocks])
    out.coin_key = np.concatenate([b.coin_key for b in blocks])
    out.send_key = np.concatenate([b.send_key for b in blocks])
    out.member_thresh = np.concatenate([b.member_thresh for b in blocks])
    out.guard = np.concatenate([b.guard for b in blocks])
    out.qscaled = np.concatenate([b.qscaled for b in blocks])
    return out
