"""Continuous distributed monitoring of frequency moments F_p (p > 1).

Simulator for a one-way k-site protocol that tracks F_p within a (1 + eps)
factor, with exact oracles, hard-instance generators, and estimator
reductions for validating it.
"""

from .harness import (
    StreamEvent,
    TraceRow,
    gen_uniform_stream,
    gen_zipf_stream,
    read_stream,
    read_trace,
    simulate,
    write_stream,
    write_trace,
)
from .monitor import Monitor
from .oracles import (
    FreqVector,
    SignedMultiset,
    apply_update,
    exact_entropy,
    exact_f0,
    exact_fp,
    exact_heavy_hitters,
    exact_quantile,
)
from .protocol import (
    GlobalParams,
    Message,
    SiteState,
    ThresholdInstance,
    site_on_update,
)
from .sampling import PublicCoin, derive, level_of, mix64

__version__ = "0.1.0"

__all__ = [
    "FreqVector",
    "GlobalParams",
    "Message",
    "Monitor",
    "PublicCoin",
    "SignedMultiset",
    "SiteState",
    "StreamEvent",
    "ThresholdInstance",
    "TraceRow",
    "apply_update",
    "derive",
    "exact_entropy",
    "exact_f0",
    "exact_fp",
    "exact_heavy_hitters",
    "exact_quantile",
    "gen_uniform_stream",
    "gen_zipf_stream",
    "level_of",
    "mix64",
    "read_stream",
    "read_trace",
    "simulate",
    "site_on_update",
    "write_stream",
    "write_trace",
]
