"""Per-message delivery to a standalone ThresholdInstance, the oracle that
the tests replay a Monitor's copies against, and that instance's site-side
rows.

A Monitor delivers a run of events at a time and hands only the crossing
messages to ThresholdInstance.apply; deliver() takes one (j, z, l) message
through the same steps on its own. A Monitor fans an update out over the
rows in its coordinate's column; sends() does the same over the rows that
members() finds, for one instance's rows from site_rows().
"""

import numpy as np

from fpmon.protocol import FanRows, fanout, members


def site_rows(inst):
    """A standalone instance's site-side rows: the one block of FanRows
    that a Monitor builds for a copy with its tau and seeds."""
    return FanRows(inst.params, [inst.tau], [inst.coin.master_seed], [inst.send_seed])


def sends(rows, gate, count_after, j: int, ev: int) -> np.ndarray:
    """Ascending flat rows that send for one update of coordinate j, whose
    site count is count_after after it and whose event key is ev: fanout
    over the rows whose level set holds j, as in a Monitor's column of j."""
    cand = np.flatnonzero(members(rows, rows.coin_pm, [j]))
    return cand[fanout(rows, gate, count_after, ev, cand)]


def deliver(inst, j: int, z: int, l: int) -> bool:
    """Deliver message (j, z, l) to a standalone instance. Returns True
    exactly when it fires the output bit. A message for a fired
    instance is dropped and counted; otherwise its counter is bumped, and
    at the counter's next crossing count the crossing is looked up in the
    crossing table and applied. The column for j, made on j's first
    message, holds every (z, l) row."""
    if inst.out:
        inst.dropped += 1
        return False
    cols = inst.columns
    if j not in cols.by_j:
        cols.add([j], np.arange(cols.block), [cols.block])
    rows, count, nxt = cols.by_j[j]
    q = (z - 1) * cols.n_levels + l
    cols.read_out = None
    count[q] += 1
    if count[q] < nxt[q]:
        return False
    t = cols.table
    e = t.at.searchsorted(cols.row_at[rows[q]] + count[q])
    nxt[q] = t.next[e]
    return inst.apply(z, int(t.left[e]), int(t.entered[e]))
