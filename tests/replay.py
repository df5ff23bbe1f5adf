"""Per-message delivery to a standalone ThresholdInstance, the oracle that
the tests replay a Monitor's copies against.

A Monitor delivers a run of events at a time and hands only the crossing
messages to ThresholdInstance.apply; deliver() takes one (j, z, l) message
through the same steps on its own.
"""

import numpy as np


def deliver(inst, j: int, z: int, l: int) -> bool:
    """Deliver message (j, z, l) to a standalone instance. Returns True
    exactly when it fires the output bit. A message for a terminated
    instance is dropped and counted; otherwise its counter is bumped, and
    at the counter's next crossing count the crossing is looked up in the
    crossing table and applied. The column for j, made on j's first
    message, holds every (z, l) row."""
    if inst.terminated:
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
