"""Golden traces: fixed (stream, params, seed) runs whose trace bytes and
per-copy counters must never change.

Each case writes its trace with `params_provenance` only, so no file path
enters the digest. The expected values were recorded once and are not to be
edited; a change that alters one of them changes the protocol's behaviour.
"""

import hashlib

import pytest

from fpmon.harness import (
    exact_fp_of_events,
    gen_uniform_stream,
    gen_zipf_stream,
    params_provenance,
    simulate,
    write_trace,
)
from fpmon.protocol import GlobalParams

M, K = 256, 4
THRESHOLD_N, MONITOR_N = 1500, 300

# case id -> (sha256 of the trace file, copy 0's messages_received, dropped,
# est_decreases)
GOLDEN = {
    "threshold-uniform-p1.5": (
        "06ad5f0612764f3baf959dee22fce476f0b4fbd3c8bd757114339832a5e342de",
        846, 1, 14),
    "threshold-uniform-p2": (
        "3019dbcf8c5a9755b51515febbc9f96022e73f18829b96001957351cab505cca",
        1902, 0, 10),
    "threshold-uniform-p3": (
        "20f699c7d5621a660913e249194e23d133286f0e2d056d52479400d33546ef11",
        5561, 2, 18),
    "threshold-zipf-p1.5": (
        "43b515d090bba68512f8843502046f038eb621c05543d61b2f1c5ee374d4da40",
        1266, 0, 30),
    "threshold-zipf-p2": (
        "d1df032d486ddf6ff82ff27e29fa7b031495f3ed5977c9ad226aa685c18efa79",
        635, 0, 14),
    "threshold-zipf-p3": (
        "000726a92b6c80777c3e540eef51c9b68a37112e4c24e6e202b1117e1f385121",
        572, 0, 5),
    "threshold-uniform-p1.5-literal": (
        "43117bc1c1075b81f9e3d297b0b89ec8b95a1943a4035fde0d33b86f898977b2",
        846, 1, 14),
    "threshold-uniform-p2-literal": (
        "457bd663bc3e478cbb3bd8bc9a6cc512f16b8da03859eeedf8900c53aff5acc2",
        1902, 0, 10),
    "threshold-uniform-p3-literal": (
        "5d8a05517e162a9f8a16cc6c7c7fbfba78de7f92b43c204102100e98bd83ad9c",
        5561, 2, 18),
    "threshold-zipf-p1.5-literal": (
        "9c1cec597f4b65bb9c21ba59e6886a5b9abb170e880a07931853902616e0890c",
        1266, 0, 30),
    "threshold-zipf-p2-literal": (
        "9bff84d5a55c26ab83f170b5fc6d271587e5e693eec8113e4d4f50271b5fb971",
        635, 0, 14),
    "threshold-zipf-p3-literal": (
        "e281ad9ebad448d5b26b86d4bc2f8a41c1efde0550f293ab6ce58bfa25884956",
        572, 0, 5),
    "monitor-uniform-p1.5": (
        "b920e41de7b8fbe580268396fb637afa80c79dcae25aa29446e043ddfbea551e",
        7, 6, 0),
    "monitor-uniform-p2": (
        "fcb0bf98d80f4354fea34bf56d315e0e4b7135a03142bd4892e0d629812406f2",
        7, 6, 0),
    "monitor-uniform-p3": (
        "2e0b1b869d2faa94e671d41203ea5e2891ece47a467e4440e4464fc0d51d892b",
        7, 6, 0),
    "monitor-zipf-p1.5": (
        "a88f2684dea61bc6dd95eeeba4329ecb5190d472d0fd3001525354b87d067ce3",
        4, 4, 0),
    "monitor-zipf-p2": (
        "77ca7df1f3a03c3132a8019e0a0f2f582ffce0c0d91e3e90dd3c5958167daa3a",
        4, 4, 0),
    "monitor-zipf-p3": (
        "2a626ed6be46b1c167990bda2a0c2dafe8f942072930b2f6e93b94914021ef49",
        4, 4, 0),
}


def run_case(case: str, tmp_path):
    parts = case.split("-")
    mode, stream, p = parts[0], parts[1], float(parts[2][1:])
    literal = parts[-1] == "literal"
    n = THRESHOLD_N if mode == "threshold" else MONITOR_N
    if stream == "zipf":
        events = gen_zipf_stream(M, K, n, seed=5, s=1.1)
    else:
        events = gen_uniform_stream(M, K, n, seed=5)
    kw = dict(k=K, m=M, n=n, p=p, eps=0.5, b=16.0, r=5, seed=3,
              literal_estimation=literal)
    if mode == "threshold":
        kw.update(tau=float(exact_fp_of_events(events, p)) / 3.0, a=1)
    else:
        kw.update(a=3)
    params = GlobalParams(**kw)
    rows, state = simulate(events, params, mode=mode)
    path = tmp_path / "trace.csv"
    write_trace(str(path), rows, params_provenance(params, mode))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    copy0 = state.copies[0] if mode == "monitor" else state
    return rows, (digest, copy0.messages_received, copy0.dropped,
                  copy0.est_decreases)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace(case, tmp_path):
    rows, got = run_case(case, tmp_path)
    # every case exercises a firing: the threshold, or some ladder rung
    assert rows[-1].fired_instances >= 1
    assert got == GOLDEN[case]
