"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, prints every metric of BENCHMARK.json with its unit and passes every
check; without the program next to it, the bench fails without a result.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_passes_its_checks(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[key]}
        values = [m["value"] for m in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        if key == "end_to_end":
            assert all(v > 0 for v in values)
        digest_line = next(ln for ln in lines if ln.startswith("digest sha256="))
        assert digest_line.endswith("True)")
        digests.append(digest_line.split()[1])
    # the traced run leaves the program's output byte for byte unchanged
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "hardgen", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
