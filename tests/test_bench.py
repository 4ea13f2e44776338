"""The benchmark harness still runs against the package: a refactor that
drops a traced function or breaks a reference check fails here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# a traced count each workload's operations must move
COUNTERS = {
    "scan-union": "betti.multidegrees",
    "k34-homology": "betti.multidegrees",
    "pattern-certify": "homology.calls",
}


@pytest.mark.parametrize("workload", list(COUNTERS))
def test_bench_smoke_run_traced(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["metrics"][COUNTERS[workload]]["value"] > 0
