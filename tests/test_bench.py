"""The benchmark harness still runs against the package: a refactor that
drops a traced function or breaks a reference check fails here."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_run_traced():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-union", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["metrics"]["betti.multidegrees"]["value"] > 0
