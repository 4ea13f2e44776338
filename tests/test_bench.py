"""The benchmark harness still runs against the package: a refactor that
drops a traced function or breaks a reference check fails here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# traced counts per iteration at seed 0: a change to the drivers that
# moves what the bench's layers see fails here, not only in the bench.
# homology.calls counts the complexes ranked; those a Cohen-Macaulay
# component leaves one homological index are counted by their chains, and
# level 0's {empty set} by none.  K_{2,2} and the bowties are hypersurfaces:
# they list no levels, and each ranks the one complex that certifies its
# relation.  K_{3,4}'s degrees 6, 7 and 8 are read off its canonical
# module, so its 16 complexes ranked there (31 with them) are not built
COUNTERS = {
    "scan-union": {"betti.multidegrees": 12, "homology.calls": 3},
    "k34-homology": {"betti.multidegrees": 65, "homology.calls": 15},
    "pattern-certify": {"homology.calls": 6},
}


def _bench(workload: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", list(COUNTERS))
def test_bench_smoke_run_traced(workload):
    metrics = _bench(workload, "1")
    assert {name: metrics[name]["value"] for name in COUNTERS[workload]} == COUNTERS[workload]
    if workload == "pattern-certify":
        # one fiber per pattern, holding its four decompositions: a search
        # that drops or repeats one is caught here
        assert metrics["fiber.calls"]["value"] == 3
        assert metrics["fiber.decompositions"]["value"] == 12


@pytest.mark.parametrize("workload", list(COUNTERS))
def test_bench_smoke_run_untraced(workload):
    # the measured run reports the end-to-end metrics BENCHMARK.json declares
    metrics = _bench(workload, "0")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(metrics) == sorted(declared)
    assert metrics["certified_frac"]["value"] == metrics["decided_frac"]["value"] == 1.0
