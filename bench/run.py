"""Benchmark of the toricgraph command line, run in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the seed's
graph files under bench/.work/, then calls `toricgraph.cli.main` on them,
as a user runs the `toricgraph` command, repeating the workload's
operations for about S seconds (at least once).  Afterwards it checks
every distinct report against references computed without the engine
(bench/reference.py) and prints one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the same operations run with every layer wrapped
(bench/tracing.py) and the metrics are the per-layer ones.  Scans run in
this single thread, with TORIC_THREADS unset.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import inputs
import reference
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", ".work")

# set-up is short and noisy: it is sampled this many times before the
# first iteration and after each one, and the median reported
SETUP_SAMPLES_BEFORE = 4
SETUP_SAMPLES_AFTER = 2

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import toricgraph, toricgraph.cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        toricgraph.loads_graph(fh.read())
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Op:
    spec: inputs.Spec
    command: str
    flags: tuple[str, ...]
    check: Callable[[dict, inputs.Spec, inputs.Instance], list[str]]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "scan-union": (
        Op(inputs.k23_k22(), "analyze", (), reference.check_union),
        Op(inputs.two_bowties(), "analyze", ("--max-deg", "6"), reference.check_union),
    ),
    "k34-homology": (
        Op(inputs.complete_bipartite(3, 4), "betti", ("--max-deg", "8"), reference.check_k34),
    ),
    "pattern-certify": tuple(
        Op(inputs.pattern(*shape), "certify-noncm", ("--max-cycle", "9"), reference.check_pattern)
        for shape in ((7, 7, 6, 6, "none"), (9, 9, 5, 5, "none"), (7, 7, 6, 6, "both"))
    ),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_levels(t, levels, args, kwargs):
    t.count("betti.multidegrees", sum(len(level) for level in levels))


def _count_facets(t, delta, args, kwargs):
    t.count("complexes.facets", len(delta.facets))
    t.peak("complexes.max_facets", len(delta.facets))


def _count_fiber(t, decomps, args, kwargs):
    t.count("fiber.calls")
    t.count("fiber.decompositions", len(decomps))


def _count_faces(t, faces, args, kwargs):
    t.count("complexes.faces", len(faces))


def _count_homology(t, hom, args, kwargs):
    t.count("homology.calls")
    if t.parent_name() == "betti":
        t.count("betti.complexes")
        if any(hom):
            t.count("betti.useful")


def _count_homology_dimension(t, h, args, kwargs):
    t.count("homology.calls")


def _count_boundary(t, cols, args, kwargs):
    t.count("homology.boundary_nnz", sum(len(c) for c in cols))


def _count_rank(t, r, args, kwargs):
    cells = len(_arg(args, kwargs, 0, "columns")) * _arg(args, kwargs, 1, "nrows")
    t.count("linalg.rank_calls")
    t.count("linalg.cells", cells)
    t.peak("linalg.max_cells", cells)


def _count_cycles(t, cycles, args, kwargs):
    t.count("structure.cycles_found", sum(1 for c in cycles if len(c) % 2))


# (module, function, span name, counter): the span names are the layers
TRACE_TARGETS = (
    ("cli", "main", "cli", None),
    ("graph", "loads_graph", "graph.load", None),
    ("betti", "betti_table", "betti", None),
    ("betti", "invariants", "betti", None),
    ("betti", "semigroup_levels", "betti.levels", _count_levels),
    ("complexes", "build_delta", "complexes.facets", _count_facets),
    ("fiber", "enumerate_fiber", "fiber", _count_fiber),
    ("complexes", "SimplicialComplex.faces_of_dimension", "complexes.faces", _count_faces),
    ("homology", "reduced_homology", "homology", _count_homology),
    ("homology", "homology_dimension", "homology", _count_homology_dimension),
    ("homology", "boundary_matrix", "homology.boundary", _count_boundary),
    ("linalg", "rank", "linalg.rank", _count_rank),
    ("structure", "odd_cycle_condition", "structure", None),
    ("structure", "detect_forbidden", "structure", None),
    ("structure", "noncm_certificate", "structure", None),
    ("structure", "_induced_cycles", "structure", _count_cycles),
)


def per_layer_metrics(tracer: tracing.Tracer, iterations: int, walls: list[float]) -> dict:
    """Times and counts per iteration of the workload."""
    self_s = tracer.self_times()
    c = tracer.counts

    def per(key: str) -> float:
        return c.get(key, 0) / iterations

    def busy(span: str) -> float:
        return self_s.get(span, 0.0) / iterations

    multidegrees = per("betti.multidegrees")
    return {
        "cli.s": busy("cli"),
        "graph.load_s": busy("graph.load"),
        "betti.s": busy("betti"),
        "betti.levels_s": busy("betti.levels"),
        "betti.multidegrees": multidegrees,
        "betti.cones": multidegrees - per("betti.complexes"),
        "betti.useful_ratio": per("betti.useful") / multidegrees if multidegrees else 0.0,
        "fiber.s": busy("fiber"),
        "fiber.calls": per("fiber.calls"),
        "fiber.decompositions": per("fiber.decompositions"),
        "complexes.facets_s": busy("complexes.facets"),
        "complexes.facets": per("complexes.facets"),
        "complexes.max_facets": c.get("complexes.max_facets", 0),
        "complexes.faces_s": busy("complexes.faces"),
        "complexes.faces": per("complexes.faces"),
        "homology.s": busy("homology"),
        "homology.calls": per("homology.calls"),
        "homology.boundary_s": busy("homology.boundary"),
        "homology.boundary_nnz": per("homology.boundary_nnz"),
        "linalg.rank_s": busy("linalg.rank"),
        "linalg.rank_calls": per("linalg.rank_calls"),
        "linalg.cells": per("linalg.cells"),
        "linalg.max_cells": c.get("linalg.max_cells", 0),
        "structure.s": busy("structure"),
        "structure.cycles_found": per("structure.cycles_found"),
        "trace.wall_s": statistics.fmean(walls),
    }


def setup_sample(paths: list[str]) -> float:
    """Time to import the package and load the graph files in a fresh
    interpreter, interpreter start-up excluded."""
    env = {k: v for k, v in os.environ.items() if k != "TORIC_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, SRC, *paths],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_workload(cli, argvs: list[list[str]], seconds: float, paths: list[str]):
    """Repeat the operations for about `seconds`: a further iteration starts
    only if it should end in time, judged by the slowest one so far, so a
    run does not overshoot by much.  There is always at least one iteration.
    Set-up is sampled before the first iteration and after each one, so its
    median spans the whole run.

    Returns, per operation, {(exit code, stdout): [count, stderr]}, the wall
    time of each iteration and the set-up samples.
    """
    results: list[dict] = [{} for _ in argvs]
    walls: list[float] = []
    setup = [setup_sample(paths) for _ in range(SETUP_SAMPLES_BEFORE)]
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        outcome = [run_op(cli, a) for a in argvs]
        walls.append(time.perf_counter() - t0)
        for seen, (code, out, err) in zip(results, outcome):
            seen.setdefault((code, out), [0, err])[0] += 1
        t1 = time.perf_counter()
        setup += [setup_sample(paths) for _ in range(SETUP_SAMPLES_AFTER)]
        step = max(walls) + time.perf_counter() - t1
        if time.perf_counter() - started + step > seconds:
            return results, walls, setup


def score(ops, instances, argvs, results) -> tuple[int, int, int, list[str]]:
    """Check each distinct report once; returns failed, certified and
    decided operation counts and the problems found."""
    failed = certified = decided = 0
    problems: list[str] = []
    for op, inst, argv, seen in zip(ops, instances, argvs, results):
        label = " ".join(argv).replace(ROOT + os.sep, "")
        for (code, out), (count, err) in seen.items():
            if code != 0:
                failed += count
                problems.append(f"{label}: exit {code}: {err.strip()[-300:]}")
                continue
            try:
                report = json.loads(out)
                found = op.check(report, op.spec, inst)
                verdicts = reference.certified(report), reference.decided(report)
            except (ValueError, KeyError, TypeError) as exc:  # malformed report
                found = [f"unreadable report ({type(exc).__name__}: {exc})"]
            if found:
                failed += count
                problems += [f"{label}: {p}" for p in found]
            else:
                certified += count * verdicts[0]
                decided += count * verdicts[1]
    return failed, certified, decided, problems


def import_package():
    if not os.path.isfile(os.path.join(SRC, "toricgraph", "cli.py")):
        raise SystemExit("bench: no package source at src/toricgraph; run from a source checkout")
    sys.path.insert(0, SRC)
    import toricgraph.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported toricgraph from {cli.__file__}, not from {SRC}")
    return cli


def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.environ.pop("TORIC_THREADS", None)
    cli = import_package()
    end_to_end, per_layer = declared_metrics()
    ops = WORKLOADS[args.workload]

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    instances = [inputs.write_graph(op.spec, args.seed, workdir) for op in ops]
    argvs = [[op.command, inst.path, *op.flags] for op, inst in zip(ops, instances)]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, TRACE_TARGETS)
        except tracing.TraceError as exc:
            raise SystemExit(f"bench: {exc}") from None

    paths = sorted({inst.path for inst in instances})
    results, walls, setup = run_workload(cli, argvs, args.seconds, paths)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    iterations = len(walls)
    attempted = iterations * len(ops)
    failed, certified, decided, problems = score(ops, instances, argvs, results)

    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "certified_frac": certified / attempted,
            "decided_frac": decided / attempted,
        }
        units = end_to_end
    else:
        values = per_layer_metrics(tracer, iterations, walls)
        units = per_layer
        meta = {"workload": args.workload, "seed": args.seed, "iterations": iterations}
        tracer.dump(os.path.join(workdir, "trace.json.gz"), meta)
    if set(values) != set(units):
        mismatch = sorted(set(values) ^ set(units))
        raise SystemExit(f"bench: metrics {mismatch} differ from BENCHMARK.json")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": iterations,
        "walls_s": walls,
        "problems": problems,
        "result": result,
    }
    with open(os.path.join(workdir, f"run-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for p in problems:
        print(f"bench: FAILED {p}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {iterations} iterations, "
        f"{attempted} operations, {failed} failed",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
