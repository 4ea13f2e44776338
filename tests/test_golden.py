"""CLI outputs pinned byte for byte: the exit code, stdout and stderr of
every `tests/data` graph under `analyze`, `betti` (over Q, GF(2), GF(3)),
`bounds` and `certify-noncm`, plus a few single-degree, embedding and
overflow runs, and the help and usage-error output of the parser, against
the files in `tests/golden/`.  argparse wraps help to the terminal width, so
every run sees COLUMNS=80.

After an intended change of output, regenerate the files from the repository
root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from toricgraph.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

COMMANDS = ["analyze", "betti", "complex", "fiber", "certify-noncm", "bounds"]
GRAPHS = [
    "bad.json", "c4.edges", "dup.edges", "f.json", "k23.json", "k23k22.json", "k34.json", "tri.json"
]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in GRAPHS:
        path = f"tests/data/{name}"
        stem = name.split(".")[0]
        cases[f"{stem}.analyze"] = ["analyze", path]
        for field in ("q", "2", "3"):
            cases[f"{stem}.betti-{field}"] = ["betti", path, "--field", field]
        cases[f"{stem}.bounds"] = ["bounds", path, "--parts", "tests/data/parts.json"]
        cases[f"{stem}.certify-noncm"] = ["certify-noncm", path]
    cases["f.analyze-max-deg-6"] = ["analyze", "tests/data/f.json", "--max-deg", "6"]
    cases["bowties.analyze-max-deg-6"] = ["analyze", "tests/data/bowties.json", "--max-deg", "6"]
    cases["c6.betti"] = ["betti", "tests/data/c6.edges"]
    # hypersurfaces, |E| = dim + 1: a table in closed form, where a scan
    # overflows (C_12) or cannot certify (the dumbbell is not normal)
    cases["c12.analyze"] = ["analyze", "tests/data/c12.edges"]
    cases["dumbbell.analyze"] = ["analyze", "tests/data/dumbbell.edges"]
    cases["f.certify-noncm-embedding"] = [
        "certify-noncm", "tests/data/f.json", "--embedding", "tests/data/f_embedding.json"]
    cases["k23.betti-max-scan-2"] = ["betti", "tests/data/k23.json", "--max-scan", "2"]
    cases["tri.complex-s222"] = ["complex", "tests/data/tri.json", "--degree", "tests/data/s222.json"]
    cases["f.complex-s31131122"] = [
        "complex", "tests/data/f.json", "--degree", "tests/data/s31131122.json"]
    cases["c4.fiber-s1111"] = ["fiber", "tests/data/c4.edges", "--degree", "tests/data/s1111.json"]
    cases["usage.none"] = []
    cases["usage.help"] = ["-h"]
    cases["usage.version"] = ["--version"]
    cases["usage.unknown-command"] = ["frobnicate"]
    for command in COMMANDS:
        cases[f"usage.{command}-help"] = [command, "-h"]
    cases["usage.analyze-unknown-flag"] = ["analyze", "tests/data/c4.edges", "--bogus"]
    cases["usage.betti-bad-int"] = ["betti", "tests/data/c4.edges", "--max-deg", "x"]
    cases["usage.complex-missing-degree"] = ["complex", "tests/data/c4.edges"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert expected["argv"] == CASES[name]
    assert _run(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    on_disk = {f[: -len(".json")] for f in os.listdir(GOLDEN) if f.endswith(".json")}
    assert on_disk == set(CASES)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with open(_golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(_run(argv), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(name, file=sys.stderr)
