"""End-to-end CLI tests: real files in, JSON documents out, exact exit codes."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from toricgraph import cli
from toricgraph.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


def _path(data_dir, name):
    return os.path.join(data_dir, name)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
MAIN = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from toricgraph.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _isolated(code, *args):
    """Run `code` in a fresh `python -I -S` with the package's source
    directory and `args` as its arguments: no site module, and so no
    module loaded but what the interpreter and the code load."""
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC, *args],
        capture_output=True, text=True, timeout=60,
    )


def test_analyze_k23(capsys, data_dir):
    path = _path(data_dir, "k23.json")
    payload, _ = _run_json(capsys, "analyze", path)
    assert payload["command"] == "analyze"
    assert payload["tool"]["name"] == "toricgraph"
    with open(path, "rb") as fh:
        assert payload["input"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert payload["graph"]["vertex_count"] == 5
    assert payload["graph"]["edge_count"] == 6
    inv = payload["invariants"]
    assert inv["regularity"] == 1
    assert inv["projective_dimension"] == 2
    assert inv["depth"] == 4 and inv["dimension"] == 4
    assert inv["cohen_macaulay"] == "yes"
    assert inv["certified"] is True
    assert payload["cohen_macaulay"] == "yes"
    assert payload["odd_cycle_condition"]["status"] == "satisfied"
    assert payload["forbidden_structure"]["found"] is False
    assert payload["certificate"] is None
    std = {(e["index"], e["degree"]): e["value"] for e in payload["betti"]["standard"]}
    assert std == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_analyze_pattern_graph_combines_verdicts(capsys, data_dir):
    # shallow scan: the table alone cannot settle CM, the certificate can
    payload, _ = _run_json(
        capsys, "analyze", _path(data_dir, "f.json"), "--max-deg", "3"
    )
    assert payload["invariants"]["cohen_macaulay"] == "unknown"
    assert payload["odd_cycle_condition"]["status"] == "violated"
    assert payload["forbidden_structure"]["found"] is True
    assert payload["certificate"]["verdict"] == "not-cohen-macaulay"
    assert payload["cohen_macaulay"] == "no"
    assert any("depth" in note for note in payload["annotations"])


def test_analyze_default_flags_scan_the_pattern_graph(capsys, data_dir):
    # the default scan depth is the edge count, 10: 135,707 elements, but
    # 33,235 twin-orbit representatives, under the default cap of 100,000
    payload, err = _run_json(capsys, "analyze", _path(data_dir, "f.json"))
    assert err == ""
    inv = payload["invariants"]
    assert (inv["regularity"], inv["projective_dimension"], inv["certified"]) == (4, 3, False)
    assert payload["cohen_macaulay"] == "no"


def test_betti_triangle(capsys, data_dir):
    payload, _ = _run_json(capsys, "betti", _path(data_dir, "tri.json"))
    assert payload["betti"]["entries"] == [{"index": 0, "degree": [0, 0, 0], "value": 1}]
    assert payload["betti"]["certified"] is True
    assert payload["invariants"]["cohen_macaulay"] == "yes"


def test_betti_field_flag(capsys, data_dir):
    payload, _ = _run_json(capsys, "betti", _path(data_dir, "tri.json"), "--field", "2")
    assert payload["betti"]["field"] == "GF(2)"


def test_fiber(capsys, data_dir):
    payload, _ = _run_json(
        capsys,
        "fiber",
        _path(data_dir, "tri.json"),
        "--degree",
        _path(data_dir, "s222.json"),
    )
    assert payload["degree"] == [2, 2, 2]
    assert payload["count"] == 1
    assert payload["in_semigroup"] is True
    assert payload["decompositions"] == [[1, 1, 1]]


def test_complex(capsys, data_dir):
    payload, _ = _run_json(
        capsys,
        "complex",
        _path(data_dir, "c4.edges"),
        "--degree",
        _path(data_dir, "s1111.json"),
    )
    assert payload["void"] is False and payload["irrelevant"] is False
    assert payload["dimension"] == 1
    assert payload["facet_count"] == 2
    assert payload["facets"] == [
        [["v1", "v2"], ["v3", "v4"]],
        [["v2", "v3"], ["v4", "v1"]],
    ]


def test_certify_search(capsys, data_dir):
    payload, _ = _run_json(capsys, "certify-noncm", _path(data_dir, "f.json"))
    assert payload["found"] is True
    assert payload["result"] == "not-cohen-macaulay"
    assert payload["search"]["exhaustive"] is True
    cert = payload["certificate"]
    assert cert["facet_count"] == 4
    assert cert["beta3"] == 1
    assert cert["degree"] == [3, 1, 1, 3, 1, 1, 2, 2]
    assert cert["applicable"] is True
    assert cert["regularity_bounds"] == {
        "vertex_weight_convention": 11,
        "standard_degree_convention": 4,
    }
    assert cert["embedding"] == {
        "cycle1": ["x1", "x2", "x3"],
        "cycle2": ["y1", "y2", "y3"],
        "path1": ["x1", "z1", "y1"],
        "path2": ["x1", "w1", "y1"],
    }


def test_certify_verify_given_embedding(capsys, data_dir):
    searched, _ = _run_json(capsys, "certify-noncm", _path(data_dir, "f.json"))
    # a given embedding is verified, not searched for: bounds that a search
    # would reject are neither checked nor reported
    verified, _ = _run_json(
        capsys,
        "certify-noncm",
        _path(data_dir, "f.json"),
        "--embedding",
        _path(data_dir, "f_embedding.json"),
        "--max-cycle",
        "2",
        "--max-path",
        "1",
    )
    assert verified["certificate"] == searched["certificate"]
    assert verified["search"] is None


def test_certify_nothing_to_find(capsys, data_dir):
    payload, _ = _run_json(capsys, "certify-noncm", _path(data_dir, "k23.json"))
    assert payload["found"] is False
    assert payload["result"] == "none found"
    assert payload["certificate"] is None
    bounded, _ = _run_json(
        capsys, "certify-noncm", _path(data_dir, "k23.json"), "--max-cycle", "3"
    )
    assert bounded["result"] == "none found (bounded)"
    assert bounded["search"]["exhaustive"] is False


def test_bounds(capsys, data_dir):
    payload, _ = _run_json(
        capsys,
        "bounds",
        _path(data_dir, "k23k22.json"),
        "--parts",
        _path(data_dir, "parts.json"),
    )
    assert payload["regularity_lower_bound"] == 2
    assert payload["projective_dimension_lower_bound"] == 3
    assert [p["method"] for p in payload["parts"]] == ["complete bipartite closed form"] * 2


def test_output_is_deterministic(capsys, data_dir):
    _, out1, _ = _run(capsys, "analyze", _path(data_dir, "k23.json"))
    _, out2, _ = _run(capsys, "analyze", _path(data_dir, "k23.json"))
    assert out1 == out2


def test_verbose_summary_on_stderr(capsys, data_dir):
    _, out, err = _run(capsys, "betti", _path(data_dir, "tri.json"))
    assert err == ""
    _, out_v, err_v = _run(capsys, "betti", _path(data_dir, "tri.json"), "--verbose")
    assert out_v == out  # stdout unchanged by verbosity
    assert "invariants:" in err_v
    json.loads(out_v)


def test_exit_1_on_bad_input(capsys, data_dir):
    for argv in (
        ["analyze", _path(data_dir, "no_such_file.json")],
        ["analyze", _path(data_dir, "bad.json")],
        ["analyze", _path(data_dir, "dup.edges")],
        ["betti", _path(data_dir, "tri.json"), "--field", "6"],
        ["fiber", _path(data_dir, "tri.json"), "--degree", _path(data_dir, "bad.json")],
        ["certify-noncm", _path(data_dir, "k23.json"), "--embedding", _path(data_dir, "f_embedding.json")],
        ["bounds", _path(data_dir, "k23k22.json"), "--parts", _path(data_dir, "s222.json")],
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "error" in err


def test_json_array_graph_files_exit_1_with_one_line(capsys, data_dir, tmp_path):
    # a graph file holding a JSON array is malformed JSON input, not an
    # edge list with bracketed labels
    paths = [_path(data_dir, "parts.json")]
    for k, text in enumerate(('[["a","b"]]', '["a", "b"]')):
        paths.append(str(tmp_path / f"array{k}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    for path in paths:
        for command in ("analyze", "betti"):
            code, out, err = _run(capsys, command, path)
            assert code == 1, (path, command)
            assert out == ""
            assert err == (
                "toricgraph: error: top level: expected an object with 'vertices' and 'edges'\n"
            )


def test_malformed_degree_files_exit_1_with_one_line(capsys, data_dir, tmp_path):
    # degree files hold integers: nothing is rounded, and no type error escapes
    degree = tmp_path / "degree.json"
    for text in ("[null,1,1,1]", "5", '{"v1":[1]}', "[1e400,1,1,1]", "[1.5,1,0.5,1]"):
        degree.write_text(text)
        for command in ("complex", "fiber"):
            code, out, err = _run(
                capsys, command, _path(data_dir, "c4.edges"), "--degree", str(degree))
            assert code == 1, (text, command)
            assert out == ""
            assert err.startswith("toricgraph: error: multidegree") and len(err.splitlines()) == 1


_DIGITS = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
    "use sys.set_int_max_str_digits() to increase the limit"
)
_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
# name: (text, the graph file's line, the line of a degree, parts or
# embedding file, whose words and path stand for {file}).  A graph file
# whose text, after blanks and one byte order mark, does not open with '{'
# or '[' is an edge list, so the empty file is an edgeless graph (None:
# exit 0).  The scanner's errors for too many digits and too deep a nesting
# name no place, so the line gives json's message alone.
MALFORMED_JSON = {
    "token": (
        '{"vertices": ["a", x], "edges": []}',
        "line 1, column 20: invalid JSON (Expecting value)",
        "{file}: line 1: invalid JSON (Expecting value)",
    ),
    # Python 3.11's scanner fails on this one with a SystemError until
    # json.decoder is loaded
    "colon": (
        '{"vertices" []}',
        "line 1, column 13: invalid JSON (Expecting ':' delimiter)",
        "{file}: line 1: invalid JSON (Expecting ':' delimiter)",
    ),
    "trailing": (
        '{"vertices": [], "edges": []} []',
        "line 1, column 31: invalid JSON (Extra data)",
        "{file}: line 1: invalid JSON (Extra data)",
    ),
    "empty": ("", None, "{file}: line 1: invalid JSON (Expecting value)"),
    "bom": (
        '\ufeff{"vertices": [], "edges": []}',
        "line 1, column 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
        "{file}: line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
    ),
    "digits": (
        '{"vertices": [' + "9" * 5000 + '], "edges": []}',
        f"invalid JSON ({_DIGITS})",
        f"{{file}}: invalid JSON ({_DIGITS})",
    ),
    "deep": ("[" * 100_000, f"invalid JSON ({_DEEP})", f"{{file}}: invalid JSON ({_DEEP})"),
}


@pytest.mark.parametrize("case", list(MALFORMED_JSON))
def test_malformed_json_in_every_reader_exits_1_with_one_line(case, data_dir, tmp_path):
    # each run is a fresh interpreter that has not loaded json, as a run
    # from the shell has not: the reader must raise json's own error
    text, graph_line, file_line = MALFORMED_JSON[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text, encoding="utf-8")
    for what, argv in (
        ("graph", ["betti", str(path)]),
        ("degree", ["fiber", _path(data_dir, "c4.edges"), "--degree", str(path)]),
        ("parts", ["bounds", _path(data_dir, "k23.json"), "--parts", str(path)]),
        ("embedding", ["certify-noncm", _path(data_dir, "f.json"), "--embedding", str(path)]),
    ):
        proc = _isolated(MAIN, *argv)
        line = graph_line if what == "graph" else file_line.format(file=f"{what} file {path}")
        if line is None:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(proc.stdout)["graph"]["vertex_count"] == 0
        else:
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                1, "", f"toricgraph: error: {line}\n"), what


def test_undecodable_files_are_named_in_one_line(capsys, data_dir, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff")
    for argv, what in (
        (["analyze", str(bad)], "graph"),
        (["fiber", _path(data_dir, "c4.edges"), "--degree", str(bad)], "degree"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == (
            f"toricgraph: error: {what} file {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )


def test_negative_caps_are_bad_input(capsys, data_dir):
    for argv in (
        ["betti", _path(data_dir, "k23.json"), "--max-scan", "-5"],
        ["analyze", _path(data_dir, "k23.json"), "--max-fiber", "-1"],
        ["fiber", _path(data_dir, "c4.edges"), "--degree", _path(data_dir, "s1111.json"),
         "--max-fiber", "-1"],
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == f"toricgraph: error: {argv[-2]} must be nonnegative, got {argv[-1]}\n"


def test_internal_error_exits_1_with_one_line(capsys, data_dir, monkeypatch):
    def contradiction(*args, **kwargs):
        raise RuntimeError("internal error: scan contradicts itself")

    monkeypatch.setattr(cli, "betti_table", contradiction)
    for command in ("analyze", "betti"):
        code, out, err = _run(capsys, command, _path(data_dir, "k23.json"))
        assert code == 1, command
        assert out == ""
        assert err == "toricgraph: error: internal error: scan contradicts itself\n"


def test_failed_hilbert_cross_check_exits_1_with_one_line(capsys, data_dir, monkeypatch):
    from toricgraph import betti

    monkeypatch.setattr(betti, "complete_bipartite_reg_pd", lambda u, v: (u, (u - 1) * (v - 1)))
    code, out, err = _run(capsys, "betti", _path(data_dir, "k23.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("toricgraph: error: internal error: K_{2,3}") and err.count("\n") == 1


def test_failed_relation_certificate_exits_1_with_one_line(capsys, data_dir, monkeypatch):
    # a doubled relation puts beta_1 where the degree complex is no two points
    from toricgraph import betti

    relation = betti._relation
    monkeypatch.setattr(betti, "_relation", lambda h: tuple(2 * x for x in relation(h)))
    code, out, err = _run(capsys, "betti", _path(data_dir, "c6.edges"))
    assert code == 1
    assert out == ""
    assert err.startswith("toricgraph: error: internal error: the degree complex of the relation")
    assert err.count("\n") == 1


def test_failed_canonical_count_exits_1_with_one_line(capsys, data_dir, monkeypatch):
    # an interior test that passes nothing leaves K_{3,4}'s canonical
    # module empty at degrees 4 and 5, where its h-vector 1 + 6t + 3t^2
    # puts 3 and 24 elements
    from toricgraph import betti

    monkeypatch.setattr(betti, "_interior", lambda h, t, twins: False)
    code, out, err = _run(capsys, "betti", _path(data_dir, "k34.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("toricgraph: error: internal error: a component has [0, 0] interior elements")
    assert err.count("\n") == 1


def test_failed_boundary_term_exits_1_with_one_line(capsys, monkeypatch, tmp_path):
    # a link test that passes nothing leaves the boundary terms in the star
    # of K_{3,3}'s degree complexes neither chains nor dropped
    from toricgraph import homology

    relative = homology._relative_faces
    monkeypatch.setattr(homology, "_relative_faces", lambda core: (relative(core)[0], lambda face: False))
    k33 = tmp_path / "k33.edges"
    k33.write_text("".join(f"a{i} b{j}\n" for i in (1, 2, 3) for j in (1, 2, 3)))
    code, out, err = _run(capsys, "betti", str(k33))
    assert code == 1
    assert out == ""
    assert err.startswith("toricgraph: error: internal error: the boundary of the face ")
    assert err.count("\n") == 1


def test_bad_search_bounds_fail_before_the_scan(capsys, monkeypatch, tmp_path):
    # K_{4,4} + triangle + P_6 has 17 vertices, one past the exhaustive
    # cycle search; its scan takes about as long as a whole run, so a bad
    # bound is reported without it, in the flag's words, the cycle bound
    # before the path bound, and before a scan cap that would overflow.
    # certify-noncm checks the bounds before its search the same way
    edges = [f"a{i} b{j}" for i in range(4) for j in range(4)]
    edges += ["t0 t1", "t1 t2", "t2 t0"] + [f"p{i} p{i + 1}" for i in range(5)]
    path = tmp_path / "k44-triangle-p6.edges"
    path.write_text("\n".join(edges) + "\n")
    scans = []
    monkeypatch.setattr(cli, "betti_table", lambda *args, **kwargs: scans.append(args))
    monkeypatch.setattr(cli, "noncm_certificate", lambda *args, **kwargs: scans.append(args))
    cycles = "--max-cycle: graph has 17 > 16 vertices; pass an explicit search bound"
    low = "--max-cycle: max length must be at least 3, got 2"
    paths = "--max-path: max path length must be at least 2, got 1"
    cases = [
        ((), cycles),
        (("--max-path", "1"), cycles),
        (("--max-cycle", "2"), low),
        (("--max-cycle", "2", "--max-path", "1"), low),
        (("--max-cycle", "17", "--max-path", "1"), paths),
    ]
    runs = [("analyze", *case) for case in cases] + [("certify-noncm", *case) for case in cases]
    runs.append(("analyze", ("--max-cycle", "17", "--max-path", "1", "--max-scan", "0"), paths))
    for command, flags, message in runs:
        code, out, err = _run(capsys, command, str(path), *flags)
        assert (code, out, err) == (1, "", f"toricgraph: error: {message}\n"), (command, flags)
    assert scans == []


def test_normal_components_are_certified(capsys, data_dir, tmp_path):
    # each bowtie is normal with top degree 3 (h = 1 + t + t^2, pd 1), so
    # --max-deg 6 covers the union; the odd cycle condition fails on the
    # union (two far triangles), and the verdict comes from the table
    payload, _ = _run_json(capsys, "analyze", _path(data_dir, "bowties.json"), "--max-deg", "6")
    assert payload["betti"]["certified"] is True
    assert payload["invariants"]["cohen_macaulay"] == "yes"
    assert payload["odd_cycle_condition"]["status"] == "violated"
    assert payload["cohen_macaulay"] == "yes"
    # the 3-cube is bipartite: h = 1 + 5t + 9t^2 + t^3 gives reg 3, pd 5
    # and top degree 8, inside the default scan cap
    cube = [(u, u | bit) for u in range(8) for bit in (1, 2, 4) if not u & bit]
    q3 = tmp_path / "q3.edges"
    q3.write_text("".join(f"q{u} q{v}\n" for u, v in cube))
    payload, _ = _run_json(capsys, "analyze", str(q3))
    inv = payload["invariants"]
    assert (inv["regularity"], inv["projective_dimension"], inv["certified"]) == (3, 5, True)
    assert payload["cohen_macaulay"] == "yes"
    # the pattern graph is not normal: its table stays uncertified
    payload, _ = _run_json(capsys, "analyze", _path(data_dir, "f.json"), "--max-deg", "6")
    assert payload["betti"]["certified"] is False
    assert payload["cohen_macaulay"] == "no"


def test_usage_errors_exit_1_not_2(capsys):
    code, _, err = _run(capsys)
    assert code == 1
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1


def test_exit_2_on_cap_overflow(capsys, data_dir, tmp_path):
    code, out, err = _run(
        capsys,
        "fiber",
        _path(data_dir, "c4.edges"),
        "--degree",
        _path(data_dir, "s1111.json"),
        "--max-fiber",
        "1",
    )
    assert code == 2
    assert out == ""
    assert "more than 1" in err

    # the cap counts twin-orbit representatives: K_{2,3} has 12 up to its
    # top degree 3 (65 elements), so a cap of 12 passes and 11 trips
    code, _, err = _run(capsys, "betti", _path(data_dir, "k23.json"), "--max-scan", "2")
    assert code == 2
    assert "scan overflow" in err
    code, _, err = _run(capsys, "betti", _path(data_dir, "k23.json"), "--max-scan", "11")
    assert code == 2
    assert "scan overflow: more than 11" in err and "before degree 3" in err
    code, _, err = _run(capsys, "betti", _path(data_dir, "k23.json"), "--max-scan", "12")
    assert code == 0 and err == ""

    # the cap covers all components together, so 23 admits either K_{2,3}
    # but not both
    union = tmp_path / "k23k23.edges"
    union.write_text(
        "".join(f"{a}{i} {b}{j}\n" for a, b in ("ab", "cd") for i in (1, 2) for j in (1, 2, 3))
    )
    code, out, err = _run(capsys, "betti", str(union), "--max-scan", "23")
    assert code == 2
    assert out == ""
    assert "scan overflow: more than 23" in err and len(err.splitlines()) == 1
    code, _, _ = _run(capsys, "betti", str(union), "--max-scan", "24")
    assert code == 0

    # level 0 counts too: a triangle is free, so its scan holds only the
    # zero vector, and a cap of 0 trips there
    code, out, err = _run(capsys, "betti", _path(data_dir, "tri.json"), "--max-scan", "0")
    assert code == 2
    assert out == ""
    assert "scan overflow: more than 0" in err and "before degree 0" in err
    assert len(err.splitlines()) == 1

    # a negative bound is bad input (exit 1), not a cap, even with nothing to scan
    edgeless = tmp_path / "edgeless.edges"
    edgeless.write_text("a\nb\n")
    code, out, err = _run(capsys, "betti", str(edgeless), "--max-deg", "-1")
    assert code == 1
    assert out == ""
    assert err == "toricgraph: error: --max-deg must be nonnegative, got -1\n"

    # the fiber search keeps its own stack, so a path longer than the
    # recursion limit still has its one decomposition of zero
    graph = tmp_path / "path.edges"
    graph.write_text("".join(f"v{i} v{i + 1}\n" for i in range(1500)))
    degree = tmp_path / "zero.json"
    degree.write_text(json.dumps([0] * 1501))
    code, out, err = _run(capsys, "fiber", str(graph), "--degree", str(degree))
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["count"] == 1 and report["decompositions"] == [[0] * 1500]

    # in a scan --max-fiber caps the facets of each degree complex; K_{3,3}
    # has six perfect matchings, the facets of its all-ones degree complex
    k33 = tmp_path / "k33.edges"
    k33.write_text("".join(f"a{i} b{j}\n" for i in (1, 2, 3) for j in (1, 2, 3)))
    code, out, err = _run(capsys, "betti", str(k33), "--max-deg", "3", "--max-fiber", "5")
    assert code == 2
    assert out == ""
    assert "fiber overflow: more than 5" in err and len(err.splitlines()) == 1
    code, _, _ = _run(capsys, "betti", str(k33), "--max-deg", "3", "--max-fiber", "6")
    assert code == 0


def test_pattern_search_on_paths_longer_than_the_recursion_limit(capsys, tmp_path):
    # the cycle and path searches keep their own stacks: 1,100-edge paths
    # are found, not reported as a search nested too deep
    from toricgraph import forbidden_structure, graph_to_json

    g, _ = forbidden_structure(3, 3, 1100, 1100, "none")
    path = tmp_path / "long.json"
    path.write_text(graph_to_json(g))
    payload, err = _run_json(
        capsys, "certify-noncm", str(path), "--max-cycle", "3", "--max-path", "1105")
    assert err == ""
    assert payload["result"] == "not-cohen-macaulay"
    embedding = payload["certificate"]["embedding"]
    assert len(embedding["path1"]) == len(embedding["path2"]) == 1101


PARSER_ARGVS = [
    ["analyze", "g"],
    ["analyze", "g", "--max-fiber", "7", "--verbose", "--max-deg", "3", "--field", "2",
     "--assume-complete", "--max-scan", "9", "--max-cycle", "5", "--max-path", "4"],
    ["analyze", "--field", "2", "g", "--field", "3", "--max-scan", "5", "--max-scan", "6"],
    ["betti", "g"],
    ["betti", "g", "--max-fiber", "7", "--verbose", "--max-deg", "3", "--field", "5",
     "--assume-complete", "--max-scan", "9"],
    ["betti", "g", "--field", "2", "--field", "q", "--max-scan", "5", "--max-scan", "6"],
    ["complex", "g", "--degree", "s"],
    ["complex", "--degree", "s", "g", "--max-fiber", "3", "--verbose", "--degree", "t"],
    ["fiber", "g", "--degree", "s"],
    ["fiber", "g", "--degree", "s", "--max-fiber", "3", "--verbose"],
    ["certify-noncm", "g"],
    ["certify-noncm", "g", "--max-fiber", "7", "--verbose", "--embedding", "e", "--field", "3",
     "--max-cycle", "5", "--max-path", "4"],
    ["certify-noncm", "g", "--field", "2", "--field", "7"],
    ["bounds", "g", "--parts", "p"],
    ["bounds", "g", "--parts", "p", "--max-fiber", "7", "--verbose", "--field", "3",
     "--max-scan", "9"],
    ["bounds", "g", "--parts", "p", "--field", "2", "--field", "3", "--max-scan", "5",
     "--max-scan", "6"],
]


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


COMMANDS = ["analyze", "betti", "complex", "fiber", "certify-noncm", "bounds"]
_PARSER = cli._build_parser()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=[f"{a[0]}-{i}" for i, a in enumerate(PARSER_ARGVS)])
def test_reader_matches_the_parser(argv):
    parsed = _PARSER.parse_args(argv)
    assert parsed.func.__name__.startswith("_cmd_")
    # each of these is well formed, so main reads it without a parser
    assert vars(cli._read_argv(argv)) == vars(parsed)


def _parsed(argv):
    """vars() of the parser's namespace, or None when it exits (help,
    --version or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


_FLAGS = sorted({flag for name in COMMANDS for flag, *_ in cli._flags(name)})
_VALUES = [
    "g", "s", "q", "2", "7", "0", "-5", "-1.5", "-", "", "1_0", "+4", "\u0663", "-\u0663", "x", "-x",
    "--verbose",
]
_ODD = [
    "-h", "--help", "--version", "--", "--max", "--max-f", "--ver", "--deg", "--par", "--fie",
    *(f"{flag}={value}" for flag in ("--max-deg", "--field", "--verbose") for value in ("3", "")),
]


def _items(rows):
    # each switch alone and each other flag with a value
    return st.one_of([
        st.just((flag,)) if kind is bool else st.tuples(st.just(flag), st.sampled_from(_VALUES))
        for flag, kind, *_ in rows
    ])


_WORDS = st.sampled_from(_FLAGS + _VALUES + _ODD)
_ITEMS = {name: _items(cli._flags(name)) for name in COMMANDS}
_ANY_ITEM = st.one_of(list(_ITEMS.values()))


@st.composite
def _argvs(draw):
    # a command (or an odd word first), then the command's flags; in half
    # the draws odd words (any flag or value out of place); and mostly one
    # graph path
    head = draw(st.one_of(st.sampled_from(COMMANDS), _WORDS))
    item = _ITEMS.get(head, _ANY_ITEM)
    if draw(st.booleans()):
        item = st.one_of(item, item, item, _WORDS.map(lambda w: (w,)))
    items = draw(st.lists(item, max_size=6))
    if draw(st.sampled_from((True, True, True, False))):
        items.insert(draw(st.integers(0, len(items))), ("g",))
    return [head, *(w for item in items for w in item)]


def _seeded(test):
    for argv in PARSER_ARGVS:
        test = example(argv)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(_argvs())
@_seeded
def test_argv_reader_agrees_with_argparse(argv):
    # wherever the reader returns a namespace, argparse returns the same
    # one; every command line argparse rejects, the reader declines
    fast = cli._read_argv(argv)
    if fast is not None:
        assert vars(fast) == _parsed(argv), argv


def test_main_builds_the_parser_only_when_the_reader_declines(capsys, data_dir, monkeypatch):
    built = []
    build = cli._build_parser

    def recorded():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", recorded)
    # a well-formed command line is read without a parser
    _run_json(capsys, "fiber", _path(data_dir, "c4.edges"), "--degree", _path(data_dir, "s1111.json"))
    assert built == []
    # help, --version and usage errors each build one parser with every command
    for argv in ([], ["-h"], ["--version"], ["frobnicate"], ["betti", "g", "--max-deg", "x"]):
        code, out, err = _run(capsys, *argv)
        assert _subcommands(built[-1]) == COMMANDS
    assert len(built) == 5
    # the last, a bad value for a known command, is a usage error
    assert (code, out) == (1, "") and "invalid int value: 'x'" in err


def test_version(capsys):
    from toricgraph import __version__

    code, out, _ = _run(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_cli_import_loads_no_dataclasses_or_fractions(data_dir):
    # start-up cost: importing the command line pulls in none of these
    # modules (dataclasses alone brings inspect, ast, dis and tokenize,
    # typing builds dozens of classes and aliases as it loads, argparse is
    # needed only for help and usage errors, and json compiles six regular
    # expressions through re: JSON is read and written through _json)
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import toricgraph.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = _isolated(code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "toricgraph.cli" in loaded
    assert not loaded & {
        "dataclasses", "inspect", "fractions", "decimal", "typing", "argparse", "json", "re"
    }
    # the input's digest comes from the builtin SHA-256 where the
    # interpreter ships one; hashlib would map OpenSSL for it
    builtin = {m for m in ("_sha256", "_sha2") if importlib.util.find_spec(m)}
    if builtin:
        assert loaded & builtin
        assert not loaded & {"hashlib", "_hashlib"}
    # nor does a well-formed run of any command, which is read without a
    # parser and reads its JSON files through _json
    run = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from toricgraph.cli import main\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "codes = [main(line.split('|')) for line in sys.argv[2:]]\n"
        "reports, sys.stdout = sys.stdout.getvalue(), out\n"
        "print(codes, sorted(m for m in ('argparse', 'json', 're') if m in sys.modules))\n"
        "print(reports, end='')\n"
    )
    f = _path(data_dir, "f.json")
    argvs = [
        ["certify-noncm", f, "--max-cycle", "5", "--field", "2"],
        ["certify-noncm", f, "--embedding", _path(data_dir, "f_embedding.json")],
        ["analyze", _path(data_dir, "k23.json")],
        ["betti", _path(data_dir, "c4.edges")],
        ["complex", _path(data_dir, "tri.json"), "--degree", _path(data_dir, "s222.json")],
        ["fiber", _path(data_dir, "c4.edges"), "--degree", _path(data_dir, "s1111.json")],
        ["bounds", _path(data_dir, "k23k22.json"), "--parts", _path(data_dir, "parts.json")],
    ]
    proc = _isolated(run, *("|".join(argv) for argv in argvs))
    assert proc.returncode == 0, proc.stderr
    summary, reports = proc.stdout.split("\n", 1)
    assert summary == f"{[0] * len(argvs)} []"
    assert '"result": "not-cohen-macaulay"' in reports


def test_cli_digest_falls_back_to_hashlib(data_dir):
    # without the builtin modules the digest comes from hashlib, and reads
    # the same
    path = _path(data_dir, "k23.json")
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from toricgraph.cli import main\n"
        "code = main(['betti', sys.argv[2]])\n"
        "assert 'hashlib' in sys.modules\n"
        "sys.exit(code)\n"
    )
    proc = _isolated(code, path)
    assert proc.returncode == 0, proc.stderr
    with open(path, "rb") as fh:
        assert json.loads(proc.stdout)["input"]["sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_cli_json_falls_back_without_accelerator(capsys, data_dir, tmp_path):
    # without _json the reader and writer are json's own pure-Python ones:
    # the same reports, byte for byte, and the same line for bad JSON
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 1,", encoding="utf-8")
    argvs = [
        ["analyze", _path(data_dir, "f.json"), "--max-deg", "4"],
        ["complex", _path(data_dir, "f.json"), "--degree", _path(data_dir, "s31131122.json")],
        ["bounds", _path(data_dir, "k23k22.json"), "--parts", _path(data_dir, "parts.json")],
        ["fiber", _path(data_dir, "c4.edges"), "--degree", str(bad)],
        ["betti", _path(data_dir, "bad.json")],
    ]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "sys.modules['_json'] = None\n"
        "from toricgraph.cli import main\n"
        "assert 'json.scanner' in sys.modules\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    for argv in argvs:
        expected = _run(capsys, *argv)
        proc = _isolated(code, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
