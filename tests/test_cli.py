"""End-to-end CLI tests: real files in, JSON documents out, exact exit codes."""

import hashlib
import json
import os

import pytest

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


def test_analyze_default_depth_can_hit_scan_cap(capsys, data_dir):
    # the default scan depth is the edge count, which on this graph exceeds
    # the default element cap; the documented contract is exit code 2
    code, out, err = _run(capsys, "analyze", _path(data_dir, "f.json"))
    assert code == 2
    assert out == ""
    assert "scan overflow" in err


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
    verified, _ = _run_json(
        capsys,
        "certify-noncm",
        _path(data_dir, "f.json"),
        "--embedding",
        _path(data_dir, "f_embedding.json"),
    )
    assert verified["certificate"] == searched["certificate"]


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

    code, _, err = _run(capsys, "betti", _path(data_dir, "k23.json"), "--max-scan", "2")
    assert code == 2
    assert "scan overflow" in err

    # the cap covers all components together: each K_{2,3} has 65 elements
    # up to its top degree 3, so 100 admits either one but not both
    union = tmp_path / "k23k23.edges"
    union.write_text(
        "".join(f"{a}{i} {b}{j}\n" for a, b in ("ab", "cd") for i in (1, 2) for j in (1, 2, 3))
    )
    code, out, err = _run(capsys, "betti", str(union), "--max-scan", "100")
    assert code == 2
    assert out == ""
    assert "scan overflow: more than 100" in err and len(err.splitlines()) == 1

    # a negative bound is bad input (exit 1), not a cap, even with nothing to scan
    edgeless = tmp_path / "edgeless.edges"
    edgeless.write_text("a\nb\n")
    code, out, err = _run(capsys, "betti", str(edgeless), "--max-deg", "-1")
    assert code == 1
    assert out == ""
    assert "max_degree must be nonnegative" in err

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


def test_version(capsys):
    from toricgraph import __version__

    code, out, _ = _run(capsys, "--version")
    assert code == 0
    assert __version__ in out
