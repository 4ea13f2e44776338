"""Acceptance suite: one test per shipped claim, one printed pass/fail line each.

Criteria 1-6 feed every degree complex they build into a shared audit pool;
criterion 7 then replays the soundness checks (boundary composition, on the
whole complex and on the relative complex the engine reduces, sympy rank
cross-check, Euler characteristic, ground-permutation invariance) over
the whole pool.  Run this file alone and criterion 7 regenerates a minimal
pool for itself.
"""

import json
import os
import random
import time

from toricgraph import (
    RATIONALS,
    betti_number,
    betti_table,
    build_delta,
    certificate_degree,
    complete_bipartite_graph,
    cycle_graph,
    disjoint_union,
    enumerate_fiber,
    forbidden_structure,
    graph_to_json,
    homology_dimension,
    induced_subgraph,
    invariants,
    noncm_certificate,
    odd_cycle_condition,
    reduced_homology,
)
from toricgraph.betti import _audit
from toricgraph.cli import main

from oracles import (
    box_fiber,
    box_size,
    composition_vanishes,
    convolve_entries,
    euler_characteristic_check,
    homology_via_sympy,
    permuted_homology,
    random_graph,
    relative_composition_vanishes,
)
from whole_scan import whole_graph_entries

DATA = os.path.join(os.path.dirname(__file__), "data")

# deduplicated pool of every degree complex built while running criteria 1-6
AUDIT = {}


def _collect(s, delta):
    AUDIT[(len(delta.ground), delta.facets)] = delta


def _audited(g, max_degree=None):
    """betti_table(g, max_degree), whose entries an audit scan, feeding
    every complex it builds to the pool, must reproduce."""
    table = betti_table(g, max_degree)
    assert _audit(g, _collect, table.max_degree) == table.entries
    return table


def _report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"exit {code} for {argv}"
    return json.loads(out)


def test_criterion_01_complete_bipartite_closed_forms(capsys, tmp_path):
    label = "complete bipartite closed forms (reg, pd, CM)"
    ok = False
    t0 = time.monotonic()
    try:
        cases = [(2, 2, 1, 1), (2, 3, 1, 2), (3, 3, 2, 4)]
        for u, v, want_reg, want_pd in cases:
            g = complete_bipartite_graph(u, v)
            scan_to = 6 if (u, v) == (3, 3) else None  # any bound <= 9 works
            table = _audited(g, scan_to)
            inv = invariants(g, table)
            assert inv.regularity == want_reg, (u, v)
            assert inv.projective_dimension == want_pd, (u, v)
            assert inv.cohen_macaulay == "yes"
            assert inv.depth == inv.dimension == u + v - 1
            assert table.certified

            path = tmp_path / f"k{u}{v}.json"
            path.write_text(graph_to_json(g))
            argv = ["analyze", str(path)]
            if scan_to is not None:
                argv += ["--max-deg", str(scan_to)]
            payload = _run_cli(capsys, *argv)
            got = payload["invariants"]
            assert got["regularity"] == want_reg
            assert got["projective_dimension"] == want_pd
            assert got["cohen_macaulay"] == "yes"
            assert payload["cohen_macaulay"] == "yes"
        assert time.monotonic() - t0 < 60
        ok = True
    finally:
        _report(1, label, ok)


def test_criterion_02_noncm_certificate_on_minimal_pattern(capsys):
    label = "non-CM certificate on the minimal pattern graph"
    ok = False
    t0 = time.monotonic()
    try:
        payload = _run_cli(capsys, "certify-noncm", os.path.join(DATA, "f.json"))
        cert = payload["certificate"]
        assert payload["found"] is True
        assert cert["facet_count"] == 4
        assert cert["h2_dimension"] == 1
        assert cert["beta3"] == 1
        assert cert["verdict"] == "not-cohen-macaulay"
        assert payload["result"] == "not-cohen-macaulay"

        # keep the certifying complex for the criterion-7 audit
        g, emb = forbidden_structure(3, 3, 2, 2)
        s = certificate_degree(g, emb)
        assert list(s) == cert["degree"]
        _collect(s, build_delta(g, s))
        assert time.monotonic() - t0 < 30
        ok = True
    finally:
        _report(2, label, ok)


def test_criterion_03_four_facets_across_sharing_configurations():
    label = "four facets across endpoint-sharing configurations"
    ok = False
    t0 = time.monotonic()
    try:
        for share in ("both", "one", "none"):
            for p, q in ((2, 2), (2, 3), (3, 3)):
                g, emb = forbidden_structure(3, 3, p, q, share)
                s = certificate_degree(g, emb)
                delta = build_delta(g, s)
                _collect(s, delta)
                assert len(delta.facets) == 4, (share, p, q)
                assert homology_dimension(delta, 2) >= 1, (share, p, q)
        assert time.monotonic() - t0 < 300
        ok = True
    finally:
        _report(3, label, ok)


def test_criterion_04_explicit_facet_lists_for_odd_paths():
    label = "explicit facet lists for odd path lengths"
    ok = False
    try:
        g, emb = forbidden_structure(3, 3, 3, 3, "both")
        s = certificate_degree(g, emb)
        delta = build_delta(g, s)
        _collect(s, delta)

        def facet(*pairs):
            return frozenset(g.edge_position(u, v) for u, v in pairs)

        # both cycles plus one full path, missing the opposite edge of each
        # cycle and everything of the other path except its middle edge
        expected = {
            facet(("x2", "x3"), ("x1", "z1"), ("z2", "y1"),
                  ("x1", "w1"), ("w1", "w2"), ("w2", "y1"), ("y2", "y3")),
            facet(("x1", "x2"), ("x3", "x1"), ("z1", "z2"),
                  ("x1", "w1"), ("w1", "w2"), ("w2", "y1"),
                  ("y1", "y2"), ("y3", "y1")),
            facet(("x1", "x2"), ("x3", "x1"), ("x1", "z1"), ("z1", "z2"),
                  ("z2", "y1"), ("w1", "w2"), ("y1", "y2"), ("y3", "y1")),
            facet(("x2", "x3"), ("x1", "z1"), ("z1", "z2"), ("z2", "y1"),
                  ("x1", "w1"), ("w2", "y1"), ("y2", "y3")),
        }
        assert set(delta.facets) == expected
        ok = True
    finally:
        _report(4, label, ok)


def test_criterion_05_betti_monotonicity_under_induced_subgraphs():
    label = "Betti monotonicity under induced subgraphs"
    ok = False
    try:
        rng = random.Random(20260814)
        bound = 3
        pairs = 0
        nonzero = 0
        while pairs < 50:
            g = random_graph(rng, max_vertices=7, max_edges=9)
            if not g.edges:
                continue
            k = rng.randint(1, len(g.vertices))
            sub = induced_subgraph(g, rng.sample(g.vertices, k))
            big = _audited(g, bound).standard_graded()
            small = _audited(sub, bound).standard_graded()
            # entries at standard degree <= bound are exact on both sides
            for (i, j), v in small.items():
                assert v <= big.get((i, j), 0), (g, sub, i, j)
                if v and (i, j) != (0, 0):
                    nonzero += 1
            pairs += 1
        assert nonzero > 0  # the comparison was not vacuous
        ok = True
    finally:
        _report(5, label, ok)


def test_criterion_06_disjoint_union_additivity():
    label = "disjoint-union additivity and convolution"
    ok = False
    try:
        unions = [
            (complete_bipartite_graph(2, 2), cycle_graph(3, "t")),
            (complete_bipartite_graph(2, 2),
             complete_bipartite_graph(2, 3, left="c", right="d")),
        ]
        for a, b in unions:
            u = disjoint_union(a, b)
            ta = _audited(a)
            tb = _audited(b)
            tu = _audited(u)
            # the engine scans each component and convolves; this scans the
            # union itself, as deep as the default bound, so the check below
            # is not the convolution compared with itself
            whole = whole_graph_entries(u, len(u.edges), on_complex=_collect)
            assert ta.certified and tb.certified and tu.certified
            ia, ib, iu = invariants(a, ta), invariants(b, tb), invariants(u, tu)
            assert iu.regularity == ia.regularity + ib.regularity
            assert iu.projective_dimension == (
                ia.projective_dimension + ib.projective_dimension
            )
            # vertex order of the union is a's vertices then b's, so the
            # multidegrees of the product entries concatenate
            assert tu.entries == whole
            assert tu.entries == convolve_entries(ta.entries, tb.entries)
        ok = True
    finally:
        _report(6, label, ok)


def test_criterion_07_homology_engine_soundness():
    label = "homology engine soundness audit"
    ok = False
    try:
        if not AUDIT:  # standalone run: regenerate a small pool
            _audited(complete_bipartite_graph(2, 3))
            g, emb = forbidden_structure(3, 3, 2, 2)
            s = certificate_degree(g, emb)
            _collect(s, build_delta(g, s))
        assert AUDIT
        rng = random.Random(1)
        for delta in AUDIT.values():
            assert composition_vanishes(delta)
            assert relative_composition_vanishes(delta)
            assert euler_characteristic_check(delta)
            hom = reduced_homology(delta)
            assert hom == homology_via_sympy(delta)
            assert permuted_homology(delta, rng, RATIONALS) == hom
        print(f"audited {len(AUDIT)} distinct complexes")
        ok = True
    finally:
        _report(7, label, ok)


def test_criterion_08_fiber_oracle_equivalence():
    label = "fiber enumeration equals box brute force"
    ok = False
    try:
        rng = random.Random(88100)
        done = 0
        nonempty = 0
        while done < 100:
            g = random_graph(rng, max_vertices=6, max_edges=8)
            if done % 2 == 0 or not g.edges:
                s = tuple(rng.randint(0, 4) for _ in g.vertices)
            else:
                # a genuine semigroup element (a random sum of edge columns),
                # sometimes nudged off by one to probe near-misses
                s_list = [0] * len(g.vertices)
                for _ in range(rng.randint(1, 4)):
                    iu, iv = g.edge_indices[rng.randrange(len(g.edges))]
                    s_list[iu] += 1
                    s_list[iv] += 1
                if rng.random() < 0.3:
                    s_list[rng.randrange(len(s_list))] += 1
                s = tuple(s_list)
            if sum(s) > 12:
                continue
            if g.edges and box_size(g, s) > 200_000:
                continue  # keep the brute force affordable; draw again
            got = [d.coefficients for d in enumerate_fiber(g, s)]
            assert got == box_fiber(g, s), (g, s)
            if got and sum(s) > 0:
                nonempty += 1
            done += 1
        assert nonempty > 10  # sampling actually hit interesting fibers
        ok = True
    finally:
        _report(8, label, ok)


def test_criterion_09_odd_cycle_condition_verdicts():
    label = "odd cycle condition verdicts"
    ok = False
    try:
        from toricgraph import Graph

        bowtie = Graph(
            ("h", "a", "b", "c", "d"),
            (("h", "a"), ("a", "b"), ("b", "h"), ("h", "c"), ("c", "d"), ("d", "h")),
        )
        assert odd_cycle_condition(bowtie).status == "satisfied"

        two = disjoint_union(cycle_graph(3, "s"), cycle_graph(3, "t"))
        bridged = Graph(two.vertices, two.edges + (("s1", "t1"),))
        assert odd_cycle_condition(bridged).status == "satisfied"

        f, _ = forbidden_structure(3, 3, 2, 2)
        verdict = odd_cycle_condition(f)
        assert verdict.status == "violated"
        assert verdict.witness == (("x1", "x2", "x3"), ("y1", "y2", "y3"))
        ok = True
    finally:
        _report(9, label, ok)


def test_criterion_10_certificate_agrees_with_engine():
    label = "certificate path agrees with engine path"
    ok = False
    try:
        g, emb = forbidden_structure(3, 3, 2, 2)
        cert = noncm_certificate(g, emb)
        direct = betti_number(g, 3, cert.degree)
        assert cert.beta3 == direct == 1
        ok = True
    finally:
        _report(10, label, ok)
