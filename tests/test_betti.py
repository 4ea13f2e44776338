"""The multigraded Betti table scan and the invariants derived from it."""

import hashlib
import os
import random
from collections import Counter
from itertools import accumulate, combinations, combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricgraph import (
    RATIONALS,
    FiberOverflowError,
    FieldSpec,
    Graph,
    ScanOverflowError,
    SimplicialComplex,
    betti_number,
    betti_table,
    build_delta,
    complete_bipartite_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    enumerate_fiber,
    incidence_rank,
    invariants,
    induced_subgraph,
    is_bipartite,
    known_complete_degree,
    loads_graph,
    lower_bounds,
    noncm_certificate,
    odd_cycle_condition,
    path_graph,
    semigroup_levels,
    twin_classes,
)
from toricgraph import betti

from oracles import (
    box_fiber,
    has_unjoined_odd_cycles,
    homology_via_sympy,
    induced_cycles,
    interior_by_decompositions,
    matching_number,
    non_normal_graph,
    primitive_relation,
    random_graph,
)
from whole_scan import whole_graph_entries


def _ignore(s, delta):
    """An `on_complex` for `betti._audit` that looks at nothing: the audit
    still builds every complex up to the top degree, none read off the
    canonical module."""


def test_triangle_table_is_trivial():
    g = cycle_graph(3)
    t = betti_table(g)
    assert t.entries == {(0, (0, 0, 0)): 1}
    assert t.certified
    assert t.caveats == ()
    inv = invariants(g, t)
    assert (inv.projective_dimension, inv.regularity) == (0, 0)
    assert inv.depth == 3 and inv.dimension == 3
    assert inv.cohen_macaulay == "yes"


def test_square_table():
    g = cycle_graph(4)
    t = betti_table(g)
    assert t.entries == {(0, (0, 0, 0, 0)): 1, (1, (1, 1, 1, 1)): 1}
    assert t.certified
    inv = invariants(g, t)
    assert (inv.projective_dimension, inv.regularity) == (1, 1)
    assert inv.cohen_macaulay == "yes"


def test_k23_table():
    g = complete_bipartite_graph(2, 3)
    t = betti_table(g)
    assert t.certified
    assert t.sorted_entries() == [
        (0, (0, 0, 0, 0, 0), 1),
        (1, (1, 1, 0, 1, 1), 1),
        (1, (1, 1, 1, 0, 1), 1),
        (1, (1, 1, 1, 1, 0), 1),
        (2, (1, 2, 1, 1, 1), 1),
        (2, (2, 1, 1, 1, 1), 1),
    ]
    assert t.standard_graded() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    inv = invariants(g, t)
    assert (inv.projective_dimension, inv.regularity) == (2, 1)
    assert inv.depth == 4 and inv.dimension == 4
    assert inv.cohen_macaulay == "yes"


def test_k33_table():
    g = complete_bipartite_graph(3, 3)
    t = betti_table(g, 6)  # pd + reg = 6, so degree 6 is certified complete
    assert t.certified
    assert sorted(t.standard_graded().items()) == [
        ((0, 0), 1),
        ((1, 2), 9),
        ((2, 3), 16),
        ((3, 4), 9),
        ((4, 6), 1),
    ]
    inv = invariants(g, t)
    assert (inv.projective_dimension, inv.regularity) == (4, 2)
    assert inv.depth == 5 and inv.dimension == 5
    assert inv.cohen_macaulay == "yes"


def test_betti_number_single_entries():
    g = cycle_graph(4)
    assert betti_number(g, 1, (1, 1, 1, 1)) == 1
    assert betti_number(g, 0, (0, 0, 0, 0)) == 1
    assert betti_number(g, 1, (2, 2, 0, 0)) == 0
    assert betti_number(g, 2, (1, 1, 1, 1)) == 0
    with pytest.raises(ValueError):
        betti_number(g, -1, (0, 0, 0, 0))


def test_semigroup_levels_against_brute_force():
    g = cycle_graph(5)
    cols = []
    for iu, iv in g.edge_indices:
        c = [0] * 5
        c[iu] += 1
        c[iv] += 1
        cols.append(tuple(c))
    levels = semigroup_levels(g, 3)
    for d in range(4):
        brute = sorted(
            {
                tuple(sum(col[i] for col in combo) for i in range(5))
                for combo in combinations_with_replacement(cols, d)
            }
        )
        assert levels[d] == brute


def test_semigroup_levels_k33_sizes():
    levels = semigroup_levels(complete_bipartite_graph(3, 3), 2)
    assert [len(l) for l in levels] == [1, 9, 36]


def test_semigroup_levels_validation_and_overflow():
    g = complete_bipartite_graph(3, 3)
    with pytest.raises(ValueError):
        semigroup_levels(g, -1)
    with pytest.raises(ScanOverflowError) as exc:
        semigroup_levels(g, 2, max_scan=20)
    assert exc.value.limit == 20 and exc.value.degree == 2


@pytest.mark.parametrize("call, name", [
    (lambda g: betti_table(g, max_scan=-1), "max_scan"),
    (lambda g: betti_table(g, max_fiber=-1), "max_fiber"),
    (lambda g: semigroup_levels(g, 2, max_scan=-1), "max_scan"),
    (lambda g: betti_number(g, 1, (1,) * len(g.vertices), max_fiber=-1), "max_fiber"),
    (lambda g: build_delta(g, (1,) * len(g.vertices), max_fiber=-1), "max_fiber"),
    (lambda g: enumerate_fiber(g, (1,) * len(g.vertices), max_size=-1), "max_size"),
    (lambda g: noncm_certificate(g, max_fiber=-1), "max_fiber"),
    (lambda g: lower_bounds(g, [g.vertices], max_fiber=-1), "max_fiber"),
    (lambda g: lower_bounds(g, [g.vertices], max_scan=-1), "max_scan"),
], ids=[
    "betti_table-max_scan", "betti_table-max_fiber", "semigroup_levels", "betti_number",
    "build_delta", "enumerate_fiber", "noncm_certificate", "lower_bounds-max_fiber",
    "lower_bounds-max_scan",
])
def test_negative_caps_are_bad_input(call, name):
    # before any work: not an overflow on K_{2,2}, and no answer on P_3,
    # whose scan stops at level 0, or from K_{2,2}'s closed form
    for g in (complete_bipartite_graph(2, 2), path_graph(3)):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            call(g)


def test_scan_overflow_propagates_from_betti_table():
    with pytest.raises(ScanOverflowError):
        betti_table(complete_bipartite_graph(3, 3), 3, max_scan=10)
    # the cap covers all components together: each K_{2,3} has 12
    # representatives up to its top degree 3, so 23 admits either one but
    # not both
    one = complete_bipartite_graph(2, 3)
    two = disjoint_union(one, complete_bipartite_graph(2, 3, left="c", right="d"))
    betti_table(one, max_scan=23)
    with pytest.raises(ScanOverflowError) as exc:
        betti_table(two, max_scan=23)
    assert exc.value.limit == 23
    assert betti_table(two, max_scan=24).certified
    # level 0 is held and checked like any other level: two free components
    # hold one representative each and nothing past level 0
    free = disjoint_union(path_graph(2), path_graph(2, "w"))
    for cap in (0, 1):
        with pytest.raises(ScanOverflowError) as exc:
            betti_table(free, max_scan=cap)
        assert (exc.value.limit, exc.value.degree) == (cap, 0)
    assert betti_table(free, max_scan=2).certified
    # a negative bound is refused even when there is nothing to scan
    with pytest.raises(ValueError):
        betti_table(Graph(("a", "b"), ()), -1)


def test_truncated_scan_is_uncertified():
    g = cycle_graph(6)
    t = betti_table(g, 1)
    assert not t.certified
    assert t.entries == {(0, (0,) * 6): 1}
    assert any("truncated" in c for c in t.caveats)
    inv = invariants(g, t)
    assert inv.cohen_macaulay == "unknown"
    assert any("undecided" in c for c in inv.caveats)
    # two squares are complete at degree 2 + 2; cut at 3, the product of
    # their degree-2 syzygies (degree 4) is left out
    two = disjoint_union(cycle_graph(4, "s"), cycle_graph(4, "t"))
    t = betti_table(two, 3)
    assert not t.certified
    assert t.entries == whole_graph_entries(two, 3)
    assert t.standard_graded() == {(0, 0): 1, (1, 2): 2}


def test_assume_complete_sets_flag_with_caveat():
    t = betti_table(cycle_graph(6), 1, assume_complete=True)
    assert t.certified
    assert any("asserted by the caller" in c for c in t.caveats)
    # asserting something already known adds no caveat
    t2 = betti_table(cycle_graph(4), assume_complete=True)
    assert t2.certified and t2.caveats == ()


def test_known_complete_degree():
    assert known_complete_degree(cycle_graph(3)) == 0
    assert known_complete_degree(path_graph(4)) == 0
    assert known_complete_degree(complete_bipartite_graph(3, 3)) == 6
    assert known_complete_degree(cycle_graph(6)) == 3  # normal: h = 1 + t + t^2, pd 1
    two = disjoint_union(
        complete_bipartite_graph(2, 2),
        complete_bipartite_graph(2, 3, left="c", right="d"),
    )
    assert known_complete_degree(two) == 5
    odd = disjoint_union(cycle_graph(3, "s"), cycle_graph(5, "t"))
    assert known_complete_degree(odd) == 0


def test_known_complete_degree_matches_the_certified_table(data_dir):
    # known_complete_degree and betti_table read one plan per component:
    # the degree is None exactly when the table to the edge count is not
    # certified, and otherwise it is the table's top standard degree.
    # random_graph almost never draws a graph that is not normal, so
    # non_normal_graph adds 20 with |E| >= d + 2, beside the pattern graph;
    # none of these has a certified table.  Its draws with |E| = d + 1, and
    # two triangles joined by a path, are hypersurfaces, whose top degree
    # and table are closed forms
    with open(os.path.join(data_dir, "f.json"), encoding="utf-8") as fh:
        pattern = loads_graph(fh.read())
    joined = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "m"), ("m", "x"), ("x", "y"), ("y", "z"), ("z", "x")]
    )
    rng = random.Random(2121)
    graphs = [random_graph(rng) for _ in range(80)]
    non_normal, hypersurfaces = [pattern], [joined]
    while len(non_normal) < 21:
        g = non_normal_graph(rng, max_vertices=7, max_edges=9)
        (non_normal if len(g.edges) - incidence_rank(g) >= 2 else hypersurfaces).append(g)
    unknown = 0
    for g in graphs + non_normal + hypersurfaces:
        known, table = known_complete_degree(g), betti_table(g)
        assert (known is None) == (not table.certified), g
        if known is None:
            unknown += 1
        else:
            assert known == max(sum(s) // 2 for _, s in table.entries), g
    assert unknown >= len(non_normal)
    assert len(hypersurfaces) >= 20
    for g in hypersurfaces:
        assert invariants(g, betti_table(g)).cohen_macaulay == "yes", g


def test_closed_form_top_degrees_scan_nothing(monkeypatch):
    # a free component (a tree, a triangle with a tail) or K_{u,v} has its
    # top degree in closed form: 0, and (u - 1)v = 35 for K_{6,7}
    tail = Graph.from_edges([("t1", "t2"), ("t2", "t3"), ("t3", "t1"), ("t3", "t4")])
    g = disjoint_union(complete_bipartite_graph(6, 7), path_graph(4, "p"), tail)
    levels = _count_calls(monkeypatch, "semigroup_levels")
    assert known_complete_degree(g) == 35
    assert levels == []


def test_depth_plus_pd_is_edge_count():
    rng = random.Random(606)
    for _ in range(12):
        g = random_graph(rng, max_vertices=5, max_edges=6)
        t = betti_table(g, 3)
        inv = invariants(g, t)
        assert inv.depth + inv.projective_dimension == len(g.edges)


def test_on_complex_sees_every_scanned_degree():
    g = cycle_graph(4)
    seen = []
    assert betti._audit(g, lambda s, delta: seen.append((s, delta)), 2) == betti_table(g, 2).entries
    levels = semigroup_levels(g, 2)
    assert [s for s, _ in seen] == [s for level in levels for s in level]


def test_field_argument_reaches_homology():
    # bipartite tables are field independent; this just exercises the plumbing
    g = cycle_graph(4)
    assert betti_table(g, field=FieldSpec(2)).entries == betti_table(g).entries


def test_edgeless_graph():
    g = Graph(("a", "b"), ())
    t = betti_table(g)
    assert t.entries == {(0, (0, 0)): 1}
    inv = invariants(g, t)
    assert inv.cohen_macaulay == "yes"
    assert inv.depth == 0 and inv.dimension == 0


def test_sorted_entries_order():
    t = betti_table(complete_bipartite_graph(2, 3))
    keys = [(sum(s), s, i) for i, s, _ in t.sorted_entries()]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete_bipartite_graph(3, 4),
        lambda: cycle_graph(6),
        lambda: path_graph(2),
        lambda: _bowtie(),
    ],
    ids=["K34", "C6", "P2", "bowtie"],
)
def test_kuenneth_with_the_unit_table_is_the_identity(make):
    # betti_table skips _convolve where the running table is the unit
    # table k and the component spans g: the product is the component's
    # table, entry for entry and in its order, nothing past the degree
    # bound dropped
    g = make()
    n, bound = len(g.vertices), len(g.edges)
    (plan,) = betti._plans(g)
    local, _ = plan.table(bound, RATIONALS, betti.DEFAULT_MAX_FIBER, betti.DEFAULT_MAX_SCAN, 0)
    product = betti._convolve({(0, (0,) * n): 1}, local, range(n), 2 * bound)
    assert list(product.items()) == list(local.items())
    assert betti_table(g, bound).entries == product


def _interleaved_union(rng, count, max_edges, odd_cycles=False):
    """`count` random graphs, at most 7 vertices in all, relabelled apart;
    the union's vertex and edge order is shuffled so the components
    interleave.  With `odd_cycles`, half of the parts with at least three
    vertices get a triangle or a pentagon laid over them."""
    vertices, edges, used = [], [], 0
    for k in range(count):
        part = random_graph(rng, max_vertices=7 - used - (count - 1 - k), max_edges=max_edges)
        used += len(part.vertices)
        pairs = list(part.edges)
        if odd_cycles and len(part.vertices) >= 3 and rng.random() < 0.5:
            length = 5 if len(part.vertices) >= 5 and rng.random() < 0.5 else 3
            cycle = rng.sample(part.vertices, length)
            present = {frozenset(e) for e in pairs}
            ring = [(cycle[i - 1], cycle[i]) for i in range(length)]
            pairs += [e for e in ring if frozenset(e) not in present]
        vertices += [f"g{k}{v}" for v in part.vertices]
        edges += [(f"g{k}{u}", f"g{k}{v}") for u, v in pairs]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(tuple(vertices), tuple(edges))


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_interleaved_union_matches_whole_graph_scan(rng, bound):
    g = _interleaved_union(rng, rng.randint(2, 3), max_edges=9)
    for field in (RATIONALS, FieldSpec(2)):
        got = betti_table(g, bound, field=field).entries
        assert got == whole_graph_entries(g, bound, field), (g, bound, field)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2**32))
def test_scan_complexes_match_box_fibers(seed):
    # the scan builds each degree complex from the level below; the box
    # sweep finds the fiber with neither the engine's search nor that
    # recurrence
    rng = random.Random(seed)
    g = _interleaved_union(rng, rng.randint(1, 3), max_edges=7, odd_cycles=True)
    bound = rng.randint(1, 4)
    seen = []
    entries = betti._audit(g, lambda s, delta: seen.append((s, delta)), bound)
    assert entries == betti_table(g, bound).entries
    for s, delta in seen:
        # delta lives on one component: its own edges, its vertices in g's order
        ends = {v for edge in delta.ground for v in edge}
        h = Graph(tuple(v for v in g.vertices if v in ends), delta.ground)
        supports = [[e for e, c in enumerate(coeffs) if c] for coeffs in box_fiber(h, s)]
        assert delta == SimplicialComplex.from_faces(h.edges, supports), (g, s)


def test_max_fiber_caps_facets_in_a_scan():
    # K_{3,3}'s largest degree complex up to degree 3 has six facets, the
    # supports of its six perfect matchings
    g = complete_bipartite_graph(3, 3)
    with pytest.raises(FiberOverflowError) as exc:
        betti_table(g, 3, max_fiber=5)
    assert exc.value.limit == 5
    assert betti_table(g, 3, max_fiber=6).entries == betti_table(g, 3).entries


def _plant_twins(rng, g):
    """g with one to three twins planted: each new vertex copies the
    neighborhood of a random vertex, and about half of them (true twins)
    are joined to that vertex as well.  Vertex and edge order is shuffled."""
    vertices, edges = list(g.vertices), list(g.edges)
    for k in range(rng.randint(1, 3)):
        v = rng.choice(vertices)
        twin = f"t{k}"
        edges += [(twin, b if a == v else a) for a, b in list(edges) if v in (a, b)]
        if rng.random() < 0.5:
            edges.append((twin, v))
        vertices.append(twin)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(tuple(vertices), tuple(edges))


def _complete_graph(n):
    vs = tuple(f"k{i}" for i in range(n))
    return Graph(vs, tuple((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]))


TWIN_GRAPHS = {
    "K4": _complete_graph(4),
    "C4": cycle_graph(4),
    "K23+K22": disjoint_union(complete_bipartite_graph(2, 3), complete_bipartite_graph(2, 2, "c", "d")),
    "K34": complete_bipartite_graph(3, 4),
}


def _canonical(t, classes):
    # the canonical form by sorting, which the scan never does
    t = list(t)
    for cls in classes:
        for v, x in zip(cls, sorted((t[v] for v in cls), reverse=True)):
            t[v] = x
    return tuple(t)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_orbit_scan_matches_whole_graph_scan(rng, bound):
    g = _plant_twins(rng, random_graph(rng, max_vertices=5, max_edges=6))
    for field in (RATIONALS, FieldSpec(2)):
        got = betti_table(g, bound, field=field).entries
        assert got == whole_graph_entries(g, bound, field), (g, bound, field)


@pytest.mark.parametrize("name, bound", [("K4", 4), ("C4", 3), ("K23+K22", 4)])
def test_orbit_scan_matches_whole_graph_scan_on_twin_families(name, bound):
    g = TWIN_GRAPHS[name]
    for field in (RATIONALS, FieldSpec(2)):
        assert betti_table(g, bound, field=field).entries == whole_graph_entries(g, bound, field)


@pytest.mark.parametrize("name", sorted(TWIN_GRAPHS))
def test_representatives_cover_each_plain_level(name):
    g = TWIN_GRAPHS[name]
    classes = twin_classes(g)
    assert classes
    group = betti._TwinGroup(g, classes)
    reps = semigroup_levels(g, 5, classes=classes)
    plain = semigroup_levels(g, 5)
    assert len(reps) == len(plain)
    # H(n) counts every element: orbits expanded, or the trivial group's
    hilbert = list(map(sum, betti._orbit_sizes(reps, group)))
    plain_sizes = betti._orbit_sizes(plain, betti._TwinGroup(g, ()))
    assert hilbert == list(map(sum, plain_sizes)) == [len(full) for full in plain]
    for level, full in zip(reps, plain):
        assert all(_canonical(r, classes) == r for r in level)
        assert all(group.orbit_size(r) == len(group.orbit(r)) for r in level)
        assert sum(group.orbit_size(r) for r in level) == len(full)
        assert {_canonical(t, classes) for t in full} == set(level)
        assert sorted(t for r in level for t in group.orbit(r)) == full
        # the audit's walk lists the same elements, with their swaps
        assert all([t for t, _ in group.orbit(r, True)] == group.orbit(r) for r in level)


def test_orbit_scan_cap_counts_representatives():
    # the cap trips at the first degree where the representatives listed so
    # far exceed it; the plain scan lists every element, so it trips no later.
    # The audited scan is the one that lists every level to the top degree;
    # without an audit a normal component stops short of it.
    # A hypersurface (|E| = d + 1) lists no levels: C_4 holds level 0 alone
    c4 = TWIN_GRAPHS["C4"]
    with pytest.raises(ScanOverflowError) as exc:
        betti_table(c4, 6, max_scan=0)
    assert (exc.value.limit, exc.value.degree) == (0, 0)
    assert betti_table(c4, 6, max_scan=1).certified

    def scanned(g):
        return len(connected_components(g)) == 1 and len(g.edges) - incidence_rank(g) != 1

    rng = random.Random(2024)
    graphs = [g for g in TWIN_GRAPHS.values() if scanned(g)]
    while len(graphs) < 15:
        g = _plant_twins(rng, random_graph(rng, max_vertices=5, max_edges=7))
        if g.edges and scanned(g):
            graphs.append(g)
    overflows = 0
    for g in graphs:
        top = known_complete_degree(g)
        bound = 6 if top is None else min(6, top)  # betti_table scans this far at least
        levels = semigroup_levels(g, bound, classes=twin_classes(g))
        totals = list(accumulate(map(len, levels)))
        for cap in (0, 1, 4, 30, 200, 1000):
            if totals[-1] <= cap:
                assert semigroup_levels(g, bound, cap, twin_classes(g)) == levels
                continue
            degree = next(d for d, total in enumerate(totals) if total > cap)
            overflows += 1
            with pytest.raises(ScanOverflowError) as exc:
                semigroup_levels(g, bound, cap, twin_classes(g))
            assert exc.value.degree == degree
            with pytest.raises(ScanOverflowError) as exc:
                betti._audit(g, _ignore, 6, max_scan=cap)
            assert (exc.value.limit, exc.value.degree) == (cap, degree)
            with pytest.raises(ScanOverflowError) as exc:
                semigroup_levels(g, bound, cap)
            assert exc.value.degree <= degree
    assert overflows >= 30


def test_max_scan_equal_to_the_representative_count_passes():
    # K_{2,3} to its top degree 3: 12 representatives stand for 65 elements
    g = complete_bipartite_graph(2, 3)
    levels = semigroup_levels(g, 3, classes=twin_classes(g))
    count = sum(map(len, levels))
    sizes = betti._orbit_sizes(levels, betti._TwinGroup(g, twin_classes(g)))
    assert (count, sum(map(sum, sizes))) == (12, 65)
    assert semigroup_levels(g, 3, count, twin_classes(g)) == levels
    assert betti_table(g, max_scan=count).certified
    with pytest.raises(ScanOverflowError) as exc:
        semigroup_levels(g, 3, count - 1, twin_classes(g))
    assert exc.value.degree == 3
    with pytest.raises(ScanOverflowError) as exc:
        betti_table(g, max_scan=count - 1)
    assert (exc.value.limit, exc.value.degree) == (count - 1, 3)


def test_semigroup_levels_rejects_non_twins():
    with pytest.raises(ValueError, match="not twins"):
        semigroup_levels(path_graph(4), 2, classes=((0, 1),))
    # classes that are not disjoint, strictly increasing positions in
    # range(n): a repeated vertex (linked to itself, the slide along its
    # class would never end), positions past the end or negative, a
    # decreasing class, and two classes sharing a vertex
    g = complete_bipartite_graph(2, 3)
    for classes in ([(2, 2)], [(2, 9)], [(-1, 0)], [(-3, 3)], [(3, 2)], [(2, 3), (3, 4)]):
        with pytest.raises(ValueError, match="not disjoint increasing vertex positions"):
            semigroup_levels(g, 3, classes=classes)
    assert len(semigroup_levels(g, 3, classes=[(0, 1), (2, 3, 4)])) == 4


def test_k34_scans_one_multidegree_per_twin_orbit(monkeypatch):
    # 16,071 multidegrees to degree 8, 790 of them not cones; one scan per
    # orbit leaves 366 and 46.  K_{3,4} is bipartite, so its Betti numbers
    # live in the box s <= deg (totally unimodular incidence matrix:
    # squarefree initial ideals, upper semicontinuity, 0/1 degrees): the
    # levels to d - 1 = 5 stay whole (65 representatives), those past it
    # hold the box only (122 in all), and 37 complexes past level 0 need
    # homology: 31 are ranked, and 6 have one homological index left
    # (degree 2 and the top degree 8, reg 2 and pd 6) and are counted by
    # their chains; level 0's {empty set} needs neither.  That is the scan
    # the audit (betti._audit) sees.  betti_table stops at degree 5 = top - 3
    # (65 representatives held, the grower not called): degrees 6, 7 and
    # 8 are written from the canonical module.  Its least interior
    # elements are one orbit at level k_min = 4, (2,1,1 | 1,1,1,1); two
    # orbits at level 5 lie over it, found by stepping down, with no
    # interior test: (3,1,1 | 2,1,1,1) over one of its elements (no entry),
    # (2,2,1 | 2,1,1,1) over two (beta_5 = 1).  The interior test tries one
    # edge per orbit of the swaps that fix (2,1,1 | 1,1,1,1), at a1 and at
    # a2: 2 of the 12.  Level k_min + 2 = 6 = d is grown in the box from
    # level 5, adding a column only where it covers every zero: the 6
    # representatives with every weight positive (71 held), not the 25
    # of the whole level in the box, each the end of an edge of K^t: K^t
    # is a tree at 4 and has one cycle at (2,2,2 | 2,2,1,1) and
    # (2,2,2 | 3,1,1,1) (beta_4 = 1), so no interior test is added.  That
    # leaves 15 complexes ranked and 1 counted (degree 2).  The grower
    # returns the running count of representatives held
    g = complete_bipartite_graph(3, 4)
    assert sum(map(len, semigroup_levels(g, 8))) == 16071
    assert sum(map(len, semigroup_levels(g, 8, classes=twin_classes(g)))) == 366
    runs = []
    for run, work in (
        (lambda: betti._audit(g, _ignore, 8), ([65, 122], 31, 6, 0)),
        (lambda: betti_table(g, 8), ([65, 71], 15, 1, 2)),
    ):
        held = _count_results(monkeypatch, "_grow")
        homology = _count_calls(monkeypatch, "reduced_homology")
        euler = _count_calls(monkeypatch, "_reduced_euler")
        interior = _count_calls(monkeypatch, "in_semigroup")
        runs.append(run())
        monkeypatch.undo()
        assert (held, len(homology), len(euler), len(interior)) == work
    audited, table = runs
    assert table.certified and audited == table.entries


def _bowtie(prefix="v"):
    c, a, b, d, e = (f"{prefix}{x}" for x in "cabde")
    return Graph((c, a, b, d, e), ((c, a), (a, b), (b, c), (c, d), (d, e), (e, c)))


def _bridged_bowtie(prefix="v"):
    """The bowtie with an edge joining its triangles: |E| = d + 2, normal."""
    g = _bowtie(prefix)
    return Graph(g.vertices, g.edges + ((f"{prefix}a", f"{prefix}d"),))


def _count_calls(monkeypatch, name, owner=betti):
    """Record the arguments of every call to `owner`.`name`, betti's own
    functions by default."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_results(monkeypatch, name):
    """Record the result of every call to betti.`name`."""
    results, original = [], getattr(betti, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(betti, name, recorded)
    return results


def test_normal_component_stops_at_its_hilbert_top_degree(monkeypatch):
    # the bowtie is normal (its triangles share a vertex) with d = 5:
    # H = 1, 6, 21, 55, 120 gives h = 1 + t + t^2, pd = 1 and top degree
    # 3, so its levels stop at d - 1 = 4 and its homology at 3
    g = disjoint_union(_bowtie("p"), _bowtie("q"))
    assert [len(level) for level in semigroup_levels(_bowtie(), 4)] == [1, 6, 21, 55, 120]
    levels = _count_calls(monkeypatch, "semigroup_levels")
    seen = []
    audited = betti._audit(g, lambda s, delta: seen.append(sum(s) // 2), 6)
    assert [args[1] for args in levels] == [4, 4]
    assert max(seen) == 3
    table = betti_table(g, 6)
    assert table.entries == audited
    assert table.certified and table.caveats == ()
    assert table.standard_graded() == {(0, 0): 1, (1, 3): 2, (2, 6): 1}
    assert invariants(g, table).cohen_macaulay == "yes"
    assert known_complete_degree(g) == 6


def test_each_component_builds_its_twin_group_once(monkeypatch):
    # a component's plan hands its group to semigroup_levels, which uses it
    # as it is rather than building a second one from the classes; a
    # hypersurface answered in closed form builds neither, and runs no
    # normality test either (the odd cycle condition), which an audit of
    # the bowties does run, once per bowtie
    built = []
    init = betti._TwinGroup.__init__

    def counted(self, g, classes):
        built.append(g)
        init(self, g, classes)

    monkeypatch.setattr(betti._TwinGroup, "__init__", counted)
    levels = _count_calls(monkeypatch, "semigroup_levels")
    normality = _count_calls(monkeypatch, "odd_cycle_condition")
    bowties = disjoint_union(_bowtie("p"), _bowtie("q"))
    for g, bound, audit, components, tested in (
        (complete_bipartite_graph(3, 4), 8, None, 1, 0),
        (disjoint_union(_complete_graph(4), _bridged_bowtie()), 8, None, 2, 2),
        (bowties, 6, None, 0, 0),
        (bowties, 6, True, 2, 2),
    ):
        built.clear()
        levels.clear()
        normality.clear()
        if audit:
            entries = betti._audit(g, _ignore, bound)
        else:
            assert betti_table(g, bound).certified
        assert len(built) == len(levels) == components
        assert len(normality) == tested
    assert entries == betti_table(bowties, 6).entries


def test_known_complete_degree_writes_no_canonical_entries(monkeypatch):
    # known_complete_degree needs only the h-vector, so it neither reads the
    # top two degrees off the canonical module nor tests interiority;
    # betti_table on the same graphs does both.  Q_3 (reg 3, top degree 8)
    # and K_{3,4} minus an edge (reg 2, top 7) lie past d - 1; C_8 with a
    # chord making a 4-cycle (d = 7, pd 2, reg 3) has its top degree 5
    # within the levels to d - 1 that fix it
    k34, c8 = complete_bipartite_graph(3, 4), cycle_graph(8)
    theta = Graph(c8.vertices, c8.edges + ((c8.vertices[0], c8.vertices[3]),))
    for g in (_cube(), Graph(k34.vertices, k34.edges[1:]), theta):
        for run, calls in ((known_complete_degree, 0), (betti_table, 1)):
            entries = _count_calls(monkeypatch, "canonical_entries", betti._Plan)
            interior = _count_calls(monkeypatch, "_interior")
            run(g)
            monkeypatch.undo()
            assert len(entries) == calls and bool(interior) == bool(calls), (g, run)


def test_top_degree_past_the_hilbert_levels_scans_on(monkeypatch):
    # K_4 has d = 4, h = 1 + 2t + t^2 and pd 2, so its top degree 4 lies
    # past d - 1 = 3: the levels to 3 fix h, then an audited scan goes on
    # to 4; K_{3,3} minus an edge likewise has top degree 5 > 4.  Without
    # an audit both stop at top - 3 (reg 2) and read the top three degrees
    # off the canonical module: the levels to d - 1, whose top - 3 the
    # scan needs no grower for, and the part of level d = top, omega's
    # k_min + 2, with every weight positive, grown inside the degree box
    # from level d - 1, although K_4 is not bipartite
    minus = complete_bipartite_graph(3, 3)
    for g, calls, top in (
        (_complete_graph(4), [3, 4], 4),
        (Graph(minus.vertices, minus.edges[1:]), [4, 5], 5),
    ):
        for run in (lambda: betti._audit(g, _ignore, len(g.edges)), lambda: betti_table(g).entries):
            # semigroup_levels grows the levels to d - 1 through _grow
            grown = _count_calls(monkeypatch, "_grow")
            entries = run()
            monkeypatch.undo()
            assert [args[2] for args in grown] == calls
            assert entries == whole_graph_entries(g, len(g.edges))
            assert max(sum(s) // 2 for _, s in entries) == top == known_complete_degree(g)
        assert betti_table(g).certified
        # below d - 1 the Hilbert function is not known: no certificate
        assert not betti_table(g, calls[0] - 1).certified


def test_levels_past_d_minus_1_extend_the_first_scan(monkeypatch):
    # the scan on to the top degree grows the levels to d - 1 on, instead
    # of rebuilding them: its call starts from their top level, shares
    # their level lists, and continues their tally; each representative's
    # orbit is sized once.  K_4 is not bipartite, so its level 4 is whole;
    # K_{3,3} minus an edge is, so its levels are cut to its degree box
    # and level 5 is grown inside it.  Only an audited scan reaches the
    # top degree past d - 1: without one these stop at top - 2 <= d - 1
    minus = complete_bipartite_graph(3, 3)
    for g in (_complete_graph(4), Graph(minus.vertices, minus.edges[1:])):
        calls, held = [], []
        original, size = betti._grow, betti._TwinGroup.orbit_size

        def recorded(g, levels, *args):
            calls.append((levels, list(levels)))  # the list, and its levels on entry
            held.append(original(g, levels, *args))
            return held[-1]

        def counted(self, r):
            sized.append(r)
            return size(self, r)

        sized = []
        monkeypatch.setattr(betti, "_grow", recorded)
        monkeypatch.setattr(betti._TwinGroup, "orbit_size", counted)
        audited = betti._audit(g, _ignore, len(g.edges))
        monkeypatch.undo()
        assert audited == betti_table(g).entries
        (first, start), (second, given) = calls
        assert len(start) == 1 and len(given) == len(first) and len(second) == len(first) + 1
        assert held[0] == sum(map(len, first))
        assert held[1] == held[0] + len(second[-1])
        assert len(sized) == len(set(sized))
        whole = semigroup_levels(g, len(second) - 1, classes=twin_classes(g))
        assert first == whole[:-1]
        if is_bipartite(g)[0]:
            degrees = [g.degree(v) for v in g.vertices]
            cut = [[r for r in level if all(x <= b for x, b in zip(r, degrees))] for level in whole]
            assert 0 < len(cut[-1]) < len(whole[-1])
            assert given == cut[:-1] and second == cut
        else:
            assert all(a is b for a, b in zip(first, given))
            assert second == whole


def test_scan_cap_between_d_minus_1_and_the_top_degree():
    # K_4: levels to d - 1 = 3 fix its top degree 4.  In an audited scan a
    # cap that holds the representatives of levels 0..3 but not of level
    # 4 trips at degree 4, both for one copy and for the second of two,
    # whose tally starts after the first's levels.  Without an audit
    # degrees 2, 3 and 4 come from the canonical module, whose level
    # k_min + 2 = 4 is held only inside the degree box, weights <= 3, and
    # with every weight positive: 3 of level 4's 8 representatives
    k4 = _complete_graph(4)
    levels = semigroup_levels(k4, 4, classes=twin_classes(k4))
    counts = [len(level) for level in levels]
    box = [r for r in levels[4] if max(r) <= 3 and min(r)]
    assert (counts, len(box)) == ([1, 1, 3, 5, 8], 3)
    other = Graph.from_edges((f"{u}'", f"{v}'") for u, v in k4.edges)
    for g, copies in ((k4, 1), (disjoint_union(k4, other), 2)):
        before = (copies - 1) * sum(counts)
        for cap in (before + sum(counts[:4]), before + sum(counts) - 1):
            with pytest.raises(ScanOverflowError) as exc:
                betti._audit(g, _ignore, len(g.edges), max_scan=cap)
            assert (exc.value.limit, exc.value.degree) == (cap, 4)
        audited = betti._audit(g, _ignore, len(g.edges), max_scan=before + sum(counts))
        assert audited == betti_table(g).entries
        held = copies * (sum(counts[:4]) + len(box))
        assert betti_table(g, max_scan=held).certified
        for cap, degree in ((held - 1, 4), (held - len(box) - 1, 3)):
            with pytest.raises(ScanOverflowError) as exc:
                betti_table(g, max_scan=cap)
            assert (exc.value.limit, exc.value.degree) == (cap, degree)


@pytest.mark.parametrize("closed_first", [False, True])
def test_scan_cap_across_a_closed_and_a_scanned_component(closed_first):
    # K_{2,3} holds its whole levels to d - 1 = 3, 1 + 1 + 4 + 6 = 12
    # representatives, and the closed C_4 holds level 0 alone.  The cap
    # counts both, in component order: one below 13, the component that
    # comes second overflows, C_4 at level 0 or K_{2,3} at level 3
    k23, c4 = complete_bipartite_graph(2, 3), cycle_graph(4, "c")
    assert [len(level) for level in semigroup_levels(k23, 3, classes=twin_classes(k23))] == [1, 1, 4, 6]
    g = disjoint_union(c4, k23) if closed_first else disjoint_union(k23, c4)
    table = betti_table(g, max_scan=12 + 1)
    assert table.certified and table.caveats == ()
    with pytest.raises(ScanOverflowError) as exc:
        betti_table(g, max_scan=12)
    assert (exc.value.limit, exc.value.degree) == (12, 3 if closed_first else 0)


def test_betti_table_counts_each_orbit_once(monkeypatch):
    # the Hilbert function sums orbit sizes once per representative past
    # level 0, up to d - 1 = 5 (64 of them); the levels past it hold
    # K_{3,4}'s degree box only and are not sized
    calls = []
    size = betti._TwinGroup.orbit_size

    def counted(self, r):
        calls.append(r)
        return size(self, r)

    monkeypatch.setattr(betti._TwinGroup, "orbit_size", counted)
    betti_table(complete_bipartite_graph(3, 4), 8)
    assert len(calls) == len(set(calls)) == 64


def _normal_graph(rng):
    """A random graph on 4 to 7 vertices, with at least as many edges as a
    spanning tree plus one, whose components are bipartite or satisfy the odd cycle
    condition; about half of them are drawn bipartite."""
    n = rng.randint(4, 7)
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    left = n if rng.random() < 0.5 else rng.randint(2, n - 2)
    pairs = [
        (u, v) for i, u in enumerate(labels) for j, v in enumerate(labels)
        if i < j and (left == n or i < left <= j)
    ]
    rng.shuffle(pairs)
    g = Graph(tuple(labels), tuple(pairs[: rng.randint(n, min(8, len(pairs)))]))
    for comp in connected_components(g):
        h = induced_subgraph(g, comp)
        assume(is_bipartite(h)[0] or odd_cycle_condition(h).status == "satisfied")
    return g


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_certified_normal_tables_match_a_scan_to_the_edge_count(rng):
    g = _normal_graph(rng)
    table = betti_table(g)
    assert table.certified, g
    assert table.entries == whole_graph_entries(g, len(g.edges)), g


def _bipartite_graph(rng, max_vertices=6, max_edges=8):
    """A random bipartite graph: a random split of 2 to `max_vertices`
    vertices and a random set of edges across it, at least as many as
    vertices where the split allows it, so that most draws hold an even
    cycle.  It may have several components and isolated vertices."""
    n = rng.randint(2, max_vertices)
    labels = [f"b{i}" for i in range(n)]
    rng.shuffle(labels)
    left = rng.randint(1, n - 1)
    pairs = [(u, v) for u in labels[:left] for v in labels[left:]]
    rng.shuffle(pairs)
    most = min(max_edges, len(pairs))
    return Graph(tuple(labels), tuple(pairs[: rng.randint(min(n, most), most)]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False))
def test_box_scan_matches_whole_graph_scan(rng):
    # bipartite components are scanned inside their degree box, past d - 1
    # with the box only; the reference scans every element.  Half of the
    # graphs are smaller and get a triangle or a pentagon beside them,
    # which is scanned whole
    if rng.random() < 0.5:
        g, bound = _bipartite_graph(rng, max_vertices=7, max_edges=9), rng.randint(3, 6)
    else:
        part = _bipartite_graph(rng, max_vertices=5, max_edges=6)
        g, bound = disjoint_union(part, cycle_graph(rng.choice((3, 5)), "o")), rng.randint(2, 3)
    vertices, edges = list(g.vertices), list(g.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    g = Graph(tuple(vertices), tuple(edges))
    for field in (RATIONALS, FieldSpec(2)):
        got = betti_table(g, bound, field=field).entries
        assert got == whole_graph_entries(g, bound, field), (g, bound, field)


def test_bipartite_first_syzygies_are_the_induced_even_cycles():
    # I_G of a bipartite G is minimally generated by the binomials of its
    # induced even cycles W, one each, in multidegree 1_W (Villarreal, Comm.
    # Algebra 23, 1995; Ohsugi-Hibi, J. Algebra 218, 1999); the cycles come
    # from the subset oracle, not from the engine
    rng = random.Random(6)
    cycles = 0
    for _ in range(40):
        left, right = rng.randint(2, 4), rng.randint(2, 4)
        pairs = [(f"l{i}", f"r{j}") for i in range(left) for j in range(right)]
        rng.shuffle(pairs)
        labels = tuple(f"l{i}" for i in range(left)) + tuple(f"r{j}" for j in range(right))
        g = Graph(labels, tuple(pairs[: rng.randint(1, min(11, len(pairs)))]))
        table = betti_table(g)
        assert table.certified, g
        expected = {}
        for cycle in induced_cycles(g, len(g.vertices)):
            assert len(cycle) % 2 == 0
            expected[tuple(int(v in cycle) for v in g.vertices)] = 1
        assert {s: b for (i, s), b in table.entries.items() if i == 1} == expected, g
        cycles += len(expected)
    assert cycles >= 40


def _outside_the_box(g, degree, sides=()):
    """The sums of `degree` edge columns of g with some entry above its
    vertex's degree, each sorted down along each of `sides` (vertex
    positions that automorphisms of g permute freely)."""
    degrees = [g.degree(v) for v in g.vertices]
    found = set()
    for chosen in combinations_with_replacement(g.edge_indices, degree):
        s = [0] * len(g.vertices)
        for iu, iv in chosen:
            s[iu] += 1
            s[iv] += 1
        if all(x <= b for x, b in zip(s, degrees)):
            continue
        for side in sides:
            for p, x in zip(side, sorted((s[p] for p in side), reverse=True)):
                s[p] = x
        found.add(tuple(s))
    return sorted(found)


def _acyclic_box_complex(g, s):
    """Whether Delta_s, from the box-swept fiber, is acyclic over Q and
    GF(2) by sympy ranks; and whether it is a cone."""
    supports = [[e for e, c in enumerate(coeffs) if c] for coeffs in box_fiber(g, s)]
    delta = SimplicialComplex.from_faces(g.edges, supports)
    acyclic = not any(homology_via_sympy(delta)) and not any(homology_via_sympy(delta, 2))
    return acyclic, bool(frozenset.intersection(*delta.facets))


# The theorem behind the degree box, checked without the engine's scan: for
# a bipartite graph, every semigroup element s with s_v > deg v for some v
# has an acyclic degree complex.  The elements are sums of edge columns,
# the complexes come from box-swept fibers and their homology from sympy.


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False))
def test_degree_complexes_outside_the_degree_box_are_acyclic(rng):
    g = _bipartite_graph(rng)
    for degree in range(1, 5):
        for s in _outside_the_box(g, degree):
            assert _acyclic_box_complex(g, s)[0], (g, s)


def test_k33_degree_complexes_outside_the_degree_box_are_acyclic():
    # up to degree 5 every such complex of K_{3,3} is a cone; at its top
    # degree 6, two orbits are not, (4,1,1 | 2,2,2) and (2,2,2 | 4,1,1)
    g = complete_bipartite_graph(3, 3)
    sides = ((0, 1, 2), (3, 4, 5))
    for degree in range(1, 7):
        checked = [_acyclic_box_complex(g, s) for s in _outside_the_box(g, degree, sides)]
        assert all(acyclic for acyclic, _ in checked)
        assert sum(not cone for _, cone in checked) == (2 if degree == 6 else 0)


def test_k44_scans_its_degree_box(monkeypatch):
    # K_{4,4} to its top degree 12: the levels to d - 1 = 6 hold 157
    # representatives, and with the degree box past them, to degree 9 =
    # top - 3, 319 of the 3,241 a whole scan to 12 holds (368 to 10, 418
    # to 12); past level 0, 116 complexes need homology, 115 ranked and 1
    # counted by its chains (degree 2).  Degrees 10, 11 and 12 are written
    # from the canonical module: level k_min = 4 holds one interior orbit,
    # the all-ones vector, whose swaps carry every edge to every other (one
    # interior test), and level 5 one orbit over it (p = 1, no entry).
    # Level k_min + 2 = 6 is whole, and 4 of its orbits have every weight
    # positive, all inside the box and over level 5, so with no interior
    # test: K^t is a tree at 3, and at (2,2,1,1 | 2,2,1,1) has two
    # components (beta_8 = 1 at degree 10).  The level holds 28 + 9 * 7 +
    # 9 = 100 interior elements, as Stanley reciprocity says.  An audit
    # still sees the scan to 12, with 138 ranked and 8 counted (degree 2
    # and the top degree 12); it takes 2 s, so it is not run here
    g = complete_bipartite_graph(4, 4)
    assert sum(map(len, semigroup_levels(g, 12, classes=twin_classes(g)))) == 3241
    held = _count_results(monkeypatch, "_grow")
    homology = _count_calls(monkeypatch, "reduced_homology")
    euler = _count_calls(monkeypatch, "_reduced_euler")
    interior = _count_calls(monkeypatch, "in_semigroup")
    table = betti_table(g)
    assert table.certified
    assert held == [157, 319]
    assert (len(homology), len(euler), len(interior)) == (115, 1, 1)
    inv = invariants(g, table)
    assert (inv.regularity, inv.projective_dimension) == (3, 9)


def test_facet_pulls_are_pinned(monkeypatch):
    # each degree complex is built from the edges at one vertex, a weight-1
    # vertex with the fewest edges where there is one: the relabelled masks
    # and the twin steps down are pinned, as the wall time is too noisy to
    # guard them (pulling over every edge took 3,964 / 781 on K_{3,4} and
    # 92,368 / 4,108 on K_{4,4}).  The top three degrees are read off the
    # canonical module, so their complexes are not built (1,008 / 242 and
    # 18,788 / 1,158 where all three are built, 484 / 177 and 10,422 / 987
    # where only the top two are read off); the steps down include the
    # canonical counts at levels k_min + 1 and k_min + 2, one per edge of
    # each orbit there with every weight positive (inside the box when
    # that level is not whole): 2 x 12 and 6 x 12 on K_{3,4}, 1 x 16 and
    # 4 x 16 on K_{4,4}
    for g, bound, work in (
        (complete_bipartite_graph(3, 4), 8, (175, 186)),
        (complete_bipartite_graph(4, 4), None, (6459, 875)),
    ):
        relabels = _count_calls(monkeypatch, "_relabel")
        downs = _count_calls(monkeypatch, "down", betti._TwinGroup)
        betti_table(g, bound)
        assert (len(relabels), len(downs)) == work, g
        monkeypatch.undo()


def _box_complex(g, s):
    supports = [[e for e, c in enumerate(coeffs) if c] for coeffs in box_fiber(g, s)]
    return SimplicialComplex.from_faces(g.edges, supports)


@pytest.mark.parametrize("name, bound", [("K24", 6), ("K33", 6), ("bowtie", 4), ("K34", 6)])
def test_facets_from_one_vertex_match_box_fibers(name, bound):
    # a weight-1 vertex takes the edges at it without a maximality test;
    # with all positive weights >= 2 the sets are tested.  Both are checked
    # against the box sweep, every complex on the small graphs, and on
    # K_{3,4} one multidegree of each kind
    g = {
        "K24": complete_bipartite_graph(2, 4),
        "K33": complete_bipartite_graph(3, 3),
        "bowtie": _bowtie(),
        "K34": complete_bipartite_graph(3, 4),
    }[name]
    seen = {}
    entries = betti._audit(g, lambda s, delta: seen.setdefault(s, delta), bound)
    assert entries == betti_table(g, bound).entries
    if name == "K34":
        seen = {s: seen[s] for s in ((2, 2, 1, 2, 2, 1, 0), (2, 2, 2, 2, 2, 2, 0))}
    kinds = {1 in s for s in seen if any(s)}
    assert kinds == {True, False}
    for s, delta in seen.items():
        assert delta == _box_complex(g, s), s


def _chorded_cycle(n):
    """C_n with a chord from v1 to v4: two even cycles when n is even."""
    g = cycle_graph(n)
    return Graph(g.vertices, g.edges + (("v1", "v4"),))


# normal graphs with |E| >= d + 2, scanned with their h-vectors; the
# hypersurfaces that stood here (C6, C8, the bowtie, two bowties) are
# closed forms now, checked in HYPERSURFACES
EULER_GRAPHS = {
    "K24": complete_bipartite_graph(2, 4),
    "K33": complete_bipartite_graph(3, 3),
    "K34": complete_bipartite_graph(3, 4),
    "C6+chord": _chorded_cycle(6),
    "C8+chord": _chorded_cycle(8),
    "bowtie+edge": _bridged_bowtie(),
    "K4+C4": disjoint_union(_complete_graph(4), cycle_graph(4, "s")),
}


@pytest.mark.parametrize("name", sorted(EULER_GRAPHS))
def test_euler_counts_match_the_whole_scan(monkeypatch, name):
    # a Cohen-Macaulay component's complexes with one homological index
    # left are counted by their chains; the whole scan ranks every non-cone.
    # Only an audited scan reaches the top degree of a component with
    # reg >= 2, where one index is left too; without an audit its top three
    # degrees are read off the canonical module.  Degree 2 leaves one index
    # in every scan that reaches it.  C6+chord, bowtie+edge and K_4 (beside
    # the closed C_4) have reg 2 and pd 2, so their degree 2 is top - 2 and
    # comes from the canonical module unless audited; C8+chord (reg 3, pd 2)
    # and the complete bipartite graphs still scan it.  With reg = 1
    # (K_{2,4}) both scan alike
    g = EULER_GRAPHS[name]
    top = known_complete_degree(g)
    whole = {field: whole_graph_entries(g, top, field) for field in (RATIONALS, FieldSpec(2), FieldSpec(3))}
    counted = []
    for audit in (False, True):
        homology = _count_calls(monkeypatch, "reduced_homology")
        euler = _count_calls(monkeypatch, "_reduced_euler")
        for field, entries in whole.items():
            got = betti._audit(g, _ignore, len(g.edges), field) if audit else betti_table(g, field=field).entries
            assert got == entries, field
        monkeypatch.undo()
        counted.append(len(euler))
        if name == "K24":
            # reg 1: every degree past 0 leaves one index, and level 0's
            # {empty set} is seeded, so no complex is ranked
            assert homology == []
    assert counted[0] <= counted[1] and counted[1] > 0
    assert (counted[0] > 0) == (name not in ("C6+chord", "bowtie+edge", "K4+C4"))
    assert (counted[0] == counted[1]) == (name == "K24")


def test_negative_euler_count_is_an_internal_error(monkeypatch):
    euler = betti._reduced_euler
    monkeypatch.setattr(betti, "_reduced_euler", lambda delta: -euler(delta))
    with pytest.raises(RuntimeError, match="internal error: .* is negative"):
        betti_table(complete_bipartite_graph(2, 4))


def test_hilbert_cross_checks_raise(monkeypatch):
    # H = 1, 0, 0 is no Hilbert function of a normal ring: h = 1 - 3t + 3t^2
    with pytest.raises(RuntimeError, match="negative"):
        betti._h_vector([1, 0, 0], 3)
    assert betti._h_vector([1, 6, 21, 55, 120], 5) == [1, 1, 1]

    scan = betti._scan

    def drop_top_entry(*args, **kwargs):
        entries = scan(*args, **kwargs)
        return dict(list(entries.items())[:-1])

    # K_4 has no closed form; C_6 has one, and is scanned only by the audit
    monkeypatch.setattr(betti, "_scan", drop_top_entry)
    for run in (lambda: betti_table(_complete_graph(4)), lambda: betti._audit(cycle_graph(6), _ignore, 6)):
        with pytest.raises(RuntimeError, match="h-vector"):
            run()
    monkeypatch.undo()

    # a scanned hypersurface's h-vector cross-checks |u+|
    relation = betti._relation
    monkeypatch.setattr(betti, "_relation", lambda h: tuple(2 * x for x in relation(h)))
    with pytest.raises(RuntimeError, match="a component has pd [+] deg h = 3, not the closed-form top degree 6"):
        betti._audit(cycle_graph(6), _ignore, 6)
    monkeypatch.undo()

    monkeypatch.setattr(betti, "complete_bipartite_reg_pd", lambda u, v: (u, (u - 1) * (v - 1)))
    with pytest.raises(RuntimeError, match="closed-form"):
        betti_table(complete_bipartite_graph(2, 3))


def test_matching_number_bounds_the_bipartite_regularity(monkeypatch):
    # a normal bipartite component has reg = deg h <= nu - 1 (Herzog-Hibi,
    # Mathematics 8, 2020), checked where its levels fix h; nu comes from
    # augmenting paths, here against every set of edges: on random
    # bipartite graphs, and on the path p0 - ... - p7 in an order whose
    # first matches leave the last root only the augmenting path through
    # all 7 edges.  The bound is tight on K_{3,4}, K_{4,4} and Q_3, so an
    # h-vector with one more top entry trips it
    rng = random.Random(7)
    path = Graph(
        ("p5", "p1", "p2", "p6", "p3", "p7", "p4", "p0"),
        (("p6", "p7"), ("p4", "p5"), ("p3", "p4"), ("p1", "p2"), ("p5", "p6"), ("p0", "p1"), ("p2", "p3")),
    )
    graphs = [path]
    for _ in range(30):
        g = _bipartite_graph(rng, max_vertices=8, max_edges=10)
        graphs += [induced_subgraph(g, comp) for comp in connected_components(g)]
    for h in graphs:
        assert betti._matching_number(h) == matching_number(h), h
    tight = ((complete_bipartite_graph(3, 4), 3), (complete_bipartite_graph(4, 4), 4), (_cube(), 4))
    for g, nu in tight:
        assert betti._matching_number(g) == matching_number(g) == nu
        assert invariants(g, betti_table(g)).regularity == nu - 1
    h_vector = betti._h_vector
    monkeypatch.setattr(betti, "_h_vector", lambda sizes, d: h_vector(sizes, d) + [1])
    for g, nu in tight:
        with pytest.raises(RuntimeError, match=f"reg = deg h = {nu} past nu - 1 = {nu - 1}"):
            betti_table(g)


def _drawn_graph(rng, n, m, bipartite, keep):
    """A random graph on n vertices with m edges, drawn across a random
    split when `bipartite`, from all pairs otherwise, until `keep` takes
    one."""
    labels = [f"v{i}" for i in range(n)]
    while True:
        left = rng.randint(2, n - 2)
        if bipartite:
            pairs = [(u, v) for u in labels[:left] for v in labels[left:]]
        else:
            pairs = list(combinations(labels, 2))
        rng.shuffle(pairs)
        g = Graph(tuple(labels), tuple(pairs[:m]))
        if keep(g):
            return g


def test_interior_test_matches_the_decomposition_oracle():
    # t is interior iff 2t - a_e is in the semigroup for every edge e
    # (half-integral vertices), tested once per edge orbit of the swaps
    # that fix t; the oracle lists the decompositions of 2t itself.  Every
    # representative of the levels up to d - 1, where the least interior
    # elements lie, is tested, on normal graphs and on non-normal ones
    rng = random.Random(5)
    graphs = [_complete_graph(4), _bridged_bowtie(), complete_bipartite_graph(3, 3), _chorded_cycle(6)]
    for i in range(8):
        n, m = rng.randint(5, 6), rng.randint(6, 8)
        graphs.append(_drawn_graph(rng, n, m, i % 2 == 0, lambda g: len(connected_components(g)) == 1))
    graphs += [non_normal_graph(rng, max_vertices=7, max_edges=8) for _ in range(2)]
    seen = Counter()
    for g in graphs:
        twins = betti._TwinGroup(g, twin_classes(g))
        for level in semigroup_levels(g, incidence_rank(g) - 1, classes=twins)[1:]:
            for t in level:
                interior = betti._interior(g, t, twins)
                assert interior == interior_by_decompositions(g, t), (g, t)
                seen[interior, min(t) > 0] += 1
    # some elements with every weight positive are not interior
    assert min(seen[True, True], seen[False, True]) >= 20 and seen[True, False] == 0


def test_canonical_route_matches_the_audited_and_whole_scans(monkeypatch):
    # a normal component with reg >= 2 has its top three degrees read off
    # the canonical module; the audited scan builds their complexes, and
    # the whole scan every complex of the whole graph (up to 9 edges).  The
    # draws hold bipartite and other components, reg 1 (scanned), reg 2
    # (omega's level k_min + 2 = d grown in the box) and reg >= 3 (that
    # level whole, with interior elements outside the box, whose K^t must
    # be acyclic), p >= 2 points over a least interior element, new
    # generators of the canonical module at k_min + 1 with reg >= 3, and
    # at k_min + 2 a K^t in two or more components (beta_{pd-1}) and one
    # with a cycle (beta_{pd-2}).  A new generator at k_min + 2, an
    # interior t with no vertex in K^t, is rare: none of over 1,000 random
    # normal graphs on 6 to 9 vertices has one, so
    # test_canonical_cross_checks_raise reaches that branch directly
    kinds = {
        name: set()
        for name in (
            "bipartite", "other", "reg 2", "reg >= 3", "outside the box", "p >= 2",
            "new generator, reg >= 3", "split at k_min + 2", "cycle at k_min + 2",
        )
    }
    route = betti._Plan.canonical_entries

    def recorded(plan, levels, sizes):
        entries = route(plan, levels, sizes)
        reg, pd, key = len(plan.hvec) - 1, len(plan.h.edges) - plan.d, plan.h.edges
        k = plan.d - reg
        kinds["bipartite" if plan.box else "other"].add(key)
        kinds["reg 2" if reg == 2 else "reg >= 3"].add(key)
        if reg > 2 and any(
            min(r) and any(x > b for x, b in zip(r, plan.degrees)) and betti._interior(plan.h, r, plan.twins)
            for r in levels[k + 2]
        ):
            kinds["outside the box"].add(key)
        found = {(i, sum(s) // 2 - pd - reg) for i, s in entries}
        for name, i, j in (
            ("p >= 2", pd - 1, -1),
            ("new generator, reg >= 3", pd if reg > 2 else None, -1),
            ("split at k_min + 2", pd - 1, -2),
            ("cycle at k_min + 2", pd - 2, -2),
        ):
            if (i, j) in found:
                kinds[name].add(key)
        return entries

    monkeypatch.setattr(betti._Plan, "canonical_entries", recorded)
    rng = random.Random(6)
    sizes = [(rng.randint(6, 8), rng.randint(9, 11), True) for _ in range(8)]
    sizes += [(rng.randint(6, 7), rng.randint(9, 12), False) for _ in range(10)]
    graphs = [
        _drawn_graph(rng, n, m, bipartite, lambda g: not has_unjoined_odd_cycles(g))
        for n, m, bipartite in sizes
    ]
    # denser ones, for more whole levels k_min + 2 (reg >= 3)
    graphs += [
        _drawn_graph(rng, rng.randint(6, 7), rng.randint(11, 13), False, lambda g: not has_unjoined_odd_cycles(g))
        for _ in range(4)
    ]
    regs = Counter()
    for g in graphs:
        top = known_complete_degree(g)
        for field in (RATIONALS, FieldSpec(2)):
            table = betti_table(g, field=field)
            assert table.certified, g
            assert table.entries == betti._audit(g, _ignore, len(g.edges), field), (g, field)
            if len(g.edges) <= 9:
                assert table.entries == whole_graph_entries(g, top, field), (g, field)
        for comp in connected_components(g):
            h = induced_subgraph(g, comp)
            if len(h.edges) > incidence_rank(h) + 1:
                regs[invariants(h, betti_table(h)).regularity > 1] += 1
    assert min(map(len, kinds.values())) >= 4, kinds
    assert regs[False] >= 4 and regs[True] >= 10, regs


# the tables of the frontier graphs as a scan of every degree found them,
# before the top two degrees were read off the canonical module: entry
# count, sum of the entries, and the SHA-256 of repr(sorted_entries())
FRONTIER_TABLES = {
    "K34": (156, 180, "6a14f09ba793335a86c204d47cd661dba251575a844b264ac76e52b6c442df9b"),
    "K35": (710, 900, "bbb80ff2e7f09699a0854ebf9683eb41a07974ec02221e9c10abab2c5b4f241c"),
    "K44": (1324, 1800, "7b010257f925a54eb3c0cc10eac226877841f3782bde8e9255308a3a814bbd18"),
    "Q3": (123, 142, "c2f35c9e62965ed80f00e6b892ba4bc08bf3e679f2ff5ba8857960e7e7bcaf37"),
}


def _cube():
    vertices = [f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"]
    edges = [(u, v) for u, v in combinations(vertices, 2) if sum(x != y for x, y in zip(u, v)) == 1]
    return Graph(tuple(vertices), tuple(edges))


@pytest.mark.parametrize("name", sorted(FRONTIER_TABLES))
def test_frontier_tables_are_the_scanned_ones(name):
    g = {
        "K34": complete_bipartite_graph(3, 4),
        "K35": complete_bipartite_graph(3, 5),
        "K44": complete_bipartite_graph(4, 4),
        "Q3": _cube(),
    }[name]
    table = betti_table(g)
    assert table.certified
    digest = hashlib.sha256(repr(table.sorted_entries()).encode()).hexdigest()
    assert (len(table.entries), sum(table.entries.values()), digest) == FRONTIER_TABLES[name]


def test_canonical_cross_checks_raise(monkeypatch):
    # K_{3,4}: h = 1 + 6t + 3t^2, so level k_min = 4 holds h_2 = 3 interior
    # elements, the orbit of (2,1,1 | 1,1,1,1), which give beta_6 at degree
    # 8, and level 5 holds h_1 + d h_2 = 6 + 6 * 3 = 24: the orbits of
    # (3,1,1 | 2,1,1,1), over one of them (p = 1), and of (2,2,1 | 2,1,1,1),
    # over two (p = 2), which give beta_5 = 1 at degree 7.  Level 6 = d,
    # cut to the box, gives beta_4 = 1 at degree 6 where K^t has a cycle:
    # the orbits of (2,2,2 | 2,2,1,1) and (2,2,2 | 3,1,1,1), 6 + 4 entries
    g = complete_bipartite_graph(3, 4)
    (plan,) = betti._plans(g)
    levels = semigroup_levels(g, plan.d, classes=plan.twins)
    sizes = betti._orbit_sizes(levels[:-1], plan.twins)
    hvec = betti._h_vector(list(map(sum, sizes)), plan.d)
    assert hvec == [1, 6, 3]
    plan.hvec = hvec
    levels[-1] = betti._boxed(levels[-1], plan.degrees)
    entries = plan.canonical_entries(levels, sizes)
    assert Counter((i, sum(s) // 2, b) for (i, s), b in entries.items()) == {
        (6, 8, 1): 3, (5, 7, 1): 12, (4, 6, 1): 10,
    }
    assert entries.items() <= betti_table(g).entries.items()
    plan.hvec = [1, 7, 3]
    with pytest.raises(RuntimeError, match=r"has \[3, 24\] interior elements .* not the \[3, 25\]"):
        plan.canonical_entries(levels, sizes)
    plan.hvec = hvec
    plan.degrees = (4, 4, 1, 3, 3, 3, 3)  # below the weight 2 that a3 takes in an orbit
    with pytest.raises(RuntimeError, match="outside the degree box"):
        plan.canonical_entries(levels, sizes)

    # K^t at level k_min + 2 is a graph on the edges e with t - a_e in
    # Omega_{k_min+1}: an edge of it outside them raises, and with no vertex
    # it is {empty set} at an interior t and void elsewhere; K_4's
    # (3,1,1,1) lies on a facet of its cone
    (plan,) = betti._plans(g)
    least = plan.twins.orbit((2, 1, 1, 1, 1, 1, 1))
    inner = {(3, 1, 1, 2, 1, 1, 1), (2, 2, 1, 2, 1, 1, 1)}
    t = (2, 2, 2, 2, 2, 1, 1)
    assert betti._canonical_graph(g, t, inner, least, plan.twins) == [0, 0, 1]
    with pytest.raises(RuntimeError, match=r"has the edge \(\d+, \d+\) outside its vertices \[\]"):
        betti._canonical_graph(g, t, set(), least, plan.twins)
    assert betti._canonical_graph(g, t, set(), [], plan.twins) == [1, 0, 0]
    k4 = _complete_graph(4)
    assert betti._canonical_graph(k4, (3, 1, 1, 1), set(), [], betti._TwinGroup(k4, ())) == []

    # K_{4,4} (h = 1,9,9,1, d = 7): its whole level 6 holds 1 * 28 + 9 * 7
    # + 9 = 100 interior elements, so h_1 = 8 raises.  With the box cut
    # below the weight 2 that every orbit there puts on a1, the K^t in two
    # components at (2,2,1,1 | 2,2,1,1) lies outside it and raises
    k44 = complete_bipartite_graph(4, 4)
    (plan,) = betti._plans(k44)
    levels, sizes, _ = plan.hilbert(plan.d - 1, betti.DEFAULT_MAX_SCAN)
    assert plan.hvec == [1, 9, 9, 1]
    assert plan.canonical_entries(levels, sizes).items() <= betti_table(k44).entries.items()
    plan.hvec = [1, 8, 9, 1]
    with pytest.raises(RuntimeError, match=r"has \[1, 16, 100\] interior elements .* not the \[1, 16, 99\]"):
        plan.canonical_entries(levels, sizes)
    plan.hvec = [1, 9, 9, 1]
    plan.degrees = (1,) + (4,) * 7
    with pytest.raises(RuntimeError, match=r"outside the degree box .* reduced homology \[0, 1, 0\]"):
        plan.canonical_entries(levels, sizes)

    # a dropped least orbit: the table would lose its three beta_6 entries.
    # Level 5 still counts 24, each element now passing the interior test
    interior = betti._interior
    least = (2, 1, 1, 1, 1, 1, 1)
    monkeypatch.setattr(betti, "_interior", lambda h, t, twins: t != least and interior(h, t, twins))
    with pytest.raises(RuntimeError, match=r"has \[0, 24\] interior elements"):
        betti_table(g)
    monkeypatch.undo()

    # beta_{1,s} at degree 4 lies outside K_{3,4}'s Cohen-Macaulay window
    # max(1, 4 - 2) <= i <= min(3, 6)
    scan = betti._scan

    def stray_entry(*args, **kwargs):
        entries = scan(*args, **kwargs)
        entries[(1, (2, 2, 0, 1, 1, 1, 1))] = 1
        return entries

    monkeypatch.setattr(betti, "_scan", stray_entry)
    with pytest.raises(RuntimeError, match=r"beta_\{1,\(2, 2, 0, 1, 1, 1, 1\)\} lies outside the Cohen-Macaulay window"):
        betti_table(g)


def _hypersurface_graph(rng):
    """A random connected graph on 4 to 7 vertices with |E| = dim k[G] + 1:
    an even cycle, or, with an odd cycle among its cycles, a theta (two
    vertices joined by three paths), a figure-eight (two cycles sharing a
    vertex) or a dumbbell (two cycles joined by a path), with pendant trees
    grown on the rest of the vertices.  Two triangles joined by a path of
    length 2 are not normal; half of the dumbbells are that.  Vertex and
    edge order are shuffled."""
    count = 0

    def fresh(k):
        nonlocal count
        count += k
        return list(range(count - k, count))

    def walk(vs, closed):
        return list(zip(vs, vs[1:] + vs[:1] if closed else vs[1:]))

    kind = rng.choice(("cycle", "theta", "eight", "dumbbell"))
    if kind == "cycle":
        edges = walk(fresh(rng.choice((4, 6))), True)
    elif kind == "theta":
        # path lengths p <= q <= r, not all of one parity, on p + q + r - 1 vertices
        p, q, r = rng.choice([(1, 2, 2), (1, 2, 3), (2, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 3)])
        x, y = fresh(2)
        edges = [e for k in (p, q, r) for e in walk([x, *fresh(k - 1), y], False)]
    elif kind == "eight":
        a, b = rng.choice([(3, 3), (3, 4), (3, 5)])
        (c,) = fresh(1)
        edges = walk([c, *fresh(a - 1)], True) + walk([c, *fresh(b - 1)], True)
    else:
        a, b, length = rng.choice([(3, 3, 2), (3, 3, 2), (3, 3, 1), (3, 4, 1)])
        first, second = fresh(a), fresh(b)
        edges = walk(first, True) + walk(second, True)
        edges += walk([first[0], *fresh(length - 1), second[0]], False)
    for v in fresh(rng.randint(0, 7 - count)):
        edges.append((rng.randrange(v), v))
    labels = [f"h{v}" for v in range(count)]
    rng.shuffle(labels)
    pairs = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u]) for u, v in edges]
    rng.shuffle(pairs)
    return Graph(tuple(labels), tuple(pairs))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_hypersurface_tables_match_the_whole_scan(rng):
    # the relation comes from a brute-force sweep, the table from a whole
    # scan of every semigroup element: neither reads the closed form.
    # Below |u+| the table holds beta_{0,0} alone and is uncertified
    g = _hypersurface_graph(rng)
    assert len(g.edges) == incidence_rank(g) + 1
    u = primitive_relation(g)
    assert betti._relation(g) in (u, tuple(-x for x in u)), g
    top = sum(x for x in u if x > 0)
    bound = top + rng.randint(-1, 1)
    for field in (RATIONALS, FieldSpec(2)):
        table = betti_table(g, bound, field=field)
        assert table.certified == (bound >= top), (g, bound)
        assert table.entries == whole_graph_entries(g, bound, field), (g, bound, field)


HYPERSURFACES = {
    "C4": cycle_graph(4),
    "C6": cycle_graph(6),
    "C8": cycle_graph(8),
    "bowtie": _bowtie(),
    "bowties": disjoint_union(_bowtie("p"), _bowtie("q")),
    # two triangles joined by a path of length 2: not normal
    "dumbbell": Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "m"), ("m", "x"), ("x", "y"), ("y", "z"), ("z", "x")]
    ),
}


@pytest.mark.parametrize("name", sorted(HYPERSURFACES))
def test_hypersurface_tables_are_closed_forms(monkeypatch, name):
    # |E| = d + 1: I_H is principal, generated by the binomial of the
    # primitive relation u, so a component's table is beta_{0,0} and
    # beta_{1,Au+}, and its top degree |u+|.  No level is listed, no odd
    # cycle searched and no twin group built; each component ranks one
    # complex, the one at Au+ that certifies the relation.  The audit
    # (betti._audit) scans the component instead, to the same entries
    g = HYPERSURFACES[name]
    top = known_complete_degree(g)
    components = len(connected_components(g))
    calls = [
        _count_calls(monkeypatch, fn)
        for fn in ("semigroup_levels", "odd_cycle_condition", "twin_classes", "reduced_homology")
    ]
    tables = [betti_table(g, field=field) for field in (RATIONALS, FieldSpec(2), FieldSpec(3))]
    assert [len(c) for c in calls] == [0, 0, 0, 3 * components]
    monkeypatch.undo()
    for field, table in zip((RATIONALS, FieldSpec(2), FieldSpec(3)), tables):
        assert table.certified and table.caveats == ()
        assert table.entries == whole_graph_entries(g, top, field), field
        assert table.entries == betti._audit(g, _ignore, len(g.edges), field)
    inv = invariants(g, tables[0])
    assert (inv.projective_dimension, inv.regularity) == (components, top - components)
    assert inv.cohen_macaulay == "yes"


@pytest.mark.parametrize("wrong", ["doubled", "one entry dropped"])
def test_wrong_relation_degree_is_an_internal_error(monkeypatch, wrong):
    # the degree complex at Au+ must be two points; a relation that is not
    # primitive, or not a relation, puts the entry where that fails
    relation = betti._relation

    def mutated(h):
        u = relation(h)
        return tuple(2 * x for x in u) if wrong == "doubled" else (0,) + u[1:]

    monkeypatch.setattr(betti, "_relation", mutated)
    with pytest.raises(RuntimeError, match="internal error: the degree complex of the relation"):
        betti_table(cycle_graph(6))


# a component of each route: the closed forms of HYPERSURFACES, and K_4 and
# C_6 with a chord, normal with reg 2, whose top three degrees come from
# the canonical module once the bound reaches their top degree 4
ROUTED = [*HYPERSURFACES.values(), _complete_graph(4), _chorded_cycle(6)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2**32))
def test_every_route_matches_the_audit_scan(seed):
    # betti_table answers each component by its one route; betti._audit
    # scans every component that the route would answer otherwise
    rng = random.Random(seed)
    if rng.random() < 0.5:
        g = _interleaved_union(rng, rng.randint(1, 3), max_edges=7, odd_cycles=True)
    else:
        g = rng.choice(ROUTED)
    bound = rng.randint(1, 6)
    for field in (RATIONALS, FieldSpec(2)):
        table = betti_table(g, bound, field=field)
        assert betti._audit(g, _ignore, bound, field) == table.entries, (g, bound, field)


def _restricted(entries, g, w):
    """The entries whose multidegree vanishes off the vertex set `w`, on
    the coordinates of w in g's vertex order."""
    on = [p for p, v in enumerate(g.vertices) if v in w]
    off = [p for p, v in enumerate(g.vertices) if v not in w]
    return {(i, tuple(s[p] for p in on)): b for (i, s), b in entries.items() if not any(s[p] for p in off)}


def test_induced_subgraphs_restrict_the_table():
    # beta_{i,s}(k[G]) = beta_{i,s}(k[G_W]) whenever supp s lies in W
    # (Ohsugi-Herzog-Hibi, Osaka J. Math. 37, 2000): a decomposition of
    # such s uses only edges of G_W, so the degree complexes agree.  Both
    # tables are exact to the same bound, certified or not
    graphs = [complete_bipartite_graph(3, 4), _cube(), _complete_graph(5), complete_bipartite_graph(3, 3)]
    pairs = [(g, None, set(g.vertices) - set(drop)) for g in graphs
             for drop in ([g.vertices[0]], [g.vertices[-1]], [g.vertices[0], g.vertices[-1]])]
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng, max_vertices=6, max_edges=9)
        pairs.append((g, rng.randint(1, 4), set(rng.sample(g.vertices, rng.randint(1, len(g.vertices))))))
    compared = Counter()
    for g, bound, w in pairs:
        sub = induced_subgraph(g, w)
        entries = betti_table(sub, bound).entries
        assert _restricted(betti_table(g, bound).entries, g, w) == entries, (g, w)
        compared[g.vertices] += sum(1 for i, _ in entries if i)
    # not vacuous: K_{3,4} minus a vertex of its larger side is K_{3,3},
    # with 32 entries past beta_{0,0}
    assert compared[complete_bipartite_graph(3, 4).vertices] >= 32
    assert sum(compared.values()) > 100
