"""The multigraded Betti table scan and the invariants derived from it."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from toricgraph import (
    RATIONALS,
    FieldSpec,
    Graph,
    ScanOverflowError,
    betti_number,
    betti_table,
    complete_bipartite_graph,
    cycle_graph,
    disjoint_union,
    invariants,
    known_complete_degree,
    path_graph,
    semigroup_levels,
)

from oracles import random_graph
from whole_scan import whole_graph_entries


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


def test_scan_overflow_propagates_from_betti_table():
    with pytest.raises(ScanOverflowError):
        betti_table(complete_bipartite_graph(3, 3), 3, max_scan=10)
    # the cap covers all components together: each K_{2,3} has 65 elements
    # up to its top degree 3, so 100 admits either one but not both
    one = complete_bipartite_graph(2, 3)
    two = disjoint_union(one, complete_bipartite_graph(2, 3, left="c", right="d"))
    betti_table(one, max_scan=100)
    with pytest.raises(ScanOverflowError) as exc:
        betti_table(two, max_scan=100)
    assert exc.value.limit == 100
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
    assert known_complete_degree(cycle_graph(6)) is None
    two = disjoint_union(
        complete_bipartite_graph(2, 2),
        complete_bipartite_graph(2, 3, left="c", right="d"),
    )
    assert known_complete_degree(two) == 5
    odd = disjoint_union(cycle_graph(3, "s"), cycle_graph(5, "t"))
    assert known_complete_degree(odd) == 0


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
    betti_table(g, 2, on_complex=lambda s, delta: seen.append((s, delta)))
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


@settings(derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_interleaved_union_matches_whole_graph_scan(rng, bound):
    # 2-3 random graphs, at most 7 vertices in all, relabelled apart; the
    # union's vertex and edge order is shuffled so the components interleave
    count = rng.randint(2, 3)
    vertices, edges, used = [], [], 0
    for k in range(count):
        part = random_graph(rng, max_vertices=7 - used - (count - 1 - k), max_edges=9)
        used += len(part.vertices)
        vertices += [f"g{k}{v}" for v in part.vertices]
        edges += [(f"g{k}{u}", f"g{k}{v}") for u, v in part.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    g = Graph(tuple(vertices), tuple(edges))
    for field in (RATIONALS, FieldSpec(2)):
        got = betti_table(g, bound, field=field).entries
        assert got == whole_graph_entries(g, bound, field), (g, bound, field)
