"""Fiber enumeration: every way to write a multidegree as a sum of edge vectors."""

import random
import time

import pytest

from toricgraph import (
    Decomposition,
    FiberOverflowError,
    Graph,
    certificate_degree,
    cycle_graph,
    decomposition_degree,
    degree_vector,
    enumerate_fiber,
    forbidden_structure,
    in_semigroup,
    path_graph,
)
from toricgraph import fiber

from oracles import box_fiber, box_size, random_graph


def _coeffs(decomps):
    return [d.coefficients for d in decomps]


def test_square_two_matchings():
    g = cycle_graph(4)
    got = _coeffs(enumerate_fiber(g, (1, 1, 1, 1)))
    assert got == [(0, 1, 0, 1), (1, 0, 1, 0)]


def test_triangle_single_decomposition():
    g = cycle_graph(3)
    assert _coeffs(enumerate_fiber(g, (2, 1, 1))) == [(1, 0, 1)]
    # v1v2 twice: (2,2,0)
    assert _coeffs(enumerate_fiber(g, (2, 2, 0))) == [(2, 0, 0)]


def test_empty_results():
    g = cycle_graph(4)
    assert enumerate_fiber(g, (1, 0, 0, 0)) == []  # odd total
    assert enumerate_fiber(g, (2, 0, 0, 0)) == []  # no edge supports it
    assert enumerate_fiber(g, (-1, 1, 0, 0)) == []
    iso = Graph(("a", "b", "c"), (("a", "b"),))
    assert enumerate_fiber(iso, (0, 0, 2)) == []  # isolated vertex demanded


def test_zero_degree_gives_empty_decomposition():
    g = cycle_graph(3)
    got = enumerate_fiber(g, (0, 0, 0))
    assert _coeffs(got) == [(0, 0, 0)]
    assert got[0].support == frozenset()


def test_edgeless_graph():
    g = Graph(("a", "b"), ())
    assert _coeffs(enumerate_fiber(g, (0, 0))) == [()]
    assert enumerate_fiber(g, (1, 1)) == []


def test_results_are_lex_sorted():
    g = cycle_graph(4)
    got = _coeffs(enumerate_fiber(g, (2, 2, 2, 2)))
    assert got == sorted(got)
    assert len(got) == 3


def test_overflow_raises_with_limit():
    g = cycle_graph(4)
    with pytest.raises(FiberOverflowError) as exc:
        enumerate_fiber(g, (2, 2, 2, 2), max_size=2)
    assert exc.value.limit == 2
    assert "2" in str(exc.value)


def test_in_semigroup():
    g = cycle_graph(4)
    assert in_semigroup(g, (0, 0, 0, 0))
    assert in_semigroup(g, (1, 1, 1, 1))
    assert not in_semigroup(g, (2, 0, 0, 0))
    # triangle: the all-ones vector needs a half-edge, so it is outside
    assert not in_semigroup(cycle_graph(3), (1, 1, 1))
    assert in_semigroup(cycle_graph(3), (2, 2, 2))


def test_degree_vector_forms():
    g = path_graph(3)
    assert degree_vector(g, {"v1": 1, "v2": 2, "v3": 1}) == (1, 2, 1)
    assert degree_vector(g, {"v2": 2}) == (0, 2, 0)  # omitted labels are zero
    assert degree_vector(g, [1, 2, 1]) == (1, 2, 1)
    with pytest.raises(ValueError, match="unknown vertex"):
        degree_vector(g, {"zz": 1})
    with pytest.raises(ValueError, match="3"):
        degree_vector(g, [1, 2])


def test_degree_vector_takes_only_integer_entries():
    g = path_graph(3)
    for bad, named in (
        ([None, 1, 1], "None"), ([1.5, 1, 0.5], "1.5"), ([1.0, 1, 1], "1.0"),
        ([True, 1, 1], "True"), ([float("inf"), 1, 1], "inf"), (["1", 1, 1], "'1'"),
        ([1, [1], 1], r"\[1\]"), ({"v2": 2.0}, "2.0"), ({"v1": [1]}, r"\[1\]"),
    ):
        with pytest.raises(ValueError, match=f"entry {named} at vertex"):
            degree_vector(g, bad)
    for bad in (5, None, "121", 1.5):
        with pytest.raises(ValueError, match="mapping or a sequence"):
            degree_vector(g, bad)


def test_decomposition_factory_validation():
    g = path_graph(3)
    d = Decomposition.for_graph(g, (1, 0), (1, 1, 0))
    assert decomposition_degree(g, d.coefficients) == (1, 1, 0)
    with pytest.raises(ValueError, match="length"):
        Decomposition.for_graph(g, (1, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        Decomposition.for_graph(g, (1, -1), (1, 0, -1))
    with pytest.raises(ValueError, match="do not decompose"):
        Decomposition.for_graph(g, (1, 0), (0, 0, 0))


def test_support():
    d = Decomposition((2, 0, 1, 0))
    assert d.support == frozenset({0, 2})


def test_against_box_oracle_random():
    rng = random.Random(40312)
    checked = 0
    while checked < 50:
        g = random_graph(rng, max_vertices=5, max_edges=7)
        s = tuple(rng.randint(0, 3) for _ in g.vertices)
        got = _coeffs(enumerate_fiber(g, s))
        assert got == box_fiber(g, s), (g, s)
        checked += 1


def test_degrees_recompute_to_s():
    rng = random.Random(551)
    for _ in range(30):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        s = tuple(rng.randint(0, 3) for _ in g.vertices)
        for d in enumerate_fiber(g, s):
            assert decomposition_degree(g, d.coefficients) == s


def test_search_time_follows_the_fiber_not_the_entries():
    # v3 and v4 carry nothing, so the edge v4-v1 takes nothing off v1 and
    # v1-v2 must carry all of it: one decomposition, found without trying
    # the ten million smaller weights
    n = 10**7
    start = time.perf_counter()
    assert _coeffs(enumerate_fiber(cycle_graph(4), (n, n, 0, 0))) == [(n, 0, 0, 0)]
    assert in_semigroup(cycle_graph(4), (n, n, 0, 0))
    assert time.perf_counter() - start < 1.0


def _oracle_cases():
    """Small patterns at their certifying degree, and pattern and sparse
    random graphs at degrees that are random or sums of random edge
    weights, with entries up to 6; boxes stay small enough for the
    exhaustive sweep."""
    rng = random.Random(2718)

    def degrees(g, top):
        while True:
            if rng.random() < 0.5:
                s = tuple(rng.randint(0, top) for _ in g.vertices)
            else:
                s = decomposition_degree(g, [rng.randint(0, 3) for _ in g.edges])
            if max(s, default=0) <= 6 and box_size(g, s) <= 20000:
                return s

    for lengths in ((3, 3, 2, 2), (3, 5, 2, 3), (5, 3, 3, 2)):
        for share in ("both", "one", "none"):
            g, emb = forbidden_structure(*lengths, share)
            yield g, certificate_degree(g, emb)
            for _ in range(4):
                yield g, degrees(g, 2)
    for _ in range(80):
        g = random_graph(rng, max_vertices=6, max_edges=6)
        yield g, degrees(g, 6)


def test_against_box_oracle_on_patterns_and_sparse_graphs():
    nonempty = 0
    for g, s in _oracle_cases():
        got = _coeffs(enumerate_fiber(g, s))
        assert got == box_fiber(g, s), (g, s)
        assert in_semigroup(g, s) == bool(got), (g, s)
        nonempty += bool(got)
    assert nonempty >= 40  # the cases are not nearly all empty fibers


def test_certifying_degree_of_the_pattern_has_four_decompositions():
    for share in ("both", "one", "none"):
        g, emb = forbidden_structure(7, 7, 6, 6, share)
        assert len(enumerate_fiber(g, certificate_degree(g, emb))) == 4


def test_overflow_stops_at_the_first_decomposition_past_the_cap(monkeypatch):
    built = []

    class Counted(Decomposition):
        def __init__(self, coefficients):
            built.append(coefficients)
            super().__init__(coefficients)

    monkeypatch.setattr(fiber, "Decomposition", Counted)
    g = cycle_graph(4)
    assert len(enumerate_fiber(g, (4, 4, 4, 4))) == 5
    for k in range(5):
        built.clear()
        with pytest.raises(FiberOverflowError):
            enumerate_fiber(g, (4, 4, 4, 4), max_size=k)
        assert len(built) <= k + 1


def test_search_skips_weights_the_other_edges_cannot_balance():
    # v1's other edge can take at most 1 off v1 (v4 needs only 1), so the
    # first edge starts at n - 1 instead of trying every smaller weight
    n = 10**7
    start = time.perf_counter()
    assert _coeffs(enumerate_fiber(cycle_graph(4), (n, n, 1, 1))) == [
        (n - 1, 1, 0, 1), (n, 0, 1, 0)]
    assert time.perf_counter() - start < 1.0
