"""Fiber enumeration: every way to write a multidegree as a sum of edge vectors."""

import random

import pytest

from toricgraph import (
    Decomposition,
    FiberOverflowError,
    Graph,
    cycle_graph,
    decomposition_degree,
    degree_vector,
    enumerate_fiber,
    in_semigroup,
    path_graph,
)

from oracles import box_fiber, random_graph


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
