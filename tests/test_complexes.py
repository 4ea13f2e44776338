import random

import pytest

from toricgraph import (
    SimplicialComplex,
    build_delta,
    complete_bipartite_graph,
    cycle_graph,
)

from oracles import faces_from_facets


def test_from_faces_drops_non_maximal_and_dedupes():
    k = SimplicialComplex.from_faces("abcd", [(0, 1), (1,), (0, 1), (2, 3), (3,)])
    assert k.facets == (frozenset({0, 1}), frozenset({2, 3}))
    assert k.dim == 1


def test_constructor_rejects_nested_facets():
    with pytest.raises(ValueError, match="incomparable"):
        SimplicialComplex(("a", "b"), (0b01, 0b11))
    with pytest.raises(ValueError, match="outside ground"):
        SimplicialComplex(("a",), (0b1000,))


def test_constructor_rejects_negative_repeated_and_out_of_range_masks():
    # a negative int has infinitely many bits set, so it names no set
    with pytest.raises(ValueError, match="nonnegative"):
        SimplicialComplex(("a", "b"), [-2])
    with pytest.raises(ValueError, match="distinct"):
        SimplicialComplex(("a", "b"), [0b01, 0b10, 0b01])
    # bit 2 is the first one past a ground set of size 2
    with pytest.raises(ValueError, match="element 2 outside ground set of size 2"):
        SimplicialComplex(("a", "b"), [0b001, 0b100])
    # nested in either order, and the empty face inside any other facet
    for masks in ([0b110, 0b010], [0b010, 0b110], [0b000, 0b100]):
        with pytest.raises(ValueError, match="incomparable"):
            SimplicialComplex("abc", masks)


def test_from_faces_and_constructor_reject_positions_outside_the_ground_set():
    with pytest.raises(ValueError, match="outside ground set"):
        SimplicialComplex.from_faces("abc", [(0, 1), (3,)])
    with pytest.raises(ValueError, match="outside ground set"):
        SimplicialComplex.from_faces("abc", [(0, 1), (-1, 2)])
    with pytest.raises(ValueError, match="outside ground set"):
        SimplicialComplex("abc", [0b011, 0b1000])


def test_facets_are_canonically_sorted():
    k1 = SimplicialComplex(("a", "b", "c"), (0b100, 0b011))
    k2 = SimplicialComplex(("a", "b", "c"), (0b011, 0b100))
    assert k1 == k2
    assert k1.masks == (0b011, 0b100)
    assert k1.facets == (frozenset({0, 1}), frozenset({2}))
    # the facets view follows position tuples, not masks: (0, 2) < (1,)
    k3 = SimplicialComplex("abc", (0b010, 0b101))
    assert k3.masks == (0b010, 0b101)
    assert k3.facets == (frozenset({0, 2}), frozenset({1}))


def test_void_and_irrelevant():
    void = SimplicialComplex((), ())
    assert void.is_void and not void.is_irrelevant
    assert void.dim == -2
    assert void.faces_of_dimension(0) == []
    assert void.faces_of_dimension(-1) == []

    irr = SimplicialComplex(("a",), (0,))
    assert irr.is_irrelevant and not irr.is_void
    assert irr.dim == -1
    assert irr.faces_of_dimension(-1) == [()]
    assert irr.faces_of_dimension(0) == []


def test_faces_of_dimension():
    # two disjoint segments on four points
    k = SimplicialComplex.from_faces(range(4), [(0, 1), (2, 3)])
    assert k.faces_of_dimension(-1) == [()]
    assert k.faces_of_dimension(0) == [(0,), (1,), (2,), (3,)]
    assert k.faces_of_dimension(1) == [(0, 1), (2, 3)]
    assert k.faces_of_dimension(2) == []
    with pytest.raises(ValueError):
        k.faces_of_dimension(-2)


def test_faces_match_combinations_of_the_facets():
    # the sympy oracle and boundary_matrix both read faces_of_dimension, so
    # the faces are checked against subsets taken straight from the facets
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(0, 8)
        faces = [rng.sample(range(n), rng.randint(0, min(5, n))) for _ in range(rng.randint(0, 8))]
        k = SimplicialComplex.from_faces(range(n), faces)
        expected = faces_from_facets(k)
        assert [k.faces_of_dimension(d) for d in range(-1, k.dim + 1)] == expected, k
        assert k.faces_of_dimension(k.dim + 1) == []


def test_core_of_a_cone_is_one_vertex():
    cone = SimplicialComplex.from_faces(range(5), [(0, 1, 2), (0, 2, 3), (0, 4)])
    core = cone.core()
    assert core.ground == cone.ground
    assert len(core.facets) == 1 and len(core.facets[0]) == 1
    simplex = SimplicialComplex.from_faces(range(3), [(0, 1, 2)])
    assert len(simplex.core().facets[0]) == 1


def test_core_keeps_complexes_without_dominated_vertices():
    rp2 = SimplicialComplex.from_faces(range(7), [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])
    assert rp2.core() == rp2
    # boundary of the octahedron: antipodal pairs (0,1), (2,3), (4,5)
    octahedron = SimplicialComplex.from_faces(
        range(6), [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )
    assert octahedron.core() == octahedron
    void = SimplicialComplex((), ())
    assert void.core() == void
    irr = SimplicialComplex(("a",), (0,))
    assert irr.core() == irr
    points = SimplicialComplex.from_faces(range(3), [(0,), (2,)])
    assert points.core() == points


def test_core_deletes_a_dominated_vertex_and_keeps_the_ground():
    # a hollow triangle with a whisker 2-3 and a cone 0-1-4 on one side:
    # 3 is dominated by 2, 4 by 0 (and by 1)
    k = SimplicialComplex.from_faces("abcde", [(0, 1, 4), (1, 2), (0, 2), (2, 3)])
    core = k.core()
    assert core.ground == k.ground
    assert core.facets == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))


def test_permuted():
    k = SimplicialComplex.from_faces("abc", [(0, 1)])
    p = k.permuted([2, 0, 1])
    assert p.ground == ("b", "c", "a")
    assert p.facets == (frozenset({0, 2}),)
    with pytest.raises(ValueError):
        k.permuted([0, 0, 1])


def test_facet_labels():
    k = SimplicialComplex.from_faces(("e", "f", "g"), [(2, 0)])
    assert k.facet_labels() == [["e", "g"]]


def test_build_delta_square():
    g = cycle_graph(4)
    k = build_delta(g, (1, 1, 1, 1))
    assert k.ground == g.edges
    assert k.facets == (frozenset({0, 2}), frozenset({1, 3}))
    assert k.dim == 1


def test_build_delta_degenerate_cases():
    g = cycle_graph(4)
    assert build_delta(g, (1, 0, 0, 0)).is_void
    assert build_delta(g, (0, 0, 0, 0)).is_irrelevant


def test_build_delta_supports_not_decompositions():
    # K_{2,3} at the doubled total degree: facets are supports, so distinct
    # decompositions with the same support collapse to one facet
    g = complete_bipartite_graph(2, 3)
    s = (3, 3, 2, 2, 2)
    k = build_delta(g, s)
    assert not k.is_void
    for facet in k.facets:
        assert len(facet) >= 3
