"""Reduced simplicial homology over exact fields, frozen on classical spaces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from toricgraph import (
    RATIONALS,
    FieldSpec,
    SimplicialComplex,
    boundary_matrix,
    homology_dimension,
    parse_field,
    reduced_homology,
)

from oracles import (
    composition_vanishes,
    euler_characteristic_check,
    homology_via_sympy,
    permuted_homology,
)

GF2 = FieldSpec(2)

# ten triangles gluing into the 6-vertex real projective plane
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def _complex(n, faces):
    return SimplicialComplex.from_faces(range(n), faces)


def test_field_spec():
    assert RATIONALS.modulus is None
    assert str(RATIONALS) == "Q"
    assert str(GF2) == "GF(2)"
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert FieldSpec(13).modulus == 13
    assert FieldSpec(10**18 + 3).modulus == 10**18 + 3
    for composite in (561, (10**9 + 7) ** 2):
        with pytest.raises(ValueError, match="prime"):
            FieldSpec(composite)
    # a strong pseudoprime to every base the primality test uses
    with pytest.raises(ValueError, match="below"):
        FieldSpec(318665857834031151167461)


def test_parse_field():
    assert parse_field("q") == RATIONALS
    assert parse_field("Q") == RATIONALS
    assert parse_field("0") == RATIONALS
    assert parse_field("2") == GF2
    assert parse_field("101").modulus == 101
    with pytest.raises(ValueError):
        parse_field("6")
    with pytest.raises(ValueError):
        parse_field("banana")


def test_void_complex():
    assert reduced_homology(SimplicialComplex((), ())) == [0]


def test_irrelevant_complex():
    # the empty face alone carries one dimension of (-1)-homology
    irr = SimplicialComplex(("a",), (0,))
    assert reduced_homology(irr) == [1]


def test_point_is_acyclic():
    assert reduced_homology(_complex(1, [(0,)])) == [0, 0]


def test_two_points():
    assert reduced_homology(_complex(2, [(0,), (1,)])) == [0, 1]


def test_segment():
    assert reduced_homology(_complex(2, [(0, 1)])) == [0, 0, 0]


def test_two_disjoint_segments():
    assert reduced_homology(_complex(4, [(0, 1), (2, 3)])) == [0, 1, 0]


def test_hollow_triangle_is_a_circle():
    k = _complex(3, [(0, 1), (1, 2), (0, 2)])
    assert reduced_homology(k) == [0, 0, 1]


def test_solid_triangle():
    assert reduced_homology(_complex(3, [(0, 1, 2)])) == [0, 0, 0, 0]


def test_tetrahedron_boundary_is_a_sphere():
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert reduced_homology(_complex(4, faces)) == [0, 0, 0, 1]


def test_projective_plane_feels_the_characteristic():
    k = _complex(7, [tuple(v for v in f) for f in RP2_FACETS])
    # sanity on the triangulation itself
    assert len(k.facets) == 10
    edges = k.faces_of_dimension(1)
    assert len(edges) == 15
    for e in edges:
        assert sum(1 for f in k.facets if set(e) <= f) == 2
    assert reduced_homology(k, RATIONALS) == [0, 0, 0, 0]
    assert reduced_homology(k, GF2) == [0, 0, 1, 1]
    assert homology_dimension(k, 1, RATIONALS) == 0
    assert homology_dimension(k, 1, GF2) == 1


def test_homology_dimension_matches_full_vector():
    k = _complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    hom = reduced_homology(k)
    for d in range(-1, k.dim + 1):
        assert homology_dimension(k, d) == hom[d + 1]


def test_boundary_matrix_shapes_and_signs():
    k = _complex(3, [(0, 1, 2)])
    d1 = boundary_matrix(k, 1)
    # edge (0,1) -> (1,) - (0,)
    assert d1[0] == {1: 1, 0: -1}
    d0 = boundary_matrix(k, 0)
    assert d0 == [{0: 1}, {0: 1}, {0: 1}]


def test_composition_is_zero_on_random_complexes():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 6)
        faces = [
            tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 8))
        ]
        k = _complex(n, faces)
        assert composition_vanishes(k)


def test_matches_sympy_and_euler_on_random_complexes():
    rng = random.Random(515151)
    for trial in range(25):
        n = rng.randint(1, 6)
        faces = [
            tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 8))
        ]
        k = _complex(n, faces)
        field = RATIONALS if trial % 2 else GF2
        assert reduced_homology(k, field) == homology_via_sympy(k, field.modulus)
        assert euler_characteristic_check(k, field)


def test_invariant_under_ground_permutation():
    rng = random.Random(8080)
    k = _complex(7, RP2_FACETS)
    for _ in range(6):
        assert permuted_homology(k, rng, GF2) == reduced_homology(k, GF2)
        assert permuted_homology(k, rng, RATIONALS) == reduced_homology(k, RATIONALS)


@st.composite
def _complexes(draw):
    """Random complexes on at most 8 vertices, or RP2 with extra faces: some
    add dominated vertices (7, 8, 0), others fill or join triangles."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        faces = draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=5), min_size=1, max_size=10
        ))
        return _complex(n, faces)
    extra = draw(st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=4), max_size=4))
    return _complex(9, RP2_FACETS + extra)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_complexes())
def test_core_and_clearing_match_sympy(k):
    # reduced_homology works on the core, top-down with clearing; the oracle
    # takes sympy ranks of every boundary of the full complex
    for field in (RATIONALS, GF2, FieldSpec(3)):
        hom = reduced_homology(k, field)
        assert hom == homology_via_sympy(k, field.modulus), (k, field)
        assert [homology_dimension(k, d, field) for d in range(-1, k.dim + 1)] == hom
