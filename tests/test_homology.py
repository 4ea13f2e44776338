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

from toricgraph import homology

from oracles import (
    composition_vanishes,
    euler_characteristic_check,
    homology_via_sympy,
    permuted_homology,
    relative_composition_vanishes,
)

GF2 = FieldSpec(2)

# ten triangles gluing into the 6-vertex real projective plane
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def _complex(n, faces):
    return SimplicialComplex.from_faces(range(n), faces)


def _cross_polytope(dim):
    """Facets of the boundary of the (dim + 1)-dimensional cross-polytope, a
    dim-sphere on the antipodal pairs (0, 1), (2, 3), ...: one vertex of
    each pair."""
    facets = [()]
    for i in range(dim + 1):
        facets = [f + (x,) for f in facets for x in (2 * i, 2 * i + 1)]
    return facets


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


def test_octahedron_boundary_is_its_own_core():
    # every vertex lies in four triangles and no other vertex lies in all
    # four, so the core keeps the whole sphere
    k = _complex(6, _cross_polytope(2))
    assert k.core() == k
    assert reduced_homology(k, RATIONALS) == [0, 0, 0, 1]
    assert reduced_homology(k, GF2) == [0, 0, 0, 1]


def test_star_quotient_builds_fewer_boundary_columns(monkeypatch):
    # the whole octahedron takes 8 + 5 + 1 = 14 columns under clearing; the
    # chains outside the star of vertex 0 are 4 triangles, 4 edges and a
    # vertex, and clearing leaves 4 + 1 + 0 of them to build
    built = []
    columns = homology._boundary_columns

    def counting(faces, *args):
        built.append(len(faces))
        return columns(faces, *args)

    monkeypatch.setattr(homology, "_boundary_columns", counting)
    assert reduced_homology(_complex(6, _cross_polytope(2))) == [0, 0, 0, 1]
    assert sum(built) < 14


def test_boundary_terms_outside_the_rows_must_be_dropped():
    # the edge {0, 1} over the row {0}: the term {1} is dropped as a link
    # face, or is an internal error when it is not one
    assert homology._boundary_columns([0b11], [0b01], lambda face: face == 0b10) == [{0: -1}]
    message = "internal error: the boundary of the face 0b11 holds 0b10"
    with pytest.raises(RuntimeError, match=message):
        homology._boundary_columns([0b11], [0b01], lambda face: False)
    with pytest.raises(RuntimeError, match=message):
        homology._boundary_columns([0b11], [0b01])


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
        assert relative_composition_vanishes(k)


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
    """Random complexes on at most 8 vertices; RP2 with extra faces, some of
    which add dominated vertices (7, 8, 0) and others fill or join
    triangles; or a cross-polytope boundary of dimension 1 to 3, where no
    vertex is dominated and no vertex star is the whole complex, in
    dimension 2 with up to one extra facet, which may reach a new vertex 6."""
    shape = draw(st.sampled_from(("random", "rp2", "cross-polytope")))
    if shape == "random":
        n = draw(st.integers(1, 8))
        faces = draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=5), min_size=1, max_size=10
        ))
        return _complex(n, faces)
    if shape == "rp2":
        extra = draw(st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=4), max_size=4))
        return _complex(9, RP2_FACETS + extra)
    dim = draw(st.integers(1, 3))
    if dim != 2:
        return _complex(2 * dim + 2, _cross_polytope(dim))
    extra = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), max_size=1))
    return _complex(7, _cross_polytope(2) + extra)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_complexes())
def test_core_and_clearing_match_sympy(k):
    # reduced_homology works on the core, top-down with clearing; the oracle
    # takes sympy ranks of every boundary of the full complex
    for field in (RATIONALS, GF2, FieldSpec(3)):
        hom = reduced_homology(k, field)
        assert hom == homology_via_sympy(k, field.modulus), (k, field)
        assert [homology_dimension(k, d, field) for d in range(-1, k.dim + 1)] == hom


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_complexes(), st.randoms(use_true_random=False))
def test_invariant_under_ground_permutation_on_random_complexes(k, rng):
    # a permutation moves the star vertex and the ties between vertices in
    # equally many facets
    for field in (RATIONALS, GF2):
        assert permuted_homology(k, rng, field) == reduced_homology(k, field), (k, field)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_complexes())
def test_relative_chains_miss_the_star_of_the_busiest_vertex(k):
    # the star vertex is the core's vertex in the most facets, the lowest
    # position on ties, counted here facet by facet; the chains are the
    # core's faces that miss it and lie in no facet holding it
    core = k.core()
    if core.is_void or core.is_irrelevant:
        return
    held = [sum(x in f for f in core.facets) for x in range(len(core.ground))]
    v = max(range(len(core.ground)), key=lambda x: (held[x], -x))
    star = [f for f in core.facets if v in f]
    expected = [
        sorted(sum(1 << x for x in face) for face in core.faces_of_dimension(d)
               if v not in face and not any(set(face) <= f for f in star))
        for d in range(-1, core.dim + 1)
    ]
    chains, in_link = homology._relative_faces(core)
    assert chains == expected, k
    for face in core.faces_of_dimension(core.dim - 1):
        mask = sum(1 << x for x in face)
        assert in_link(mask) == (v not in face and any(set(face) <= f for f in star))
