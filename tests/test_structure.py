"""Odd cycle condition, the two-cycles-two-paths pattern, and derived bounds."""

import itertools
import random

import pytest

from toricgraph import (
    Graph,
    ForbiddenEmbedding,
    betti_number,
    certificate_degree,
    complete_bipartite_graph,
    cycle_graph,
    detect_forbidden,
    disjoint_union,
    embedding_error,
    find_induced_odd_cycles,
    forbidden_reg_bound,
    forbidden_reg_bound_standard,
    forbidden_structure,
    lower_bounds,
    noncm_certificate,
    odd_cycle_condition,
    path_graph,
    verify_embedding,
)

from oracles import induced_cycles, random_graph


def _k4():
    vs = ("a", "b", "c", "d")
    return Graph(vs, tuple((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]))


def _two_triangles(extra=()):
    g = disjoint_union(cycle_graph(3, "s"), cycle_graph(3, "t"))
    return Graph(g.vertices, g.edges + tuple(extra))


# -- induced cycle search ---------------------------------------------------


def test_find_cycles_on_plain_cycles():
    assert find_induced_odd_cycles(cycle_graph(5)) == [("v1", "v2", "v3", "v4", "v5")]
    assert find_induced_odd_cycles(cycle_graph(6)) == []


def test_chord_splits_a_cycle():
    c5 = cycle_graph(5)
    g = Graph(c5.vertices, c5.edges + (("v1", "v3"),))
    # the chord leaves one induced triangle and one induced square
    assert find_induced_odd_cycles(g) == [("v1", "v2", "v3")]


def test_k4_has_only_triangles():
    assert find_induced_odd_cycles(_k4()) == [
        ("a", "b", "c"),
        ("a", "b", "d"),
        ("a", "c", "d"),
        ("b", "c", "d"),
    ]


def test_k33_has_no_odd_cycles():
    assert find_induced_odd_cycles(complete_bipartite_graph(3, 3)) == []


def test_cycle_search_cap_policy():
    big = path_graph(20)
    with pytest.raises(ValueError, match="explicit search bound"):
        find_induced_odd_cycles(big)
    assert find_induced_odd_cycles(big, 5) == []
    with pytest.raises(ValueError, match="at least 3"):
        find_induced_odd_cycles(cycle_graph(3), 2)


def _odd_cycle_graphs():
    # half are two random graphs side by side, joined by at most two edges,
    # so that disjoint odd cycles with no edge between them occur
    rng = random.Random(8128)
    for i in range(160):
        if i % 2:
            g = random_graph(rng, max_vertices=8, max_edges=14)
        else:
            sides = []
            for side in "ab":
                h = random_graph(rng, max_vertices=4, max_edges=6)
                sides.append(Graph([side + v for v in h.vertices],
                                   [(side + u, side + v) for u, v in h.edges]))
            g = disjoint_union(*sides)
            pairs = [(u, v) for u, v in itertools.combinations(g.vertices, 2)
                     if u[0] != v[0] and not g.has_edge(u, v)]
            g = Graph(g.vertices, g.edges + tuple(rng.sample(pairs, min(len(pairs), i % 3))))
        for cap in sorted({3, 5, max(len(g.vertices), 3)}):
            yield g, cap


def test_cycle_search_against_subset_oracle():
    for g, cap in _odd_cycle_graphs():
        odd = [c for c in induced_cycles(g, cap) if len(c) % 2]
        assert find_induced_odd_cycles(g, cap) == odd, (g, cap)


# -- odd cycle condition ----------------------------------------------------


def test_occ_against_subset_oracle():
    # the witness is the first pair, in the search's order, of disjoint odd
    # cycles with no edge between them
    for g, cap in _odd_cycle_graphs():
        odd = [c for c in induced_cycles(g, cap) if len(c) % 2]
        witness = next(
            ((a, b) for a, b in itertools.combinations(odd, 2)
             if not set(a) & set(b)
             and not any(g.has_edge(u, v) for u in a for v in b)),
            None,
        )
        complete = cap >= len(g.vertices)
        status = "violated" if witness else "satisfied" if complete else "bounded-inconclusive"
        v = odd_cycle_condition(g, cap)
        assert (v.status, v.witness, v.complete, v.cycles_found) == (
            status, witness, complete, len(odd)), (g, cap)


def test_occ_satisfied_when_cycles_share_a_vertex():
    bow = Graph(
        ("h", "a", "b", "c", "d"),
        (("h", "a"), ("a", "b"), ("b", "h"), ("h", "c"), ("c", "d"), ("d", "h")),
    )
    v = odd_cycle_condition(bow)
    assert v.status == "satisfied"
    assert v.witness is None
    assert v.complete
    assert v.cycles_found == 2


def test_occ_satisfied_when_cycles_are_bridged():
    v = odd_cycle_condition(_two_triangles([("s1", "t1")]))
    assert v.status == "satisfied"


def test_occ_violated_by_disjoint_triangles():
    v = odd_cycle_condition(_two_triangles())
    assert v.status == "violated"
    assert v.witness == (("s1", "s2", "s3"), ("t1", "t2", "t3"))


def test_occ_no_odd_cycles_at_all():
    assert odd_cycle_condition(cycle_graph(6)).status == "satisfied"


def test_occ_bounded_search_is_inconclusive():
    v = odd_cycle_condition(path_graph(20), 5)
    assert v.status == "bounded-inconclusive"
    assert not v.complete
    with pytest.raises(ValueError, match="explicit search bound"):
        odd_cycle_condition(path_graph(20))


# -- the pattern ------------------------------------------------------------


def test_forbidden_structure_builder():
    g, emb = forbidden_structure(3, 3, 2, 2)
    assert len(g.vertices) == 8 and len(g.edges) == 10
    assert len(g.edges) == len(g.vertices) + 2
    assert verify_embedding(g, emb)
    assert emb.path_lengths == (2, 2)


@pytest.mark.parametrize("share", ["both", "one", "none"])
@pytest.mark.parametrize("lengths", [(3, 3, 2, 2), (3, 5, 2, 3), (5, 5, 3, 3)])
def test_forbidden_structure_variants_verify(share, lengths):
    c1, c2, p, q = lengths
    g, emb = forbidden_structure(c1, c2, p, q, share)
    assert verify_embedding(g, emb)
    assert len(g.edges) == len(g.vertices) + 2


def test_forbidden_structure_validation():
    with pytest.raises(ValueError, match="odd"):
        forbidden_structure(4, 3, 2, 2)
    with pytest.raises(ValueError, match="at least 2"):
        forbidden_structure(3, 3, 1, 2)
    with pytest.raises(ValueError, match="share"):
        forbidden_structure(3, 3, 2, 2, "sometimes")


def test_detect_on_the_bare_pattern():
    g, emb = forbidden_structure(3, 3, 2, 2)
    assert detect_forbidden(g) == emb


def test_detect_finds_nothing():
    assert detect_forbidden(_k4()) is None
    assert detect_forbidden(_two_triangles()) is None  # no connecting paths
    assert detect_forbidden(complete_bipartite_graph(3, 3)) is None
    # one path is not enough
    base = _two_triangles()
    g = Graph(base.vertices + ("m",), base.edges + (("s1", "m"), ("m", "t1")))
    assert detect_forbidden(g) is None


def test_detect_path_cap():
    g, _ = forbidden_structure(3, 3, 3, 3)
    assert detect_forbidden(g, max_path=2) is None
    assert detect_forbidden(g, max_path=3) is not None
    with pytest.raises(ValueError, match="at least 2"):
        detect_forbidden(g, max_path=1)


def test_embedding_error_catalogue():
    g, emb = forbidden_structure(3, 3, 2, 2)

    def err(**kw):
        fields = {
            "cycle1": emb.cycle1,
            "cycle2": emb.cycle2,
            "path1": emb.path1,
            "path2": emb.path2,
            **kw,
        }
        return embedding_error(g, ForbiddenEmbedding(**fields))

    assert err() is None
    assert "odd cycle" in err(cycle1=("x1", "x2"))
    assert "odd cycle" in err(cycle1=("x1", "x2", "x3", "z1"))
    assert "repeats" in err(cycle1=("x1", "x2", "x1"))
    assert "missing edge" in err(cycle1=("x1", "x2", "y2"))
    assert "vertex-disjoint" in err(cycle2=("x1", "x2", "x3"))
    assert "length at least 2" in err(path1=("x1", "y1"))
    assert "start on cycle1" in err(path1=("z1", "y1", "y2"))
    assert "end on cycle2" in err(path1=("x2", "x1", "z1"))
    assert "is not a path" in err(path1=("x1", "z1", "y2"))
    assert "cycle vertex" in err(path1=("x2", "x1", "z1", "y1"))
    with pytest.raises(ValueError, match="unknown vertex"):
        err(cycle1=("zz", "a", "b"))


def test_embedding_error_shared_interiors():
    g, _ = forbidden_structure(3, 3, 3, 3)
    bad = ForbiddenEmbedding(
        cycle1=("x1", "x2", "x3"),
        cycle2=("y1", "y2", "y3"),
        path1=("x1", "z1", "z2", "y1"),
        path2=("x1", "z1", "z2", "y1"),
    )
    assert "share interior" in embedding_error(g, bad)


def test_chord_breaks_inducedness():
    g, emb = forbidden_structure(3, 3, 2, 2)
    chorded = Graph(g.vertices, g.edges + (("x2", "y2"),))
    reason = embedding_error(chorded, emb)
    assert reason is not None and "not induced" in reason and "x2" in reason
    assert not verify_embedding(chorded, emb)


# -- certificates -----------------------------------------------------------


def test_certificate_degree_weights():
    g, emb = forbidden_structure(3, 3, 2, 2)
    assert certificate_degree(g, emb) == (3, 1, 1, 3, 1, 1, 2, 2)
    # ambient zeros: embed in a larger graph
    amb = disjoint_union(g, path_graph(2, "p"))
    assert certificate_degree(amb, emb) == (3, 1, 1, 3, 1, 1, 2, 2, 0, 0)


def test_reg_bounds():
    _, emb = forbidden_structure(3, 3, 2, 2)
    assert forbidden_reg_bound(emb) == 11
    assert forbidden_reg_bound_standard(emb) == 4
    _, emb2 = forbidden_structure(3, 3, 3, 3)
    assert forbidden_reg_bound(emb2) == 15
    assert forbidden_reg_bound_standard(emb2) == 6


def test_certificate_on_bare_pattern():
    g, emb = forbidden_structure(3, 3, 2, 2)
    cert = noncm_certificate(g)
    assert cert is not None
    assert cert.embedding == emb
    assert cert.degree == (3, 1, 1, 3, 1, 1, 2, 2)
    assert cert.facet_count == 4
    assert cert.h2_dim == 1 and cert.beta3 == 1
    assert cert.applicable
    assert cert.verdict == "not-cohen-macaulay"
    assert cert.reg_bound_vertex_weight == 11
    assert cert.reg_bound_standard == 4
    # the same entry through the generic Betti route
    assert betti_number(g, 3, cert.degree) == 1


def test_certificate_verify_route_matches_search_route():
    g, emb = forbidden_structure(3, 3, 2, 2)
    assert noncm_certificate(g, emb) == noncm_certificate(g)


def test_certificate_rejects_invalid_embedding():
    g, emb = forbidden_structure(3, 3, 2, 2)
    bad = ForbiddenEmbedding(emb.cycle1, emb.cycle2, emb.path1, ("x1", "y1", "y2"))
    with pytest.raises(ValueError, match="invalid embedding"):
        noncm_certificate(g, bad)


def test_certificate_not_applicable_in_dense_ambient():
    # pattern plus a far-away chorded square: |E| = |V| + 3
    f, emb = forbidden_structure(3, 3, 2, 2)
    c4 = cycle_graph(4, "c")
    chorded = Graph(c4.vertices, c4.edges + (("c1", "c3"),))
    g = disjoint_union(f, chorded)
    assert len(g.edges) == len(g.vertices) + 3
    cert = noncm_certificate(g, emb)
    assert cert is not None
    assert cert.h2_dim == 1  # the syzygy is still there
    assert not cert.applicable
    assert cert.verdict == "inconclusive"


def test_certificate_applicability_uses_the_dimension():
    # beta3 >= 1 decides Cohen-Macaulayness only when |E| - 3 < dim k[G]
    f, emb = forbidden_structure(3, 3, 2, 2)
    for extra in ((), (("x2", "t"),)):  # the bare pattern, and with a pendant edge
        g = Graph(f.vertices + tuple(v for _, v in extra), f.edges + extra)
        cert = noncm_certificate(g, emb)
        assert cert.applicable and cert.verdict == "not-cohen-macaulay"
    # a vertex joined to x2 and y2, plus a disjoint edge: |E| = |V| + 2 but
    # dim = 10 = |E| - 3, since the edge's component is bipartite
    h = Graph(f.vertices + ("t",), f.edges + (("t", "x2"), ("t", "y2")))
    g = disjoint_union(h, Graph(("k1", "k2"), (("k1", "k2"),)))
    assert len(g.edges) == len(g.vertices) + 2 == 13
    cert = noncm_certificate(g, emb)
    assert cert.h2_dim == 1
    assert not cert.applicable
    assert cert.verdict == "inconclusive"


def test_certificate_none_when_absent():
    assert noncm_certificate(_k4()) is None


def test_pattern_beta_entry_is_field_independent_here():
    from toricgraph import FieldSpec

    g, emb = forbidden_structure(3, 3, 2, 2)
    c_q = noncm_certificate(g, emb)
    c_2 = noncm_certificate(g, emb, field=FieldSpec(2))
    assert c_q.h2_dim == c_2.h2_dim == 1


# -- lower bounds from parts ------------------------------------------------


def test_lower_bounds_two_complete_bipartite_parts():
    g = disjoint_union(
        complete_bipartite_graph(2, 3),
        complete_bipartite_graph(2, 2, left="c", right="d"),
    )
    rep = lower_bounds(g, [["a1", "a2", "b1", "b2", "b3"], ["c1", "c2", "d1", "d2"]])
    assert rep.regularity_lower_bound == 2
    assert rep.projective_dimension_lower_bound == 3
    assert [p.method for p in rep.parts] == ["complete bipartite closed form"] * 2
    assert all(p.certified for p in rep.parts)


def test_lower_bounds_scanned_part():
    g = disjoint_union(cycle_graph(6, "c"), path_graph(2, "p"))
    rep = lower_bounds(g, [["c1", "c2", "c3", "c4", "c5", "c6"]])
    (part,) = rep.parts
    assert part.method == "scan (certified)"  # C6 is bipartite, hence normal
    assert part.certified
    assert (rep.regularity_lower_bound, rep.projective_dimension_lower_bound) == (2, 1)


def test_lower_bounds_free_part_and_empty_list():
    g = disjoint_union(cycle_graph(3, "t"), path_graph(2, "p"))
    rep = lower_bounds(g, [["t1", "t2", "t3"]])
    assert (rep.regularity_lower_bound, rep.projective_dimension_lower_bound) == (0, 0)
    assert rep.parts[0].certified
    empty = lower_bounds(g, [])
    assert (empty.regularity_lower_bound, empty.projective_dimension_lower_bound) == (0, 0)


def test_lower_bounds_validation():
    g = complete_bipartite_graph(2, 3)
    with pytest.raises(ValueError, match="unknown vertex"):
        lower_bounds(g, [["zz"]])
    with pytest.raises(ValueError, match="empty"):
        lower_bounds(g, [[]])
    with pytest.raises(ValueError, match="overlap"):
        lower_bounds(g, [["a1"], ["a1"]])
    with pytest.raises(ValueError, match="joined by edge"):
        lower_bounds(g, [["a1"], ["b1"]])
