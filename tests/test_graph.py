import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from toricgraph import (
    Graph,
    GraphFormatError,
    complete_bipartite_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    graph_to_edgelist,
    graph_to_json,
    incidence_rank,
    induced_subgraph,
    is_bipartite,
    load_graph,
    loads_graph,
    path_graph,
    recognize_complete_bipartite,
    twin_classes,
)
from toricgraph.graph import _dumps_json, _loads_json, _records

from oracles import random_graph, sympy_rank, two_colorings, union_find_components


def test_json_parse_and_round_trip():
    text = '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}'
    g = loads_graph(text)
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("b", "c"))
    assert loads_graph(graph_to_json(g)) == g


def test_edgelist_parse():
    text = "# a comment\nu v\n\nv w   # trailing comment\nlonely\n"
    g = loads_graph(text)
    assert g.vertices == ("u", "v", "w", "lonely")
    assert g.edges == (("u", "v"), ("v", "w"))
    assert g.degree("lonely") == 0


def test_edgelist_round_trip():
    # loads_graph reads text opening with '[' or '{' as JSON, so a first
    # label starting with one, in an edge or declared up front, round-trips
    # only through the writer's leading comment line
    for g in (
        Graph(("p", "q", "r", "s"), (("p", "q"), ("q", "r"))),
        Graph(("[x", "y"), (("[x", "y"),)),
        Graph(("{a", "b", "c"), (("b", "c"),)),
    ):
        assert loads_graph(graph_to_edgelist(g)) == g


def test_edgelist_rejects_unwritable_labels():
    g = Graph(("a b",), ())
    with pytest.raises(GraphFormatError, match="edge-list format"):
        graph_to_edgelist(g)
    with pytest.raises(GraphFormatError):
        graph_to_edgelist(Graph(("x#1",), ()))


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"vertices": ["a"], "edges"', "invalid JSON"),
        ('{"vertices": ["a"]}', "missing 'edges'"),
        ('{"vertices": "a", "edges": []}', "expected a list"),
        ('{"vertices": ["a", "a"], "edges": []}', "duplicate vertex"),
        ('{"vertices": ["a", "b"], "edges": [["a", "b", "c"]]}', "edges[0]"),
        ('{"vertices": ["a", "b"], "edges": [["a", 3]]}', "edges[0][1]"),
        ('{"vertices": ["a"], "edges": [["a", "a"]]}', "loop"),
        ('{"vertices": ["a"], "edges": [["a", "z"]]}', "unknown vertex"),
        ("a b\nb a\n", "line 2: duplicate edge"),
        ("a a\n", "line 1: loop"),
        ("a b c\n", "line 1"),
        ("a\na\n", "declared twice"),
    ],
)
def test_parse_errors_carry_location(text, needle):
    with pytest.raises(GraphFormatError) as exc:
        loads_graph(text)
    assert needle in str(exc.value)


@pytest.mark.parametrize("text", ['[["a", "b"]]', '["a", "b"]', '  \n[ "a", "b" ]\n', "[]"])
def test_json_arrays_are_json_not_edge_lists(text):
    # a JSON array is not a graph: it is rejected as JSON, never read as a
    # vertex or an edge between bracketed labels
    with pytest.raises(GraphFormatError) as exc:
        loads_graph(text)
    assert str(exc.value) == "top level: expected an object with 'vertices' and 'edges'"


def test_duplicate_edge_ignores_orientation():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        Graph(("a", "b"), (("a", "b"), ("b", "a")))


def test_lookups():
    g = cycle_graph(4)
    assert g.neighbors("v1") == ("v2", "v4")
    assert g.degree("v2") == 2
    assert g.has_edge("v4", "v1") and g.has_edge("v1", "v4")
    assert not g.has_edge("v1", "v3")
    assert g.edge_position("v1", "v4") == 3
    with pytest.raises(GraphFormatError):
        g.edge_position("v1", "v3")
    for lookup in (
        lambda: g.neighbors("zz"),
        lambda: g.degree("zz"),
        lambda: g.has_edge("v1", "zz"),
        lambda: g.edge_position("zz", "v1"),
        lambda: g.incidence_column(("v1", "zz")),
    ):
        with pytest.raises(GraphFormatError, match="unknown vertex 'zz'"):
            lookup()


def test_incidence_columns():
    g = Graph(("a", "b", "c"), (("a", "c"),))
    assert g.incidence_column(("a", "c")) == (1, 0, 1)
    assert g.incidence_columns() == [(1, 0, 1)]


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(3), 3),  # odd cycle: full rank
        (cycle_graph(4), 3),
        (cycle_graph(5), 5),
        (cycle_graph(6), 5),
        (complete_bipartite_graph(2, 3), 4),
        (path_graph(4), 3),
        (Graph(("a",), ()), 0),
    ],
)
def test_incidence_rank(g, expected):
    assert incidence_rank(g) == expected


def test_incidence_rank_counts_bipartite_components():
    # rank = n - (number of bipartite components), component by component
    g = disjoint_union(cycle_graph(4, "a"), cycle_graph(5, "b"), path_graph(2, "c"))
    assert incidence_rank(g) == 11 - 2


def test_incidence_rank_is_the_matrix_rank():
    rng = random.Random(140)
    for _ in range(60):
        g = random_graph(rng)
        cols = [{iu: 1, iv: 1} for iu, iv in g.edge_indices]
        assert incidence_rank(g) == sympy_rank(cols, len(g.vertices)), g


def test_components_and_bipartite():
    g = disjoint_union(path_graph(3, "p"), cycle_graph(3, "t"))
    assert connected_components(g) == [("p1", "p2", "p3"), ("t1", "t2", "t3")]
    assert is_bipartite(g) == [True, False]


def test_components_and_bipartite_match_the_oracles():
    rng = random.Random(148)
    for _ in range(80):
        g = random_graph(rng)
        comps = union_find_components(g)
        assert connected_components(g) == comps, g
        parts = [induced_subgraph(g, comp) for comp in comps]
        assert is_bipartite(g) == [bool(two_colorings(h)) for h in parts], g
        for h in parts:
            # a connected bipartite graph has one 2-coloring up to the swap
            colorings = two_colorings(h)
            expected = None
            if h.edges and colorings:
                left = colorings[0].count(0)
                right = len(h.vertices) - left
                if len(h.edges) == left * right:
                    expected = (min(left, right), max(left, right))
            assert recognize_complete_bipartite(h) == expected, h


@pytest.mark.parametrize(
    "g, expected",
    [
        (cycle_graph(3), ((0, 1, 2),)),  # true twins
        (cycle_graph(4), ((0, 2), (1, 3))),  # false twins
        (cycle_graph(5), ()),
        (path_graph(4), ()),
        (path_graph(3), ((0, 2),)),
        (complete_bipartite_graph(2, 3), ((0, 1), (2, 3, 4))),
        (path_graph(2), ((0, 1),)),  # K_2: true twins
        (Graph(("a", "b", "c"), (("a", "b"),)), ((0, 1),)),  # c has no twin
        (Graph(("a", "b", "c", "d"), (("b", "c"),)), ((0, 3), (1, 2))),
    ],
)
def test_twin_classes(g, expected):
    assert twin_classes(g) == expected


def test_twin_swaps_are_automorphisms():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(rng)
        edges = {frozenset(e) for e in g.edge_indices}
        for cls in twin_classes(g):
            a, b = cls[0], cls[-1]
            swap = {a: b, b: a}
            assert {frozenset(swap.get(x, x) for x in e) for e in edges} == edges


def test_induced_subgraph_keeps_order():
    g = cycle_graph(5)
    h = induced_subgraph(g, ["v4", "v1", "v2"])
    assert h.vertices == ("v1", "v2", "v4")
    assert h.edges == (("v1", "v2"),)
    with pytest.raises(GraphFormatError, match="unknown vertex"):
        induced_subgraph(g, ["v9"])


def test_recognize_complete_bipartite():
    assert recognize_complete_bipartite(complete_bipartite_graph(2, 3)) == (2, 3)
    assert recognize_complete_bipartite(complete_bipartite_graph(3, 3)) == (3, 3)
    assert recognize_complete_bipartite(path_graph(2)) == (1, 1)
    assert recognize_complete_bipartite(cycle_graph(4)) == (2, 2)
    assert recognize_complete_bipartite(cycle_graph(6)) is None
    assert recognize_complete_bipartite(cycle_graph(3)) is None
    assert recognize_complete_bipartite(Graph(("a",), ())) is None
    with pytest.raises(ValueError, match="connected"):
        recognize_complete_bipartite(disjoint_union(path_graph(2, "a"), path_graph(2, "b")))


def test_star_is_complete_bipartite():
    star = Graph.from_edges([("hub", "s1"), ("hub", "s2"), ("hub", "s3")])
    assert recognize_complete_bipartite(star) == (1, 3)


def test_from_edges_orders_by_first_appearance():
    g = Graph.from_edges([("b", "a"), ("c", "a")])
    assert g.vertices == ("b", "a", "c")


def test_builder_validation():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        complete_bipartite_graph(0, 2)


def test_random_round_trips():
    rng = random.Random(9172)
    for _ in range(60):
        g = random_graph(rng)
        assert loads_graph(graph_to_json(g)) == g
        assert loads_graph(graph_to_edgelist(g)) == g


def test_load_graph_names_an_undecodable_file(tmp_path):
    bad = tmp_path / "latin1.edges"
    bad.write_bytes(b"\xff")
    with pytest.raises(GraphFormatError) as info:
        load_graph(str(bad))
    assert str(info.value) == (
        f"graph file {bad}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte"
    )


# text that json escapes: quotes, backslashes, control characters, the
# line separators, characters past ASCII and past the BMP
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\r\u2028\u00e9\U0001f600ab') | st.characters(),
    max_size=8,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.sampled_from([0, -1, 2**63, -(2**64) - 1])
    | _TEXT
)
_INTS = st.integers(-(10**30), 10**30)


@st.composite
def _record_lists(draw):
    """Two or more dicts on one key set, each key holding an int in every
    record or an int list of one length in every record: the shape the
    writer's record template takes."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    lengths = [draw(st.none() | st.integers(0, 3)) for _ in keys]  # None: an int
    return [
        {
            key: draw(_INTS) if n is None else draw(st.lists(_INTS, min_size=n, max_size=n))
            for key, n in zip(keys, lengths)
        }
        for _ in range(draw(st.integers(2, 5)))
    ]


_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(-(10**6), 10**6), max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5)
    | _record_lists(),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    assert _dumps_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_record_lists())
def test_json_writer_templates_record_lists(records):
    assert _records(records, "\n") is not None
    assert _dumps_json(records) == json.dumps(records, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "records",
    [
        [{"a": True, "b": [1]}, {"a": 1, "b": [2]}],  # a bool
        [{"a": 1, "b": [1, False]}, {"a": 2, "b": [2, 3]}],  # a bool in a list
        [{"a": 1, "b": (1, 2)}, {"a": 2, "b": (3, 4)}],  # a tuple
        [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}],  # a shorter list
        [{"a": 1, "b": [1]}, {"a": 2}],  # a missing key
        [{"a": 1}, {"a": 2, "b": [1]}],  # an extra key
        [{"a": 1, "b": 2}, {"a": 1, "c": 2}],  # another key of the same count
        [{"a": 1, "b": {"c": 1}}, {"a": 2, "b": {"c": 2}}],  # a nested dict
        [{"a": 1, "b": [1]}],  # one record
        [{"a": 1, "b": [1]}, {"a": "x", "b": [2]}],  # a str
        [{"a": None, "b": [1]}, {"a": 2, "b": [2]}],  # None
        [{"a": 1, "b": [1]}, {"a": 2, "b": 3}],  # a list and an int under one key
        [{"a": 1, "b": [[1]]}, {"a": 2, "b": [[2]]}],  # a nested list
        [{"a": 1}, [1]],  # a record beside a list
    ],
)
def test_json_writer_hands_near_records_to_the_generic_writer(records):
    assert _records(records, "\n") is None
    assert _dumps_json(records) == json.dumps(records, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, float("nan"), {1: "a"}, {"a": {None: 1}}, [set()], b"x"])
def test_json_writer_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        _dumps_json(value)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.recursive(
        _SCALARS | st.floats(allow_nan=False),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5),
        max_leaves=30,
    ),
    st.sampled_from([None, 0, 2, "\t"]),
    st.booleans(),
    st.sampled_from(["", " ", "\n\t \r"]),
)
def test_json_reader_matches_json_loads(value, indent, ensure_ascii, space):
    # valid text in json's layouts, with its white space around the value
    text = space + json.dumps(value, indent=indent, ensure_ascii=ensure_ascii) + space
    assert repr(_loads_json(text)) == repr(json.loads(text))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(_TEXT.filter(bool), unique=True, max_size=6), st.randoms(use_true_random=False))
def test_graph_to_json_round_trips_any_labels(labels, rng):
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    g = Graph(labels, rng.sample(pairs, rng.randint(0, len(pairs))))
    text = graph_to_json(g)
    assert text == json.dumps(
        {"vertices": labels, "edges": [list(e) for e in g.edges]}, indent=2, sort_keys=True
    ) + "\n"
    assert loads_graph(text) == g
