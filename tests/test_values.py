"""Value semantics of the library's immutable classes and result records:
construction in field order, equality, hashing, repr, `_asdict` and
read-only attributes, and round trips through pickle and deepcopy."""

import copy
import pickle

import pytest

from toricgraph import (
    RATIONALS,
    BettiTable,
    BoundsReport,
    Decomposition,
    FieldSpec,
    ForbiddenEmbedding,
    Graph,
    InvariantsReport,
    NonCMCertificate,
    OddCycleVerdict,
    PartBound,
    SimplicialComplex,
)
from toricgraph.graph import _Value

PATTERN = (("x1", "x2", "x3"), ("y1", "y2", "y3"), ("x1", "z1", "y1"), ("x1", "w1", "y1"))
PART = PartBound(("a", "b"), "scan (certified)", 0, 0, True)
# the result records take their fields through the base class's __init__
RECORDS = (BettiTable, InvariantsReport, OddCycleVerdict, NonCMCertificate, PartBound, BoundsReport)

# (class, field names in order, field values, the same with one value changed)
CASES = [
    (Graph, ("vertices", "edges"),
     (("a", "b", "c"), (("a", "b"),)), (("a", "b", "c"), (("b", "c"),))),
    (SimplicialComplex, ("ground", "masks"),
     (("e", "f", "g"), (3, 4)), (("e", "f", "g"), (5, 6))),
    (Decomposition, ("coefficients",), ((1, 0, 2),), ((1, 0, 3),)),
    (FieldSpec, ("modulus",), (5,), (7,)),
    (ForbiddenEmbedding, ("cycle1", "cycle2", "path1", "path2"),
     PATTERN, PATTERN[:3] + (("x2", "w1", "y2"),)),
    (BettiTable, ("vertices", "max_degree", "field", "certified", "entries", "caveats"),
     (("a", "b"), 2, RATIONALS, True, {(0, (0, 0)): 1}, ()),
     (("a", "b"), 2, FieldSpec(2), True, {(0, (0, 0)): 1}, ())),
    (InvariantsReport,
     ("regularity", "projective_dimension", "depth", "dimension", "cohen_macaulay",
      "certified", "max_degree", "caveats"),
     (1, 2, 4, 4, "yes", True, 6, ()), (1, 2, 4, 4, "yes", False, 6, ())),
    (OddCycleVerdict, ("status", "witness", "max_length", "complete", "cycles_found"),
     ("violated", (("a", "b", "c"), ("d", "e", "f")), 6, True, 2),
     ("satisfied", None, 6, True, 2)),
    (NonCMCertificate,
     ("embedding", "degree", "facet_count", "h2_dim", "beta3", "applicable", "verdict",
      "reg_bound_vertex_weight", "reg_bound_standard"),
     (ForbiddenEmbedding(*PATTERN), (2, 1, 1), 4, 1, 1, True, "not-cohen-macaulay", 3, 1),
     (ForbiddenEmbedding(*PATTERN), (2, 1, 1), 4, 1, 1, False, "inconclusive", 3, 1)),
    (PartBound, ("vertices", "method", "regularity", "projective_dimension", "certified"),
     (("a", "b"), "scan (certified)", 0, 0, True), (("a", "b"), "scan (lower bound)", 0, 0, False)),
    (BoundsReport, ("regularity_lower_bound", "projective_dimension_lower_bound", "parts"),
     (1, 2, (PART,)), (1, 3, (PART,))),
]


@pytest.mark.parametrize("cls,fields,values,changed", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, values, changed):
    assert issubclass(cls, _Value) and tuple(cls.__annotations__) == fields
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert tuple(getattr(a, name) for name in fields) == values
    assert a._asdict() == dict(zip(fields, values))
    assert list(a._asdict()) == list(fields)
    assert a == b and not a != b
    assert a != cls(*changed)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    if cls is BettiTable:  # entries is a dict, as it was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*changed)}) == 2
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_plain_classes_differ_from_other_types():
    g = Graph(("a",), ())
    assert g != ("a",) and g != SimplicialComplex(("a",), ())
    assert FieldSpec() == RATIONALS and hash(FieldSpec()) == hash(RATIONALS)
    # a record is no tuple: it differs from the tuple of its fields
    for cls, _, values, _ in CASES:
        assert cls(*values) != values and values != cls(*values)
    assert PART != (("a", "b"), "scan (certified)", 0, 0, True)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_records_check_their_fields(cls):
    assert "__init__" not in cls.__dict__
    _, fields, values, _ = next(case for case in CASES if case[0] is cls)
    wrong = [
        (values[:-1], {}),  # a field missing
        ((), {}),  # every field missing
        (values + (None,), {}),  # an extra field
        (values, {"extra": 1}),  # an unknown keyword
        (values[:-1], {"extra": 1}),  # an unknown keyword in place of a field
        (values[:-1], {fields[0]: values[0]}),  # a field given twice
    ]
    for args, kwargs in wrong:
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*args, **kwargs)
    # keywords fill what the positions leave, in any order
    named = dict(reversed(list(zip(fields[1:], values[1:]))))
    assert cls(values[0], **named) == cls(*values)


def test_cached_views_survive_read_only_attributes():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert g.index == {"a": 0, "b": 1, "c": 2} and g.index is g.index
    assert g.edge_indices == ((0, 1), (1, 2))
    delta = SimplicialComplex(("e", "f", "g"), (6, 1))
    assert delta.masks == (1, 6)
    assert delta.facets == (frozenset({0}), frozenset({1, 2}))
    assert Decomposition((1, 0, 2)).support == frozenset({0, 2})
    emb = ForbiddenEmbedding(*PATTERN)
    assert emb.vertex_set == frozenset(PATTERN[0] + PATTERN[1] + ("z1", "w1"))
    # the views do not take part in equality or hashing
    fresh = Graph(g.vertices, g.edges)
    assert fresh == g and hash(fresh) == hash(g)


def test_pickle_and_deepcopy_round_trip():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    emb = ForbiddenEmbedding(*PATTERN)
    assert g.index and g._components and emb.vertex_set  # fill the cached views first
    instances = [cls(*values) for cls, _, values, _ in CASES if cls is not BettiTable]
    for a in instances + [g, emb]:
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert type(b) is type(a) and b == a and hash(b) == hash(a)
    copied = pickle.loads(pickle.dumps(g))
    assert copied.index == g.index and copied._components == g._components
