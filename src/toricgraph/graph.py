"""Finite simple graphs with labeled vertices, parsing, and incidence data.

A graph is the combinatorial substrate for the edge subring k[G]: vertices
carry the multigrading, edges index the ring generators x_u * x_v.  Vertex
and edge order is the declaration order of the input and is preserved
everywhere; all downstream enumeration orders derive from it.

Besides parsing and construction, the module holds the combinatorial tests
the ring side reads: connected components, bipartiteness, incidence rank,
twin classes, complete bipartite recognition, and the induced odd cycles
with the odd cycle condition.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter


class GraphFormatError(ValueError):
    """Raised for malformed graph input; the message carries the location."""


class _Value:
    """Base of the immutable value classes and result records.  A subclass
    names its fields once, in its class annotations, in order.  The base
    `__init__` takes them by position and then by keyword; a subclass with
    an `__init__` of its own (to check its arguments) ends it in
    `self._set(...)` with the field values.  Instances of one class are
    equal when their fields are, hash by the field tuple, repr as
    `Name(field=value, ...)`, give `_asdict()` in field order, and refuse
    assignment and deletion (fields and the cached_property views are
    written to the instance dict directly)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)} "
                "once each, by position and then by keyword"
            )
        self._set(*args)
        self.__dict__.update(kwargs)

    def _set(self, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _asdict(self) -> dict[str, object]:
        return dict(zip(self._fields, self._values()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


def _first_appearance(edges: Iterable[tuple[str, str]]) -> tuple[str, ...]:
    """The endpoints of `edges` in order of first appearance."""
    return tuple(dict.fromkeys(lab for edge in edges for lab in edge))


def _check_label(label: object, name: str, *index: int) -> str:
    """`label`, which must be a non-empty string; its place, the list
    `name` and the `index` path into it, is written out only in the
    error."""
    if not isinstance(label, str) or not label:
        where = name + "".join(f"[{i}]" for i in index)
        raise GraphFormatError(f"{where}: vertex label must be a non-empty string, got {label!r}")
    return label


class Graph(_Value):
    """An ordered simple graph.

    `vertices` is the ordered label tuple; `edges` is the ordered tuple of
    endpoint pairs as given on input.  Loops and repeated edges are rejected.
    A graph is an immutable value: equal vertex and edge tuples make equal
    graphs, and its attributes cannot be assigned.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
        vertices = tuple(vertices)
        edges = tuple((u, v) for u, v in edges)
        seen: set[str] = set()
        for i, v in enumerate(vertices):
            _check_label(v, "vertices", i)
            if v in seen:
                raise GraphFormatError(f"vertices[{i}]: duplicate vertex {v!r}")
            seen.add(v)
        edge_keys: set[frozenset[str]] = set()
        for i, (u, v) in enumerate(edges):
            for lab in (u, v):
                if lab not in seen:
                    raise GraphFormatError(f"edges[{i}]: unknown vertex {lab!r}")
            if u == v:
                raise GraphFormatError(f"edges[{i}]: loop at {u!r} is not allowed")
            key = frozenset((u, v))
            if key in edge_keys:
                raise GraphFormatError(f"edges[{i}]: duplicate edge {u!r}--{v!r}")
            edge_keys.add(key)
        self._set(vertices, edges)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[str, str]], vertices: Iterable[str] | None = None
    ) -> "Graph":
        """Build a graph from edge pairs; vertices default to first-appearance order."""
        edges = tuple((u, v) for u, v in edges)
        return cls(_first_appearance(edges) if vertices is None else tuple(vertices), edges)

    # -- basic lookups ---------------------------------------------------

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        """Edges as (position, position) pairs, in edge order."""
        idx = self.index
        return tuple((idx[u], idx[v]) for u, v in self.edges)

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in self.vertices]
        for iu, iv in self.edge_indices:
            adj[iu].add(iv)
            adj[iv].add(iu)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def _incident(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(edge, other end) for each edge at each vertex, in edge order."""
        at: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for e, (iu, iv) in enumerate(self.edge_indices):
            at[iu].append((e, iv))
            at[iv].append((e, iu))
        return tuple(map(tuple, at))

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor positions of each vertex, increasing."""
        return tuple(tuple(sorted(a)) for a in self._adjacency)

    @cached_property
    def _components(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], bool], ...]:
        """One search from the first vertex of each connected component, in
        vertex order.  Per component: its positions in increasing order, their
        colors 0/1 (0 at the first vertex), and whether the coloring is proper,
        that is, whether the component is bipartite."""
        color = [-1] * len(self.vertices)
        comps = []
        for start in range(len(self.vertices)):
            if color[start] >= 0:
                continue
            color[start] = 0
            stack, members, proper = [start], [], True
            while stack:
                v = stack.pop()
                members.append(v)
                for w in self._adjacency[v]:
                    if color[w] < 0:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        proper = False
            members.sort()
            comps.append((tuple(members), tuple(color[v] for v in members), proper))
        return tuple(comps)

    @cached_property
    def _edge_lookup(self) -> dict[frozenset[int], int]:
        return {frozenset(pair): e for e, pair in enumerate(self.edge_indices)}

    def _position(self, v: str) -> int:
        """Position of the label `v`; an unknown label is a GraphFormatError."""
        i = self.index.get(v)
        if i is None:
            raise GraphFormatError(f"unknown vertex {v!r}")
        return i

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbors of `v` in vertex order."""
        return tuple(self.vertices[j] for j in self._neighbors[self._position(v)])

    def degree(self, v: str) -> int:
        return len(self._adjacency[self._position(v)])

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((self._position(u), self._position(v))) in self._edge_lookup

    def edge_position(self, u: str, v: str) -> int:
        """Index of the edge {u, v} in edge order (orientation-insensitive)."""
        key = frozenset((self._position(u), self._position(v)))
        e = self._edge_lookup.get(key)
        if e is None:
            raise GraphFormatError(f"no edge {u!r}--{v!r} in graph")
        return e

    # -- incidence data ---------------------------------------------------

    def incidence_column(self, edge: tuple[str, str]) -> tuple[int, ...]:
        """The exponent vector of the generator x_u * x_v: two ones, rest zero."""
        e = self.edge_position(*edge)
        iu, iv = self.edge_indices[e]
        col = [0] * len(self.vertices)
        col[iu] = 1
        col[iv] = 1
        return tuple(col)

    def incidence_columns(self) -> list[tuple[int, ...]]:
        return [self.incidence_column(e) for e in self.edges]


def incidence_rank(g: Graph) -> int:
    """Rank of the vertex-by-edge incidence matrix over the rationals, which
    is the Krull dimension of k[G].

    It is n minus the number of bipartite connected components: the columns
    of a component on m vertices span a space of dimension m - 1 when it is
    bipartite (a spanning tree's columns are independent, and the rows signed
    by side sum to zero) and m otherwise (an odd cycle's columns span its
    vertices, and the tree reaches the rest).
    """
    return len(g.vertices) - sum(is_bipartite(g))


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Vertex sets of the connected components.

    Components are ordered by their smallest vertex index; vertices inside a
    component come out in vertex order.
    """
    return [tuple(g.vertices[i] for i in members) for members, _, _ in g._components]


def is_bipartite(g: Graph) -> list[bool]:
    """Two-colorability of each connected component, aligned with connected_components."""
    return [proper for _, _, proper in g._components]


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Classes of two or more mutually twin vertices, as increasing vertex
    positions, ordered by their first vertex.

    u and v are false twins when N(u) = N(v) and true twins when N[u] = N[v].
    Each relation is an equivalence, and no vertex has twins of both kinds
    (a false twin w of u and a true twin v of u would make w a neighbor of
    u).  Swapping two twins is an automorphism of g.
    """
    groups: dict[tuple[bool, frozenset[int]], list[int]] = {}
    for v, nbrs in enumerate(g._adjacency):
        groups.setdefault((False, nbrs), []).append(v)
        groups.setdefault((True, nbrs | {v}), []).append(v)
    return tuple(sorted(tuple(c) for c in groups.values() if len(c) > 1))


def induced_subgraph(g: Graph, vertices: Iterable[str]) -> Graph:
    """The subgraph induced on `vertices`, keeping g's vertex and edge order."""
    chosen = set()
    for v in vertices:
        if v not in g.index:
            raise GraphFormatError(f"unknown vertex {v!r}")
        chosen.add(v)
    kept_v = tuple(v for v in g.vertices if v in chosen)
    kept_e = tuple((u, v) for u, v in g.edges if u in chosen and v in chosen)
    return Graph(kept_v, kept_e)


def recognize_complete_bipartite(g: Graph) -> tuple[int, int] | None:
    """Return (u, v) with u <= v if the connected graph g is complete bipartite.

    A single vertex counts as K_{1,0}-like and returns None (no edges to
    grade); a single edge is K_{1,1}.  Raises on disconnected input.
    """
    if len(g._components) != 1:
        raise ValueError("recognize_complete_bipartite expects a connected graph")
    if not g.edges:
        return None
    ((_, color, proper),) = g._components
    if not proper:
        return None
    # a proper 2-coloring; complete when every cross pair is an edge
    left = color.count(0)
    right = len(color) - left
    if len(g.edges) != left * right:
        return None
    return (min(left, right), max(left, right))


# -- induced odd cycles ----------------------------------------------------


# exhaustive cycle search is exponential; above this many vertices callers
# must choose their own bound rather than get a silently incomplete answer
EXHAUSTIVE_VERTEX_LIMIT = 16


def _resolve_cycle_cap(g: Graph, max_length: int | None, what: str) -> int:
    if max_length is not None:
        if max_length < 3:
            raise ValueError(f"{what}: max length must be at least 3, got {max_length}")
        return max_length
    n = len(g.vertices)
    if n > EXHAUSTIVE_VERTEX_LIMIT:
        raise ValueError(
            f"{what}: graph has {n} > {EXHAUSTIVE_VERTEX_LIMIT} vertices; "
            "pass an explicit search bound"
        )
    return max(n, 3)


def _induced_cycles(g: Graph, max_length: int) -> list[tuple[int, ...]]:
    """All induced cycles on at most max_length vertices, as position tuples.

    Canonical form: the smallest vertex first, then the smaller of its two
    cycle neighbors, so each cycle appears exactly once (rotation and
    reflection quotiented away).  Output sorted by (length, tuple).  The
    depth-first search keeps an explicit stack, one iterator over the
    neighbors of each path vertex past v0, so long cycles do not recurse.
    `chords[u]` counts the interior path vertices (all but v0 and the tip)
    adjacent to u, kept up to date as the path grows and shrinks, so a
    vertex that would close a chord is refused without scanning the path.
    """
    n = len(g.vertices)
    adj, nbrs = g._adjacency, g._neighbors
    out: list[tuple[int, ...]] = []
    if max_length < 3:
        return out
    chords = [0] * n
    for v0 in range(n):
        for v1 in nbrs[v0]:
            if v1 < v0:
                continue
            path, members = [v0, v1], {v0, v1}
            stack = [iter(nbrs[v1])]
            while stack:
                u = next(stack[-1], None)
                if u is None:
                    stack.pop()
                    members.remove(path.pop())
                    if len(path) > 1:  # the new tip is no longer interior
                        for w in nbrs[path[-1]]:
                            chords[w] -= 1
                    continue
                if u <= v0 or u in members or chords[u]:
                    continue
                if v0 in adj[u]:
                    # closing edge found; a longer cycle through u would
                    # retain it as a chord, so record and stop
                    if path[1] < u and len(path) + 1 <= max_length:
                        out.append(tuple(path) + (u,))
                    continue
                if len(path) + 2 <= max_length:
                    for w in nbrs[path[-1]]:  # the old tip becomes interior
                        chords[w] += 1
                    members.add(u)
                    path.append(u)
                    stack.append(iter(nbrs[u]))
    out.sort(key=lambda c: (len(c), c))
    return out


def find_induced_odd_cycles(g: Graph, max_length: int | None = None) -> list[tuple[str, ...]]:
    """Induced odd cycles up to max_length vertices, canonically ordered.

    The default bound is the vertex count (exhaustive); graphs above 16
    vertices must pass an explicit bound.
    """
    cap = _resolve_cycle_cap(g, max_length, "find_induced_odd_cycles")
    return [
        tuple(g.vertices[i] for i in cyc)
        for cyc in _induced_cycles(g, cap)
        if len(cyc) % 2 == 1
    ]


class OddCycleVerdict(_Value):
    """Outcome of the pairwise odd-cycle test.

    satisfied: every two induced odd cycles share a vertex or are bridged by
    an edge (only claimed when `complete`, i.e. the search was exhaustive;
    the edge subring is then normal, hence Cohen-Macaulay).  violated:
    `witness` holds the offending pair.  bounded-inconclusive: no violation
    among cycles up to max_length, but longer cycles could exist.
    """

    status: str
    witness: tuple[tuple[str, ...], tuple[str, ...]] | None
    max_length: int
    complete: bool
    cycles_found: int


def odd_cycle_condition(g: Graph, max_length: int | None = None) -> OddCycleVerdict:
    cap = _resolve_cycle_cap(g, max_length, "odd_cycle_condition")
    complete = cap >= len(g.vertices)
    cycles = find_induced_odd_cycles(g, cap)
    adj = g._adjacency
    idx = g.index
    sets = [frozenset(idx[v] for v in c) for c in cycles]
    for a, b in combinations(range(len(cycles)), 2):
        if sets[a] & sets[b]:
            continue
        if any(w in sets[b] for v in sets[a] for w in adj[v]):
            continue
        return OddCycleVerdict("violated", (cycles[a], cycles[b]), cap, complete, len(cycles))
    status = "satisfied" if complete else "bounded-inconclusive"
    return OddCycleVerdict(status, None, cap, complete, len(cycles))


# -- JSON without the json module --------------------------------------------
#
# json compiles six regular expressions as it loads, and writes indented
# JSON in pure Python, its C encoder serving only indent=None.  A run reads
# and writes through _json, the C accelerator json itself calls, and loads
# json only to raise its error on malformed text.


class _JSONDefaults:
    """The settings of json.JSONDecoder() at their defaults, as a scanner
    reads them: strict strings, no hooks, numbers by int and float, and
    json's constants -Infinity, Infinity and NaN."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {
        "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
    }.__getitem__


# one scanner, made at import and never changed, like json's own default
# decoder; where _json is missing, json's pure-Python scanner and quoting
try:
    from _json import encode_basestring_ascii, make_scanner

    _scan_json = make_scanner(_JSONDefaults)
except ImportError:
    from json import JSONDecoder
    from json.encoder import encode_basestring_ascii

    _scan_json = JSONDecoder().scan_once

_JSON_SPACE = " \t\n\r"


def _loads_json(text: str) -> object:
    """json.loads(text): the one JSON value in `text`, with json's white
    space (space, tab, newline, carriage return) around it.  Text the
    scanner reads whole is returned as read; for anything else, json is
    imported and json.loads raises its own error: a JSONDecodeError, or the
    scanner's ValueError (too many digits) or RecursionError (too deep).
    Any exception from the scanner counts as malformed, since on Python
    3.11 it cannot raise JSONDecodeError before json.decoder is loaded."""
    try:
        value, end = _scan_json(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        if end == len(text.rstrip(_JSON_SPACE)):
            return value
    except Exception:  # malformed: json.loads raises json's own error
        pass
    import json

    return json.loads(text)


def _json_error(exc: ValueError | RecursionError, column: bool = True) -> str:
    """The one-line message for an error `_loads_json` raised: "line L,
    column C: invalid JSON (why)", the column left out unless `column`.
    The scanner's ValueError (too many digits) or RecursionError (too
    deep) names no place."""
    from json import JSONDecodeError  # loaded: only json.loads raises here

    if not isinstance(exc, JSONDecodeError):
        return f"invalid JSON ({exc})"
    place = f"line {exc.lineno}, column {exc.colno}" if column else f"line {exc.lineno}"
    return f"{place}: invalid JSON ({exc.msg})"


def _dumps_json(value: object) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for the
    values reports hold: dicts with str keys, lists, tuples, str, int, bool
    and None.  Anything else raises TypeError.  Strings are quoted by
    _json's encode_basestring_ascii, as json.dumps quotes them."""
    out: list[str] = []
    _write_json(value, "\n", out.append)
    return "".join(out)


def _write_json(value: object, newline: str, write: Callable[[str], object]) -> None:
    """Write `value` for `_dumps_json`, `newline` being the line break and
    indent of its own line."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in value):  # a degree, a decomposition
            write(f"[{inner}{(',' + inner).join(map(str, value))}{newline}]")
            return
        text = _records(value, newline)
        if text is not None:
            write(text)
            return
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(f"{sep}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _records(value: list | tuple, newline: str) -> str | None:
    """The text of `value` for `_write_json` when it holds two or more
    dicts with one key set, each value an int or, key by key, an int list
    of one length: a table's entries, say.  The layout of one record is
    one %-template, made once, and the whole list one % with every value
    in record order.  The checks run over whole columns at C level; a
    bool, any other type, a list of another length or a key set of its
    own gives None, and the list is written item by item."""
    first = value[0]
    if len(value) < 2 or type(first) is not dict or not first:
        return None
    if set(map(type, value)) != {dict} or set(map(type, first)) != {str}:
        return None
    if set(map(len, value)) != {len(first)}:
        return None
    names = sorted(first)
    try:  # equal sizes and no key missing: one key set
        columns = [list(map(itemgetter(name), value)) for name in names]
    except KeyError:
        return None
    inner = newline + "  "
    key, item = inner + "  ", inner + "    "
    parts = []
    for k, (name, column) in enumerate(zip(names, columns)):
        if type(column[0]) is list:
            if set(map(type, column)) != {list}:
                return None
            lengths = set(map(len, column))
            if len(lengths) != 1:
                return None
            n = lengths.pop()
            shape = f"[{item}{(',' + item).join(['%d'] * n)}{key}]" if n else "[]"
        else:
            shape = "%d"
            columns[k] = zip(column)  # one value per record
        parts.append(f"{key}{encode_basestring_ascii(name).replace('%', '%%')}: {shape}")
    values = tuple(chain.from_iterable(chain.from_iterable(zip(*columns))))
    if set(map(type, values)) - {int}:  # a bool, a float, a str, a nested value
        return None
    record = "{" + ",".join(parts) + inner + "}"
    return f"[{inner}{(',' + inner).join([record] * len(value))}{newline}]" % values


# -- parsing and serialization -------------------------------------------


def loads_graph(text: str) -> Graph:
    """Parse a graph from JSON or whitespace edge-list text: text whose first
    character after blanks and one byte order mark is '{' or '[' is JSON,
    and must hold an object (json rejects the mark)."""
    stripped = text.lstrip().removeprefix("\ufeff").lstrip()
    if stripped.startswith(("{", "[")):
        return _parse_json(text)
    return _parse_edgelist(text)


def load_graph(path: str) -> Graph:
    return loads_graph(_read_text(path)[1])


def _read_text(path: str, what: str = "graph") -> tuple[bytes, str]:
    """The bytes of the file at `path` and their UTF-8 text.  Bytes that are
    not UTF-8 raise a GraphFormatError naming the `what` file and its path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{what} file {path}: {exc}") from None


def _parse_json(text: str) -> Graph:
    try:
        obj = _loads_json(text)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(_json_error(exc)) from None
    if not isinstance(obj, dict):
        raise GraphFormatError("top level: expected an object with 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise GraphFormatError(f"top level: missing {key!r}")
        if not isinstance(obj[key], list):
            raise GraphFormatError(f"{key}: expected a list")
    vertices = [_check_label(v, "vertices", i) for i, v in enumerate(obj["vertices"])]
    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(obj["edges"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise GraphFormatError(f"edges[{i}]: expected a pair [u, v]")
        edges.append((_check_label(pair[0], "edges", i, 0), _check_label(pair[1], "edges", i, 1)))
    return Graph(tuple(vertices), tuple(edges))


def _parse_edgelist(text: str) -> Graph:
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_keys: set[frozenset[str]] = set()

    def add_vertex(lab: str) -> None:
        if lab not in seen:
            seen.add(lab)
            vertices.append(lab)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            if parts[0] in seen:
                raise GraphFormatError(f"line {lineno}: vertex {parts[0]!r} declared twice")
            add_vertex(parts[0])
        elif len(parts) == 2:
            u, v = parts
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop at {u!r} is not allowed")
            key = frozenset((u, v))
            if key in edge_keys:
                raise GraphFormatError(f"line {lineno}: duplicate edge {u!r}--{v!r}")
            edge_keys.add(key)
            add_vertex(u)
            add_vertex(v)
            edges.append((u, v))
        else:
            raise GraphFormatError(f"line {lineno}: expected 'u v' or a bare vertex, got {len(parts)} tokens")
    return Graph(tuple(vertices), tuple(edges))


def graph_to_json(g: Graph) -> str:
    """Serialize to the JSON input format (round-trips through loads_graph):
    the bytes of json.dumps(payload, sort_keys=True, indent=2) and a
    newline, written by `_dumps_json`."""
    payload = {"vertices": list(g.vertices), "edges": [[u, v] for u, v in g.edges]}
    return _dumps_json(payload) + "\n"


def graph_to_edgelist(g: Graph) -> str:
    """Serialize to edge-list text (round-trips through loads_graph exactly).

    Labels containing whitespace or '#' cannot be represented in this format.
    Vertex order matters downstream (multidegrees align to it), so when the
    first-appearance order implied by the edges differs from g.vertices --
    or any vertex is isolated -- every vertex is declared up front as a bare
    single-token line.  Text whose first label starts with '{' or '[' opens
    with a comment line, since `loads_graph` would read it as JSON.
    """
    for v in g.vertices:
        if any(c.isspace() for c in v) or "#" in v:
            raise GraphFormatError(f"label {v!r} cannot be written in edge-list format")
    lines = [] if _first_appearance(g.edges) == g.vertices else list(g.vertices)
    lines += [f"{u} {v}" for u, v in g.edges]
    if lines and lines[0].startswith(("{", "[")):
        lines.insert(0, "# edge list")
    return "\n".join(lines) + ("\n" if lines else "")


# -- small constructors ----------------------------------------------------


def cycle_graph(n: int, prefix: str = "v") -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    vs = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    es = tuple((vs[i], vs[(i + 1) % n]) for i in range(n))
    return Graph(vs, es)


def path_graph(n: int, prefix: str = "v") -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    vs = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    es = tuple((vs[i], vs[i + 1]) for i in range(n - 1))
    return Graph(vs, es)


def complete_bipartite_graph(u: int, v: int, left: str = "a", right: str = "b") -> Graph:
    if u < 1 or v < 1:
        raise ValueError("both sides must be non-empty")
    ls = tuple(f"{left}{i}" for i in range(1, u + 1))
    rs = tuple(f"{right}{j}" for j in range(1, v + 1))
    return Graph(ls + rs, tuple((a, b) for a in ls for b in rs))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; label sets must already be disjoint."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for g in graphs:
        vertices.extend(g.vertices)
        edges.extend(g.edges)
    return Graph(tuple(vertices), tuple(edges))
