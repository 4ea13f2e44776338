"""Structural criteria on the graph side: induced odd cycles, the
two-odd-cycles-joined-by-two-paths pattern, and the certificates and bounds
they induce on the edge subring.

The induced odd cycle search and the odd cycle condition live in `graph`,
because the Betti scan's normality test uses them; this module re-exports
them with the rest of the criteria.

The pattern of interest is a pair of vertex-disjoint induced odd cycles
joined by two paths of length at least two that are disjoint from each other
except possibly at their endpoint vertices, whose union is an induced
subgraph.  Such a configuration forces a syzygy in homological degree 3
concentrated in an explicit multidegree (weight 1 on the configuration, +1
more for each path through a vertex), which pushes depth three below the
number of edges; for sparse graphs this defeats Cohen-Macaulayness outright.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import combinations

from .betti import DEFAULT_MAX_SCAN, betti_table, complete_bipartite_reg_pd, invariants
from .complexes import build_delta
from .fiber import DEFAULT_MAX_FIBER, _check_cap
from .graph import (  # the odd cycle names are re-exported
    Graph,
    OddCycleVerdict,
    _induced_cycles,
    _Value,
    _resolve_cycle_cap,
    connected_components,
    find_induced_odd_cycles,
    incidence_rank,
    induced_subgraph,
    odd_cycle_condition,
    recognize_complete_bipartite,
)
from .homology import RATIONALS, FieldSpec, homology_dimension

class ForbiddenEmbedding(_Value):
    """A concrete copy of the pattern: two induced odd cycles and two
    connecting paths, all by vertex labels.

    Cycles list their vertices in cyclic order (no repeated start); paths
    include both endpoints, the first on cycle1 and the last on cycle2.  An
    embedding is an immutable value, equal to any embedding with the same
    cycles and paths.
    """

    cycle1: tuple[str, ...]
    cycle2: tuple[str, ...]
    path1: tuple[str, ...]
    path2: tuple[str, ...]

    @property
    def path_lengths(self) -> tuple[int, int]:
        return (len(self.path1) - 1, len(self.path2) - 1)

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.cycle1) | frozenset(self.cycle2) | frozenset(self.path1) | frozenset(self.path2)

    def edge_list(self) -> list[frozenset[str]]:
        edges: list[frozenset[str]] = []
        for cyc in (self.cycle1, self.cycle2):
            for i, v in enumerate(cyc):
                edges.append(frozenset((v, cyc[(i + 1) % len(cyc)])))
        for path in (self.path1, self.path2):
            for a, b in zip(path, path[1:]):
                edges.append(frozenset((a, b)))
        return edges


def embedding_error(g: Graph, emb: ForbiddenEmbedding) -> str | None:
    """Why emb is not a valid copy of the pattern in g, or None if it is.

    Unknown vertex labels raise; structural defects are reported as text.
    """
    for group in (emb.cycle1, emb.cycle2, emb.path1, emb.path2):
        for v in group:
            if v not in g.index:
                raise ValueError(f"unknown vertex {v!r} in embedding")

    for name, cyc in (("cycle1", emb.cycle1), ("cycle2", emb.cycle2)):
        k = len(cyc)
        if k < 3 or k % 2 == 0:
            return f"{name} must be an odd cycle on at least 3 vertices, got {k}"
        if len(set(cyc)) != k:
            return f"{name} repeats a vertex"
        for i, v in enumerate(cyc):
            if not g.has_edge(v, cyc[(i + 1) % k]):
                return f"{name} is not a cycle: missing edge {v!r}--{cyc[(i + 1) % k]!r}"
    if set(emb.cycle1) & set(emb.cycle2):
        return "the two cycles must be vertex-disjoint"

    c1, c2 = set(emb.cycle1), set(emb.cycle2)
    for name, path in (("path1", emb.path1), ("path2", emb.path2)):
        if len(path) < 3:
            return f"{name} must have length at least 2"
        if len(set(path)) != len(path):
            return f"{name} repeats a vertex"
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return f"{name} is not a path: missing edge {a!r}--{b!r}"
        if path[0] not in c1:
            return f"{name} must start on cycle1"
        if path[-1] not in c2:
            return f"{name} must end on cycle2"
        for v in path[1:-1]:
            if v in c1 or v in c2:
                return f"{name} passes through a cycle vertex {v!r}"
    shared = set(emb.path1[1:-1]) & set(emb.path2[1:-1])
    if shared:
        return f"paths share interior vertices {sorted(shared)}"

    # the union must be induced: g restricted to its vertices has exactly its edges
    edges = emb.edge_list()
    if len(set(edges)) != len(edges):
        return "cycles and paths overlap along an edge"
    verts = emb.vertex_set
    induced_edges = {
        frozenset((u, v)) for u, v in g.edges if u in verts and v in verts
    }
    extra = induced_edges - set(edges)
    if extra:
        pair = sorted(min(extra, key=lambda e: sorted(e)))
        return f"union is not induced: extra edge {pair[0]!r}--{pair[1]!r} inside the pattern"

    if len(edges) != len(verts) + 2:
        raise RuntimeError("internal error: pattern must satisfy |E| = |V| + 2")
    return None


def verify_embedding(g: Graph, emb: ForbiddenEmbedding) -> bool:
    """Whether emb is a valid copy of the pattern in g (see embedding_error)."""
    return embedding_error(g, emb) is None


def _paths_between(
    g: Graph,
    starts: Sequence[int],
    targets: frozenset[int],
    blocked: frozenset[int],
    max_edges: int,
) -> Iterator[tuple[int, ...]]:
    """Simple paths (as position tuples) from a start to a target with at
    least 2 edges, interior vertices outside blocked/targets, in
    lexicographic order.  The depth-first search keeps an explicit stack,
    one iterator over the neighbors of each path vertex, so long paths do
    not recurse."""
    nbrs = g._neighbors
    for a in sorted(starts):
        path, members = [a], {a}
        stack = [iter(nbrs[a])]
        while stack:
            u = next(stack[-1], None)
            if u is None:
                stack.pop()
                members.remove(path.pop())
                continue
            if u in members:
                continue
            if u in targets:
                if len(path) >= 2:
                    yield tuple(path) + (u,)
                continue
            if u in blocked or len(path) >= max_edges:
                continue
            members.add(u)
            path.append(u)
            stack.append(iter(nbrs[u]))


def _resolve_path_cap(g: Graph, max_path: int | None, what: str) -> int:
    """The connecting-path bound: `max_path`, at least 2, or max(|V|, 2);
    `what` names the caller in the error."""
    if max_path is None:
        return max(len(g.vertices), 2)
    if max_path < 2:
        raise ValueError(f"{what}: max path length must be at least 2, got {max_path}")
    return max_path


def detect_forbidden(
    g: Graph,
    max_cycle: int | None = None,
    max_path: int | None = None,
) -> ForbiddenEmbedding | None:
    """First valid copy of the pattern, or None (within the search bounds).

    Deterministic: cycle pairs are tried in canonical order, then the first
    path lexicographically, then the second.
    """
    cycle_cap = _resolve_cycle_cap(g, max_cycle, "detect_forbidden")
    path_cap = _resolve_path_cap(g, max_path, "detect_forbidden")
    idx = g.index
    cycles = [c for c in _induced_cycles(g, cycle_cap) if len(c) % 2 == 1]
    for a, b in combinations(range(len(cycles)), 2):
        ca, cb = cycles[a], cycles[b]
        set_a, set_b = frozenset(ca), frozenset(cb)
        if set_a & set_b:
            continue
        both = set_a | set_b
        for p1 in _paths_between(g, sorted(set_a), set_b, frozenset(both), path_cap):
            blocked = frozenset(both | set(p1[1:-1]))
            for p2 in _paths_between(g, sorted(set_a), set_b, blocked, path_cap):
                emb = ForbiddenEmbedding(
                    cycle1=tuple(g.vertices[i] for i in ca),
                    cycle2=tuple(g.vertices[i] for i in cb),
                    path1=tuple(g.vertices[i] for i in p1),
                    path2=tuple(g.vertices[i] for i in p2),
                )
                if verify_embedding(g, emb):
                    return emb
    return None


def certificate_degree(g: Graph, emb: ForbiddenEmbedding) -> tuple[int, ...]:
    """The certifying multidegree: weight 1 on every pattern vertex plus one
    more for each path passing through it, zero outside the pattern."""
    s = [0] * len(g.vertices)
    for v in emb.vertex_set:
        s[g.index[v]] = 1
    for path in (emb.path1, emb.path2):
        for v in path:
            s[g.index[v]] += 1
    return tuple(s)


def forbidden_reg_bound(emb: ForbiddenEmbedding) -> int:
    """Regularity lower bound carried by the pattern, in the vertex-weight
    (total multidegree) convention: t + p + q - 1 where t counts the pattern
    vertices and p, q are the path lengths."""
    p, q = emb.path_lengths
    return len(emb.vertex_set) + p + q - 1


def forbidden_reg_bound_standard(emb: ForbiddenEmbedding) -> int:
    """The same bound read in the standard grading (edge generators in degree
    one): |s|/2 - 3 for the certifying multidegree s."""
    p, q = emb.path_lengths
    total = len(emb.vertex_set) + p + q + 2
    return total // 2 - 3


class NonCMCertificate(_Value):
    """Computational certificate attached to one copy of the pattern.

    The degree complex at the certifying multidegree is computed from
    scratch: `facet_count` should be 4 and `h2_dim` (= beta3) at least 1.
    beta3 >= 1 gives pd >= 3, so depth = |E| - pd <= |E| - 3 (Auslander-
    Buchsbaum).  When the ambient graph also satisfies |E| - 3 < dim k[G]
    (the incidence rank) the pattern defeats Cohen-Macaulayness
    (`applicable`); otherwise the certificate still witnesses a degree-3
    syzygy but the verdict stays inconclusive.  For a connected graph with
    an odd cycle, dim k[G] = |V| and the condition reads |E| <= |V| + 2.
    """

    embedding: ForbiddenEmbedding
    degree: tuple[int, ...]
    facet_count: int
    h2_dim: int
    beta3: int
    applicable: bool
    verdict: str  # "not-cohen-macaulay" | "inconclusive"
    reg_bound_vertex_weight: int
    reg_bound_standard: int


def noncm_certificate(
    g: Graph,
    embedding: ForbiddenEmbedding | None = None,
    *,
    field: FieldSpec = RATIONALS,
    max_fiber: int = DEFAULT_MAX_FIBER,
    max_cycle: int | None = None,
    max_path: int | None = None,
) -> NonCMCertificate | None:
    """Build the certificate for a given embedding, or search for one.

    Returns None when no embedding is given and none is found within bounds.
    A supplied embedding that fails verification is an error.
    """
    _check_cap("max_fiber", max_fiber)
    if embedding is None:
        embedding = detect_forbidden(g, max_cycle=max_cycle, max_path=max_path)
        if embedding is None:
            return None
    else:
        reason = embedding_error(g, embedding)
        if reason is not None:
            raise ValueError(f"invalid embedding: {reason}")
    s = certificate_degree(g, embedding)
    delta = build_delta(g, s, max_fiber=max_fiber)
    h2 = homology_dimension(delta, 2, field)
    applicable = len(g.edges) - 3 < incidence_rank(g)
    verdict = "not-cohen-macaulay" if applicable and h2 >= 1 else "inconclusive"
    return NonCMCertificate(
        embedding=embedding,
        degree=s,
        facet_count=len(delta.facets),
        h2_dim=h2,
        beta3=h2,
        applicable=applicable,
        verdict=verdict,
        reg_bound_vertex_weight=forbidden_reg_bound(embedding),
        reg_bound_standard=forbidden_reg_bound_standard(embedding),
    )


class PartBound(_Value):
    vertices: tuple[str, ...]
    method: str
    regularity: int
    projective_dimension: int
    certified: bool


class BoundsReport(_Value):
    """Lower bounds on reg and pd of k[G] from disjoint induced parts.

    Valid because the union of the parts is an induced subgraph whose edge
    subring is an algebra retract of k[G] (restriction of the grading), and
    reg/pd add over the disjoint union.
    """

    regularity_lower_bound: int
    projective_dimension_lower_bound: int
    parts: tuple[PartBound, ...]


def lower_bounds(
    g: Graph,
    parts: Sequence[Iterable[str]],
    *,
    field: FieldSpec = RATIONALS,
    max_fiber: int = DEFAULT_MAX_FIBER,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> BoundsReport:
    """Sum reg/pd over vertex-disjoint induced parts with no edges between
    them.  Complete bipartite parts use the closed forms; everything else is
    scanned (scan results are lower bounds even when uncertified)."""
    _check_cap("max_fiber", max_fiber)
    _check_cap("max_scan", max_scan)
    part_sets: list[set[str]] = []
    for k, part in enumerate(parts):
        ps = set()
        for v in part:
            if v not in g.index:
                raise ValueError(f"parts[{k}]: unknown vertex {v!r}")
            ps.add(v)
        if not ps:
            raise ValueError(f"parts[{k}] is empty")
        for j, other in enumerate(part_sets):
            if ps & other:
                raise ValueError(f"parts[{j}] and parts[{k}] overlap")
        part_sets.append(ps)
    for j in range(len(part_sets)):
        for k in range(j + 1, len(part_sets)):
            for u, v in g.edges:
                if (u in part_sets[j] and v in part_sets[k]) or (
                    u in part_sets[k] and v in part_sets[j]
                ):
                    raise ValueError(
                        f"parts[{j}] and parts[{k}] are joined by edge {u!r}--{v!r}; "
                        "parts must be mutually non-adjacent"
                    )

    out: list[PartBound] = []
    for ps in part_sets:
        h = induced_subgraph(g, ps)
        sides = None
        if len(connected_components(h)) == 1:
            sides = recognize_complete_bipartite(h)
        if sides is not None:
            reg, pd = complete_bipartite_reg_pd(*sides)
            out.append(
                PartBound(
                    vertices=h.vertices,
                    method="complete bipartite closed form",
                    regularity=reg,
                    projective_dimension=pd,
                    certified=True,
                )
            )
            continue
        table = betti_table(h, field=field, max_fiber=max_fiber, max_scan=max_scan)
        inv = invariants(h, table)
        method = "scan (certified)" if table.certified else "scan (lower bound)"
        out.append(
            PartBound(
                vertices=h.vertices,
                method=method,
                regularity=inv.regularity,
                projective_dimension=inv.projective_dimension,
                certified=table.certified,
            )
        )
    return BoundsReport(
        regularity_lower_bound=sum(p.regularity for p in out),
        projective_dimension_lower_bound=sum(p.projective_dimension for p in out),
        parts=tuple(out),
    )


def forbidden_structure(
    cycle1_length: int,
    cycle2_length: int,
    p: int,
    q: int,
    share: str = "both",
) -> tuple[Graph, ForbiddenEmbedding]:
    """Construct the bare pattern as a standalone graph, plus its embedding.

    share controls how the two paths meet the cycles: "both" pins both paths
    to the same endpoints on both cycles, "one" shares only the start, and
    "none" keeps all four attachment points distinct.
    """
    for name, length in (("cycle1_length", cycle1_length), ("cycle2_length", cycle2_length)):
        if length < 3 or length % 2 == 0:
            raise ValueError(f"{name} must be odd and at least 3, got {length}")
    if p < 2 or q < 2:
        raise ValueError("both path lengths must be at least 2")
    if share not in ("both", "one", "none"):
        raise ValueError(f"share must be 'both', 'one' or 'none', got {share!r}")

    xs = tuple(f"x{i}" for i in range(1, cycle1_length + 1))
    ys = tuple(f"y{i}" for i in range(1, cycle2_length + 1))
    zs = tuple(f"z{i}" for i in range(1, p))
    ws = tuple(f"w{i}" for i in range(1, q))

    if share == "both":
        p1 = (xs[0],) + zs + (ys[0],)
        p2 = (xs[0],) + ws + (ys[0],)
    elif share == "one":
        p1 = (xs[0],) + zs + (ys[0],)
        p2 = (xs[0],) + ws + (ys[1],)
    else:
        p1 = (xs[0],) + zs + (ys[0],)
        p2 = (xs[1],) + ws + (ys[1],)

    edges: list[tuple[str, str]] = []
    for cyc in (xs, ys):
        for i, v in enumerate(cyc):
            edges.append((v, cyc[(i + 1) % len(cyc)]))
    for path in (p1, p2):
        for a, b in zip(path, path[1:]):
            edges.append((a, b))
    g = Graph(xs + ys + zs + ws, tuple(edges))
    emb = ForbiddenEmbedding(cycle1=xs, cycle2=ys, path1=p1, path2=p2)
    return g, emb
