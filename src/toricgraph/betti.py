"""Multigraded Betti numbers of the edge subring, and the invariants they carry.

beta_{i,s} is the dimension of H~_{i-1} of the degree complex at s, so the
table of a graph up to standard degree D is obtained by walking every
semigroup element of total degree at most 2D (level by level: each level is
the previous one translated by the edge columns) and running reduced
homology on its degree complex.  Complexes that are cones are skipped: they
are contractible and contribute nothing.

The scan does not enumerate fibers.  A set F of edges is a face of Delta_s
exactly when s - a_F lies in the semigroup (Miller-Sturmfels, Combinatorial
Commutative Algebra, ch. 9), so the facets of Delta_s are the maximal sets
G | {e} over the edges e and the facets G of Delta_{s - a_e}, one level
down.  Each level's facets are computed from the previous level's, as edge
bitmasks, and a complex is built only where homology needs it.
`build_delta`, which enumerates the fiber, stays the route for a single
multidegree (`betti_number`).

The scan walks one multidegree per orbit of the twin group.  Twins are
vertices with N(u) = N(v) (false twins) or N[u] = N[v] (true twins);
swapping two is a graph automorphism sigma, which maps Delta_s onto
Delta_{sigma s}, so beta_{i,sigma s} = beta_{i,s}.  The twin classes
(`twin_classes`) generate a product of symmetric groups, and the canonical
representative of an orbit has non-increasing weights along each class, in
vertex order.  Each level holds representatives only; the facets of
Delta_{s - a_e} are those of its representative, relabelled by at most two
twin transpositions (`_TwinGroup`).  Homology runs once per orbit, and a
nonzero entry is written for every element of the orbit, which one walk
(`_TwinGroup.orbit`) lists together with the transpositions that reach each
element.  `max_scan` still counts every semigroup element: a level adds the
sizes of its orbits, the products over the classes of the multinomials of
the weights, read off the runs of equal weights.

The edge subring of a disjoint union is the tensor product of the
components' rings, and so is its minimal free resolution (Kuenneth): with
s_1, ..., s_r the parts of s on the components, beta_{i,s} is the sum over
i_1 + ... + i_r = i of the products of the components' beta_{i_j,s_j}.  The
scan therefore walks each connected component on its own, stops a
component at its closed-form top degree when it has one, and convolves the
component tables.  That visits the sum of the components' element counts
instead of their product.

The scan is exact for every entry it can see: beta_{i,j} with j <= D is the
true value.  Whether the table is the *whole* resolution is a separate
certification question; see `known_complete_degree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

from .complexes import SimplicialComplex, build_delta, maximal_masks
from .fiber import DEFAULT_MAX_FIBER, FiberOverflowError
from .graph import (
    Graph,
    connected_components,
    incidence_rank,
    induced_subgraph,
    recognize_complete_bipartite,
    twin_classes,
)
from .homology import RATIONALS, FieldSpec, reduced_homology

DEFAULT_MAX_SCAN = 10**5


class ScanOverflowError(RuntimeError):
    """The semigroup scan visited more multidegrees than the configured cap."""

    def __init__(self, limit: int, degree: int):
        super().__init__(
            f"scan overflow: more than {limit} semigroup elements before degree "
            f"{degree}; raise the cap or lower the degree bound"
        )
        self.limit = limit
        self.degree = degree


def semigroup_levels(
    g: Graph,
    max_degree: int,
    max_scan: int = DEFAULT_MAX_SCAN,
    classes: Sequence[Sequence[int]] = (),
) -> list[list[tuple[int, ...]]]:
    """Semigroup elements grouped by level, one canonical representative per
    orbit of the twin group generated by `classes`: levels[d] holds, sorted,
    the canonical multidegrees that are sums of exactly d edge columns (total
    degree 2d).

    `classes` are classes of mutually twin vertices, as increasing vertex
    positions (see `twin_classes`); a multidegree is canonical when its
    weights do not increase along each class.  With no classes the group is
    trivial and every element is listed.  `max_scan` caps the elements of
    the semigroup, not the representatives: each level adds its orbit sizes.

    Complete by construction: any sum of d columns is a sum of d-1 columns
    plus one more, and twin swaps permute the columns, so translating the
    previous level's representatives by each column and taking canonical
    forms loses no orbit.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    twins = _TwinGroup(g, classes)
    ends = g.edge_indices
    levels: list[list[tuple[int, ...]]] = [[(0,) * len(g.vertices)]]
    total = 1
    for d in range(1, max_degree + 1):
        nxt = {twins.up(r, iu, iv) for r in levels[-1] for iu, iv in ends}
        if not nxt:
            break
        total += sum(map(twins.orbit_size, nxt))
        if total > max_scan:
            raise ScanOverflowError(max_scan, d)
        levels.append(sorted(nxt))
    return levels


class _TwinGroup:
    """The twin group of a graph, the product of the symmetric groups on its
    twin classes, acting on multidegrees by permuting coordinates and on
    edge bitmasks by relabelling endpoints.

    r is canonical when its weights do not increase along each class, in
    vertex order, so equal weights sit on consecutive vertices of a class.
    For canonical r, a unit added at vertex i moves to the first vertex of
    i's class holding r[i], and a unit removed moves to the last one; that
    keeps the result canonical and is a twin transposition.  So r + a_e and
    r - a_e are canonical after at most two transpositions, the second
    endpoint relabelled by the first, with no sorting.  `orbit` walks r's
    orbit with the transpositions that reach each element.
    """

    def __init__(self, g: Graph, classes: Sequence[Sequence[int]]):
        n = len(g.vertices)
        self.classes = tuple(tuple(c) for c in classes)
        self.before = [-1] * n  # the previous vertex of the class, or -1
        self.after = [-1] * n
        for cls in self.classes:
            for a, b in zip(cls, cls[1:]):
                self.after[a] = b
                self.before[b] = a
        bit = {frozenset(pair): 1 << e for e, pair in enumerate(g.edge_indices)}
        adj = g._adjacency
        # swaps[a, b]: for each edge pair {a, w} <-> {b, w}, the two bits
        self.swaps: dict[tuple[int, int], tuple[int, ...]] = {}
        for cls in self.classes:
            for a, b in combinations(cls, 2):
                if adj[a] - {b} != adj[b] - {a}:
                    raise ValueError(f"vertices {a} and {b} are not twins")
                pairs = tuple(bit[frozenset((a, w))] | bit[frozenset((b, w))]
                              for w in sorted(adj[a] - {b}))
                self.swaps[a, b] = self.swaps[b, a] = pairs

    def up(self, r: tuple[int, ...], iu: int, iv: int) -> tuple[int, ...]:
        """The canonical form of r + a_e, e = {iu, iv}, for canonical r."""
        t = list(r)
        p = _slide(t, iu, self.before)
        t[p] += 1
        q = _slide(t, iu if iv == p else iv, self.before)  # (iu p) relabels iv
        t[q] += 1
        return tuple(t)

    def down(
        self, r: tuple[int, ...], iu: int, iv: int
    ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        """The canonical form c of r - a_e, e = {iu, iv}, for canonical r
        with r[iu], r[iv] >= 1, and the swaps that carry c's edge masks to
        r - a_e's, in the order to apply them."""
        c = list(r)
        p = _slide(c, iu, self.after)
        c[p] -= 1
        w = iu if iv == p else iv  # (iu p) relabels iv
        q = _slide(c, w, self.after)
        c[q] -= 1
        # r - a_e = (iu p)(w q) c: relabel by (w q) first
        moves = [self.swaps[w, q]] if q != w else []
        if p != iu:
            moves.append(self.swaps[iu, p])
        return tuple(c), moves

    def orbit_size(self, r: tuple[int, ...]) -> int:
        """The product over the classes of the multinomial coefficient of
        canonical r's weights on the class: the product of (k + 1) / j over
        the class's vertices, the k-th (from 0) being j-th in its run of
        equal weights.  Each partial product is a multinomial, so every
        division is exact."""
        size = 1
        for cls in self.classes:
            run = 0
            for k, v in enumerate(cls):
                run = run + 1 if k and r[v] == r[cls[k - 1]] else 1
                size = size * (k + 1) // run
        return size

    def orbit(
        self, r: tuple[int, ...]
    ) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
        """Every element t of r's orbit, each once, with the swaps that
        carry r's edge masks to t's, in the order to apply them.  Class by
        class, each vertex in turn takes each distinct weight still to its
        right, from the first vertex holding it."""
        orbit = [(r, ())]
        for cls in self.classes:
            for k, a in enumerate(cls[:-1]):
                nxt = []
                for t, swaps in orbit:
                    taken = set()
                    for b in cls[k:]:
                        if t[b] in taken:
                            continue
                        taken.add(t[b])
                        if b == a:
                            nxt.append((t, swaps))
                            continue
                        u = list(t)
                        u[a], u[b] = u[b], u[a]
                        nxt.append((tuple(u), swaps + (self.swaps[a, b],)))
                orbit = nxt
        return orbit


def _slide(t: list[int], i: int, link: list[int]) -> int:
    """The farthest vertex from i along `link` (each vertex's previous or
    next twin, -1 past the end of the class) that holds the weight t[i]."""
    x, j = t[i], link[i]
    while j >= 0 and t[j] == x:
        i, j = j, link[j]
    return i


def _relabel(mask: int, swaps: tuple[int, ...]) -> int:
    """An edge mask under one twin transposition: each pair of edges it
    swaps is given as their two bits."""
    for both in swaps:
        x = mask & both
        if x and x != both:
            mask ^= both
    return mask


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers found by a scan up to max_degree.

    entries maps (homological index i, multidegree tuple) to beta_{i,s}.
    `certified` records whether the scan bound provably covers the whole
    resolution; uncertified tables still have exact entries, they may just
    stop early.
    """

    vertices: tuple[str, ...]
    max_degree: int
    field: FieldSpec
    certified: bool
    entries: dict[tuple[int, tuple[int, ...]], int]
    caveats: tuple[str, ...]

    def sorted_entries(self) -> list[tuple[int, tuple[int, ...], int]]:
        return [
            (i, s, self.entries[(i, s)])
            for i, s in sorted(self.entries, key=lambda key: (sum(key[1]), key[1], key[0]))
        ]

    def standard_graded(self) -> dict[tuple[int, int], int]:
        """Collapse to the standard grading: beta_{i,j} with j = |s| / 2."""
        out: dict[tuple[int, int], int] = {}
        for (i, s), v in self.entries.items():
            key = (i, sum(s) // 2)
            out[key] = out.get(key, 0) + v
        return out

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def regularity(self) -> int:
        return max(sum(s) // 2 - i for i, s in self.entries)


def betti_number(
    g: Graph,
    i: int,
    s: Sequence[int],
    field: FieldSpec = RATIONALS,
    *,
    max_fiber: int = DEFAULT_MAX_FIBER,
) -> int:
    """Single entry beta_{i,s}: reduced homology of the degree complex in
    degree i - 1."""
    if i < 0:
        raise ValueError("homological index must be nonnegative")
    from .homology import homology_dimension

    delta = build_delta(g, tuple(s), max_fiber=max_fiber)
    return homology_dimension(delta, i - 1, field)


def betti_table(
    g: Graph,
    max_degree: Optional[int] = None,
    *,
    field: FieldSpec = RATIONALS,
    assume_complete: bool = False,
    max_fiber: int = DEFAULT_MAX_FIBER,
    max_scan: int = DEFAULT_MAX_SCAN,
    on_complex: Optional[Callable[[tuple[int, ...], SimplicialComplex], None]] = None,
) -> BettiTable:
    """All Betti entries of standard degree <= max_degree.

    max_degree defaults to the edge count (a safe but often generous bound).
    Each connected component with an edge is scanned on its own, up to
    max_degree or its closed-form top degree, whichever is lower; the
    component tables are then convolved (Kuenneth) and cut at max_degree.
    `max_scan` caps the semigroup elements of all components together,
    every element of every twin orbit counted (see `semigroup_levels`).
    Each degree complex is built from the facets of the level below, not
    from its fiber, so `max_fiber` caps the facets of each degree complex
    (FiberOverflowError past it); a complex with more facets than that has
    more decompositions too.
    `on_complex(s, delta)` is invoked for every element s of the scanned
    semigroup, orbits expanded, with s the component's own multidegree
    (aligned with the component's vertices, in g's order) and delta its
    degree complex, component by component in the order of
    `connected_components`, each level by level in sorted order; it exists
    for audits.
    """
    if max_degree is None:
        max_degree = len(g.edges)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    parts = _components(g)
    entries: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * len(g.vertices)): 1}
    scanned = 0
    for h, top in parts:
        degree = max_degree if top is None else min(max_degree, top)
        classes = twin_classes(h)
        try:
            levels = semigroup_levels(h, degree, max_scan - scanned, classes)
        except ScanOverflowError as exc:
            raise ScanOverflowError(max_scan, exc.degree) from None
        twins = _TwinGroup(h, classes)
        scanned += sum(twins.orbit_size(r) for level in levels for r in level)
        local = _scan(h, levels, twins, field, max_fiber, on_complex)
        positions = [g.index[v] for v in h.vertices]
        entries = _convolve(entries, local, positions, 2 * max_degree)

    known = _total_degree(parts)
    certified = assume_complete or (known is not None and max_degree >= known)
    caveats: list[str] = []
    if assume_complete and not (known is not None and max_degree >= known):
        caveats.append(
            f"completeness at degree {max_degree} was asserted by the caller, not established"
        )
    if not certified:
        caveats.append(
            f"scan truncated at standard degree {max_degree}; entries shown are exact "
            "but higher-degree entries may exist"
        )
    return BettiTable(
        vertices=g.vertices,
        max_degree=max_degree,
        field=field,
        certified=certified,
        entries=entries,
        caveats=tuple(caveats),
    )


def _scan(
    h: Graph,
    levels: list[list[tuple[int, ...]]],
    twins: _TwinGroup,
    field: FieldSpec,
    max_fiber: int,
    on_complex: Optional[Callable[[tuple[int, ...], SimplicialComplex], None]],
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Betti entries of one graph at the semigroup elements whose canonical
    representatives `levels` holds.

    Degree complexes of the representatives are built level by level from
    the facets of the level below (`_facets`), held as edge bitmasks for two
    levels at a time; a `SimplicialComplex` is made on those masks only for
    the complexes that are not cones.  beta_{i,t} is the same for every t
    in an orbit (`_TwinGroup.orbit`), so a nonzero entry is written for the
    whole orbit.  With `on_complex`, each level is expanded in sorted
    order: every element t gets its representative's facets, relabelled by
    the swaps that reach t.
    """
    ground = tuple(h.edges)
    edges = [(1 << e, iu, iv) for e, (iu, iv) in enumerate(h.edge_indices)]
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    below: dict[tuple[int, ...], tuple[int, ...]] = {}
    for d, level in enumerate(levels):
        # the top level is never looked up, unless it is expanded
        keep = d + 1 < len(levels) or on_complex is not None
        here: dict[tuple[int, ...], tuple[int, ...]] = {}
        shared: dict[int, int] = {}  # one object per distinct mask held
        for r in level:
            masks = _facets(r, below, edges, twins) if d else [0]
            if len(masks) > max_fiber:
                # facets are supports of distinct decompositions
                raise FiberOverflowError(max_fiber)
            if keep:
                here[r] = tuple([shared.setdefault(mask, mask) for mask in masks])
            common = -1
            for mask in masks:
                common &= mask
            if common:
                continue  # every facet holds a common edge: a cone
            delta = SimplicialComplex(ground, masks)
            for k, dim in enumerate(reduced_homology(delta, field), start=-1):
                if not dim:
                    continue
                i = k + 1
                if 2 * i > sum(r):
                    raise RuntimeError(
                        f"internal error: beta_{{{i},{r}}} nonzero violates 2i <= |s|"
                    )
                for t, _ in twins.orbit(r):
                    entries[(i, t)] = dim
        if on_complex is not None:
            expanded = sorted((t, moves, r) for r in level for t, moves in twins.orbit(r))
            for t, moves, r in expanded:
                masks = here[r]
                for swaps in moves:
                    masks = [_relabel(mask, swaps) for mask in masks]
                on_complex(t, SimplicialComplex(ground, masks))
        below = here
    # level by level, then by multidegree and index, as a plain scan finds them
    return dict(sorted(entries.items(), key=lambda item: (sum(item[0][1]), item[0][1], item[0][0])))


def _facets(
    s: tuple[int, ...],
    below: dict[tuple[int, ...], tuple[int, ...]],
    edges: list[tuple[int, int, int]],
    twins: _TwinGroup,
) -> list[int]:
    """Facets of the degree complex at a canonical s > 0, as edge bitmasks,
    from the facets held for the representatives of the level below.

    F holding e is a face of Delta_s exactly when F - {e} is a face of
    Delta_{s-a_e}, and s > 0 makes every facet nonempty, so the facets of
    Delta_s are the maximal sets among G | {e} over the edges e and the
    facets G of Delta_{s-a_e}.  Those are the facets of the representative
    of s - a_e, relabelled by the twin swaps that carry it to s - a_e.
    """
    candidates: set[int] = set()
    for bit, iu, iv in edges:
        if s[iu] and s[iv]:
            c, moves = twins.down(s, iu, iv)
            for mask in below.get(c, ()):
                for swaps in moves:
                    mask = _relabel(mask, swaps)
                candidates.add(mask | bit)
    return maximal_masks(candidates)


def _convolve(
    union: dict[tuple[int, tuple[int, ...]], int],
    component: dict[tuple[int, tuple[int, ...]], int],
    positions: Sequence[int],
    max_total: int,
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Kuenneth product of a table on g with the table of a component that
    `union` does not involve yet: beta_{i,s} = sum of beta_{i1,s1} *
    beta_{i2,s2} over i1 + i2 = i, where s1 and s2 are s off and on the
    component.  Component multidegrees are placed at `positions` in g;
    products of total degree above `max_total` are dropped."""
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    for (i1, s1), b1 in union.items():
        for (i2, s2), b2 in component.items():
            if sum(s1) + sum(s2) > max_total:
                continue
            s = list(s1)
            for p, x in zip(positions, s2):
                s[p] = x
            key = (i1 + i2, tuple(s))
            out[key] = out.get(key, 0) + b1 * b2
    return out


def complete_bipartite_reg_pd(u: int, v: int) -> tuple[int, int]:
    """Regularity u - 1 and projective dimension (u-1)(v-1) of k[K_{u,v}]
    for 1 <= u <= v.  The ring is the determinantal ring of the 2-minors of
    a generic u x v matrix: Cohen-Macaulay of dimension u + v - 1, so pd is
    its codimension uv - (u + v - 1)."""
    return u - 1, (u - 1) * (v - 1)


def _top_degree(h: Graph) -> Optional[int]:
    """Largest standard degree any Betti entry of k[H] can live in, for a
    connected graph H with at least one edge, when a closed form gives it;
    None otherwise.

    H presents a free polynomial ring (no syzygies at all) when its incidence
    rank equals its edge count; K_{u,v} with u <= v tops out at degree
    reg + pd (`complete_bipartite_reg_pd`), which is (u-1)v.
    """
    if incidence_rank(h) == len(h.edges):
        return 0
    sides = recognize_complete_bipartite(h)
    if sides is None:
        return None
    return sum(complete_bipartite_reg_pd(*sides))


def _components(g: Graph) -> list[tuple[Graph, Optional[int]]]:
    """Each connected component with at least one edge, as an induced
    subgraph of g, paired with its closed-form top degree (or None)."""
    parts = []
    for comp in connected_components(g):
        h = induced_subgraph(g, comp)
        if h.edges:
            parts.append((h, _top_degree(h)))
    return parts


def _total_degree(parts: list[tuple[Graph, Optional[int]]]) -> Optional[int]:
    tops = [top for _, top in parts]
    return None if None in tops else sum(tops)


def known_complete_degree(g: Graph) -> Optional[int]:
    """Largest standard degree any Betti entry of k[G] can live in, when
    every connected component is free or complete bipartite, the classes
    whose top degree `_top_degree` knows in closed form; None otherwise.

    Both classes are Cohen-Macaulay, so the top degree adds up across a
    disjoint union.
    """
    return _total_degree(_components(g))


@dataclass(frozen=True)
class InvariantsReport:
    """Homological invariants read off a Betti table.

    Uncertified tables make regularity and projective dimension lower bounds
    and depth an upper bound; the Cohen-Macaulay answer is then only settled
    when the depth bound already falls below the dimension.
    """

    regularity: int
    projective_dimension: int
    depth: int
    dimension: int
    cohen_macaulay: str  # "yes" | "no" | "unknown"
    certified: bool
    max_degree: int
    caveats: tuple[str, ...]


def invariants(g: Graph, table: BettiTable) -> InvariantsReport:
    """Castelnuovo-Mumford regularity, projective dimension, depth (via the
    Auslander-Buchsbaum formula over the edge polynomial ring), Krull
    dimension, and the Cohen-Macaulay verdict they support."""
    pd = table.projective_dimension()
    reg = table.regularity()
    depth = len(g.edges) - pd
    dim = incidence_rank(g)
    caveats = list(table.caveats)
    if table.certified:
        cm = "yes" if depth == dim else "no"
    elif depth < dim:
        # the scan's pd is a lower bound, so true depth is at most this
        cm = "no"
    else:
        cm = "unknown"
        caveats.append(
            "Cohen-Macaulayness undecided: the scan is uncertified and the depth "
            "upper bound does not fall below the dimension"
        )
    return InvariantsReport(
        regularity=reg,
        projective_dimension=pd,
        depth=depth,
        dimension=dim,
        cohen_macaulay=cm,
        certified=table.certified,
        max_degree=table.max_degree,
        caveats=tuple(caveats),
    )
