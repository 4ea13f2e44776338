"""Multigraded Betti numbers of the edge subring, and the invariants they carry.

beta_{i,s} is the dimension of H~_{i-1} of the degree complex at s, so the
table of a graph up to standard degree D is obtained by walking every
semigroup element of total degree at most 2D (level by level: each level is
the previous one translated by the edge columns) and running reduced
homology on its degree complex.  Complexes that are cones are skipped: they
are contractible and contribute nothing.

The scan does not enumerate fibers.  A set F of edges is a face of Delta_s
exactly when s - a_F lies in the semigroup (Miller-Sturmfels, Combinatorial
Commutative Algebra, ch. 9).  A facet F is then the support of a
decomposition of s (F | supp D is a face whenever s - a_F = a_D), and a
decomposition uses an edge at every vertex x with s_x >= 1.  So the facets
of Delta_s are the maximal sets G | {e} over the edges e at one such x and
the facets G of Delta_{s - a_e}, one level down; where s_x = 1 every such
set is a facet, as Delta_{s - a_e} has no edge at x.  Each level's facets
are computed from the previous level's, as edge bitmasks, and a complex is
built only where homology needs it.
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
element.  `max_scan` counts the representatives, the multidegrees the scan
actually visits, level 0's zero vector among them.  The Hilbert function
still counts every element: a level's size adds the sizes of its orbits,
the products over the classes of the multinomials of the weights, read off
the runs of equal weights.

The edge subring of a disjoint union is the tensor product of the
components' rings, and so is its minimal free resolution (Kuenneth): with
s_1, ..., s_r the parts of s on the components, beta_{i,s} is the sum over
i_1 + ... + i_r = i of the products of the components' beta_{i_j,s_j}.  The
scan therefore walks each connected component on its own, stops a
component at its top degree when it knows one, and convolves the component
tables.  That visits the sum of the components' element counts instead of
their product.

One plan per component (`_Plan`) decides its levels and its top degree,
the largest standard degree of a Betti entry, for `betti_table` and
`known_complete_degree` alike.  The top degree is known when the ring is
free (0), K_{u,v} ((u-1)v in closed form) or normal, that is bipartite or
satisfying the odd cycle condition (Ohsugi-Hibi).  A normal ring of
dimension d = `incidence_rank` is Cohen-Macaulay (Hochster) with negative
a-invariant (Danilov-Stanley), so the level sizes H(0), ..., H(d - 1) fix
its h-vector, and the resolution ends at degree pd + deg h with pd = |E| -
d.  Such a component is scanned to d - 1, and on to the top degree only if
that lies further.  Each finished component table is cross-checked against
its h-vector.  reg = deg h and pd also leave a single homological index
at some degrees (2, the top degree, and every degree when reg = 1); there
the scan counts chains for the Euler characteristic instead of ranking
boundaries (`_scan`).

A bipartite component H is scanned only inside its degree box, the
multidegrees s <= deg_H entrywise, because no Betti number of k[H] lives
outside it:

1. The incidence matrix A of a bipartite graph is totally unimodular, so
   every initial ideal of I_H is squarefree (Sturmfels, Groebner Bases and
   Convex Polytopes, 1996, ch. 8).
2. beta_{i,s}(S/I) <= beta_{i,s}(S/in I) in every A-degree s, by upper
   semicontinuity along the Groebner degeneration, which is A-graded
   (Herzog-Hibi, Monomial Ideals, 3.3).
3. A squarefree monomial ideal has Betti numbers only in the degrees of
   squarefree monomials x^b, b a 0/1 vector on the edges, and
   A b <= A 1 = deg_H.

The box is closed under s -> s - a_e, so every degree complex inside it is
built exactly as without the box, and the scan builds no complex and runs
no homology outside it.  The levels up to d - 1 are listed whole, since the
Hilbert function needs them, and then cut to the box; the levels past
d - 1 are grown inside it (`_grow`).  `max_scan` counts the whole levels
and the box representatives past them.  K_{3,4} to degree 8 holds 122 of
its 366 representatives and keeps 38 of its 46 homology calls, 6 of
them Euler counts.
Non-bipartite components are scanned whole: no such theorem is known for
them.

The scan is exact for every entry it can see: beta_{i,j} with j <= D is the
true value.  Whether the table is the *whole* resolution is a separate
certification question: it is when D reaches the sum of the components' top
degrees (see `known_complete_degree`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import combinations

from .complexes import SimplicialComplex, build_delta, maximal_masks
from .fiber import DEFAULT_MAX_FIBER, FiberOverflowError, _check_cap
from .graph import (
    EXHAUSTIVE_VERTEX_LIMIT,
    Graph,
    _Value,
    connected_components,
    incidence_rank,
    induced_subgraph,
    is_bipartite,
    odd_cycle_condition,
    recognize_complete_bipartite,
    twin_classes,
)
from .homology import RATIONALS, FieldSpec, _reduced_euler, homology_dimension, reduced_homology

DEFAULT_MAX_SCAN = 10**5


class ScanOverflowError(RuntimeError):
    """The semigroup scan visited more multidegrees, one per twin orbit, than
    the configured cap."""

    def __init__(self, limit: int, degree: int):
        super().__init__(
            f"scan overflow: more than {limit} scanned multidegrees (one per twin orbit) "
            f"before degree {degree}; raise the cap or lower the degree bound"
        )
        self.limit = limit
        self.degree = degree


def semigroup_levels(
    g: Graph,
    max_degree: int,
    max_scan: int = DEFAULT_MAX_SCAN,
    classes: Sequence[Sequence[int]] | _TwinGroup = (),
) -> list[list[tuple[int, ...]]]:
    """Semigroup elements grouped by level, one canonical representative per
    orbit of the twin group generated by `classes`: levels[d] holds, sorted,
    the canonical multidegrees that are sums of exactly d edge columns (total
    degree 2d).

    `classes` are classes of mutually twin vertices, as increasing vertex
    positions (see `twin_classes`), or the `_TwinGroup` they generate, which
    is then used as it is; a multidegree is canonical when its weights do
    not increase along each class.  With no classes the group is trivial
    and every element is listed.  `max_scan` caps the representatives
    listed, over all levels, not the elements they stand for.

    Complete by construction: any sum of d columns is a sum of d-1 columns
    plus one more, and twin swaps permute the columns, so translating the
    previous level's representatives by each column and taking canonical
    forms loses no orbit.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    _check_cap("max_scan", max_scan)
    if max_scan < 1:  # level 0 holds one representative, the zero vector
        raise ScanOverflowError(max_scan, 0)
    twins = classes if isinstance(classes, _TwinGroup) else _TwinGroup(g, classes)
    levels = [[(0,) * len(g.vertices)]]
    _grow(g, levels, max_degree, max_scan, twins, 1)
    return levels


def _grow(
    g: Graph,
    levels: list[list[tuple[int, ...]]],
    max_degree: int,
    max_scan: int,
    twins: _TwinGroup,
    held: int,
    box: tuple[int, ...] | None = None,
) -> int:
    """Append the levels past the top one of `levels` up to `max_degree`,
    each the canonical forms of the level below translated by every edge
    column, and return `held`, the representatives held so far, plus those
    appended; ScanOverflowError at the first level that takes it past
    `max_scan`.

    With a degree `box`, which the top level must lie in, a column is added
    only where the sum stays <= box entrywise.  The box is closed under
    r -> r - a_e, so its part of a level comes from its part of the level
    below; it is constant on twin classes (twins have one degree), so an
    orbit lies in it exactly when its representative does."""
    ends = g.edge_indices
    for d in range(len(levels), max_degree + 1):
        if box is None:
            nxt = {twins.up(r, iu, iv) for r in levels[-1] for iu, iv in ends}
        else:
            nxt = {
                twins.up(r, iu, iv)
                for r in levels[-1]
                for iu, iv in ends if r[iu] < box[iu] and r[iv] < box[iv]
            }
        if not nxt:
            break
        held += len(nxt)
        if held > max_scan:
            raise ScanOverflowError(max_scan, d)
        levels.append(sorted(nxt))
    return held


def _hilbert(levels: list[list[tuple[int, ...]]], twins: _TwinGroup) -> list[int]:
    """H(0), H(1), ...: the number of semigroup elements on each of the
    whole `levels`, every element of every orbit counted."""
    return [1] + [sum(map(twins.orbit_size, level)) for level in levels[1:]]


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
        adj, edge = g._adjacency, g._edge_lookup
        # swaps[a, b]: for each edge pair {a, w} <-> {b, w}, the two bits
        self.swaps: dict[tuple[int, int], tuple[int, ...]] = {}
        for cls in self.classes:
            for a, b in combinations(cls, 2):
                if adj[a] - {b} != adj[b] - {a}:
                    raise ValueError(f"vertices {a} and {b} are not twins")
                pairs = tuple(1 << edge[frozenset((a, w))] | 1 << edge[frozenset((b, w))]
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


class BettiTable(_Value):
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
    delta = build_delta(g, tuple(s), max_fiber=max_fiber)
    return homology_dimension(delta, i - 1, field)


def betti_table(
    g: Graph,
    max_degree: int | None = None,
    *,
    field: FieldSpec = RATIONALS,
    assume_complete: bool = False,
    max_fiber: int = DEFAULT_MAX_FIBER,
    max_scan: int = DEFAULT_MAX_SCAN,
    on_complex: Callable[[tuple[int, ...], SimplicialComplex], None] | None = None,
) -> BettiTable:
    """All Betti entries of standard degree <= max_degree.

    max_degree defaults to the edge count (a safe but often generous bound).
    Each connected component with an edge is scanned on its own, up to
    max_degree or its top degree, whichever is lower; the component tables
    are then convolved (Kuenneth) and cut at max_degree.  Each component's
    plan (`_Plan.levels`) gives its levels and top degree: a normal
    component's comes from its levels up to d - 1, so it is known only when
    max_degree >= d - 1; the table is certified when max_degree reaches the
    sum of the top degrees.  A bipartite component H is scanned only inside
    its degree box s <= deg_H, where all its Betti numbers live (see the
    module docstring).  `max_scan` caps the multidegrees held in all
    components together, one representative per twin orbit: each
    component's whole levels up to d - 1, which the Hilbert function
    needs, and for a bipartite component only the representatives in its
    box past them.  A negative `max_scan` or `max_fiber` is a ValueError.
    Each degree complex is built from the facets of the level below, not
    from its fiber, so `max_fiber` caps the facets of each degree complex
    (FiberOverflowError past it); a complex with more facets than that has
    more decompositions too.
    `on_complex(s, delta)` is invoked for every element s of the scanned
    semigroup, orbits expanded, that the scan builds a complex for: all of
    them in a component that is not bipartite, and those in the degree box
    in one that is.  s is the component's own multidegree (aligned with
    the component's vertices, in g's order) and delta its degree complex,
    component by component in the order of `connected_components`, each
    level by level in sorted order; it exists for audits.
    """
    if max_degree is None:
        max_degree = len(g.edges)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    _check_cap("max_fiber", max_fiber)
    _check_cap("max_scan", max_scan)
    entries: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * len(g.vertices)): 1}
    tops: list[int | None] = []
    scanned = 0
    for plan in _plans(g):
        levels, top, hvec, scanned = plan.levels(max_degree, max_scan, scanned)
        reg_pd = None if hvec is None else (len(hvec) - 1, len(plan.h.edges) - plan.d)
        local = _scan(plan.h, levels, plan.twins, field, max_fiber, on_complex, reg_pd)
        if hvec is not None and top <= max_degree:
            _check_k_polynomial(plan, hvec, local)
        positions = [g.index[v] for v in plan.h.vertices]
        entries = _convolve(entries, local, positions, 2 * max_degree)
        tops.append(top)

    known = None if None in tops else sum(tops)
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
    on_complex: Callable[[tuple[int, ...], SimplicialComplex], None] | None,
    reg_pd: tuple[int, int] | None,
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

    `reg_pd` is (reg, pd) of a Cohen-Macaulay ring, known from its
    h-vector: reg = deg h and pd = |E| - d (Hochster's theorem, as in
    `_Plan.levels`).  The ideal is generated in degree >= 2, so at standard
    degree j >= 1 beta_{i,j} is nonzero only for max(1, j - reg) <= i <=
    min(j - 1, pd).  Where that leaves one index i, which happens at j = 2,
    at the top degree pd + reg and at every j when reg = 1, the only
    homology of Delta_s is H~_{i-1}, so beta_{i,s} = (-1)^{i-1} times the
    reduced Euler characteristic (`_reduced_euler`), over every field: the
    Hilbert function, Cohen-Macaulayness and the Euler characteristic do
    not depend on it.  A negative count is an internal error.  Every other
    complex that is not a cone runs `reduced_homology`.
    """
    ground = tuple(h.edges)
    at: list[list[tuple[int, int, int]]] = [[] for _ in h.vertices]
    for e, (iu, iv) in enumerate(h.edge_indices):
        at[iu].append((1 << e, iu, iv))
        at[iv].append((1 << e, iu, iv))
    order = sorted(range(len(at)), key=lambda v: len(at[v]))
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    below: dict[tuple[int, ...], tuple[int, ...]] = {}
    for d, level in enumerate(levels):
        # the top level is never looked up, unless it is expanded
        keep = d + 1 < len(levels) or on_complex is not None
        only = None  # the one homological index left at degree d, if any
        if reg_pd is not None:
            lo, hi = max(1, d - reg_pd[0]), min(d - 1, reg_pd[1])
            only = lo if lo == hi else None
        here: dict[tuple[int, ...], tuple[int, ...]] = {}
        shared: dict[int, int] = {}  # one object per distinct mask held
        for r in level:
            masks = _facets(r, below, at, order, twins) if d else [0]
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
            if only is None:
                found = enumerate(reduced_homology(delta, field))
            else:
                beta = (-1) ** (only - 1) * _reduced_euler(delta)
                if beta < 0:
                    raise RuntimeError(
                        f"internal error: beta_{{{only},{r}}} = {beta} from the Euler "
                        "characteristic of a Cohen-Macaulay ring is negative"
                    )
                found = [(only, beta)]
            for i, dim in found:
                if not dim:
                    continue
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
    at: list[list[tuple[int, int, int]]],
    order: list[int],
    twins: _TwinGroup,
) -> list[int]:
    """Facets of the degree complex at a canonical s > 0, as edge bitmasks,
    from the facets held for the representatives of the level below.

    A facet F of Delta_s is the support of a decomposition of s: F is a
    face, so s - a_F = a_D for some decomposition D, F | supp D is a face
    too, and a facet already holds supp D.  A decomposition of s uses an
    edge at every vertex x with s_x >= 1, so F holds such an edge e, and F
    holding e is a face exactly when F - {e} is a face of Delta_{s-a_e}.
    So the facets of Delta_s are the maximal sets among G | {e}, where e
    runs over the edges at one vertex x with s_x >= 1 (both ends positive
    in s) and G over the facets of Delta_{s-a_e}: those of the
    representative of s - a_e, relabelled by the twin swaps that carry it
    to s - a_e.  x is a vertex with s_x = 1 if there is one, else any with
    s_x >= 1, the fewest edges first (`order`); `at` lists each vertex's
    edges.

    When s_x = 1, Delta_{s-a_e} has no edge at x, so every G | {e} is a
    facet and the sets from different e differ at x: no test is needed.
    Otherwise, when e is not in G, G | {e} is a facet already: a larger
    face F would make F - {e} a face of Delta_{s-a_e} larger than G.  So
    only the candidates G with e in G are tested.
    """
    x = -1
    for v in order:
        if s[v] == 1:
            x = v
            break
        if s[v] and x < 0:
            x = v
    pulled = _pulled(s, below, at[x], twins)
    if s[x] == 1:
        return [mask | bit for bit, mask in pulled]
    facets: set[int] = set()
    candidates: set[int] = set()
    for bit, mask in pulled:
        if mask & bit:
            candidates.add(mask)
        else:
            facets.add(mask | bit)
    return maximal_masks(candidates, facets)


def _pulled(
    s: tuple[int, ...],
    below: dict[tuple[int, ...], tuple[int, ...]],
    edges: list[tuple[int, int, int]],
    twins: _TwinGroup,
) -> Iterator[tuple[int, int]]:
    """(bit of e, G) for each of the `edges` e with both ends positive in
    canonical s and each facet G of Delta_{s-a_e}, relabelled from the
    facets held for its representative."""
    for bit, iu, iv in edges:
        if s[iu] and s[iv]:
            c, moves = twins.down(s, iu, iv)
            for mask in below.get(c, ()):
                for swaps in moves:
                    mask = _relabel(mask, swaps)
                yield bit, mask


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


def _h_vector(sizes: Sequence[int], d: int) -> list[int]:
    """The h-vector h_0, ..., h_{deg h} of a normal ring of dimension d
    whose Hilbert function starts H(0), ..., H(d - 1) = sizes[:d].

    The Hilbert series is h(t) / (1 - t)^d.  A normal ring has negative
    a-invariant deg h - d (Danilov-Stanley; Bruns-Herzog, Cohen-Macaulay
    Rings, 6.3), so deg h <= d - 1, and the coefficients of
    (1 - t)^d * sum_{n < d} H(n) t^n below t^d are h.  A normal ring is
    Cohen-Macaulay, so h is nonnegative; a negative coefficient is an
    internal error.
    """
    h = _times_one_minus_t(sizes[:d], d)
    while h[-1] == 0:
        h.pop()
    if min(h) < 0:
        raise RuntimeError(f"internal error: h-vector {h} of a normal ring has a negative entry")
    return h


def _times_one_minus_t(coeffs: Sequence[int], power: int) -> list[int]:
    """The coefficients of sum c_n t^n times (1 - t)^power, cut off after
    as many terms as `coeffs` has."""
    out = list(coeffs)
    for _ in range(power):
        for n in range(len(out) - 1, 0, -1):
            out[n] -= out[n - 1]
    return out


def _check_k_polynomial(
    plan: _Plan, hvec: list[int], table: dict[tuple[int, tuple[int, ...]], int]
) -> None:
    """Cross-check a component's finished Betti table against its h-vector:
    the alternating sum of the table, sum (-1)^i beta_{i,j} t^j, is the
    K-polynomial, the numerator of the Hilbert series over the edge
    polynomial ring, which is h(t) (1 - t)^{|E| - d}."""
    codim = len(plan.h.edges) - plan.d
    k = _times_one_minus_t(hvec + [0] * codim, codim)
    euler: dict[int, int] = {}
    for (i, s), b in table.items():
        euler[sum(s) // 2] = euler.get(sum(s) // 2, 0) + (-1) ** i * b
    if {j: c for j, c in euler.items() if c} != {j: c for j, c in enumerate(k) if c}:
        raise RuntimeError(
            f"internal error: the Betti table of a component disagrees with its h-vector {hvec}"
        )


class _Plan:
    """One connected component H with an edge, and what decides how far it
    is scanned: its incidence rank d; whether k[H] is normal, that is H is
    bipartite or satisfies the odd cycle condition (Ohsugi-Hibi, J. Algebra
    207, 1998), searched exhaustively up to EXHAUSTIVE_VERTEX_LIMIT
    vertices; the degree box deg_H of a bipartite H, None otherwise; its
    twin group; and its top degree in closed form: 0 when k[H] is free
    (d = |E|, no syzygies), reg + pd = (u-1)v for K_{u,v} with u <= v
    (`complete_bipartite_reg_pd`), None otherwise."""

    def __init__(self, h: Graph, bipartite: bool):
        self.h = h
        self.d = incidence_rank(h)
        self.normal = bipartite or (
            len(h.vertices) <= EXHAUSTIVE_VERTEX_LIMIT
            and odd_cycle_condition(h).status == "satisfied"
        )
        self.box = tuple(map(len, h._adjacency)) if bipartite else None
        self.twins = _TwinGroup(h, twin_classes(h))
        self.sides = recognize_complete_bipartite(h)
        closed = None if self.sides is None else sum(complete_bipartite_reg_pd(*self.sides))
        self.top = 0 if self.d == len(h.edges) else closed

    def levels(
        self, max_degree: int, max_scan: int, held: int = 0
    ) -> tuple[list[list[tuple[int, ...]]], int | None, list[int] | None, int]:
        """The levels to scan up to `max_degree`, the top degree (None if
        unknown), the h-vector (None unless the levels reach d - 1 of a
        normal ring) and `held` plus the representatives held, which
        `max_scan` caps (ScanOverflowError).

        A normal ring is Cohen-Macaulay (Hochster, Ann. Math. 96, 1972), so
        pd = |E| - d, reg = deg h and the resolution ends at degree
        pd + deg h, which the whole levels up to d - 1 fix (`_h_vector`);
        for K_{u,v} the sum cross-checks the closed form.  The levels are
        cut at the top degree and to the box, and grown past d - 1 inside
        it (`_grow`)."""
        h, d, twins = self.h, self.d, self.twins
        # K_{u,v}'s closed form lies no lower than d - 1; a free ring has
        # no syzygies, so level 0 is enough
        whole = 0 if self.top == 0 else d - 1 if self.normal else max_degree
        try:
            levels = semigroup_levels(h, min(max_degree, whole), max_scan - held, twins)
            held += sum(map(len, levels))
            top, hvec = self.top, None
            if self.normal and len(levels) == d:
                hvec = _h_vector(_hilbert(levels, twins), d)
                hilbert = len(h.edges) - d + len(hvec) - 1
                if self.sides is not None and hilbert != top:
                    raise RuntimeError(
                        f"internal error: K_{{{self.sides[0]},{self.sides[1]}}} has "
                        f"pd + deg h = {hilbert}, not the closed-form top degree {top}"
                    )
                top = hilbert
            stop = max_degree if top is None else min(max_degree, top)
            levels = levels[: stop + 1]
            if self.box is not None:
                levels = [[r for r in level if all(x <= b for x, b in zip(r, self.box))] for level in levels]
            held = _grow(h, levels, stop, max_scan, twins, held, self.box)
        except ScanOverflowError as exc:
            raise ScanOverflowError(max_scan, exc.degree) from None
        return levels, top, hvec, held


def _plans(g: Graph) -> list[_Plan]:
    """The plan of each connected component of g with an edge, as an
    induced subgraph of g, in the order of `connected_components`."""
    parts = (induced_subgraph(g, comp) for comp in connected_components(g))
    return [_Plan(h, bipartite) for h, bipartite in zip(parts, is_bipartite(g)) if h.edges]


def known_complete_degree(g: Graph) -> int | None:
    """Largest standard degree any Betti entry of k[G] can live in, when
    every connected component has a known top degree (`_Plan`): it is
    free, complete bipartite, or normal; None otherwise.

    A free or complete bipartite component's top degree is a closed form.
    Any other normal component's is read off its Hilbert function up to
    degree d - 1, so this scans those levels, under the default `max_scan`
    (ScanOverflowError past it).  Every class is Cohen-Macaulay, so the top
    degree adds up across a disjoint union.
    """
    tops = []
    for plan in _plans(g):
        top = plan.top
        if top is None and plan.normal:
            top = plan.levels(plan.d - 1, DEFAULT_MAX_SCAN)[1]
        tops.append(top)
    return None if None in tops else sum(tops)


class InvariantsReport(_Value):
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
