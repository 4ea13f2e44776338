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
(`_TwinGroup.orbit`) lists; only the audit (`_audit`), which relabels
facets, has it list the transpositions that reach each element too.
`max_scan` counts the representatives, the multidegrees the scan
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

One plan per component (`_Plan`) answers it: `_Plan.table` takes the
route, and the top degree, the largest standard degree of a Betti entry,
is the one `betti_table` and `known_complete_degree` both read.  The
routes rest on these theorems, each stated here once.

Top degrees.  A free ring (|E| = d, d = `incidence_rank`) has no
syzygies: 0.  k[K_{u,v}] with u <= v is the determinantal ring of the
2-minors of a generic u x v matrix, Cohen-Macaulay of dimension u + v - 1,
so reg = u - 1, pd = uv - (u + v - 1) = (u-1)(v-1), and the top degree is
(u-1)v (`complete_bipartite_reg_pd`).  k[H] is normal when H is bipartite
or satisfies the odd cycle condition (Ohsugi-Hibi, J. Algebra 207, 1998).
A normal ring is Cohen-Macaulay (Hochster, Ann. Math. 96, 1972), so
pd = |E| - d, reg = deg h and the resolution ends at degree pd + deg h;
its a-invariant deg h - d is negative (Danilov-Stanley; Bruns-Herzog,
Cohen-Macaulay Rings, 6.3), so deg h <= d - 1 and the level sizes H(0),
..., H(d - 1) fix the h-vector (`_h_vector`), which is nonnegative.  Such
a component is scanned to d - 1, and on to the top degree only if that
lies further.  The alternating sum of a finished table,
sum (-1)^i beta_{i,j} t^j, is the K-polynomial h(t) (1 - t)^{|E| - d},
which cross-checks it (`_check_k_polynomial`).  For bipartite H, reg <=
nu(H) - 1, with nu the matching number (Herzog-Hibi, Mathematics 8,
2020; `_matching_number`), which cross-checks h.

One homological index.  The ideal is generated in degree >= 2, so at
standard degree j >= 1 beta_{i,j} of a Cohen-Macaulay ring is nonzero only
for max(1, j - reg) <= i <= min(j - 1, pd).  Where that leaves one index
i, which happens at j = 2, at the top degree pd + reg and at every j when
reg = 1, the only homology of Delta_s is H~_{i-1}, so beta_{i,s} =
(-1)^{i-1} times its reduced Euler characteristic, over every field: the
Hilbert function, Cohen-Macaulayness and the Euler characteristic do not
depend on it.  There the scan counts chains instead of ranking boundaries
(`_scan`).  Level 0's complex, {empty set}, needs neither: beta_{0,0} = 1.
An entry of a finished table outside that window is an internal error
(`_check_k_polynomial`).

The canonical module.  With reg >= 2 the top three degrees of a normal ring
are not scanned but read off its canonical module omega
(`_Plan.canonical_entries`); only the audit scans their complexes.  k[H] is
Cohen-Macaulay, so the dual of its resolution resolves omega:
beta_{i,s}(k[H]) = beta_{pd-i, deg_H - s}(omega), with deg_H = A 1
(Bruns-Herzog, Cohen-Macaulay Rings, 3.3).  By Danilov-Stanley (ibid.
6.3.5) omega is spanned by the interior semigroup elements Omega, whose
least degree is k_min = d - reg, and beta_{j,t}(omega) is H~_{j-1} of
K^t = {F : t - a_F in Omega}.  The degrees pd + reg, pd + reg - 1 and
pd + reg - 2 of k[H] are omega's k_min + j, j = 0, 1, 2, and one rule
reads all three: a face F of K^t there has t - a_F on level k_min or
above, so it holds at most j edges, and K^t is a graph
(`_canonical_graph`) whose vertices are the edges e with t - a_e in Omega
one level down and whose edges are the pairs {e, f} with t - a_e - a_f in
Omega two levels down.  Both are empty at j = 0, where K^t is {empty set}
at an interior t; its homology, read off its components and cycles, is
the same over every field.  t = A lambda is interior iff every edge e has
lambda_e > 0 at some point of the polytope {lambda >= 0 : A lambda = t},
and then at one of its vertices; those are half-integral, as a basic
solution of the incidence matrix of a graph is (fractional b-matchings).
So t is interior iff 2t - a_e is in the semigroup for every edge e
(`_interior`).  A twin swap is an automorphism, so it maps the semigroup
onto itself: 2t - a_e lies in it iff its canonical form does, and each
canonical form is tested once.  Only t <= deg_H gives an entry, since
deg_H - t must lie in NA, and an interior t has every weight positive
(every vertex lies on an edge with lambda_e > 0), so a level k_min + 2
past the whole levels (level d, when reg = 2) is grown only inside the
degree box and only where every weight is positive, for non-bipartite
components too.  Stanley reciprocity,
H(omega; t) = t^d h(1/t) / (1 - t)^d, puts the sum over m <= j of
C(d - 1 + m, m) h_{reg-j+m} interior elements at level k_min + j (h_reg,
h_{reg-1} + d h_reg and h_{reg-2} + d h_{reg-1} + C(d + 1, 2) h_reg), which
cross-checks each level listed whole; there every interior element outside
the box must have an acyclic K^t.

Hypersurfaces.  A component with |E| = d + 1 is a hypersurface, and it is
not scanned.  Its toric ideal I_H is a prime of height |E| - d = 1 in the
edge polynomial ring, so it is principal (Matsumura, Commutative Ring
Theory, Thm 20.1); it is the lattice ideal of ker A (Sturmfels, Groebner
Bases and Convex Polytopes, Lemma 4.1), a line spanned by a primitive
vector u (`_relation`, from a search tree in O(|V| + |E|)).  So I_H is
generated by x^{u+} - x^{u-}: the table is beta_{0,0} = 1 and
beta_{1,Au+} = 1, and the top degree is |u+|, whether k[H] is normal or
not (even cycles, K_{2,2}, the bowtie, two odd cycles joined by a path).
The entry is certified by a computed complex: the fiber of Au+ is
{u+, u-}, so the degree complex there (`build_delta`) is the two disjoint
facets supp u+ and supp u-, with reduced homology [0, 1, 0, ...], and
anything else is an internal error (`_Plan.hypersurface_table`).  The
audit scans a hypersurface as far as any other component, its closed form
aside, and gets the same table.

The degree box.  A bipartite component H is scanned only inside its degree
box, the multidegrees s <= deg_H entrywise, because no Betti number of
k[H] lives outside it:

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
and the box representatives past them.  K_{3,4} to degree 8 holds 71 of
its 366 representatives: the 65 of the whole levels up to 5, where its
scan stops, and the 6 of level 6 = d in the box with every weight
positive, from which the canonical module reads degree 6 (its whole
level 6 in the box has 25).  It runs homology on 16 complexes past
level 0, 1 of them an Euler count; its degrees 6, 7 and 8 come from the
canonical module.  Audited to 8 (`_audit`), it holds 122 and runs
homology on 37, 6 of them Euler counts.
Non-bipartite components are scanned whole: no such theorem is known for
them.

The scan is exact for every entry it can see: beta_{i,j} with j <= D is the
true value.  Whether the table is the *whole* resolution is a separate
certification question: it is when D reaches the sum of the components' top
degrees (see `known_complete_degree`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import cached_property
from itertools import combinations, repeat
from math import comb
from operator import itemgetter, le

from .complexes import SimplicialComplex, build_delta, maximal_masks
from .fiber import DEFAULT_MAX_FIBER, FiberOverflowError, _check_cap, decomposition_degree, in_semigroup
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

    `classes` are disjoint classes of mutually twin vertices, each as
    strictly increasing vertex positions, 0 to |V| - 1 (see
    `twin_classes`), or the `_TwinGroup` they generate, which is then used
    as it is; any other classes are a ValueError.  A multidegree is
    canonical when its weights do not increase along each class.  With no
    classes the group is trivial and every element is listed.  `max_scan`
    caps the representatives listed, over all levels, not the elements
    they stand for.

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
    positive: bool = False,
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
    orbit lies in it exactly when its representative does.  With
    `positive` as well, a column a_e is added to r only where r's zeros
    lie at e's two ends, so the appended level holds the sums in the box
    with every weight positive, and all of them: t - a_e has its zeros
    at e's ends for every edge e that a decomposition of such a t uses."""
    ends = g.edge_indices
    for d in range(len(levels), max_degree + 1):
        if box is None:
            nxt = {twins.up(r, iu, iv) for r in levels[-1] for iu, iv in ends}
        elif positive:
            nxt = {
                twins.up(r, iu, iv)
                for r in levels[-1]
                for zeros in [r.count(0)] if zeros <= 2
                for iu, iv in ends
                if r[iu] < box[iu] and r[iv] < box[iv] and (r[iu] == 0) + (r[iv] == 0) == zeros
            }
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


def _boxed(level: list[tuple[int, ...]], box: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The representatives of `level` that lie in `box` entrywise."""
    return [r for r in level if all(map(le, r, box))]


def _orbit_sizes(levels: list[list[tuple[int, ...]]], twins: _TwinGroup) -> list[list[int]]:
    """The orbit size of each representative on the whole `levels`, level
    0's zero vector 1 without a count; H(n), the number of semigroup
    elements on level n, is the sum of level n's sizes."""
    return [[1]] + [list(map(twins.orbit_size, level)) for level in levels[1:]]


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
    orbit; it and `down` list the transpositions, as pairs of edge bits for
    `_relabel`, only when asked.  `up`, `down`, `orbit` and `orbit_size`
    are the whole interface: the class links (`before`, `after`, read by
    `_slide`) and the swap pairs are read nowhere else.
    """

    def __init__(self, g: Graph, classes: Sequence[Sequence[int]]):
        n = len(g.vertices)
        self.classes = tuple(tuple(c) for c in classes)
        flat = [v for cls in self.classes for v in cls]
        if len(set(flat)) < len(flat) or not set(flat) <= set(range(n)) or any(
            list(cls) != sorted(cls) for cls in self.classes
        ):
            raise ValueError(f"twin classes {self.classes} are not disjoint increasing vertex positions")
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

    def down(self, r: tuple[int, ...], iu: int, iv: int, moves: bool = False) -> tuple:
        """The canonical form c of r - a_e, e = {iu, iv}, for canonical r
        with r[iu], r[iv] >= 1.  With `moves`, for the facets pulled from
        the level below (`_pulled`), it comes as (c, swaps): the swaps that
        carry c's edge masks to r - a_e's, in the order to apply them; they
        are built only then."""
        c = list(r)
        p = _slide(c, iu, self.after)
        c[p] -= 1
        w = iu if iv == p else iv  # (iu p) relabels iv
        q = _slide(c, w, self.after)
        c[q] -= 1
        if not moves:
            return tuple(c)
        # r - a_e = (iu p)(w q) c: relabel by (w q) first
        swaps = [self.swaps[w, q]] if q != w else []
        if p != iu:
            swaps.append(self.swaps[iu, p])
        return tuple(c), swaps

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

    def orbit(self, r: tuple[int, ...], moves: bool = False) -> list:
        """Every element t of r's orbit, each once.  Class by class, each
        vertex in turn takes each distinct weight still to its right, from
        the first vertex holding it.  With `moves`, for the audit
        (`_audit`), which relabels facets, each t comes as (t, swaps): the swaps
        that carry r's edge masks to t's, in the order to apply them; they
        are built only then."""
        orbit, paths = [r], [()]
        for cls in self.classes:
            for k, a in enumerate(cls[:-1]):
                nxt, ways = [], []
                for n, t in enumerate(orbit):
                    taken = set()
                    for b in cls[k:]:
                        x = t[b]
                        if x in taken:
                            continue
                        taken.add(x)
                        if b == a:
                            nxt.append(t)
                        else:
                            u = list(t)
                            u[a], u[b] = x, t[a]
                            nxt.append(tuple(u))
                        if moves:
                            ways.append(paths[n] if b == a else paths[n] + (self.swaps[a, b],))
                orbit, paths = nxt, ways
        return list(zip(orbit, paths)) if moves else orbit


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

    def _by_degree(self) -> list[tuple[int, tuple[int, ...], int, int]]:
        """(|s|, s, i, beta_{i,s}) for every entry, sorted by total degree,
        then multidegree, then homological index: the order of a report."""
        return sorted([(sum(s), s, i, v) for (i, s), v in self.entries.items()])

    def sorted_entries(self) -> list[tuple[int, tuple[int, ...], int]]:
        return [(i, s, v) for _, s, i, v in self._by_degree()]

    def standard_graded(self) -> dict[tuple[int, int], int]:
        """Collapse to the standard grading: beta_{i,j} with j = |s| / 2."""
        out: dict[tuple[int, int], int] = {}
        for (i, s), v in self.entries.items():
            key = (i, sum(s) // 2)
            out[key] = out.get(key, 0) + v
        return out

    def _extent(self) -> tuple[int, int]:
        """(pd, reg): the largest homological index i and the largest
        |s| / 2 - i over the entries, beta_{0,0} = 1 among them, in one
        pass that sums each degree once."""
        pd = reg = 0
        for i, s in self.entries:
            if i > pd:
                pd = i
            r = sum(s) // 2 - i
            if r > reg:
                reg = r
        return pd, reg

    def projective_dimension(self) -> int:
        return self._extent()[0]

    def regularity(self) -> int:
        return self._extent()[1]


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
) -> BettiTable:
    """All Betti entries of standard degree <= max_degree.

    max_degree defaults to the edge count (a safe but often generous bound).
    Each connected component with an edge is answered on its own by its
    plan (`_Plan.table`), up to max_degree or its top degree, whichever is
    lower; the component tables are then convolved (Kuenneth) and cut at
    max_degree.  The table is certified when max_degree reaches the sum of
    the components' top degrees; a normal component's is known only when
    max_degree >= d - 1.  `max_scan` caps the multidegrees held in all
    components together, one representative per twin orbit: each
    component's whole levels up to d - 1, which the Hilbert function
    needs, and for a bipartite component only the representatives in its
    degree box past them, as for the part of level d in the box, every
    weight positive, that the canonical module reads when reg = 2; a
    hypersurface that is not scanned holds level 0, as a free component
    does.  A negative `max_scan` or `max_fiber` is a ValueError.
    Each degree complex is built from the facets of the level below, not
    from its fiber, so `max_fiber` caps the facets of each degree complex
    (FiberOverflowError past it); a complex with more facets than that has
    more decompositions too.  `_audit` scans every complex behind the
    same entries.
    """
    if max_degree is None:
        max_degree = len(g.edges)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    _check_cap("max_fiber", max_fiber)
    _check_cap("max_scan", max_scan)
    unit = {(0, (0,) * len(g.vertices)): 1}
    entries: dict[tuple[int, tuple[int, ...]], int] = unit
    tops: list[int | None] = []
    held = 0
    for plan in _plans(g):
        local, held = plan.table(max_degree, field, max_fiber, max_scan, held)
        if entries is unit and plan.h.vertices == g.vertices:
            entries = local  # Kuenneth with k, on all of g, is the identity
        else:
            positions = [g.index[v] for v in plan.h.vertices]
            entries = _convolve(entries, local, positions, 2 * max_degree)
        tops.append(plan.top)

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


def _audit(
    g: Graph,
    on_complex: Callable[[tuple[int, ...], SimplicialComplex], None],
    max_degree: int,
    field: FieldSpec = RATIONALS,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> dict[tuple[int, tuple[int, ...]], int]:
    """The entries of `betti_table(g, max_degree)` from a plain scan of
    each component, for tests: no closed form, no canonical module.
    `on_complex(s, delta)` gets every element s, orbits expanded, that the
    scan builds a complex for (in the degree box of a bipartite
    component), with s on the component's vertices, component by
    component, level by level in sorted order.  A component is cut at its
    top degree once its levels or a closed form other than a
    hypersurface's fix it, and then checked against its K-polynomial."""
    entries = {(0, (0,) * len(g.vertices)): 1}
    held = 0
    for plan in _plans(g):
        levels, sizes, held = plan.hilbert(max_degree, max_scan, held)
        cut = plan.top if sizes is not None or plan.relation is None else None
        rows, held = plan.rows(levels, max_degree, cut, max_scan, held)
        reg_pd = None if plan.hvec is None else (len(plan.hvec) - 1, plan.codim)
        local = _scan(plan.h, rows, plan.twins, field, DEFAULT_MAX_FIBER, reg_pd, on_complex)
        if plan.hvec is not None and plan.top <= max_degree:
            _check_k_polynomial(plan, local)
        entries = _convolve(entries, local, [g.index[v] for v in plan.h.vertices], 2 * max_degree)
    return entries


def _scan(
    h: Graph,
    levels: list[list[tuple[int, ...]]],
    twins: _TwinGroup,
    field: FieldSpec,
    max_fiber: int,
    reg_pd: tuple[int, int] | None,
    on_complex: Callable[[tuple[int, ...], SimplicialComplex], None] | None = None,
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Betti entries of one graph at the semigroup elements whose canonical
    representatives `levels` holds.

    Degree complexes of the representatives are built level by level from
    the facets of the level below (`_facets`), held as edge bitmasks for two
    levels at a time; a `SimplicialComplex` is made on those masks only for
    the complexes that are not cones.  beta_{i,t} is the same for every t
    in an orbit (`_TwinGroup.orbit`), so a nonzero entry is written for the
    whole orbit.  `on_complex`, which only `_audit` passes, gets each
    level expanded in sorted order: every element t with its
    representative's facets, relabelled by the swaps that reach t.

    `reg_pd` is (reg, pd) of a Cohen-Macaulay ring, known from its
    h-vector.  At a standard degree j >= 1 where max(1, j - reg) <= i <=
    min(j - 1, pd) leaves one index i (see the module docstring),
    beta_{i,s} is (-1)^{i-1} times the reduced Euler characteristic
    (`_reduced_euler`); a negative count is an internal error.  Level 0's
    complex is {empty set}, so beta_{0,0} = 1 is written without homology;
    every other complex that is not a cone runs `reduced_homology`.
    """
    ground, at = tuple(h.edges), h._incident
    order = sorted(range(len(at)), key=lambda v: len(at[v]))
    # level 0's complex is {empty set}: beta_{0,0} = 1, with no homology run
    entries = {(0, (0,) * len(h.vertices)): 1}
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
            if not d:
                continue
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
                for t in twins.orbit(r):
                    entries[(i, t)] = dim
        if on_complex is not None:
            expanded = sorted((t, moves, r) for r in level for t, moves in twins.orbit(r, True))
            for t, moves, r in expanded:
                masks = here[r]
                for swaps in moves:
                    masks = [_relabel(mask, swaps) for mask in masks]
                on_complex(t, SimplicialComplex(ground, masks))
        below = here
    return entries


def _facets(
    s: tuple[int, ...],
    below: dict[tuple[int, ...], tuple[int, ...]],
    at: tuple[tuple[tuple[int, int], ...], ...],
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
    edges with their other ends (`Graph._incident`).

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
    pulled = _pulled(s, below, x, at[x], twins)
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
    x: int,
    edges: tuple[tuple[int, int], ...],
    twins: _TwinGroup,
) -> Iterator[tuple[int, int]]:
    """(bit of e, G) for each of the `edges` e = {x, w}, given as (e, w),
    with w positive in canonical s (s_x is) and each facet G of
    Delta_{s-a_e}, relabelled from the facets held for its
    representative."""
    for e, w in edges:
        if s[w]:
            bit = 1 << e
            c, moves = twins.down(s, x, w, True)
            for mask in below.get(c, ()):
                for swaps in moves:
                    mask = _relabel(mask, swaps)
                yield bit, mask


def _interior(h: Graph, t: tuple[int, ...], twins: _TwinGroup) -> bool:
    """Whether t, a canonical element of the edge semigroup of h with every
    weight positive, lies in the relative interior of its cone: t =
    A lambda for some lambda > 0.

    That holds iff 2t - a_e is in the semigroup (`in_semigroup`) for every
    edge e, by the half-integral vertices of the module docstring.  A twin
    swap is an automorphism of h, so it maps the semigroup onto itself:
    2t - a_e is in it iff its canonical form (`_TwinGroup.down`) is, and
    each canonical form is tested once, in edge order."""
    two = tuple(2 * x for x in t)
    forms = dict.fromkeys(twins.down(two, iu, iv) for iu, iv in h.edge_indices)
    return all(in_semigroup(h, c) for c in forms)


def _canonical_graph(
    h: Graph,
    t: tuple[int, ...],
    inner: set[tuple[int, ...]],
    omega: list[tuple[int, ...]],
    twins: _TwinGroup,
) -> list[int]:
    """The reduced homology [H~_{-1}, H~_0, H~_1] of the canonical module's
    degree complex K^t = {F : t - a_F in Omega} at a canonical t >= 1 on
    level k_min + j, j <= 2, or [] where t is not interior and K^t is void.

    Omega starts at level k_min, so a face holds at most j edges: K^t is a
    graph.  Its vertices are the edges e with t - a_e in Omega one level
    down, whose representatives `inner` holds, and its edges the pairs
    {e, f}, e != f, with a_e + a_f = t - w for w among `omega`, the
    elements of Omega two levels down: the four ends of t - w, repeats
    included, pair off in three ways.  At level k_min both are empty, and
    at k_min + 1 `omega` is.  Omega + NA lies in Omega, so K^t is a
    simplicial complex, and an edge of it outside its vertices is an
    internal error.  With c components, H~_0 = c - 1 and H~_1 = |E| - |V|
    + c; with no vertex, K^t is {empty set} when t is interior
    (`_interior`), and void otherwise."""
    lookup = h._edge_lookup
    steps = h.edge_indices if inner else ()  # level k_min has no level below to step down to
    vertices = {e for e, (iu, iv) in enumerate(steps) if twins.down(t, iu, iv) in inner}
    edges = set()
    for w in omega:
        rest = [x - y for x, y in zip(t, w)]
        if min(rest) < 0:
            continue
        a, b, c, d = (v for v, x in enumerate(rest) for _ in range(x))
        for one, two in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            e, f = lookup.get(frozenset(one)), lookup.get(frozenset(two))
            if e is not None and f is not None and e != f:
                edges.add((min(e, f), max(e, f)))
    root = {e: e for e in vertices}  # a forest over each component
    parts = len(vertices)
    for pair in edges:
        if not vertices.issuperset(pair):
            raise RuntimeError(
                f"internal error: the degree complex of omega at {t} has the edge {pair} "
                f"outside its vertices {sorted(vertices)}"
            )
        ends = []
        for x in pair:
            while root[x] != x:
                x = root[x]
            ends.append(x)
        if ends[0] != ends[1]:
            root[ends[0]] = ends[1]
            parts -= 1
    if not vertices:
        return [1, 0, 0] if _interior(h, t, twins) else []
    return [0, parts - 1, len(edges) - len(vertices) + parts]


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
    products of total degree above `max_total` are dropped.  s1 is 0 on
    the component, so s is one C-level read of the tuple s1 + s2, made
    once (`itemgetter`): position p of g reads s2 where the component has
    it and s1 elsewhere.  Each component entry's degree is summed once."""
    width = len(next(iter(union))[1])  # at least 2: a component has an edge
    at = dict(zip(positions, range(width, width + len(positions))))
    place = itemgetter(*(at.get(p, p) for p in range(width)))
    parts = [(i2, s2, sum(s2), b2) for (i2, s2), b2 in component.items()]
    out: dict[tuple[int, tuple[int, ...]], int] = {}
    for (i1, s1), b1 in union.items():
        room = max_total - sum(s1)
        for i2, s2, total, b2 in parts:
            if total > room:
                continue
            key = (i1 + i2, place(s1 + s2))
            out[key] = out.get(key, 0) + b1 * b2
    return out


def complete_bipartite_reg_pd(u: int, v: int) -> tuple[int, int]:
    """Regularity u - 1 and projective dimension (u-1)(v-1) of k[K_{u,v}]
    for 1 <= u <= v, a determinantal ring (see the module docstring)."""
    return u - 1, (u - 1) * (v - 1)


def _h_vector(sizes: Sequence[int], d: int) -> list[int]:
    """The h-vector h_0, ..., h_{deg h} of a normal ring of dimension d
    whose Hilbert function starts H(0), ..., H(d - 1) = sizes[:d].

    The Hilbert series is h(t) / (1 - t)^d and deg h <= d - 1 (see the
    module docstring), so the coefficients of (1 - t)^d * sum_{n < d}
    H(n) t^n below t^d are h.  h is nonnegative; a negative coefficient is
    an internal error.
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


def _check_k_polynomial(plan: _Plan, table: dict[tuple[int, tuple[int, ...]], int]) -> None:
    """Cross-check a component's finished Betti table against its h-vector:
    the alternating sum of the table, sum (-1)^i beta_{i,j} t^j, is the
    K-polynomial, the numerator of the Hilbert series over the edge
    polynomial ring, which is h(t) (1 - t)^{|E| - d}.  Every entry past
    beta_{0,0} must also lie in the Cohen-Macaulay window max(1, j - reg)
    <= i <= min(j - 1, pd) of the module docstring."""
    hvec, codim = plan.hvec, plan.codim
    reg = len(hvec) - 1
    k = _times_one_minus_t(hvec + [0] * codim, codim)
    # the window of each degree 1 <= j <= pd + reg, and none past it
    window = {j: range(max(1, j - reg), min(j - 1, codim) + 1) for j in range(1, len(k))}
    euler = [0] * len(k)
    for (i, s), b in table.items():
        j = sum(s) // 2
        if j and i not in window.get(j, ()):
            raise RuntimeError(
                f"internal error: beta_{{{i},{s}}} lies outside the Cohen-Macaulay window "
                f"of a component with h-vector {hvec} and pd {codim}"
            )
        euler[j] += -b if i & 1 else b
    if euler != k:
        raise RuntimeError(
            f"internal error: the Betti table of a component disagrees with its h-vector {hvec}"
        )


def _relation(h: Graph) -> tuple[int, ...]:
    """The primitive integer vector u spanning ker A, one entry per edge of
    h, for a connected graph h with |E| = d + 1; u is fixed up to sign.

    A search tree T from the first vertex r leaves |E| - |V| + 1 edges
    outside it: one when h is bipartite, two when it is not.  Each such
    edge f = {a, b} closes the walk r -> a along T, f, b -> r along T,
    signed alternately from +1 at r.  A walk of even length is a cycle
    (its tree path to the fork is walked out and back with opposite signs)
    and its vector w lies in ker A.  A walk of odd length ends on the sign
    it starts with, so A w = 2 e_r, and the difference of two such walks
    lies in ker A.  So u is an even walk's vector if there is one, else the
    difference of the two odd ones.  Either way u is +-1 at an edge f that
    no other walk uses, so u is primitive: ker A is a line, and u generates
    its integer points.  O(|V| + |E|).
    """
    ends, at = h.edge_indices, h._incident
    depth = [-1] * len(h.vertices)
    parent = [-1] * len(h.vertices)  # the tree edge to each vertex's parent
    depth[0], order = 0, [0]
    for v in order:  # breadth first, the queue growing as it is read
        for e, w in at[v]:
            if depth[w] < 0:
                depth[w], parent[w] = depth[v] + 1, e
                order.append(w)
    odd = []
    for f, (a, b) in enumerate(ends):
        if f in (parent[a], parent[b]):
            continue
        even = (depth[a] + depth[b]) % 2  # the walk has depth a + depth b + 1 edges
        w = [0] * len(ends)
        w[f] = (-1) ** depth[a]
        for x, sign in ((a, 1), (b, -1 if even else 1)):
            while depth[x]:  # the tree edge into x is step depth[x] - 1 out of r
                e = parent[x]
                w[e] += sign * (-1) ** (depth[x] - 1)
                iu, iv = ends[e]
                x = iu + iv - x
        if even:
            return tuple(w)
        odd.append(w)
    first, second = odd
    return tuple(x - y for x, y in zip(first, second))


def _matching_number(h: Graph) -> int:
    """nu(h), the size of a largest matching of a connected bipartite graph
    h, by augmenting paths: each vertex of colour 0 (`Graph._components`)
    in turn searches breadth first along alternating paths for an
    unmatched vertex of colour 1, and flips the path it finds.  A matching
    with no augmenting path is maximum (Berge).  O(|V| |E|)."""
    ((_, color, _),) = h._components
    at = h._incident
    match = [-1] * len(h.vertices)  # each vertex's partner, or -1
    size = 0
    for root, side in enumerate(color):
        if side:
            continue
        came = {}  # colour-1 vertex -> the colour-0 vertex it was reached from
        queue, end = [root], -1
        for x in queue:
            for _, y in at[x]:
                if y in came:
                    continue
                came[y] = x
                if match[y] < 0:
                    end = y
                    break
                queue.append(match[y])
            if end >= 0:
                break
        if end < 0:
            continue
        while end >= 0:  # flip the path back to the root
            x = came[end]
            nxt = match[x]
            match[x], match[end] = end, x
            end = nxt
        size += 1
    return size


class _Plan:
    """One connected component H with an edge, and the route that answers
    it (`table`).

    Its incidence rank d = dim k[H] and its codimension |E| - d, the pd of
    k[H] where that is Cohen-Macaulay; for a hypersurface (|E| = d + 1)
    the primitive vector u of ker A (`_relation`); the sides (u, v) of
    H = K_{u,v}; its top degree `top`, 0 when k[H] is free, |u+| for a
    hypersurface, (u-1)v for K_{u,v} with u <= v
    (`complete_bipartite_reg_pd`), and otherwise None until the levels of
    a normal ring fix it (`hilbert`); its h-vector `hvec`, None until
    then; and deg_H = A 1, which is the degree box of a bipartite H (`box`,
    None otherwise).

    Whether k[H] is `normal`, H bipartite or satisfying the odd cycle
    condition, searched exhaustively up to EXHAUSTIVE_VERTEX_LIMIT
    vertices, and its twin group `twins` are made when first read, so a
    hypersurface answered in closed form builds neither.
    """

    def __init__(self, h: Graph, bipartite: bool):
        self.h = h
        self.d = incidence_rank(h)
        self.codim = len(h.edges) - self.d
        self.relation = _relation(h) if self.codim == 1 else None
        self.sides = recognize_complete_bipartite(h)
        self.hvec: list[int] | None = None
        if self.codim == 0:
            self.top: int | None = 0
        elif self.relation is not None:
            self.top = sum(x for x in self.relation if x > 0)
        else:
            self.top = None if self.sides is None else sum(complete_bipartite_reg_pd(*self.sides))
        self.degrees = tuple(map(len, h._incident))  # deg_H = A 1
        self.box = self.degrees if bipartite else None

    @cached_property
    def normal(self) -> bool:
        return self.box is not None or (
            len(self.h.vertices) <= EXHAUSTIVE_VERTEX_LIMIT
            and odd_cycle_condition(self.h).status == "satisfied"
        )

    @cached_property
    def twins(self) -> _TwinGroup:
        return _TwinGroup(self.h, twin_classes(self.h))

    def table(
        self,
        max_degree: int,
        field: FieldSpec,
        max_fiber: int,
        max_scan: int,
        held: int,
    ) -> tuple[dict[tuple[int, tuple[int, ...]], int], int]:
        """H's Betti entries up to `max_degree`, and `held` plus the
        multidegrees H holds, which `max_scan` caps together with the
        `held` before it (ScanOverflowError).  This is the one place that
        takes H's route; the routes rest on the theorems stated in the
        module docstring:

        - A hypersurface holds level 0, as a free component does, and its
          table is written from u (`hypersurface_table`): I_H is a
          principal prime (Matsumura, Thm 20.1), the lattice ideal of
          ker A (Sturmfels, Lemma 4.1).
        - Any other component lists its whole levels (`hilbert`), cuts
          them at its top degree and to its degree box when H is
          bipartite (Sturmfels, ch. 8; Herzog-Hibi, 3.3), grows them past
          d - 1 inside the box (`_grow`) and scans them (`_scan`).  The
          top degree is 0 when free, (u-1)v for K_{u,v} (a determinantal
          ring), pd + deg h for a normal ring (Ohsugi-Hibi), which is
          Cohen-Macaulay (Hochster) with negative a-invariant
          (Danilov-Stanley), once its levels fix its h-vector.  A normal
          ring's degrees that leave one homological index are answered
          by an Euler count.
        - A normal component with reg >= 2 whose top degree `max_degree`
          reaches has its top three degrees read off the canonical module
          (`canonical_entries`; Bruns-Herzog, 3.3; Danilov-Stanley;
          half-integral vertices; Stanley reciprocity), and its levels
          stop three degrees short of the top.  Omega's level k_min + 2
          is whole when reg >= 3; when reg = 2 it is level d, whose part
          inside the degree box deg_H with every weight positive, where
          its interior elements lie, is grown from level d - 1 (`_grow`,
          whose representatives count against `max_scan`), unless the
          scanned levels already reach it.  The scan's own levels are
          grown only where the whole levels stop short of its last
          degree.  With reg = 1 only the top level would go, one Euler
          count per complex, which measured no slower than the interior
          tests, so it is scanned.
        - A table that reaches the top degree fixed by an h-vector is
          checked against the K-polynomial and the Cohen-Macaulay window
          (`_check_k_polynomial`)."""
        if self.relation is not None:
            if held >= max_scan:
                raise ScanOverflowError(max_scan, 0)
            return self.hypersurface_table(max_degree, field, max_fiber), held + 1
        levels, sizes, held = self.hilbert(max_degree, max_scan, held)
        canonical = sizes is not None and len(self.hvec) > 2 and self.top <= max_degree
        cut = self.top - 3 if canonical else self.top
        rows, held = self.rows(levels, max_degree, cut, max_scan, held)
        tail = {}
        if canonical:
            if len(self.hvec) == 3:  # reg 2: omega's level k_min + 2 is level d
                d, near = self.d, rows
                if len(rows) <= d:  # grow its positive part in the box from level d - 1
                    near = levels[:-1] + [_boxed(levels[-1], self.degrees)]
                    held = _grow(self.h, near, d, max_scan, self.twins, held, self.degrees, True)
                levels = levels + (near[d:d + 1] or [[]])
            tail = self.canonical_entries(levels, sizes)
        reg_pd = None if self.hvec is None else (len(self.hvec) - 1, self.codim)
        entries = _scan(self.h, rows, self.twins, field, max_fiber, reg_pd)
        entries.update(tail)
        if self.hvec is not None and self.top <= max_degree:
            _check_k_polynomial(self, entries)
        return entries, held

    def rows(
        self, levels: list[list[tuple[int, ...]]], max_degree: int, cut: int | None,
        max_scan: int, held: int,
    ) -> tuple[list[list[tuple[int, ...]]], int]:
        """The levels to scan, up to `max_degree` or `cut` if lower: the
        whole `levels` cut there and to the degree box when H is bipartite,
        then grown inside it (`_grow`); and `held` plus those grown."""
        stop = max_degree if cut is None else min(max_degree, cut)
        rows = levels[: stop + 1]
        if self.box is not None:
            rows = [_boxed(level, self.box) for level in rows]
        if len(rows) <= stop:
            held = _grow(self.h, rows, stop, max_scan, self.twins, held, self.box)
        return rows, held

    def hilbert(
        self, max_degree: int, max_scan: int, held: int = 0
    ) -> tuple[list[list[tuple[int, ...]]], list[list[int]] | None, int]:
        """The whole levels up to `max_degree`, listed by
        `semigroup_levels`; their orbit sizes where they fix the h-vector,
        else None; and `held` plus the representatives listed, which
        `max_scan` caps (ScanOverflowError).

        The levels stop at d - 1 for a normal ring and at 0 for a free
        one.  Where they reach d - 1 of a normal ring they fix `hvec`
        (`_h_vector`) and `top`, the degree codim + deg h, which a closed
        form must equal; on a bipartite H, reg = deg h must be at most
        nu(H) - 1 (Herzog-Hibi; `_matching_number`)."""
        h, d = self.h, self.d
        # K_{u,v}'s closed form lies no lower than d - 1; a free ring has
        # no syzygies, so level 0 is enough
        whole = 0 if self.top == 0 else d - 1 if self.normal else max_degree
        try:
            levels = semigroup_levels(h, min(max_degree, whole), max_scan - held, self.twins)
        except ScanOverflowError as exc:
            raise ScanOverflowError(max_scan, exc.degree) from None
        held += sum(map(len, levels))
        if not (len(levels) == d and self.normal):
            return levels, None, held
        sizes = _orbit_sizes(levels, self.twins)
        hvec = _h_vector(list(map(sum, sizes)), d)
        top = self.codim + len(hvec) - 1
        nu = None if self.box is None else _matching_number(h)
        if nu is not None and len(hvec) > nu:
            raise RuntimeError(
                f"internal error: a bipartite component has reg = deg h = {len(hvec) - 1} "
                f"past nu - 1 = {nu - 1}, from its h-vector {hvec}"
            )
        if self.top not in (None, top):
            name = "a component" if self.sides is None else f"K_{{{self.sides[0]},{self.sides[1]}}}"
            raise RuntimeError(
                f"internal error: {name} has pd + deg h = {top}, "
                f"not the closed-form top degree {self.top}"
            )
        self.top, self.hvec = top, hvec
        return levels, sizes, held

    def canonical_entries(
        self, levels: list[list[tuple[int, ...]]], sizes: list[list[int]]
    ) -> dict[tuple[int, tuple[int, ...]], int]:
        """The Betti entries of a normal ring with reg = deg h >= 2 at its
        top degrees pd + reg, pd + reg - 1 and pd + reg - 2, from its
        h-vector `hvec`, the whole `levels` up to d - 1 with their orbit
        `sizes`, and, when reg = 2, level d's representatives in the degree
        box deg_H with every weight positive (at least) as the last of
        `levels`, by the duality with the canonical module omega stated in
        the module docstring.

        The interior elements Omega start at level k_min = d - reg.  One
        rule reads the levels k_min + j, j = 0, 1, 2: K^t is a graph
        (`_canonical_graph`) on the edges e with t - a_e in Omega one level
        down, joined where t - a_e - a_f is in Omega two levels down, and
        its reduced homology H~_{i-1} gives beta_{pd-i, deg_H - t}, over
        every field; it is {empty set} at every interior t of level k_min.
        Every interior t has t >= 1 (`_interior` tests it).  Only t <=
        deg_H gives an entry, since deg_H - t must lie in NA, so where
        level k_min + 2 is not whole its part in the box with every
        weight positive is enough.

        Cross-checks, each an internal error when it fails: the interior
        elements counted on each level listed whole (all three when reg >=
        3) against Stanley reciprocity, sum over m <= j of
        C(d - 1 + m, m) h_{reg-j+m}; an acyclic K^t at every interior
        element outside the box on such a level; and every entry at a
        multidegree >= 0.  The counts and the orbits are twin-invariant, so
        each is taken once per representative."""
        h, d, twins, hvec = self.h, self.d, self.twins, self.hvec
        reg, pd, deg = len(hvec) - 1, self.codim, self.degrees
        k = d - reg
        found, counts, expected = [], [], []
        interior = [set(), set()]  # the representatives of Omega, level by level
        for j in range(3):
            whole = k + j < len(sizes)
            omega = [t for r in interior[-2] for t in twins.orbit(r)]
            here, count = set(), 0
            for r, n in zip(levels[k + j], sizes[k + j] if whole else repeat(0)):
                if not min(r):
                    continue
                inside = all(map(le, r, deg))
                if not (inside or whole):
                    continue
                ranks = _canonical_graph(h, r, interior[-1], omega, twins)
                if not ranks:
                    continue  # r is not interior
                here.add(r)
                count += n
                if inside:
                    found += [(pd - i, r, beta) for i, beta in enumerate(ranks) if beta]
                elif any(ranks):
                    raise RuntimeError(
                        f"internal error: the interior element {r} outside the degree box {deg} "
                        f"has a degree complex with reduced homology {ranks}"
                    )
            interior.append(here)
            if whole:  # [t^(k + j)] of t^d h(1/t) / (1 - t)^d
                counts.append(count)
                expected.append(sum(comb(d - 1 + m, m) * hvec[reg - j + m] for m in range(j + 1)))
        if counts != expected:
            raise RuntimeError(
                f"internal error: a component has {counts} interior elements at degrees "
                f"{k} and up, not the {expected} that its h-vector {hvec} gives"
            )
        entries = {}
        for i, r, beta in found:
            for t in twins.orbit(r):
                s = tuple(x - y for x, y in zip(deg, t))
                if min(s) < 0:
                    raise RuntimeError(
                        f"internal error: the interior element {t} lies outside the degree "
                        f"box {deg}"
                    )
                entries[(i, s)] = beta
        return entries

    def hypersurface_table(
        self, max_degree: int, field: FieldSpec, max_fiber: int
    ) -> dict[tuple[int, tuple[int, ...]], int]:
        """The Betti table of a hypersurface up to `max_degree`:
        beta_{0,0} = 1, and beta_{1,Au+} = 1 when |u+| <= max_degree.  The
        entry is certified by the degree complex at Au+ (`build_delta`),
        which must be two points (see the module docstring); any other
        homology is an internal error."""
        h = self.h
        table = {(0, (0,) * len(h.vertices)): 1}
        if self.top > max_degree:
            return table
        s = decomposition_degree(h, [max(x, 0) for x in self.relation])
        hom = reduced_homology(build_delta(h, s, max_fiber=max_fiber), field)
        if hom != [0, 1] + [0] * (len(hom) - 2):
            raise RuntimeError(
                f"internal error: the degree complex of the relation of a hypersurface, "
                f"at {s}, has reduced homology {hom}, not that of two points"
            )
        table[(1, s)] = 1
        return table


def _plans(g: Graph) -> list[_Plan]:
    """The plan of each connected component of g with an edge, as an
    induced subgraph of g, in the order of `connected_components`; a
    component on every vertex is g itself."""
    parts = (
        g if len(comp) == len(g.vertices) else induced_subgraph(g, comp)
        for comp in connected_components(g)
    )
    return [_Plan(h, bipartite) for h, bipartite in zip(parts, is_bipartite(g)) if h.edges]


def known_complete_degree(g: Graph) -> int | None:
    """Largest standard degree any Betti entry of k[G] can live in, when
    every connected component has a known top degree (`_Plan.top`): it is
    free, a hypersurface, complete bipartite, or normal; None otherwise.

    A free, hypersurface or complete bipartite component's top degree is a
    closed form.  Any other normal component's is read off its Hilbert
    function up to degree d - 1 (`_Plan.hilbert`), so this lists those
    levels, under the default `max_scan`, which caps the representatives
    listed in all components together (ScanOverflowError past it), and
    checks that the h-vector they give is nonnegative and, for a bipartite
    component, within the matching bound.  No table is written, so neither
    the part of level d in the degree box nor the canonical-module entries of the top
    three degrees and their cross-checks, which every table of
    `betti_table` makes, are made here.  Every class is Cohen-Macaulay, so
    the top degree adds up across a disjoint union.
    """
    tops, held = [], 0
    for plan in _plans(g):
        if plan.top is None and plan.normal:
            _, _, held = plan.hilbert(plan.d - 1, DEFAULT_MAX_SCAN, held)
        tops.append(plan.top)
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
    pd, reg = table._extent()
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
