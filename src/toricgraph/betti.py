"""Multigraded Betti numbers of the edge subring, and the invariants they carry.

beta_{i,s} is the dimension of H~_{i-1} of the degree complex at s, so the
table of a graph up to standard degree D is obtained by walking every
semigroup element of total degree at most 2D (level by level: each level is
the previous one translated by the edge columns) and running reduced
homology on its degree complex.  Complexes that are cones are skipped: they
are contractible and contribute nothing.

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
from typing import Callable, Optional, Sequence

from .complexes import SimplicialComplex, build_delta
from .fiber import DEFAULT_MAX_FIBER
from .graph import (
    Graph,
    connected_components,
    incidence_rank,
    induced_subgraph,
    recognize_complete_bipartite,
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
    g: Graph, max_degree: int, max_scan: int = DEFAULT_MAX_SCAN
) -> list[list[tuple[int, ...]]]:
    """Semigroup elements grouped by level: levels[d] holds every multidegree
    that is a sum of exactly d edge columns (total degree 2d), sorted.

    Complete by construction: any sum of d columns is a sum of d-1 columns
    plus one more, so translating the previous level by each column and
    deduplicating loses nothing.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    n = len(g.vertices)
    cols = []
    for iu, iv in g.edge_indices:
        col = [0] * n
        col[iu] = 1
        col[iv] = 1
        cols.append(tuple(col))
    levels: list[list[tuple[int, ...]]] = [[(0,) * n]]
    total = 1
    for d in range(1, max_degree + 1):
        nxt: set[tuple[int, ...]] = set()
        for s in levels[-1]:
            for col in cols:
                nxt.add(tuple(a + b for a, b in zip(s, col)))
        if not nxt:
            break
        total += len(nxt)
        if total > max_scan:
            raise ScanOverflowError(max_scan, d)
        levels.append(sorted(nxt))
    return levels


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
    `max_scan` caps the semigroup elements of all components together.
    `on_complex(s, delta)` is invoked for every degree complex the scan
    builds, with s the component's own multidegree (aligned with the
    component's vertices, in g's order), component by component in the order
    of `connected_components`, each in scan order; it exists for audits.
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
        try:
            levels = semigroup_levels(h, degree, max_scan - scanned)
        except ScanOverflowError as exc:
            raise ScanOverflowError(max_scan, exc.degree) from None
        scanned += sum(len(level) for level in levels)
        local = _scan(h, levels, field, max_fiber, on_complex)
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
    field: FieldSpec,
    max_fiber: int,
    on_complex: Optional[Callable[[tuple[int, ...], SimplicialComplex], None]],
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Betti entries of one graph at the given semigroup elements."""
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    for level in levels:
        for s in level:
            delta = build_delta(h, s, max_fiber=max_fiber)
            if on_complex is not None:
                on_complex(s, delta)
            if delta.common_vertex() is not None:
                continue
            for d, dim in enumerate(reduced_homology(delta, field), start=-1):
                if not dim:
                    continue
                i = d + 1
                if 2 * i > sum(s):
                    raise RuntimeError(
                        f"internal error: beta_{{{i},{s}}} nonzero violates 2i <= |s|"
                    )
                entries[(i, s)] = dim
    return entries


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


def _top_degree(h: Graph) -> Optional[int]:
    """Largest standard degree any Betti entry of k[H] can live in, for a
    connected graph H with at least one edge, when a closed form gives it;
    None otherwise.

    H presents a free polynomial ring (no syzygies at all) when its incidence
    rank equals its edge count; K_{u,v} with u <= v has a known resolution
    that tops out at degree pd + reg = (u-1)(v-1) + (u-1) = (u-1)v.
    """
    if incidence_rank(h) == len(h.edges):
        return 0
    sides = recognize_complete_bipartite(h)
    if sides is None:
        return None
    u, v = sides
    return (u - 1) * v


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
