"""Multigraded Betti numbers of the edge subring, and the invariants they carry.

beta_{i,s} is the dimension of H~_{i-1} of the degree complex at s, so the
whole table up to standard degree D is obtained by walking every semigroup
element of total degree at most 2D (level by level: each level is the
previous one translated by the edge columns) and running reduced homology
on its degree complex.  Complexes that are cones are skipped: they are
contractible and contribute nothing.

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


def standard_graded_betti(table: BettiTable) -> dict[tuple[int, int], int]:
    return table.standard_graded()


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
    """Scan all semigroup elements of standard degree <= max_degree.

    max_degree defaults to the edge count (a safe but often generous bound).
    `on_complex(s, delta)` is invoked for every degree complex the scan
    builds, in scan order; it exists for audits.
    """
    if max_degree is None:
        max_degree = len(g.edges)
    levels = semigroup_levels(g, max_degree, max_scan)

    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    for level in levels:
        for s in level:
            delta = build_delta(g, s, max_fiber=max_fiber)
            if on_complex is not None:
                on_complex(s, delta)
            if delta.common_vertex() is not None:
                continue
            for d, h in enumerate(reduced_homology(delta, field), start=-1):
                if not h:
                    continue
                i = d + 1
                if 2 * i > sum(s):
                    raise RuntimeError(
                        f"internal error: beta_{{{i},{s}}} nonzero violates 2i <= |s|"
                    )
                entries[(i, s)] = h

    known = known_complete_degree(g)
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


def known_complete_degree(g: Graph) -> Optional[int]:
    """Largest standard degree any Betti entry of k[G] can live in, when the
    graph is simple enough to know the answer in closed form; None otherwise.

    Components whose incidence rank equals their edge count present free
    polynomial rings (no syzygies at all); complete bipartite components have
    a known resolution that tops out at degree pd + reg.  Both classes are
    Cohen-Macaulay, so the top degree adds up across a disjoint union.
    """
    total = 0
    for comp in connected_components(g):
        h = induced_subgraph(g, comp)
        m = len(h.edges)
        if m == 0:
            continue
        if incidence_rank(h) == m:
            continue
        sides = recognize_complete_bipartite(h)
        if sides is None:
            return None
        u, v = sides
        total += (u - 1) * (v - 1) + (u - 1)
    return total


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
