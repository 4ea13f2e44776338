"""Enumeration of nonnegative integer edge weightings with prescribed vertex sums.

Given a multidegree s on the vertices, a decomposition is a vector c of
nonnegative integers on the edges with sum(c_e * column_e) = s, i.e. every
vertex x sees total weight s_x on its incident edges.  These are exactly the
monomials of multidegree s in the edge subring, and their supports generate
the degree complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union

from .graph import Graph

DEFAULT_MAX_FIBER = 10**6


class FiberOverflowError(RuntimeError):
    """The fiber holds more decompositions than the configured cap."""

    def __init__(self, limit: int):
        super().__init__(
            f"fiber overflow: more than {limit} decompositions; raise the cap to proceed"
        )
        self.limit = limit


@dataclass(frozen=True)
class Decomposition:
    """One edge weighting; coefficients are aligned with the graph's edge order."""

    coefficients: tuple[int, ...]

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coefficients) if c)

    @classmethod
    def for_graph(
        cls, g: Graph, coefficients: Sequence[int], target: Sequence[int]
    ) -> "Decomposition":
        """Construct with the defining identity checked entrywise."""
        coefficients = tuple(coefficients)
        if len(coefficients) != len(g.edges):
            raise ValueError("coefficient vector length must match the edge count")
        if any(c < 0 for c in coefficients):
            raise ValueError("coefficients must be nonnegative")
        if tuple(decomposition_degree(g, coefficients)) != tuple(target):
            raise ValueError("coefficients do not decompose the target multidegree")
        return cls(coefficients)


def decomposition_degree(g: Graph, coefficients: Sequence[int]) -> tuple[int, ...]:
    """Vertex sums of an edge weighting: the multidegree it decomposes."""
    s = [0] * len(g.vertices)
    for (iu, iv), c in zip(g.edge_indices, coefficients):
        s[iu] += c
        s[iv] += c
    return tuple(s)


def degree_vector(g: Graph, degrees: Union[Mapping[str, int], Sequence[int]]) -> tuple[int, ...]:
    """Normalize a multidegree to a tuple aligned with g.vertices.

    Mappings may omit vertices (treated as 0); unknown labels are an error.
    Every entry must be an int: a bool, float, None or container is rejected.
    """
    if isinstance(degrees, Mapping):
        for lab in degrees:
            if lab not in g.index:
                raise ValueError(f"unknown vertex {lab!r} in multidegree")
        degrees = [degrees.get(v, 0) for v in g.vertices]
    if isinstance(degrees, (str, bytes)) or not isinstance(degrees, Sequence):
        raise ValueError(f"multidegree must be a mapping or a sequence, got {degrees!r}")
    if len(degrees) != len(g.vertices):
        raise ValueError(
            f"multidegree has {len(degrees)} entries for {len(g.vertices)} vertices"
        )
    for v, x in zip(g.vertices, degrees):
        if type(x) is not int:  # not isinstance: a bool is an int too
            raise ValueError(f"multidegree entry {x!r} at vertex {v!r} is not an integer")
    return tuple(degrees)


def _search(g: Graph, s: Sequence[int], max_size: int, first_only: bool):
    n, m = len(g.vertices), len(g.edges)
    s = tuple(s)
    if len(s) != n:
        raise ValueError(f"multidegree has {len(s)} entries for {n} vertices")
    if any(x < 0 for x in s) or sum(s) % 2 == 1:
        return []

    # last edge that can still change each vertex's residual
    last_touch = [-1] * n
    for e, (iu, iv) in enumerate(g.edge_indices):
        last_touch[iu] = e
        last_touch[iv] = e
    if any(s[v] > 0 and last_touch[v] < 0 for v in range(n)):
        return []
    finished_at: list[list[int]] = [[] for _ in range(m)]
    for v in range(n):
        if last_touch[v] >= 0:
            finished_at[last_touch[v]].append(v)

    # depth-first over the edges in input order, weights ascending, so the
    # decompositions come out in lexicographic order; the stack is explicit
    # (coeffs[e] is the weight on edge e, or -1 while edge e holds none yet),
    # so long graphs do not outgrow the interpreter's recursion limit
    residual = list(s)
    coeffs = [-1] * m
    out: list[Decomposition] = []
    e = 0
    while e >= 0:
        if e == m:
            if first_only:
                return True
            if len(out) >= max_size:
                raise FiberOverflowError(max_size)
            out.append(Decomposition(tuple(coeffs)))
            e -= 1
            continue
        iu, iv = g.edge_indices[e]
        c = coeffs[e]
        if c >= 0:  # back from edge e + 1: take weight c off and try the next
            residual[iu] += c
            residual[iv] += c
        cmax = min(residual[iu], residual[iv])
        done = finished_at[e]
        for c in range(c + 1, cmax + 1):
            residual[iu] -= c
            residual[iv] -= c
            if all(residual[v] == 0 for v in done):
                coeffs[e] = c
                e += 1
                break
            residual[iu] += c
            residual[iv] += c
        else:
            coeffs[e] = -1
            e -= 1
    return False if first_only else out


def enumerate_fiber(
    g: Graph,
    s: Sequence[int],
    *,
    max_size: int = DEFAULT_MAX_FIBER,
) -> list[Decomposition]:
    """All decompositions of s, sorted lexicographically by coefficient vector.

    Empty when s is not in the edge semigroup (including any negative entry
    or odd total).  Raises FiberOverflowError past max_size solutions.
    """
    return _search(g, s, max_size, first_only=False)


def in_semigroup(g: Graph, s: Sequence[int]) -> bool:
    """Whether s admits at least one decomposition (short-circuiting search)."""
    res = _search(g, s, max_size=1, first_only=True)
    return bool(res)
