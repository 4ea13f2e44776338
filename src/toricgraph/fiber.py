"""Enumeration of nonnegative integer edge weightings with prescribed vertex sums.

Given a multidegree s on the vertices, a decomposition is a vector c of
nonnegative integers on the edges with sum(c_e * column_e) = s, i.e. every
vertex x sees total weight s_x on its incident edges.  These are exactly the
monomials of multidegree s in the edge subring, and their supports generate
the degree complex.

The search branches on the lowest-index edge without a weight, weights
ascending, so decompositions come out in lexicographic order.  After each
weight it chooses it propagates what that weight forces (forward checking,
Haralick-Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", AI 14, 1980), with x's residual the part of s_x
its weighted edges do not cover yet:

* a vertex whose residual is 0 puts weight 0 on its other edges;
* a vertex with one edge left puts its residual on that edge, and the
  branch fails if that exceeds the residual at the edge's other end;
* a vertex with no edge left and a nonzero residual fails the branch.

Forced weights go on a trail and are taken off when the search backs up.
A branching edge starts at the least weight the other free edges at its
ends leave to it (each can take at most its far end's residual), so the
work follows the size of the fiber, not the size of its entries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property

from .graph import Graph, _Value

DEFAULT_MAX_FIBER = 10**6


class FiberOverflowError(RuntimeError):
    """The fiber holds more decompositions than the configured cap."""

    def __init__(self, limit: int):
        super().__init__(
            f"fiber overflow: more than {limit} decompositions; raise the cap to proceed"
        )
        self.limit = limit


def _check_cap(name: str, value: int) -> None:
    """A negative cap is bad input, not a cap that every search overflows."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


class Decomposition(_Value):
    """One edge weighting; coefficients are aligned with the graph's edge order.
    An immutable value, equal to any decomposition with the same
    coefficients."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        self._set(coefficients)

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


def degree_vector(g: Graph, degrees: Mapping[str, int] | Sequence[int]) -> tuple[int, ...]:
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


def _search(g: Graph, s: Sequence[int], max_size: int, first_only: bool) -> list[Decomposition]:
    n, m = len(g.vertices), len(g.edges)
    s = tuple(s)
    if len(s) != n:
        raise ValueError(f"multidegree has {len(s)} entries for {n} vertices")
    if any(x < 0 for x in s) or sum(s) % 2 == 1:
        return []

    ends, incident = g.edge_indices, g._incident
    residual = list(s)
    free = [len(inc) for inc in incident]  # unweighted edges at each vertex
    coeffs = [-1] * m  # the weight on each edge, -1 while it has none
    trail: list[int] = []  # weighted edges, in the order they got weights

    def fix(e: int, c: int) -> None:
        coeffs[e] = c
        trail.append(e)
        iu, iv = ends[e]
        residual[iu] -= c
        residual[iv] -= c
        free[iu] -= 1
        free[iv] -= 1

    def settle(queue: list[int]) -> bool:
        """Weigh the edges the vertices in queue force, and the edges those
        force in turn; False when some vertex can no longer be met."""
        while queue:
            x = queue.pop()
            left = residual[x]
            if not free[x]:
                if left:
                    return False
            elif not left:  # x is met: its other edges carry nothing
                for e, y in incident[x]:
                    if coeffs[e] < 0:
                        fix(e, 0)
                        queue.append(y)
            elif free[x] == 1:  # x's last edge carries what x still needs
                for e, y in incident[x]:
                    if coeffs[e] < 0:
                        break
                if left > residual[y]:
                    return False
                fix(e, left)
                queue.append(y)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            c = coeffs[e]
            coeffs[e] = -1
            iu, iv = ends[e]
            residual[iu] += c
            residual[iv] += c
            free[iu] += 1
            free[iv] += 1

    out: list[Decomposition] = []
    if not settle(list(range(n))):
        return out
    # the stack is explicit, so long graphs do not outgrow the interpreter's
    # recursion limit: one frame per branching edge, [edge, next weight,
    # last weight, trail length before the edge got its weight]
    frames: list[list[int]] = []
    e = -1
    while True:
        e += 1
        while e < m and coeffs[e] >= 0:
            e += 1
        if e == m:
            if len(out) >= max_size:
                raise FiberOverflowError(max_size)
            out.append(Decomposition(tuple(coeffs)))
            if first_only:
                return out
        else:
            iu, iv = ends[e]
            # the other free edges at an end take at most what their far
            # ends still need, so edge e must take at least the rest
            lo = 0
            for x in (iu, iv):
                need = residual[x]
                for f, y in incident[x]:
                    if f != e and coeffs[f] < 0:
                        need -= residual[y]
                        if need <= lo:
                            break
                lo = max(lo, need)
            frames.append([e, lo, min(residual[iu], residual[iv]), len(trail)])
        while frames:
            frame = frames[-1]
            e, c, cmax, mark = frame
            undo(mark)
            if c > cmax:
                frames.pop()
                continue
            frame[1] = c + 1
            fix(e, c)
            if settle(list(ends[e])):
                break
        else:
            return out


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
    _check_cap("max_size", max_size)
    return _search(g, s, max_size, first_only=False)


def in_semigroup(g: Graph, s: Sequence[int]) -> bool:
    """Whether s admits at least one decomposition (short-circuiting search)."""
    return bool(_search(g, s, max_size=1, first_only=True))
