"""Simplicial complexes on a finite ordered ground set, and degree complexes.

The degree complex of a multidegree s collects the supports of all
decompositions of s into edge generators; its faces are the subsets of
those supports.  Two degenerate complexes matter and are kept distinct:

* the void complex (no faces at all) for s outside the semigroup, and
* the irrelevant complex {emptyset} for s = 0.

Sets of ground positions are also handled as int bitmasks (bit x for
position x): the Betti scan and `SimplicialComplex.core` work on masks,
`maximal_masks` is the one filter that keeps the maximal sets of a family,
and `SimplicialComplex.from_masks` is the one step from masks to a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .fiber import DEFAULT_MAX_FIBER, enumerate_fiber
from .graph import Graph


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet representation of a simplicial complex.

    `ground` is the ordered tuple of ground-set labels (for degree complexes
    these are the graph's edges); faces are stored as frozensets of positions
    into `ground`.  Facets are pairwise incomparable, deduplicated, and kept
    sorted by their sorted position tuple.
    """

    ground: tuple
    facets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        n = len(self.ground)
        for f in self.facets:
            for x in f:
                if not 0 <= x < n:
                    raise _outside(x, n)
        for a in self.facets:
            for b in self.facets:
                if a is not b and a <= b:
                    raise ValueError("facets must be pairwise incomparable")
        ordered = tuple(sorted(self.facets, key=lambda f: tuple(sorted(f))))
        object.__setattr__(self, "facets", ordered)

    @classmethod
    def from_faces(cls, ground: Sequence, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Normalize arbitrary generating faces: dedupe and drop non-maximal ones."""
        n = len(ground)
        masks = []
        for face in faces:
            mask = 0
            for x in face:
                if not 0 <= x < n:  # checked before the shift, which needs x >= 0
                    raise _outside(x, n)
                mask |= 1 << x
            masks.append(mask)
        return cls.from_masks(ground, maximal_masks(masks))

    @classmethod
    def from_masks(cls, ground: Sequence, masks: Iterable[int]) -> "SimplicialComplex":
        """The complex whose facets are the given pairwise incomparable sets,
        as bitmasks of ground positions.  Every set bit is decoded, so a
        position outside the ground set is rejected like any other."""
        return cls(
            tuple(ground),
            tuple(frozenset(x for x in range(m.bit_length()) if m >> x & 1) for m in masks),
        )

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return len(self.facets) == 1 and not self.facets[0]

    @property
    def dim(self) -> int:
        """Top face dimension; -1 for the irrelevant complex, -2 for void."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    @cached_property
    def _faces(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Faces by dimension, from -1 to dim, each in lexicographic order."""
        if self.is_void:
            return ()
        found: list[set[tuple[int, ...]]] = [set() for _ in range(self.dim + 2)]
        for facet in self.facets:
            base = sorted(facet)
            for size in range(len(base) + 1):
                found[size].update(combinations(base, size))
        return tuple(tuple(sorted(faces)) for faces in found)

    def faces_of_dimension(self, d: int) -> list[tuple[int, ...]]:
        """All d-faces as sorted position tuples, in lexicographic order.

        d = -1 returns the empty face [()] for every non-void complex.  The
        faces of every dimension are enumerated once, on the first call.
        """
        if d < -1:
            raise ValueError("face dimension must be at least -1")
        return list(self._faces[d + 1]) if d + 1 < len(self._faces) else []

    def f_vector(self) -> dict[int, int]:
        """Face counts by dimension, from -1 up to dim (empty for void)."""
        return {
            d: len(self.faces_of_dimension(d)) for d in range(-1, self.dim + 1)
        }

    def has_face(self, face: Iterable[int]) -> bool:
        fs = frozenset(face)
        return any(fs <= facet for facet in self.facets)

    def core(self) -> "SimplicialComplex":
        """The complex left after deleting dominated vertices until none is.

        A vertex v is dominated when some other vertex lies in every facet
        holding v; its link is then a cone, and deleting v (keeping the
        faces without it) is a strong deformation retraction (Barmak-Minian,
        "Strong homotopy types, nerves and collapses", DCG 47, 2012).  So the
        core has the reduced homology of the complex over every field.  The
        ground set is kept; a cone's core is a single vertex, and the void
        and irrelevant complexes are their own cores.
        """
        masks = original = [sum(1 << x for x in f) for f in self.facets]
        changed = True
        while changed:
            changed = False
            for v in range(len(self.ground)):
                bit = 1 << v
                shared = -1
                for mask in masks:
                    if mask & bit:
                        shared &= mask
                if shared == -1 or shared == bit:
                    continue  # v is in no facet, or no other vertex dominates it
                masks = maximal_masks(mask & ~bit for mask in masks)
                changed = True
        if masks is original:
            return self
        return SimplicialComplex.from_masks(self.ground, masks)

    def permuted(self, perm: Sequence[int]) -> "SimplicialComplex":
        """Relabel the ground set: old position i becomes perm[i]."""
        if sorted(perm) != list(range(len(self.ground))):
            raise ValueError("perm must be a permutation of the ground positions")
        new_ground: list = [None] * len(self.ground)
        for i, lab in enumerate(self.ground):
            new_ground[perm[i]] = lab
        new_facets = [frozenset(perm[x] for x in f) for f in self.facets]
        return SimplicialComplex(tuple(new_ground), tuple(new_facets))

    def facet_labels(self) -> list[list]:
        """Facets as lists of ground labels (positions mapped through `ground`)."""
        return [[self.ground[x] for x in sorted(f)] for f in self.facets]


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The maximal sets of a family of bitmasks, each once.  Taken largest
    first, a set is kept unless it lies inside one already kept."""
    kept: list[int] = []
    for mask in sorted(set(masks), key=int.bit_count, reverse=True):
        for other in kept:
            if mask | other == other:
                break
        else:
            kept.append(mask)
    return kept


def _outside(x: int, n: int) -> ValueError:
    return ValueError(f"facet element {x} outside ground set of size {n}")


def build_delta(
    g: Graph,
    s: Sequence[int],
    *,
    max_fiber: int = DEFAULT_MAX_FIBER,
) -> SimplicialComplex:
    """Degree complex of the multidegree s on the ground set of g's edges.

    Facets are the maximal supports of decompositions of s.  Returns the void
    complex when s has no decomposition, and the irrelevant complex at s = 0.
    """
    decomps = enumerate_fiber(g, s, max_size=max_fiber)
    return SimplicialComplex.from_faces(g.edges, (d.support for d in decomps))
