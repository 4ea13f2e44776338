"""Simplicial complexes on a finite ordered ground set, and degree complexes.

The degree complex of a multidegree s collects the supports of all
decompositions of s into edge generators; its faces are the subsets of
those supports.  Two degenerate complexes matter and are kept distinct:

* the void complex (no faces at all) for s outside the semigroup, and
* the irrelevant complex {emptyset} for s = 0.

A complex holds its facets as int bitmasks of ground positions (bit x for
position x), and everything built from it works on masks: `maximal_masks`
keeps the maximal sets of a family, `core` deletes dominated vertices mask
by mask, testing only the facets that held each, and the faces are the
submasks of the facets.  Frozensets and position tuples are only views,
for callers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .fiber import DEFAULT_MAX_FIBER, _check_cap, enumerate_fiber
from .graph import Graph, _Value


class SimplicialComplex(_Value):
    """Facet representation of a simplicial complex.

    `ground` is the ordered tuple of ground-set labels (for degree complexes
    these are the graph's edges); `masks` holds the facets as bitmasks of
    positions into `ground`, distinct, pairwise incomparable and sorted (the
    constructor sorts any iterable of masks, and checks the rest).  A
    complex is an immutable value, equal to any complex with the same
    ground and masks.
    """

    ground: tuple
    masks: tuple[int, ...]

    def __init__(self, ground: Iterable, masks: Iterable[int]) -> None:
        ground = tuple(ground)
        n = len(ground)
        masks = tuple(sorted(masks))
        for mask in masks:
            if mask < 0:
                raise ValueError(f"facet mask must be nonnegative, got {mask}")
            if mask >> n:
                raise _outside(mask.bit_length() - 1, n)
        # a subset has the smaller mask, so only later masks can contain one
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a | b == b:
                    raise ValueError("facets must be distinct and pairwise incomparable")
        self._set(ground, masks)

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
        return cls(ground, maximal_masks(masks))

    @cached_property
    def facets(self) -> tuple[frozenset[int], ...]:
        """The facets as frozensets of positions, sorted by position tuple."""
        return tuple(frozenset(p) for p in sorted(map(_positions, self.masks)))

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def is_irrelevant(self) -> bool:
        return self.masks == (0,)

    @property
    def dim(self) -> int:
        """Top face dimension; -1 for the irrelevant complex, -2 for void."""
        return max((mask.bit_count() for mask in self.masks), default=-1) - 1

    @cached_property
    def face_masks(self) -> tuple[list[int], ...]:
        """Faces by dimension, from -1 to dim, as masks in increasing order:
        the submasks of the facets, enumerated once."""
        if self.is_void:
            return ()
        found: list[set[int]] = [{0}] + [set() for _ in range(self.dim + 1)]
        for facet in self.masks:
            sub = facet
            while sub:
                found[sub.bit_count()].add(sub)
                sub = (sub - 1) & facet
        return tuple(sorted(level) for level in found)

    def faces_of_dimension(self, d: int) -> list[tuple[int, ...]]:
        """All d-faces as sorted position tuples, in lexicographic order.

        d = -1 returns the empty face [()] for every non-void complex.
        """
        if d < -1:
            raise ValueError("face dimension must be at least -1")
        faces = self.face_masks
        return sorted(map(_positions, faces[d + 1])) if d + 1 < len(faces) else []

    def core(self) -> "SimplicialComplex":
        """The complex left after deleting dominated vertices until none is.

        A vertex v is dominated when some other vertex lies in every facet
        holding v; its link is then a cone, and deleting v (keeping the
        faces without it) is a strong deformation retraction (Barmak-Minian,
        "Strong homotopy types, nerves and collapses", DCG 47, 2012).  So the
        core has the reduced homology of the complex over every field.  The
        ground set is kept; a cone's core is a single vertex, and the void
        and irrelevant complexes are their own cores.

        Deleting v keeps every facet without v maximal, and the facets that
        held v stay pairwise incomparable without it, so only those are
        tested, each against the facets without v.
        """
        masks = self.masks
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
                without = [mask for mask in masks if not mask & bit]
                kept = without[:]
                for mask in masks:
                    if mask & bit:
                        face = mask ^ bit
                        for other in without:
                            if face | other == other:
                                break
                        else:
                            kept.append(face)
                masks = kept
                changed = True
        return self if masks is self.masks else SimplicialComplex(self.ground, masks)

    def permuted(self, perm: Sequence[int]) -> "SimplicialComplex":
        """Relabel the ground set: old position i becomes perm[i]."""
        if sorted(perm) != list(range(len(self.ground))):
            raise ValueError("perm must be a permutation of the ground positions")
        new_ground: list = [None] * len(self.ground)
        for i, lab in enumerate(self.ground):
            new_ground[perm[i]] = lab
        new_masks = [sum(1 << perm[x] for x in _positions(mask)) for mask in self.masks]
        return SimplicialComplex(new_ground, new_masks)

    def facet_labels(self) -> list[list]:
        """Facets as lists of ground labels (positions mapped through `ground`)."""
        return [[self.ground[x] for x in sorted(f)] for f in self.facets]


def maximal_masks(masks: Iterable[int], known: Iterable[int] = ()) -> list[int]:
    """The maximal sets of a family of bitmasks, each once.  Taken largest
    first, a set is kept unless it lies inside one already kept.  `known`
    holds sets of the family already known to be maximal: they are kept
    without a test, and `masks` need not repeat them."""
    kept = list(set(known))
    for mask in sorted(set(masks).difference(kept), key=int.bit_count, reverse=True):
        for other in kept:
            if mask | other == other:
                break
        else:
            kept.append(mask)
    return kept


def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, as increasing positions."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


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
    _check_cap("max_fiber", max_fiber)
    decomps = enumerate_fiber(g, s, max_size=max_fiber)
    return SimplicialComplex.from_faces(g.edges, (d.support for d in decomps))
