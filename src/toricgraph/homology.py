"""Reduced simplicial homology over Q or a prime field.

The chain complex is augmented: C_{-1} is one-dimensional, spanned by the
empty face, so the irrelevant complex {emptyset} has H~_{-1} = k and a cone
has no homology at all.  Faces are bitmasks of ground positions, and the
boundary of a face drops one bit at a time: dropping the j-th smallest bit
carries sign (-1)^j.

Dimensions are all that is reported: dim H~_d = nullity(d_d) - rank(d_{d+1}),
where the boundary d_d has one column per d-face and one row per (d-1)-face,
in increasing mask order (`boundary_matrix`: in lexicographic order).

Three reductions come before and during the rank computation, none of
which changes the answer:

* The core.  Homology is taken on `SimplicialComplex.core()`, the complex
  left after deleting dominated vertices (a vertex v is dominated when
  another vertex lies in every facet holding v).  Each deletion is a strong
  deformation retraction (Barmak-Minian, "Strong homotopy types, nerves and
  collapses", DCG 47, 2012), so homology agrees over every field.  A cone
  collapses to a point; most degree complexes shrink to a few vertices.
* Clearing.  The boundaries are reduced from the top dimension down.  A
  d-face that is the pivot row of a reduced column of d_{d+1} is the
  largest face of a d-boundary, so its column of d_d lies in the span of
  the columns before it and is skipped (Bauer-Kerber-Reininghaus, "Clear
  and Compress", 2014; Bauer, "Ripser", JACT 2021).  Only the columns that
  survive clearing are built.
* The star quotient.  The chains are those of the core relative to the
  closed star st v of one vertex v, the one in the most facets: the faces
  that miss v and are no faces of its link.  st v is a cone with apex v,
  so it is acyclic over every coefficient ring, and the long exact sequence
  of the pair (Munkres, Elements of Algebraic Topology, ch. 3) gives
  H~_d(core) = H_d(core, st v) for every d.  H~_{-1} is 0 then, as the
  empty face lies in the star.  Deleting the star is the first step of a
  coreduction (Mrozek-Batko, "Coreduction homology algorithm", DCG 41,
  2009); on K_{4,4}'s degree complexes it leaves 31,029 of 425,298 faces.
  A boundary term that is no chain lies in the link and is dropped.  The
  d_d above are those of the relative complex, which `boundary_matrix` and
  `faces_of_dimension` do not build: they keep describing the whole
  complex.
"""

from __future__ import annotations

from collections.abc import Callable

from . import linalg
from .complexes import SimplicialComplex, maximal_masks
from .graph import _Value


# Miller-Rabin with the prime bases up to 37 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson-Webster, Math. Comp. 86,
# 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(_Value):
    """Coefficient field: the rationals (modulus None) or GF(p), p prime.
    An immutable value, equal to any field spec with the same modulus."""

    modulus: int | None

    def __init__(self, modulus: int | None = None) -> None:
        if modulus is not None:
            if modulus >= _MR_LIMIT:
                raise ValueError(f"modulus must be below {_MR_LIMIT}, got {modulus}")
            if not _is_prime(modulus):
                raise ValueError(f"modulus must be prime, got {modulus}")
        self._set(modulus)

    def __str__(self) -> str:
        return "Q" if self.modulus is None else f"GF({self.modulus})"


RATIONALS = FieldSpec(None)


def parse_field(text: str) -> FieldSpec:
    """Parse a field name: 'q'/'Q'/'0' for the rationals, or a prime."""
    t = text.strip()
    if t.lower() in ("q", "0", "rational", "rationals"):
        return RATIONALS
    try:
        p = int(t)
    except ValueError:
        raise ValueError(f"unrecognized field {text!r}; use 'q' or a prime") from None
    return FieldSpec(p)


def boundary_matrix(k: SimplicialComplex, d: int) -> list[dict[int, int]]:
    """The boundary map from d-chains to (d-1)-chains as sparse columns.

    Columns follow faces_of_dimension(d), rows follow faces_of_dimension(d-1).
    For d = 0 every vertex maps to the single empty face with coefficient +1.
    """
    if d < 0:
        raise ValueError("boundary_matrix is defined for d >= 0")
    cols, rows = ([sum(1 << x for x in f) for f in k.faces_of_dimension(e)] for e in (d, d - 1))
    return _boundary_columns(cols, rows)


def _boundary_columns(
    faces: list[int], rows: list[int], dropped: Callable[[int], bool] = lambda face: False
) -> list[dict[int, int]]:
    """Boundary columns of the given d-faces over the (d-1)-faces `rows`, all
    masks.  A boundary term that is not a row must be `dropped`; any other
    is an internal error."""
    row_index = {f: i for i, f in enumerate(rows)}
    cols: list[dict[int, int]] = []
    for face in faces:
        col: dict[int, int] = {}
        rest, sign = face, 1
        while rest:
            low = rest & -rest  # the smallest bit still in rest
            term = face ^ low
            i = row_index.get(term)
            if i is not None:
                col[i] = sign
            elif not dropped(term):
                raise RuntimeError(
                    f"internal error: the boundary of the face {face:#b} holds {term:#b}, "
                    "which is neither a chain nor dropped"
                )
            rest, sign = rest ^ low, -sign
        cols.append(col)
    return cols


def _relative_faces(core: SimplicialComplex) -> tuple[list[list[int]], Callable[[int], bool]]:
    """The chains of C(core)/C(st v), by dimension like `face_masks`, and the
    test for a face of lk v.  v is the vertex in the most facets, the lowest
    position on ties.

    A face lies outside the star exactly when it misses v and is no face of
    lk v.  Each chain is listed once, from the first facet without v that
    holds it: the chains from facet F are the subsets of F that lie in no
    earlier facet and no link facet, that is, that meet F - M for each of
    those facets M.
    """
    masks = core.masks
    held = [0] * len(core.ground)  # held[x]: the facets holding x, in one pass
    for m in masks:
        while m:
            low = m & -m
            held[low.bit_length() - 1] += 1
            m ^= low
    v = held.index(max(held))  # index() finds the lowest position on ties
    bit = 1 << v
    link = maximal_masks(m ^ bit for m in masks if m & bit)
    chains: list[list[int]] = [[] for _ in range(core.dim + 2)]
    earlier: list[int] = []
    for facet in masks:
        if facet & bit:
            continue
        # each entry: the chains holding `chosen` inside chosen | free that
        # still have to meet every mask in `unmet`
        stack = [(0, facet, list({facet & ~m for m in earlier + link}))]
        earlier.append(facet)
        while stack:
            chosen, free, unmet = stack.pop()
            unmet = [c & free for c in unmet if not c & chosen]
            if not unmet:
                sub = free
                while True:
                    face = chosen | sub
                    chains[face.bit_count()].append(face)
                    if not sub:
                        break
                    sub = (sub - 1) & free
                continue
            # branch on the first element of the smallest mask to meet
            least = min(unmet, key=int.bit_count)
            while least:
                low = least & -least
                free ^= low
                stack.append((chosen | low, free, unmet))
                least ^= low

    def in_link(face: int) -> bool:
        # a plain loop: any() over a generator costs more than the test
        for m in link:
            if face | m == m:
                return True
        return False

    return [sorted(level) for level in chains], in_link


def reduced_homology(k: SimplicialComplex, field: FieldSpec = RATIONALS) -> list[int]:
    """Dimensions [dim H~_{-1}, dim H~_0, ..., dim H~_dim].

    The void complex yields [0] (nothing in any degree, reported at -1 for
    shape stability), and the irrelevant complex [1].  Otherwise the ranks
    are those of the core relative to a vertex star, and the list is padded
    with zeros to the dimension of k.
    """
    if k.is_void:
        return [0]
    if k.is_irrelevant:
        return [1]
    core = k.core()
    faces, in_link = _relative_faces(core)
    counts = [len(level) for level in faces]
    # entry i covers degree d = i - 1 and ranks[i] is the rank of d_{i-1}:
    # nullity(d_d) = f_d - rank(d_d)
    ranks = [0] * (len(counts) + 1)
    cleared: set[int] = set()
    for d in range(core.dim, -1, -1):
        kept = [face for j, face in enumerate(faces[d + 1]) if j not in cleared]
        # a boundary term outside the chains lies in the star: it is dropped
        columns = _boundary_columns(kept, faces[d], in_link)
        # the pivot rows of d_d are (d-1)-faces: columns cleared from d_{d-1}
        cleared = linalg.pivot_rows(columns, field.modulus)
        ranks[d + 1] = len(cleared)
    homology = [counts[i] - ranks[i] - ranks[i + 1] for i in range(len(counts))]
    return homology + [0] * (k.dim - core.dim)


def _reduced_euler(k: SimplicialComplex) -> int:
    """The reduced Euler characteristic, the sum of (-1)^d dim H~_d(k) over
    every field, counted off the chains of k's core relative to a vertex
    star (`_relative_faces`), whose homology is k's: no boundary is built
    and no rank computed."""
    if k.is_void:
        return 0
    if k.is_irrelevant:
        return -1
    chains = _relative_faces(k.core())[0]
    # the chains of size n have dimension n - 1
    return sum(len(level) if n % 2 else -len(level) for n, level in enumerate(chains))


def homology_dimension(k: SimplicialComplex, d: int, field: FieldSpec = RATIONALS) -> int:
    """dim H~_d, read off `reduced_homology`."""
    if k.is_void or d < -1 or d > k.dim:
        return 0
    return reduced_homology(k, field)[d + 1]
