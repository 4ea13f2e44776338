"""Reduced simplicial homology over Q or a prime field.

The chain complex is augmented: C_{-1} is one-dimensional, spanned by the
empty face, so the irrelevant complex {emptyset} has H~_{-1} = k and a cone
has no homology at all.  Faces are bitmasks of ground positions, and the
boundary of a face drops one bit at a time: dropping the j-th smallest bit
carries sign (-1)^j.

Dimensions are all that is reported: dim H~_d = nullity(d_d) - rank(d_{d+1}),
where the boundary d_d has one column per d-face and one row per (d-1)-face,
in increasing mask order (`boundary_matrix`: in lexicographic order).

Two reductions come before and during the rank computation, neither of
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .complexes import SimplicialComplex


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


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (modulus None) or GF(p), p prime."""

    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        p = self.modulus
        if p is None:
            return
        if p >= _MR_LIMIT:
            raise ValueError(f"modulus must be below {_MR_LIMIT}, got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")

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


def _boundary_columns(faces: list[int], rows: list[int]) -> list[dict[int, int]]:
    """Boundary columns of the given d-faces over the (d-1)-faces `rows`, all masks."""
    row_index = {f: i for i, f in enumerate(rows)}
    cols: list[dict[int, int]] = []
    for face in faces:
        col: dict[int, int] = {}
        rest, sign = face, 1
        while rest:
            low = rest & -rest  # the smallest bit still in rest
            col[row_index[face ^ low]] = sign
            rest, sign = rest ^ low, -sign
        cols.append(col)
    return cols


def reduced_homology(k: SimplicialComplex, field: FieldSpec = RATIONALS) -> list[int]:
    """Dimensions [dim H~_{-1}, dim H~_0, ..., dim H~_dim].

    The void complex yields [0] (nothing in any degree, reported at -1 for
    shape stability).  The ranks are those of the core's boundaries, and the
    list is padded with zeros to the dimension of k.
    """
    if k.is_void:
        return [0]
    core = k.core()
    # faces[i] holds the faces of dimension i - 1, as masks
    faces = core.face_masks
    counts = [len(level) for level in faces]
    # entry i covers degree d = i - 1 and ranks[i] is the rank of d_{i-1}:
    # nullity(d_d) = f_d - rank(d_d)
    ranks = [0] * (len(counts) + 1)
    cleared: set[int] = set()
    for d in range(core.dim, -1, -1):
        kept = [face for j, face in enumerate(faces[d + 1]) if j not in cleared]
        columns = _boundary_columns(kept, faces[d])
        # the pivot rows of d_d are (d-1)-faces: columns cleared from d_{d-1}
        cleared = linalg.pivot_rows(columns, field.modulus)
        ranks[d + 1] = len(cleared)
    homology = [counts[i] - ranks[i] - ranks[i + 1] for i in range(len(counts))]
    return homology + [0] * (k.dim - core.dim)


def homology_dimension(k: SimplicialComplex, d: int, field: FieldSpec = RATIONALS) -> int:
    """dim H~_d, read off `reduced_homology`."""
    if k.is_void or d < -1 or d > k.dim:
        return 0
    return reduced_homology(k, field)[d + 1]
