"""Exact matrix rank over Q or a prime field, by sparse column reduction.

Matrices arrive as column dictionaries {row: value} with integer values
(boundary matrices are mostly +-1 and very sparse).  The homology
computation needs the rank and, for clearing, the rows that hold the
pivots (see `homology`), so nothing else is implemented.  Arithmetic over
Q stays in integers: the reduction is fraction-free (a column is scaled by
a nonzero integer where a quotient would not be one), which changes no
column's support.

The kernel is the standard column reduction of persistent homology
(Zomorodian-Carlsson, DCG 2005; Bauer, "Ripser", JACT 2021): each column
in turn is reduced against the stored pivot column that shares its largest
row index, until it vanishes or its largest row has no pivot yet, in which
case it becomes that row's pivot.  The pivots are linearly independent, so
their number is the rank, and each pivot row is the largest row of a
nonzero vector in the column span.  Columns stay sparse throughout, which
keeps memory proportional to the fill-in rather than to rows x columns.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def rank(
    columns: Sequence[Mapping[int, int]],
    nrows: int,
    modulus: int | None = None,
) -> int:
    """Rank of the nrows x len(columns) matrix given by sparse columns.

    modulus None means exact rational arithmetic; otherwise arithmetic is in
    GF(modulus) with modulus prime.
    """
    if nrows == 0:
        return 0
    return len(pivot_rows(columns, modulus))


def pivot_rows(
    columns: Sequence[Mapping[int, int]],
    modulus: int | None = None,
) -> set[int]:
    """The pivot rows of the column reduction of the given sparse columns,
    one per unit of rank, over Q (modulus None) or GF(modulus)."""
    pivots: dict[int, dict] = {}
    for column in columns:
        if modulus:
            col = {i: v % modulus for i, v in column.items() if v % modulus}
        else:
            col = {i: v for i, v in column.items() if v}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            c, p = col[low], pivot[low]
            if modulus:
                f = c * pow(p, -1, modulus) % modulus
            elif c % p:
                # p does not divide c: scale the column by p, which then
                # takes c times the pivot
                col = {i: p * v for i, v in col.items()}
                f = c
            else:
                f = c // p
            for i, pv in pivot.items():
                x = col.get(i, 0) - f * pv
                if modulus:
                    x %= modulus
                if x:
                    col[i] = x
                else:
                    del col[i]
    return set(pivots)

