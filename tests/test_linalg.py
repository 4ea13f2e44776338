"""Exact rank computation, cross-checked against sympy's domain matrices."""

import random

import pytest

from toricgraph.linalg import rank

from oracles import sympy_rank


def _random_columns(rng, nrows, ncols, density, lo=-4, hi=4):
    cols = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    col[i] = v
        cols.append(col)
    return cols


def test_empty_and_zero():
    assert rank([], 5) == 0
    assert rank([{}, {}], 3) == 0
    assert rank([{0: 1}], 0) == 0


def test_identity_and_duplicates():
    cols = [{0: 1}, {1: 1}, {0: 1}]
    assert rank(cols, 2) == 2


def test_fraction_pivots():
    # no +-1 entries anywhere, and in both matrices the pivot's low entry
    # (3, then 4) does not divide the second column's (2): that column is
    # scaled by the pivot entry before it takes 2 times the pivot
    assert rank([{0: 2, 1: 3}, {0: 3, 1: 2}], 2) == 2
    assert rank([{0: 2, 1: 4}, {0: 1, 1: 2}], 2) == 1


def test_char_p_differs_from_char_zero():
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert rank(cols, 2) == 2
    assert rank(cols, 2, modulus=2) == 1


# density ranges of the random matrices: sparse ones keep the column
# reduction's fill-in low, dense ones make it reduce against long pivots
DENSITIES = {"sparse": (0.1, 0.25), "dense": (0.5, 0.9)}


@pytest.mark.parametrize("density", ["dense", "sparse"])
@pytest.mark.parametrize("modulus", [None, 2, 5])
def test_against_sympy_random(density, modulus):
    rng = random.Random(f"{density}/{modulus}")
    for _ in range(40):
        nrows = rng.randint(1, 9)
        ncols = rng.randint(1, 9)
        cols = _random_columns(rng, nrows, ncols, rng.uniform(*DENSITIES[density]))
        got = rank(cols, nrows, modulus=modulus)
        assert got == sympy_rank(cols, nrows, modulus), (cols, nrows, modulus)


def test_large_entries_against_sympy():
    rng = random.Random(77)
    for _ in range(20):
        cols = _random_columns(rng, 6, 6, 0.6, lo=-50, hi=50)
        assert rank(cols, 6) == sympy_rank(cols, 6)
        assert rank(cols, 6, modulus=7) == sympy_rank(cols, 6, 7)
