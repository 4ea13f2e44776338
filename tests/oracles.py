"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the engine's algorithms: fibers come
from an exhaustive product-box sweep, ranks come from sympy's exact domain
matrices, and the convolution is written from the definition.
"""

from __future__ import annotations

import itertools
import random

from sympy.polys.domains import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from toricgraph import RATIONALS, Graph, boundary_matrix, reduced_homology


def box_fiber(g: Graph, s) -> list[tuple[int, ...]]:
    """Exhaustive search over the product box 0..min(s_u, s_v) per edge.

    Any decomposition satisfies c_e <= s at both endpoints of e entrywise,
    so the box covers everything; membership is rechecked by plain vertex
    sums.  Exponential and proudly so.
    """
    s = tuple(s)
    if any(x < 0 for x in s):
        return []
    bounds = [min(s[iu], s[iv]) for iu, iv in g.edge_indices]
    hits = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        total = [0] * len(g.vertices)
        for (iu, iv), c in zip(g.edge_indices, combo):
            total[iu] += c
            total[iv] += c
        if tuple(total) == s:
            hits.append(combo)
    return sorted(hits)


def box_size(g: Graph, s) -> int:
    size = 1
    for iu, iv in g.edge_indices:
        size *= min(s[iu], s[iv]) + 1
    return size


def random_graph(rng: random.Random, max_vertices: int = 7, max_edges: int = 9) -> Graph:
    n = rng.randint(1, max_vertices)
    labels = tuple(f"v{i}" for i in range(1, n + 1))
    pairs = list(itertools.combinations(labels, 2))
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_edges, len(pairs)))
    return Graph(labels, tuple(pairs[:m]))


def sympy_rank(columns, nrows: int, modulus=None) -> int:
    """Rank of the matrix with the given sparse columns ({row: entry}),
    by sympy's sparse domain matrices over ZZ, converted to QQ or GF(p)."""
    ncols = len(columns)
    if nrows == 0 or ncols == 0:
        return 0
    rows: dict = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                rows.setdefault(i, {})[j] = ZZ(v)
    dm = DomainMatrix(rows, (nrows, ncols), ZZ)
    domain = QQ if modulus is None else GF(modulus)
    return dm.convert_to(domain).rank()


def composition_vanishes(k) -> bool:
    """d_{d-1} after d_d is the zero map, checked over the integers."""
    for d in range(1, k.dim + 1):
        upper = boundary_matrix(k, d)
        lower = boundary_matrix(k, d - 1)
        for col in upper:
            acc: dict[int, int] = {}
            for j, c in col.items():
                for i, v in lower[j].items():
                    acc[i] = acc.get(i, 0) + c * v
            if any(acc.values()):
                return False
    return True


def euler_characteristic_check(k, field=RATIONALS) -> bool:
    """Reduced Euler characteristic from face counts equals the one from homology."""
    if k.is_void:
        return True
    from_faces = 0
    for d in range(-1, k.dim + 1):
        sign = 1 if d % 2 == 0 else -1
        from_faces += sign * len(k.faces_of_dimension(d))
    hom = reduced_homology(k, field)
    from_homology = sum((1 if i % 2 == 1 else -1) * h for i, h in enumerate(hom))
    return from_faces == from_homology


def faces_from_facets(k) -> list[list[tuple[int, ...]]]:
    """Faces by dimension, from -1 to dim, each in lexicographic order:
    every subset of every facet, by itertools.combinations."""
    found: list[set] = [set() for _ in range(k.dim + 2)]
    for facet in k.facets:
        for size in range(len(facet) + 1):
            found[size].update(itertools.combinations(sorted(facet), size))
    return [sorted(level) for level in found]


def homology_via_sympy(k, modulus=None) -> list[int]:
    """Same rank-nullity bookkeeping as the engine but with sympy ranks."""
    if k.is_void:
        return [0]
    counts = [len(k.faces_of_dimension(d)) for d in range(-1, k.dim + 1)]
    ranks = (
        [0]
        + [sympy_rank(boundary_matrix(k, d), counts[d], modulus) for d in range(0, k.dim + 1)]
        + [0]
    )
    return [counts[i] - ranks[i] - ranks[i + 1] for i in range(len(counts))]


def permuted_homology(k, rng: random.Random, field) -> list[int]:
    perm = list(range(len(k.ground)))
    rng.shuffle(perm)
    return reduced_homology(k.permuted(perm), field)


def convolve_entries(e1: dict, e2: dict) -> dict:
    """Multigraded convolution of two Betti-entry dicts; degrees concatenate."""
    out: dict = {}
    for (i1, s1), v1 in e1.items():
        for (i2, s2), v2 in e2.items():
            key = (i1 + i2, tuple(s1) + tuple(s2))
            out[key] = out.get(key, 0) + v1 * v2
    return out
