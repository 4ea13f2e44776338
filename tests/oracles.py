"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the engine's algorithms: fibers come
from an exhaustive product-box sweep, relations from an exhaustive sweep of
small coefficients, induced cycles from testing every vertex subset, faces
from every subset of every facet, boundary matrices from the definition,
ranks from sympy's exact domain matrices, and the convolution from the
definition.  The two composition checks are audits
of the engine's own boundary maps, not references.
"""

from __future__ import annotations

import itertools
import math
import random

from sympy.polys.domains import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from toricgraph import RATIONALS, Graph, boundary_matrix, homology, reduced_homology


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


def primitive_relation(g: Graph) -> tuple[int, ...]:
    """The one integer vector u with A u = 0, first nonzero entry positive
    and entries without a common factor, for a graph with at most 10 edges
    whose relations form a line, as for |E| = dim k[G] + 1.

    Every coefficient vector in {-2..2}^E is tried, edge by edge: a choice
    is dropped as soon as a vertex whose edges are all chosen has a nonzero
    sum.  The primitive relation of such a graph has entries +-1 and +-2 (2
    on a path walked out and back between two odd cycles), so the sweep
    holds it; finding two primitive vectors means the relations are no line."""
    m = len(g.edges)
    assert m <= 10, "brute force is for small graphs"
    closing: list[list[int]] = [[] for _ in range(m)]  # the vertices whose last edge is e
    for v in range(len(g.vertices)):
        touching = [e for e, ends in enumerate(g.edge_indices) if v in ends]
        if touching:
            closing[max(touching)].append(v)
    total = [0] * len(g.vertices)
    found = set()

    def extend(chosen: list[int]) -> None:
        e = len(chosen)
        if e == m:
            if any(chosen) and math.gcd(*chosen) == 1:
                first = next(c for c in chosen if c)
                found.add(tuple(c if first > 0 else -c for c in chosen))
            return
        iu, iv = g.edge_indices[e]
        for c in range(-2, 3):
            total[iu] += c
            total[iv] += c
            if not any(total[v] for v in closing[e]):
                extend(chosen + [c])
            total[iu] -= c
            total[iv] -= c

    extend([])
    assert len(found) == 1, found
    return found.pop()


def induced_cycles(g: Graph, max_length: int) -> list[tuple[str, ...]]:
    """Every induced cycle on 3..max_length vertices, by testing each vertex
    subset: its induced subgraph must be 2-regular and connected.  A cycle
    is written from its least vertex position, towards the smaller of that
    vertex's two neighbors; cycles come by length, then by position tuple."""
    n = len(g.vertices)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for iu, iv in g.edge_indices:
        nbrs[iu].add(iv)
        nbrs[iv].add(iu)
    found = []
    for k in range(3, min(n, max_length) + 1):
        for subset in itertools.combinations(range(n), k):
            inside = set(subset)
            if any(len(nbrs[v] & inside) != 2 for v in subset):
                continue
            start = subset[0]  # the least position
            walk = [start, min(nbrs[start] & inside)]
            while len(walk) < k:
                (step,) = (nbrs[walk[-1]] & inside) - {walk[-2]}
                if step == start:
                    break  # closed early: two or more cycles, not connected
                walk.append(step)
            if len(walk) == k:
                found.append(tuple(walk))
    return [tuple(g.vertices[i] for i in cyc) for cyc in sorted(found, key=lambda c: (len(c), c))]


def interior_by_decompositions(g: Graph, t) -> bool:
    """Whether t = A lambda for some lambda with every lambda_e > 0, for t
    in the edge cone of g.

    The vertices of {lambda >= 0 : A lambda = t} are half-integral, and a
    point with every lambda_e > 0 exists iff each edge is positive at
    some vertex.  So t is interior iff the supports of the decompositions
    of 2t cover every edge.  They come from a sweep that gives each edge,
    in order, every weight its ends still allow, and drops a choice as soon
    as a vertex whose edges are all weighed is not met; it stops once every
    edge is covered."""
    m = len(g.edges)
    closing: list[list[int]] = [[] for _ in range(m)]  # the vertices whose last edge is e
    for v in range(len(g.vertices)):
        touching = [e for e, ends in enumerate(g.edge_indices) if v in ends]
        assert touching, "every vertex needs an edge"
        closing[max(touching)].append(v)
    residual = [2 * x for x in t]
    chosen: list[int] = []
    covered: set[int] = set()

    def sweep() -> None:
        e = len(chosen)
        if e == m:
            covered.update(f for f, c in enumerate(chosen) if c)
            return
        iu, iv = g.edge_indices[e]
        for c in range(min(residual[iu], residual[iv]) + 1):
            residual[iu] -= c
            residual[iv] -= c
            if not any(residual[v] for v in closing[e]):
                chosen.append(c)
                sweep()
                chosen.pop()
            residual[iu] += c
            residual[iv] += c
            if len(covered) == m:
                return

    sweep()
    return len(covered) == m


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


def has_unjoined_odd_cycles(g: Graph) -> bool:
    """Whether two vertex-disjoint induced odd cycles of g have no edge
    between them, by testing every pair of `induced_cycles`.  In one
    connected component this breaks the odd cycle condition, so the edge
    subring is not normal."""
    edges = {frozenset(e) for e in g.edges}
    odd = [set(c) for c in induced_cycles(g, len(g.vertices)) if len(c) % 2]
    return any(
        not a & b and not any(frozenset((u, v)) in edges for u in a for v in b)
        for a, b in itertools.combinations(odd, 2)
    )


def non_normal_graph(rng: random.Random, max_vertices: int = 8, max_edges: int = 10) -> Graph:
    """A connected graph whose edge subring is not normal: two vertex-disjoint
    odd cycles joined by a path of length at least 2, plus random extra edges
    up to `max_edges`, each kept only if two vertex-disjoint induced odd
    cycles with no edge between them remain (`has_unjoined_odd_cycles`)."""
    while True:
        k1, k2 = rng.choice((3, 5)), rng.choice((3, 5))
        length = rng.randint(2, 4)
        if k1 + k2 + length - 1 <= max_vertices and k1 + k2 + length <= max_edges:
            break
    a = [f"a{i}" for i in range(k1)]
    b = [f"b{i}" for i in range(k2)]
    path = [a[0], *(f"p{i}" for i in range(1, length)), b[0]]
    edges = [(c[i - 1], c[i]) for c in (a, b) for i in range(len(c))]
    edges += list(zip(path, path[1:]))
    labels = a + b + path[1:-1]
    spare = [e for e in itertools.combinations(labels, 2)
             if e not in edges and e[::-1] not in edges]
    rng.shuffle(spare)
    for e in spare[: rng.randint(0, max_edges - len(edges))]:
        if has_unjoined_odd_cycles(Graph(labels, edges + [e])):
            edges.append(e)
    g = Graph(labels, edges)
    assert has_unjoined_odd_cycles(g)
    return g


def union_find_components(g: Graph) -> list[tuple[str, ...]]:
    """Connected components by union-find over the edge list, each in vertex
    order, ordered by their first vertex."""
    parent = list(range(len(g.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for iu, iv in g.edge_indices:
        parent[find(iu)] = find(iv)
    groups: dict[int, list[str]] = {}
    for i, v in enumerate(g.vertices):
        groups.setdefault(find(i), []).append(v)
    return [tuple(members) for members in groups.values()]


def two_colorings(g: Graph) -> list[tuple[int, ...]]:
    """Every proper 2-coloring of the vertices, out of all 2^n colorings
    (at most 7 vertices)."""
    n = len(g.vertices)
    assert n <= 7, "brute force is for small graphs"
    return [
        c for c in itertools.product((0, 1), repeat=n)
        if all(c[iu] != c[iv] for iu, iv in g.edge_indices)
    ]


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


def _composes_to_zero(upper: list[dict[int, int]], lower: list[dict[int, int]]) -> bool:
    """Whether the sparse map `lower` after `upper` is zero over the integers."""
    for col in upper:
        acc: dict[int, int] = {}
        for j, c in col.items():
            for i, v in lower[j].items():
                acc[i] = acc.get(i, 0) + c * v
        if any(acc.values()):
            return False
    return True


def core_by_definition(k) -> tuple[int, ...]:
    """The facet masks of k's core, sorted: dominated vertices deleted by
    the definition, in sweeps over the ground positions from the lowest,
    each deleting a vertex found dominated at its turn, until a sweep
    deletes none.  v is dominated when another vertex lies in every facet
    holding v; deleting it keeps the sets of the facets less v that lie in
    no other, every pair tested."""
    facets = [frozenset(f) for f in k.facets]
    ground = range(len(k.ground))
    changed = True
    while changed:
        changed = False
        for v in ground:
            holding = [f for f in facets if v in f]
            if not holding or not any(w != v and all(w in f for f in holding) for w in ground):
                continue
            faces = {f - {v} for f in facets}
            facets = [f for f in faces if not any(f < other for other in faces)]
            changed = True
    return tuple(sorted(sum(1 << x for x in f) for f in facets))


def composition_vanishes(k) -> bool:
    """The engine's d_{d-1} after its d_d is the zero map, checked over the
    integers."""
    return all(
        _composes_to_zero(boundary_matrix(k, d), boundary_matrix(k, d - 1))
        for d in range(1, k.dim + 1)
    )


def relative_composition_vanishes(k) -> bool:
    """The same for the complex `reduced_homology` reduces: the chains of
    k's core relative to a vertex star (`_relative_faces`), by size, with
    the boundary terms in the link dropped (`_boundary_columns`)."""
    core = k.core()
    if core.is_void or core.is_irrelevant:
        return True
    chains, in_link = homology._relative_faces(core)
    # maps[n] sends the chains of size n + 1 to those of size n
    maps = [
        homology._boundary_columns(chains[n + 1], chains[n], in_link)
        for n in range(len(chains) - 1)
    ]
    return all(_composes_to_zero(upper, lower) for lower, upper in zip(maps, maps[1:]))


def euler_characteristic_check(k, field=RATIONALS) -> bool:
    """Reduced Euler characteristic from face counts equals the one from homology."""
    if k.is_void:
        return True
    # the faces of size n have dimension n - 1
    from_faces = sum((-1) ** (n + 1) * len(faces) for n, faces in enumerate(faces_from_facets(k)))
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


def signed_boundary(faces: list[list[tuple[int, ...]]], n: int) -> list[dict[int, int]]:
    """The columns of the boundary map from the faces of size n to those of
    size n - 1, by the definition: (v_0 < ... < v_{n-1}) goes to the sum
    over j of (-1)^j times the face without v_j.  `faces` is
    `faces_from_facets`' list; rows are numbered in its order."""
    row = {face: i for i, face in enumerate(faces[n - 1])}
    return [
        {row[face[:j] + face[j + 1:]]: (-1) ** j for j in range(n)}
        for face in faces[n]
    ]


def homology_via_sympy(k, modulus=None) -> list[int]:
    """Reduced homology by rank-nullity on the augmented chain complex,
    with faces from `faces_from_facets`, boundaries from `signed_boundary`
    and sympy ranks: none of it runs the engine's faces or boundaries."""
    if k.is_void:
        return [0]
    faces = faces_from_facets(k)
    counts = [len(level) for level in faces]
    # ranks[n]: the rank of the boundary from size n to size n - 1
    ranks = (
        [0]
        + [sympy_rank(signed_boundary(faces, n), counts[n - 1], modulus) for n in range(1, len(faces))]
        + [0]
    )
    return [counts[n] - ranks[n] - ranks[n + 1] for n in range(len(counts))]


def permuted_homology(k, rng: random.Random, field) -> list[int]:
    perm = list(range(len(k.ground)))
    rng.shuffle(perm)
    return reduced_homology(k.permuted(perm), field)


def matching_number(g: Graph) -> int:
    """The size of a largest matching of g, by trying every set of edges,
    the largest first."""
    for k in range(len(g.vertices) // 2, 0, -1):
        for chosen in itertools.combinations(g.edges, k):
            if len({v for edge in chosen for v in edge}) == 2 * k:
                return k
    return 0


def convolve_entries(e1: dict, e2: dict) -> dict:
    """Multigraded convolution of two Betti-entry dicts; degrees concatenate."""
    out: dict = {}
    for (i1, s1), v1 in e1.items():
        for (i2, s2), v2 in e2.items():
            key = (i1 + i2, tuple(s1) + tuple(s2))
            out[key] = out.get(key, 0) + v1 * v2
    return out
