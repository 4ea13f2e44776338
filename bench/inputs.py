"""Benchmark inputs: the canonical graphs and their seeded relabelling.

Every graph is built here from its definition, not by the package under
test, so the inputs stay fixed when the package changes.  A `Spec` keeps the
graph by vertex position together with the structure the reference checks
need (connected components and their kind, or the pattern's cycles and
paths).

Seed 0 writes each graph in its canonical vertex and edge order.  Any other
seed renames every vertex, shuffles the vertex list and flips each edge's
endpoints at random.  Edge k still joins the endpoints of canonical edge k,
so the engine, which visits edges in file order, does the same work on
every seed up to the order in which it meets multidegrees.  Reordering the
edges themselves would not do: edge order alone moves the K_{3,4} scan by
about 45%, more than any bound the benchmark could keep across seeds.
"""

from __future__ import annotations

import json
import os
import random
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """A graph by vertex position, with the facts the checks rely on.

    `components` lists (kind, positions) for each connected component:
    ("k2n", rows + columns) for K_{2,n} with its two rows first, or
    ("bowtie", (centre, a1, a2, b1, b2)).  `pattern` holds the positions of
    (cycle1, cycle2, path1, path2) for the two-cycles-two-paths graphs.
    """

    name: str
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[str, tuple[int, ...]], ...] = ()
    pattern: tuple[tuple[int, ...], ...] = ()


def complete_bipartite(u: int, v: int) -> Spec:
    labels = tuple(f"a{i}" for i in range(1, u + 1)) + tuple(f"b{j}" for j in range(1, v + 1))
    edges = tuple((i, u + j) for i in range(u) for j in range(v))
    return Spec(f"k{u}{v}", labels, edges)


def k23_k22() -> Spec:
    """K_{2,3} on a1,a2 | b1..b3 beside K_{2,2} on c1,c2 | d1,d2."""
    labels = ("a1", "a2", "b1", "b2", "b3", "c1", "c2", "d1", "d2")
    edges = tuple((i, 2 + j) for i in range(2) for j in range(3)) + tuple(
        (5 + i, 7 + j) for i in range(2) for j in range(2)
    )
    comps = (("k2n", (0, 1, 2, 3, 4)), ("k2n", (5, 6, 7, 8)))
    return Spec("k23k22", labels, edges, components=comps)


def two_bowties() -> Spec:
    """Two disjoint bowties: triangles c,a,b and c,d,e sharing the centre c."""
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    comps = []
    for k in (1, 2):
        base = len(labels)
        labels += [f"c{k}", f"a{k}", f"b{k}", f"d{k}", f"e{k}"]
        c, a, b, d, e = range(base, base + 5)
        edges += [(c, a), (a, b), (b, c), (c, d), (d, e), (e, c)]
        comps.append(("bowtie", (c, a, b, d, e)))
    return Spec("bowties", tuple(labels), tuple(edges), components=tuple(comps))


def pattern(c1: int, c2: int, p: int, q: int, share: str) -> Spec:
    """Two odd cycles joined by two paths of lengths p and q.

    share "none" attaches the paths at distinct vertices of both cycles,
    "both" pins both paths to x1 and y1.  Vertex and edge order follow the
    package's documented construction: x-cycle, y-cycle, path vertices.
    """
    xs = [f"x{i}" for i in range(1, c1 + 1)]
    ys = [f"y{i}" for i in range(1, c2 + 1)]
    zs = [f"z{i}" for i in range(1, p)]
    ws = [f"w{i}" for i in range(1, q)]
    labels = xs + ys + zs + ws
    pos = {lab: i for i, lab in enumerate(labels)}
    if share == "both":
        p1 = [xs[0]] + zs + [ys[0]]
        p2 = [xs[0]] + ws + [ys[0]]
    elif share == "none":
        p1 = [xs[0]] + zs + [ys[0]]
        p2 = [xs[1]] + ws + [ys[1]]
    else:
        raise ValueError(f"unsupported share {share!r}")
    edges: list[tuple[int, int]] = []
    for cyc in (xs, ys):
        edges += [(pos[cyc[i]], pos[cyc[(i + 1) % len(cyc)]]) for i in range(len(cyc))]
    for path in (p1, p2):
        edges += [(pos[a], pos[b]) for a, b in zip(path, path[1:])]
    parts = tuple(tuple(pos[v] for v in seq) for seq in (xs, ys, p1, p2))
    return Spec(f"pattern-{c1}-{c2}-{p}-{q}-{share}", tuple(labels), tuple(edges), pattern=parts)


def _fresh_labels(rng: random.Random, n: int) -> list[str]:
    alphabet = string.ascii_lowercase + string.digits
    out: set[str] = set()
    while len(out) < n:
        out.add(rng.choice(string.ascii_lowercase) + "".join(rng.choices(alphabet, k=3)))
    labels = sorted(out)
    rng.shuffle(labels)
    return labels


@dataclass(frozen=True)
class Instance:
    """One seed's graph file: `position[v]` is the file position of the
    canonical vertex v."""

    path: str
    document: dict
    position: tuple[int, ...]

    def to_file(self, canonical_vector) -> tuple[int, ...]:
        """Reorder a vector indexed by canonical vertex into file order."""
        out = [0] * len(self.position)
        for v, x in enumerate(canonical_vector):
            out[self.position[v]] = x
        return tuple(out)


def graph_document(spec: Spec, seed: int) -> tuple[dict, tuple[int, ...]]:
    """The JSON graph the engine receives for this seed, and the position map.

    Edge k always joins the (renamed) endpoints of canonical edge k, so the
    edge sequence keeps its canonical incidence pattern while the vertex
    list is shuffled.
    """
    n = len(spec.labels)
    order = list(range(n))
    names = list(spec.labels)
    rng = random.Random(f"{seed}:{spec.name}")
    if seed != 0:
        rng.shuffle(order)
        names = _fresh_labels(rng, n)
    edges = []
    for a, b in spec.edges:
        pair = [names[a], names[b]]
        if seed != 0 and rng.random() < 0.5:
            pair.reverse()
        edges.append(pair)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    return {"vertices": [names[v] for v in order], "edges": edges}, tuple(position)


def write_graph(spec: Spec, seed: int, directory: str) -> Instance:
    """Write the seed's graph file into `directory`."""
    doc, position = graph_document(spec, seed)
    path = os.path.join(directory, f"{spec.name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return Instance(path, doc, position)
