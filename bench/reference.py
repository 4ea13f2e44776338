"""Reference checks for the engine's reports, computed without the engine.

* Every Betti table is checked in every multidegree s it covers:
  sum_i (-1)^i beta_{i,s} must equal the coefficient of t^s in the
  K-polynomial, the numerator of the Hilbert series over the edge polynomial
  ring.  Each multidegree of the semigroup has a one-dimensional graded
  piece, so K = (sum over the semigroup of t^s) * prod_e (1 - t^{col_e}),
  and the semigroup comes from this module's own enumeration.
* Disjoint unions are compared entry by entry with the Kuenneth convolution
  of closed-form component tables: the Eagon-Northcott resolution of the
  2 x n minors for K_{2,n}, and a single cubic relation for the bowtie.
* K_{3,4} has regularity 2 and projective dimension 6 and is
  Cohen-Macaulay (2 x 2 minors of a generic 3 x 4 matrix).
* Each pattern graph has |E| = |V| + 2, so its degree complex at the
  certifying multidegree must have 4 facets and beta_3 >= 1, which rules out
  Cohen-Macaulayness.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from itertools import combinations

from inputs import Instance, Spec

DECIDED = ("yes", "no", "not-cohen-macaulay")


def file_edges(doc: dict) -> list[tuple[int, int]]:
    index = {v: i for i, v in enumerate(doc["vertices"])}
    return [(index[u], index[v]) for u, v in doc["edges"]]


def report_table(report: dict) -> dict:
    return {(e["index"], tuple(e["degree"])): e["value"] for e in report["betti"]["entries"]}


def euler_problems(report: dict, doc: dict) -> list[str]:
    """Per-multidegree Euler characteristic of the table against the
    K-polynomial, for every multidegree of standard degree <= max_degree."""
    n = len(doc["vertices"])
    top = report["betti"]["max_degree"]
    base = top + 1  # a coordinate of a sum of at most `top` edges is <= top
    cols = [base**a + base**b for a, b in file_edges(doc)]
    level = {0: 0}
    frontier = [0]
    for d in range(1, top + 1):
        nxt = {x + c for x in frontier for c in cols}
        for x in nxt:
            level[x] = d
        frontier = list(nxt)
    kpoly = dict.fromkeys(level, 1)
    for c in cols:
        shifted = dict(kpoly)
        for x, v in kpoly.items():
            if v and level[x] < top:
                shifted[x + c] -= v
        kpoly = shifted
    euler: dict[int, int] = {}
    for (i, s), v in report_table(report).items():
        if len(s) != n or any(x < 0 or x > top for x in s) or sum(s) > 2 * top:
            return [f"entry beta_{i},{list(s)} lies outside the scanned range"]
        code = sum(x * base**k for k, x in enumerate(s))
        if code not in level:
            return [f"entry beta_{i},{list(s)} is not in the semigroup"]
        euler[code] = euler.get(code, 0) + (-1) ** i * v
    bad = [x for x in level if euler.get(x, 0) != kpoly[x]]
    if bad:
        return [f"{len(bad)} multidegrees disagree with the K-polynomial"]
    return []


def eagon_northcott(rows: tuple[int, int], columns: tuple[int, ...], n: int) -> dict:
    """Multigraded resolution of the 2 x 2 minors of a 2 x m generic matrix,
    i.e. the toric ring of K_{2,m}: term i >= 1 has one summand in degree
    rows + e_J + p*row1 + (i-1-p)*row2 for each (i+1)-subset J of columns and
    0 <= p <= i-1."""
    r1, r2 = rows
    table = {(0, (0,) * n): 1}
    for i in range(1, len(columns)):
        for subset in combinations(columns, i + 1):
            for p in range(i):
                s = [0] * n
                for j in subset:
                    s[j] += 1
                s[r1] += 1 + p
                s[r2] += 1 + (i - 1 - p)
                table[(i, tuple(s))] = 1
    return table


def bowtie(centre: int, others: tuple[int, ...], n: int) -> dict:
    """The bowtie's ring is a hypersurface: one relation, the closed walk
    through both triangles, of multidegree 2 at the centre and 1 elsewhere."""
    s = [0] * n
    s[centre] = 2
    for v in others:
        s[v] = 1
    return {(0, (0,) * n): 1, (1, tuple(s)): 1}


def convolve(t1: dict, t2: dict) -> dict:
    out: dict = {}
    for (i1, s1), v1 in t1.items():
        for (i2, s2), v2 in t2.items():
            key = (i1 + i2, tuple(a + b for a, b in zip(s1, s2)))
            out[key] = out.get(key, 0) + v1 * v2
    return out


def union_reference(spec: Spec, inst: Instance) -> dict:
    """The full multigraded Betti table of a disjoint union, in file order."""
    n = len(spec.labels)
    total = {(0, (0,) * n): 1}
    for kind, verts in spec.components:
        if kind == "k2n":
            part = eagon_northcott(verts[:2], verts[2:], n)
        else:
            part = bowtie(verts[0], verts[1:], n)
        total = convolve(total, part)
    return {(i, inst.to_file(s)): v for (i, s), v in total.items()}


def _invariant_problems(report: dict, table: dict) -> list[str]:
    inv = report["invariants"]
    reg = max(sum(s) // 2 - i for i, s in table)
    pd = max(i for i, _ in table)
    out = []
    if (inv["regularity"], inv["projective_dimension"]) != (reg, pd):
        out.append(
            f"reg/pd {inv['regularity']}/{inv['projective_dimension']}, expected {reg}/{pd}"
        )
    return out


def check_union(report: dict, spec: Spec, inst: Instance) -> list[str]:
    """`analyze` of a Cohen-Macaulay disjoint union."""
    problems = euler_problems(report, inst.document)
    full = union_reference(spec, inst)
    top = report["betti"]["max_degree"]
    expected = {k: v for k, v in full.items() if sum(k[1]) <= 2 * top}
    got = report_table(report)
    if got != expected:
        wrong = len(set(got.items()) ^ set(expected.items()))
        problems.append(f"table differs from the Kuenneth reference in {wrong} entries")
    if report["betti"]["certified"] and expected != full:
        problems.append("table claims certification but stops before the resolution ends")
    problems += _invariant_problems(report, expected)
    for verdict in (report["invariants"]["cohen_macaulay"], report["cohen_macaulay"]):
        if verdict not in ("yes", "unknown"):
            problems.append(f"Cohen-Macaulay verdict {verdict!r}; the ring is Cohen-Macaulay")
    if report["forbidden_structure"]["found"]:
        problems.append("reported a pattern certificate on a graph without one")
    return problems


def check_k34(report: dict, spec: Spec, inst: Instance) -> list[str]:
    """`betti` of K_{3,4} at its known top degree 8."""
    problems = euler_problems(report, inst.document)
    inv = report["invariants"]
    got = (
        inv["regularity"],
        inv["projective_dimension"],
        inv["cohen_macaulay"],
        report["betti"]["certified"],
    )
    if got != (2, 6, "yes", True):
        problems.append(f"reg, pd, CM, certified = {got}, expected (2, 6, 'yes', True)")
    return problems


def check_pattern(report: dict, spec: Spec, inst: Instance) -> list[str]:
    """`certify-noncm` of a bare two-cycles-two-paths graph."""
    n, m = len(spec.labels), len(spec.edges)
    if m != n + 2:
        return [f"input has |E| = {m}, |V| = {n}; the check needs |E| = |V| + 2"]
    cert = report.get("certificate")
    if not report.get("found") or cert is None:
        return ["no certificate found"]
    problems = []
    if cert["facet_count"] != 4:
        problems.append(f"facet_count {cert['facet_count']}, expected 4")
    if cert["beta3"] < 1 or cert["h2_dimension"] != cert["beta3"]:
        problems.append(f"beta3 {cert['beta3']}, h2 {cert['h2_dimension']}; expected equal and >= 1")
    verdicts = (cert["verdict"], report["result"])
    if not cert["applicable"] or verdicts != ("not-cohen-macaulay",) * 2:
        problems.append(f"verdict {report['result']!r}, expected 'not-cohen-macaulay'")
    index = {v: i for i, v in enumerate(inst.document["vertices"])}
    emb = cert["embedding"]
    got_cycles = {frozenset(index[v] for v in emb[k]) for k in ("cycle1", "cycle2")}
    got_paths = {frozenset(index[v] for v in emb[k]) for k in ("path1", "path2")}
    c1, c2, p1, p2 = ([inst.position[v] for v in part] for part in spec.pattern)
    if got_cycles != {frozenset(c1), frozenset(c2)} or got_paths != {frozenset(p1), frozenset(p2)}:
        problems.append("certificate embedding is not the graph's pattern")
    degree = [1] * n
    for v in p1 + p2:
        degree[v] += 1
    if tuple(cert["degree"]) != tuple(degree):
        problems.append("certifying multidegree differs from the pattern's")
    return problems


def certified(report: dict) -> bool:
    """The answer rests on a proof: a certified table, or an applicable
    pattern certificate."""
    if "betti" in report:
        return bool(report["betti"]["certified"])
    cert = report.get("certificate")
    return bool(cert and cert["applicable"] and cert["verdict"] == "not-cohen-macaulay")


def decided(report: dict) -> bool:
    """The operation ends in a Cohen-Macaulay verdict."""
    if report["command"] == "analyze":
        return report["cohen_macaulay"] in DECIDED
    if report["command"] == "betti":
        return report["invariants"]["cohen_macaulay"] in DECIDED
    return report["result"] in DECIDED
