"""Command-line interface: deterministic JSON reports on stdout.

Subcommands
    analyze        full report: Betti table, invariants, structural checks
    betti          the multigraded Betti table alone
    complex        facets of one degree complex
    fiber          all decompositions of one multidegree
    certify-noncm  search for (or verify) a pattern certificate
    bounds         reg/pd lower bounds from disjoint induced parts

Exit codes: 0 success, 1 bad input or internal error, 2 a resource cap was
exceeded.
Given identical input files and flags the byte output is identical; the only
stdout content is the JSON document.  Human-readable summaries go to stderr
under --verbose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from . import __version__
from .betti import (
    DEFAULT_MAX_SCAN,
    ScanOverflowError,
    betti_table,
    invariants,
)
from .complexes import build_delta
from .fiber import DEFAULT_MAX_FIBER, FiberOverflowError, degree_vector, enumerate_fiber
from .graph import (
    Graph,
    GraphFormatError,
    connected_components,
    is_bipartite,
    loads_graph,
)
from .homology import parse_field
from .structure import (
    ForbiddenEmbedding,
    detect_forbidden,
    forbidden_reg_bound,
    forbidden_reg_bound_standard,
    lower_bounds,
    noncm_certificate,
    odd_cycle_condition,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # resource-cap aborts, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_graph_arg(path: str) -> tuple[Graph, dict]:
    data = _read_file(path)
    g = loads_graph(data.decode("utf-8"))
    meta = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return g, meta


def _load_json_file(path: str, what: str):
    data = _read_file(path)
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path}: line {exc.lineno}: invalid JSON ({exc.msg})") from None


def _graph_section(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.edges],
        "vertex_count": len(g.vertices),
        "edge_count": len(g.edges),
        "components": [list(c) for c in connected_components(g)],
        "bipartite_components": is_bipartite(g),
    }


def _table_section(table) -> dict:
    entries = [
        {"index": i, "degree": list(s), "value": v}
        for i, s, v in table.sorted_entries()
    ]
    standard = [
        {"index": i, "degree": j, "value": v}
        for (i, j), v in sorted(table.standard_graded().items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]
    return {
        "max_degree": table.max_degree,
        "field": str(table.field),
        "certified": table.certified,
        "caveats": list(table.caveats),
        "entries": entries,
        "standard": standard,
    }


def _invariants_section(inv) -> dict:
    return {
        "regularity": inv.regularity,
        "projective_dimension": inv.projective_dimension,
        "depth": inv.depth,
        "dimension": inv.dimension,
        "cohen_macaulay": inv.cohen_macaulay,
        "certified": inv.certified,
        "max_degree": inv.max_degree,
        "caveats": list(inv.caveats),
    }


def _certificate_section(cert) -> dict:
    return {
        "embedding": cert.embedding.as_dict(),
        "degree": list(cert.degree),
        "facet_count": cert.facet_count,
        "h2_dimension": cert.h2_dim,
        "beta3": cert.beta3,
        "applicable": cert.applicable,
        "verdict": cert.verdict,
        "regularity_bounds": {
            "vertex_weight_convention": cert.reg_bound_vertex_weight,
            "standard_degree_convention": cert.reg_bound_standard,
        },
    }


def _parse_embedding(obj) -> ForbiddenEmbedding:
    if not isinstance(obj, dict):
        raise ValueError("embedding file must hold an object with cycle1/cycle2/path1/path2")
    parts = {}
    for key in ("cycle1", "cycle2", "path1", "path2"):
        if key not in obj or not isinstance(obj[key], list):
            raise ValueError(f"embedding file: missing or non-list {key!r}")
        parts[key] = tuple(str(v) for v in obj[key])
    return ForbiddenEmbedding(**parts)


def _exhaustive(g: Graph, args) -> bool:
    """Whether --max-cycle and --max-path leave the pattern search unbounded
    on this graph: no induced cycle is longer than |V| and no connecting
    path longer than |V| - 1 (paths have length at least 2)."""
    n = len(g.vertices)
    return (args.max_cycle is None or args.max_cycle >= n) and (
        args.max_path is None or args.max_path >= max(n - 1, 2)
    )


# -- subcommand handlers ----------------------------------------------------


def _cmd_analyze(args) -> dict:
    g, meta = _load_graph_arg(args.graph)
    field = parse_field(args.field)
    table = betti_table(
        g,
        args.max_deg,
        field=field,
        assume_complete=args.assume_complete,
        max_fiber=args.max_fiber,
        max_scan=args.max_scan,
    )
    inv = invariants(g, table)
    occ = odd_cycle_condition(g, args.max_cycle)
    cert = noncm_certificate(
        g,
        field=field,
        max_fiber=args.max_fiber,
        max_cycle=args.max_cycle,
        max_path=args.max_path,
    )
    annotations: list[str] = []
    combined = inv.cohen_macaulay
    if occ.status == "satisfied":
        annotations.append(
            "odd cycle condition satisfied: the edge subring is normal, hence Cohen-Macaulay"
        )
        if combined == "no":
            raise RuntimeError(
                "internal error: certified non-Cohen-Macaulay table contradicts the odd cycle criterion"
            )
        combined = "yes"
    if cert is not None and cert.verdict == "not-cohen-macaulay":
        annotations.append(
            "pattern certificate: depth is at most edge count minus 3, ruling out Cohen-Macaulayness"
        )
        if combined == "yes":
            raise RuntimeError(
                "internal error: pattern certificate contradicts a positive Cohen-Macaulay verdict"
            )
        combined = "no"
    report = {
        "graph": _graph_section(g),
        "betti": _table_section(table),
        "invariants": _invariants_section(inv),
        "odd_cycle_condition": {
            "status": occ.status,
            "witness": [list(occ.witness[0]), list(occ.witness[1])] if occ.witness else None,
            "max_length": occ.max_length,
            "complete": occ.complete,
            "cycles_found": occ.cycles_found,
        },
        "forbidden_structure": {
            "found": cert is not None,
            "max_cycle": args.max_cycle,
            "max_path": args.max_path,
            "exhaustive": _exhaustive(g, args),
        },
        "certificate": _certificate_section(cert) if cert is not None else None,
        "cohen_macaulay": combined,
        "annotations": annotations,
    }
    return {**_base(meta, "analyze"), **report}


def _cmd_betti(args) -> dict:
    g, meta = _load_graph_arg(args.graph)
    table = betti_table(
        g,
        args.max_deg,
        field=parse_field(args.field),
        assume_complete=args.assume_complete,
        max_fiber=args.max_fiber,
        max_scan=args.max_scan,
    )
    inv = invariants(g, table)
    return {
        **_base(meta, "betti"),
        "graph": _graph_section(g),
        "betti": _table_section(table),
        "invariants": _invariants_section(inv),
    }


def _cmd_complex(args) -> dict:
    g, meta = _load_graph_arg(args.graph)
    s = degree_vector(g, _load_json_file(args.degree, "degree"))
    delta = build_delta(g, s, max_fiber=args.max_fiber)
    return {
        **_base(meta, "complex"),
        "graph": _graph_section(g),
        "degree": list(s),
        "void": delta.is_void,
        "irrelevant": delta.is_irrelevant,
        "dimension": delta.dim,
        "facet_count": len(delta.facets),
        "facets": [[list(e) for e in facet] for facet in delta.facet_labels()],
    }


def _cmd_fiber(args) -> dict:
    g, meta = _load_graph_arg(args.graph)
    s = degree_vector(g, _load_json_file(args.degree, "degree"))
    decomps = enumerate_fiber(g, s, max_size=args.max_fiber)
    return {
        **_base(meta, "fiber"),
        "graph": _graph_section(g),
        "degree": list(s),
        "count": len(decomps),
        "in_semigroup": bool(decomps),
        "decompositions": [list(d.coefficients) for d in decomps],
    }


def _cmd_certify(args) -> dict:
    g, meta = _load_graph_arg(args.graph)
    field = parse_field(args.field)
    embedding = None
    if args.embedding:
        embedding = _parse_embedding(_load_json_file(args.embedding, "embedding"))
    cert = noncm_certificate(
        g,
        embedding,
        field=field,
        max_fiber=args.max_fiber,
        max_cycle=args.max_cycle,
        max_path=args.max_path,
    )
    exhaustive = _exhaustive(g, args)
    if cert is not None:
        result = cert.verdict
    else:
        result = "none found" if exhaustive else "none found (bounded)"
    return {
        **_base(meta, "certify-noncm"),
        "graph": _graph_section(g),
        "found": cert is not None,
        "result": result,
        "search": {
            "max_cycle": args.max_cycle,
            "max_path": args.max_path,
            "exhaustive": exhaustive,
        },
        "certificate": _certificate_section(cert) if cert is not None else None,
    }


def _cmd_bounds(args) -> dict:
    g, meta = _load_graph_arg(args.graph)
    parts = _load_json_file(args.parts, "parts")
    if not isinstance(parts, list) or not all(isinstance(p, list) for p in parts):
        raise ValueError("parts file must hold a JSON array of arrays of vertex labels")
    report = lower_bounds(
        g,
        [[str(v) for v in p] for p in parts],
        field=parse_field(args.field),
        max_fiber=args.max_fiber,
        max_scan=args.max_scan,
    )
    return {
        **_base(meta, "bounds"),
        "graph": _graph_section(g),
        "regularity_lower_bound": report.regularity_lower_bound,
        "projective_dimension_lower_bound": report.projective_dimension_lower_bound,
        "parts": [
            {
                "vertices": list(p.vertices),
                "method": p.method,
                "regularity": p.regularity,
                "projective_dimension": p.projective_dimension,
                "certified": p.certified,
            }
            for p in report.parts
        ],
    }


def _base(meta: dict, command: str) -> dict:
    return {
        "tool": {"name": "toricgraph", "version": __version__},
        "command": command,
        "input": meta,
    }


def _summarize(payload: dict) -> list[str]:
    lines = [f"toricgraph {payload['tool']['version']}: {payload['command']} on {payload['input']['path']}"]
    g = payload.get("graph")
    if g:
        lines.append(f"graph: {g['vertex_count']} vertices, {g['edge_count']} edges")
    inv = payload.get("invariants")
    if inv:
        lines.append(
            "invariants: reg={regularity} pd={projective_dimension} depth={depth} "
            "dim={dimension} CM={cohen_macaulay} (certified={certified})".format(**inv)
        )
    if "cohen_macaulay" in payload:
        lines.append(f"combined Cohen-Macaulay verdict: {payload['cohen_macaulay']}")
    occ = payload.get("odd_cycle_condition")
    if occ:
        lines.append(f"odd cycle condition: {occ['status']} (searched length <= {occ['max_length']})")
    if "count" in payload:
        lines.append(f"decompositions: {payload['count']}")
    if "facet_count" in payload and payload["command"] == "complex":
        lines.append(f"facets: {payload['facet_count']} (dimension {payload['dimension']})")
    cert = payload.get("certificate")
    if cert:
        lines.append(
            f"certificate: {cert['facet_count']} facets, beta3={cert['beta3']}, verdict {cert['verdict']}"
        )
    elif payload.get("command") == "certify-noncm":
        lines.append("no pattern found within the search bounds")
    if "regularity_lower_bound" in payload:
        lines.append(
            f"bounds: reg >= {payload['regularity_lower_bound']}, "
            f"pd >= {payload['projective_dimension_lower_bound']}"
        )
    for note in payload.get("annotations", ()):
        lines.append(f"note: {note}")
    return lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="toricgraph", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"toricgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="graph file (JSON or edge-list text)")
        p.add_argument("--max-fiber", type=int, default=DEFAULT_MAX_FIBER,
                       help="cap on decompositions per multidegree, and on facets "
                       "per degree complex in a Betti scan")
        p.add_argument("--verbose", action="store_true", help="human summary on stderr")

    def scan_flags(p):
        p.add_argument("--max-deg", type=int, default=None,
                       help="scan bound in the standard grading (default: edge count)")
        p.add_argument("--field", default="q", help="coefficient field: q or a prime")
        p.add_argument("--assume-complete", action="store_true",
                       help="assert that the scan bound covers the whole resolution")
        p.add_argument("--max-scan", type=int, default=DEFAULT_MAX_SCAN,
                       help="cap on scanned semigroup elements")

    def search_flags(p):
        p.add_argument("--max-cycle", type=int, default=None,
                       help="cap on induced cycle length (default: exhaustive up to 16 vertices)")
        p.add_argument("--max-path", type=int, default=None,
                       help="cap on connecting path length")

    p = sub.add_parser("analyze", help="full homological and structural report")
    common(p)
    scan_flags(p)
    search_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("betti", help="multigraded Betti table")
    common(p)
    scan_flags(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("complex", help="facets of one degree complex")
    common(p)
    p.add_argument("--degree", required=True, help="multidegree file (JSON object or array)")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("fiber", help="decompositions of one multidegree")
    common(p)
    p.add_argument("--degree", required=True, help="multidegree file (JSON object or array)")
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("certify-noncm", help="find or verify a pattern certificate")
    common(p)
    p.add_argument("--embedding", default=None, help="embedding file (JSON) to verify")
    p.add_argument("--field", default="q", help="coefficient field: q or a prime")
    search_flags(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bounds", help="reg/pd lower bounds from disjoint induced parts")
    common(p)
    p.add_argument("--parts", required=True, help="JSON array of arrays of vertex labels")
    p.add_argument("--field", default="q", help="coefficient field: q or a prime")
    p.add_argument("--max-scan", type=int, default=DEFAULT_MAX_SCAN,
                   help="cap on scanned semigroup elements")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag in ("max_fiber", "max_scan"):  # a negative cap is bad input, not an overflow
            value = getattr(args, flag, 0)
            if value < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
        payload = args.func(args)
    except (FiberOverflowError, ScanOverflowError) as exc:
        print(f"toricgraph: error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ValueError, OSError, RuntimeError) as exc:
        # bad input, or a failed internal cross-check (RuntimeError)
        print(f"toricgraph: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if getattr(args, "verbose", False):
        for line in _summarize(payload):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
