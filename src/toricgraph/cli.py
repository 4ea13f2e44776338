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

import sys
from types import SimpleNamespace

try:  # hashlib maps OpenSSL for one digest a run; the builtin module is lean
    from _sha256 import sha256  # CPython <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        from hashlib import sha256

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
    _dumps_json,
    _json_error,
    _loads_json,
    _read_text,
    _resolve_cycle_cap,
    connected_components,
    is_bipartite,
    loads_graph,
)
from .homology import parse_field
from .structure import (
    ForbiddenEmbedding,
    _resolve_path_cap,
    lower_bounds,
    noncm_certificate,
    odd_cycle_condition,
)


def _load_json_file(path: str, what: str):
    text = _read_text(path, what)[1]
    try:
        return _loads_json(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} file {path}: {_json_error(exc, column=False)}") from None


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
    """The table's entries in report order and, summed in the same pass,
    its standard-graded entries beta_{i,j}, j = |s| / 2, by j then i."""
    entries, standard = [], {}
    for total, s, i, v in table._by_degree():
        entries.append({"index": i, "degree": list(s), "value": v})
        key = (total // 2, i)
        standard[key] = standard.get(key, 0) + v
    return {
        "max_degree": table.max_degree,
        "field": str(table.field),
        "certified": table.certified,
        "caveats": list(table.caveats),
        "entries": entries,
        "standard": [
            {"index": i, "degree": j, "value": v} for (j, i), v in sorted(standard.items())
        ],
    }


def _certificate_section(cert) -> dict:
    return {
        "embedding": cert.embedding._asdict(),
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


def _search(g: Graph, args) -> dict:
    """The report's search section: the --max-cycle and --max-path flags and
    whether they leave the search exhaustive on this graph (no induced cycle
    is longer than |V|, no connecting path longer than max(|V| - 1, 2)).  A
    bad bound fails here in the flag's words, the cycle bound first."""
    cycle = _resolve_cycle_cap(g, args.max_cycle, "--max-cycle")
    path = _resolve_path_cap(g, args.max_path, "--max-path")
    n = len(g.vertices)
    return {
        "max_cycle": args.max_cycle,
        "max_path": args.max_path,
        "exhaustive": cycle >= n and path >= max(n - 1, 2),
    }


# -- subcommand handlers: each returns its report's own sections ------------


def _table(g: Graph, field, args):
    """The Betti table that the scan flags of `args` ask for."""
    return betti_table(
        g,
        args.max_deg,
        field=field,
        assume_complete=args.assume_complete,
        max_fiber=args.max_fiber,
        max_scan=args.max_scan,
    )


def _cmd_analyze(g: Graph, args) -> dict:
    field = parse_field(args.field)
    search = _search(g, args)  # before the scan
    occ = odd_cycle_condition(g, args.max_cycle)
    table = _table(g, field, args)
    inv = invariants(g, table)
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
    return {
        "betti": _table_section(table),
        "invariants": inv._asdict(),
        "odd_cycle_condition": occ._asdict(),
        "forbidden_structure": {"found": cert is not None, **search},
        "certificate": _certificate_section(cert) if cert is not None else None,
        "cohen_macaulay": combined,
        "annotations": annotations,
    }


def _cmd_betti(g: Graph, args) -> dict:
    table = _table(g, parse_field(args.field), args)
    return {"betti": _table_section(table), "invariants": invariants(g, table)._asdict()}


def _cmd_complex(g: Graph, args) -> dict:
    s = degree_vector(g, _load_json_file(args.degree, "degree"))
    delta = build_delta(g, s, max_fiber=args.max_fiber)
    return {
        "degree": list(s),
        "void": delta.is_void,
        "irrelevant": delta.is_irrelevant,
        "dimension": delta.dim,
        "facet_count": len(delta.facets),
        "facets": [[list(e) for e in facet] for facet in delta.facet_labels()],
    }


def _cmd_fiber(g: Graph, args) -> dict:
    s = degree_vector(g, _load_json_file(args.degree, "degree"))
    decomps = enumerate_fiber(g, s, max_size=args.max_fiber)
    return {
        "degree": list(s),
        "count": len(decomps),
        "in_semigroup": bool(decomps),
        "decompositions": [list(d.coefficients) for d in decomps],
    }


def _cmd_certify(g: Graph, args) -> dict:
    field = parse_field(args.field)
    embedding = search = None  # a given embedding is verified, not searched for
    if args.embedding:
        embedding = _parse_embedding(_load_json_file(args.embedding, "embedding"))
    else:
        search = _search(g, args)
    cert = noncm_certificate(
        g,
        embedding,
        field=field,
        max_fiber=args.max_fiber,
        max_cycle=args.max_cycle,
        max_path=args.max_path,
    )
    if cert is not None:
        result = cert.verdict
    else:
        result = "none found" if search["exhaustive"] else "none found (bounded)"
    return {
        "found": cert is not None,
        "result": result,
        "search": search,
        "certificate": _certificate_section(cert) if cert is not None else None,
    }


def _cmd_bounds(g: Graph, args) -> dict:
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
    return {**report._asdict(), "parts": [p._asdict() for p in report.parts]}


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


# -- the command line -------------------------------------------------------
#
# Each command's flags are declared once, as rows (flag, type, default,
# required, help) in help order; type is int, str, or bool for a switch.
# `_build_parser` builds argparse from the rows, and `_read_argv` reads a
# plainly well-formed command line straight from them.

_MAX_FIBER = ("--max-fiber", int, DEFAULT_MAX_FIBER, False,
              "cap on decompositions per multidegree, and on facets "
              "per degree complex in a Betti scan")
_VERBOSE = ("--verbose", bool, False, False, "human summary on stderr")
_FIELD = ("--field", str, "q", False, "coefficient field: q or a prime")
_MAX_SCAN = ("--max-scan", int, DEFAULT_MAX_SCAN, False,
             "cap on scanned multidegrees, one per twin orbit")
_SCAN = (
    ("--max-deg", int, None, False, "scan bound in the standard grading (default: edge count)"),
    _FIELD,
    ("--assume-complete", bool, False, False,
     "assert that the scan bound covers the whole resolution"),
    _MAX_SCAN,
)
_SEARCH = (
    ("--max-cycle", int, None, False,
     "cap on induced cycle length (default: exhaustive up to 16 vertices)"),
    ("--max-path", int, None, False, "cap on connecting path length"),
)
_DEGREE = ("--degree", str, None, True, "multidegree file (JSON object or array)")

# name: (help, handler, flags after the graph, --max-fiber and --verbose)
_COMMANDS = {
    "analyze": ("full homological and structural report", _cmd_analyze, _SCAN + _SEARCH),
    "betti": ("multigraded Betti table", _cmd_betti, _SCAN),
    "complex": ("facets of one degree complex", _cmd_complex, (_DEGREE,)),
    "fiber": ("decompositions of one multidegree", _cmd_fiber, (_DEGREE,)),
    "certify-noncm": ("find or verify a pattern certificate", _cmd_certify, (
        ("--embedding", str, None, False, "embedding file (JSON) to verify"),
        _FIELD,
        *_SEARCH,
    )),
    "bounds": ("reg/pd lower bounds from disjoint induced parts", _cmd_bounds, (
        ("--parts", str, None, True, "JSON array of arrays of vertex labels"),
        _FIELD,
        _MAX_SCAN,
    )),
}


def _flags(command: str) -> tuple:
    """`command`'s flag rows in help order."""
    return (_MAX_FIBER, _VERBOSE, *_COMMANDS[command][2])


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag's value under."""
    return flag[2:].replace("-", "_")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for `argv`, read straight from the
    flag table when `argv` is plainly well formed: a command first, exactly
    one graph path, exact flag names each with a plain value (an int flag's
    may be an ASCII negative integer), ints through int(), a repeated flag's
    last value.  None for anything else, which is the parser's to read,
    help and errors included."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, func = argv[0], _COMMANDS[argv[0]][1]
    flags = _flags(command)
    kinds = {flag: kind for flag, kind, _, _, _ in flags}
    values = {_dest(flag): default for flag, _, default, _, _ in flags}
    graph = None
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if graph is not None:
                return None
            graph = arg
            continue
        kind = kinds.get(arg)
        if kind is None:
            return None
        value = True
        if kind is not bool:
            value = next(rest, None)
            if value is None or value.startswith("-") and not (
                kind is int and value[1:].isascii() and value[1:].isdigit()
            ):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
        values[_dest(arg)] = value
    # a required flag's default is None, and every value read is a string
    if graph is None or any(
        required and values[_dest(flag)] is None for flag, _, _, required, _ in flags
    ):
        return None
    return SimpleNamespace(command=command, graph=graph, **values, func=func)


def _build_parser():
    """The parser for every command.  The only place that imports argparse:
    a well-formed command line never needs it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on usage errors; this tool reserves 2 for
        # resource-cap aborts, so usage problems are remapped to 1
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="toricgraph", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"toricgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("graph", help="graph file (JSON or edge-list text)")
        for flag, kind, default, required, flag_help in _flags(name):
            if kind is bool:
                p.add_argument(flag, action="store_true", help=flag_help)
            else:
                p.add_argument(flag, type=kind, default=default, required=required, help=flag_help)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        for flag in ("max_fiber", "max_scan", "max_deg"):  # negative: bad input, not an overflow
            value = getattr(args, flag, None) or 0
            if value < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
        data, text = _read_text(args.graph)
        g = loads_graph(text)
        # the envelope of every report; the handler adds its own sections
        payload = {
            "tool": {"name": "toricgraph", "version": __version__},
            "command": args.command,
            "input": {"path": args.graph, "sha256": sha256(data).hexdigest()},
            "graph": _graph_section(g),
            **args.func(g, args),
        }
    except (FiberOverflowError, ScanOverflowError) as exc:
        print(f"toricgraph: error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ValueError, OSError, RuntimeError) as exc:
        # bad input, or a failed internal cross-check (RuntimeError)
        print(f"toricgraph: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_dumps_json(payload) + "\n")
    if getattr(args, "verbose", False):
        for line in _summarize(payload):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
