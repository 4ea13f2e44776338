"""A whole-graph Betti scan, the reference for `betti_table`'s component split.

`betti_table` scans each connected component on its own and convolves the
tables.  This scan does neither: it walks every semigroup element of the
whole graph up to the degree bound and runs reduced homology on its degree
complex.  It is built from the engine's layers (semigroup levels, degree
complexes, reduced homology), so unlike `oracles.py` it checks the split
and the convolution, not the layers themselves.

Cones are skipped, by a test written here rather than the engine's
`common_vertex`: a cone is contractible, and running homology on every cone
of K_{2,2} + K_{2,3} up to degree 10 costs about 40 s instead of about 6 s.
"""

from __future__ import annotations

from toricgraph import RATIONALS, build_delta, reduced_homology, semigroup_levels


def whole_graph_entries(g, max_degree: int, field=RATIONALS, on_complex=None) -> dict:
    """Nonzero beta_{i,s} of g with |s| <= 2 * max_degree; `on_complex(s,
    delta)` sees every degree complex built, in scan order."""
    entries = {}
    for level in semigroup_levels(g, max_degree):
        for s in level:
            delta = build_delta(g, s)
            if on_complex is not None:
                on_complex(s, delta)
            if delta.facets and frozenset.intersection(*delta.facets):
                continue  # every facet holds a common edge: a cone
            for i, dim in enumerate(reduced_homology(delta, field)):
                if dim:
                    entries[(i, s)] = dim
    return entries
