"""Homological invariants of toric rings of graphs via degree complexes.

The edge subring k[G] of a simple graph G is presented by one generator per
edge; its multigraded Betti numbers are dimensions of reduced homology of
the degree complexes, which this package enumerates exactly.  On top of the
table sit regularity, projective dimension, depth, Krull dimension and
Cohen-Macaulay verdicts, plus structural shortcut criteria (the odd cycle
condition and a two-cycles-two-paths pattern certifying non-Cohen-
Macaulayness of sparse graphs).
"""

__version__ = "0.1.0"

from .betti import (
    DEFAULT_MAX_SCAN,
    BettiTable,
    InvariantsReport,
    ScanOverflowError,
    betti_number,
    betti_table,
    invariants,
    known_complete_degree,
    semigroup_levels,
)
from .complexes import SimplicialComplex, build_delta
from .fiber import (
    DEFAULT_MAX_FIBER,
    Decomposition,
    FiberOverflowError,
    decomposition_degree,
    degree_vector,
    enumerate_fiber,
    in_semigroup,
)
from .graph import (
    Graph,
    GraphFormatError,
    complete_bipartite_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    graph_to_edgelist,
    graph_to_json,
    incidence_rank,
    induced_subgraph,
    is_bipartite,
    load_graph,
    loads_graph,
    path_graph,
    recognize_complete_bipartite,
)
from .homology import (
    FieldSpec,
    RATIONALS,
    boundary_matrices,
    boundary_matrix,
    euler_characteristic_check,
    homology_dimension,
    parse_field,
    reduced_homology,
)
from .structure import (
    BoundsReport,
    ForbiddenEmbedding,
    NonCMCertificate,
    OddCycleVerdict,
    PartBound,
    certificate_degree,
    detect_forbidden,
    embedding_error,
    find_induced_odd_cycles,
    forbidden_reg_bound,
    forbidden_reg_bound_standard,
    forbidden_structure,
    lower_bounds,
    noncm_certificate,
    odd_cycle_condition,
    verify_embedding,
)

__all__ = [name for name in dir() if not name.startswith("_")]
