"""Q-index extremal toolkit.

Computes the signless-Laplacian spectral radius of small graphs, tests
complete-bipartite subgraph freeness, evaluates the closed-form extremal
bounds, constructs the conjectured extremal joins, and searches graph
space (exhaustively at small orders, by annealing above) for violations
of the conjectured caps.
"""

from .bounds import (
    BoundReport,
    adjacency_bound,
    bound_report,
    conjecture_bound,
    edge_bound,
    f_value,
    merris_bound,
    q_bound_t2,
    q_bound_t2_applicable,
    q_bound_window,
    q_cap_ledger,
)
from .canonical import canonical_graph, canonical_graph6, canonical_key, canonical_permutation
from .constructions import (
    BuildResult,
    ExtremalSpec,
    build_extremal,
    circulant,
    is_design_graph,
    random_regular,
)
from .errors import QxError
from .forbidden import ForbiddenPattern, contains_kst, find_kst, max_codegree
from .graphs import (
    MAX_ORDER,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    induced,
    join,
    path_graph,
)
from .search import (
    DominatingScanReport,
    JoinCapReport,
    SearchReport,
    dominating_vertex_scan,
    enumerate_graphs,
    enumerate_levels,
    exhaustive_max_q,
    exhaustive_scan,
    heuristic_max_q,
    is_extremal_join,
    join_cap_scan,
)
from .spectral import (
    SpectralResult,
    adjacency_matrix,
    adjacency_radius,
    full_spectrum,
    q_index,
    q_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BuildResult",
    "DominatingScanReport",
    "ExtremalSpec",
    "ForbiddenPattern",
    "Graph",
    "JoinCapReport",
    "MAX_ORDER",
    "QxError",
    "SearchReport",
    "SpectralResult",
    "adjacency_bound",
    "adjacency_matrix",
    "adjacency_radius",
    "bound_report",
    "build_extremal",
    "canonical_graph",
    "canonical_graph6",
    "canonical_key",
    "canonical_permutation",
    "circulant",
    "complete_bipartite",
    "complete_graph",
    "conjecture_bound",
    "contains_kst",
    "cycle_graph",
    "disjoint_union",
    "dominating_vertex_scan",
    "edge_bound",
    "empty_graph",
    "enumerate_graphs",
    "enumerate_levels",
    "exhaustive_max_q",
    "exhaustive_scan",
    "f_value",
    "find_kst",
    "from_edge_list",
    "full_spectrum",
    "graph6_decode",
    "graph6_encode",
    "heuristic_max_q",
    "induced",
    "is_design_graph",
    "is_extremal_join",
    "join",
    "join_cap_scan",
    "max_codegree",
    "merris_bound",
    "path_graph",
    "q_bound_t2",
    "q_bound_t2_applicable",
    "q_bound_window",
    "q_cap_ledger",
    "q_index",
    "q_matrix",
    "random_regular",
]
