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
    q_cap_ledger,
)
from .canonical import canonical_graph6, canonical_key
from .constructions import BuildResult, ExtremalSpec, build_extremal, circulant
from .errors import QxError
from .forbidden import ForbiddenPattern, contains_kst, find_kst
from .graphs import (
    MAX_ORDER,
    Graph,
    complete_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    join,
)
from .search import (
    JoinCapReport,
    SearchReport,
    enumerate_levels,
    exhaustive_max_q,
    heuristic_max_q,
    is_extremal_join,
    join_cap_scan,
)
from .spectral import (
    SpectralResult,
    adjacency_radius,
    full_spectrum,
    q_index,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BuildResult",
    "ExtremalSpec",
    "ForbiddenPattern",
    "Graph",
    "JoinCapReport",
    "MAX_ORDER",
    "QxError",
    "SearchReport",
    "SpectralResult",
    "adjacency_bound",
    "adjacency_radius",
    "bound_report",
    "build_extremal",
    "canonical_graph6",
    "canonical_key",
    "circulant",
    "complete_graph",
    "conjecture_bound",
    "contains_kst",
    "edge_bound",
    "enumerate_levels",
    "exhaustive_max_q",
    "f_value",
    "find_kst",
    "from_edge_list",
    "full_spectrum",
    "graph6_decode",
    "graph6_encode",
    "heuristic_max_q",
    "is_extremal_join",
    "join",
    "join_cap_scan",
    "merris_bound",
    "q_bound_t2",
    "q_bound_t2_applicable",
    "q_cap_ledger",
    "q_index",
]
