"""Q-index extremal toolkit.

Computes the signless-Laplacian spectral radius of small graphs, tests
complete-bipartite subgraph freeness, evaluates the closed-form extremal
bounds, constructs the conjectured extremal joins, and searches graph
space (exhaustively at small orders, by annealing above) for violations
of the conjectured caps.

Every public name resolves on first use (PEP 562): importing the package
loads no module, and a name loads only the module that defines it and what
that module imports.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "bounds": ("BoundReport", "adjacency_bound", "bound_report", "conjecture_bound", "edge_bound",
               "f_value", "is_extremal_join", "merris_bound", "q_bound_t2", "q_bound_t2_applicable",
               "q_cap_ledger"),
    "canonical": ("canonical_graph6", "canonical_key", "enumerate_levels"),
    "constructions": ("BuildResult", "ExtremalSpec", "build_extremal", "circulant"),
    "errors": ("QxError",),
    "forbidden": ("ForbiddenPattern", "contains_kst", "find_kst"),
    "graphs": ("MAX_ORDER", "Graph", "complete_graph", "from_edge_list", "graph6_decode",
               "graph6_encode", "join"),
    "search": ("JoinCapReport", "SearchReport", "exhaustive_max_q", "heuristic_max_q",
               "join_cap_scan"),
    "spectral": ("SpectralResult", "adjacency_radius", "full_spectrum", "q_index"),
}
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from qindex.<module> import <name>``, through the import statement's
    # machinery (which ``-X importtime`` times, unlike ``importlib.import_module``)
    value = getattr(__import__(f"{__name__}.{_MODULE[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value
