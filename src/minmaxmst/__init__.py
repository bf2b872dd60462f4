"""MST weight by branch-free (min,max,+) dynamic programming.

The weight of a minimum spanning tree equals a telescoping sum of
bottleneck (min-max) distances of the edges of any fixed spanning tree,
each taken after the previous tree edges were zeroed.  This package
implements that solver in O(n^3) operations with exact operation
accounting, classical oracles to check it against, and a compiler that
emits the solver as an explicit weight-independent straight-line program.
"""

from .circuit import (
    Circuit,
    compile_mst_circuit,
    count_ops,
    evaluate,
    format_circuit,
    live_ops,
)
from .distances import (
    DistanceMatrix,
    all_pairs_minmax,
    minmax_distance_bruteforce,
    zero_edge_update,
)
from .generate import random_connected_graph, random_weighting
from .graphs import (
    ExtendedWeighting,
    Graph,
    GraphError,
    ParseError,
    SpanningTree,
    Weighting,
    complete_extension,
    complete_graph,
    fix_spanning_tree,
    format_edge_list,
    parse_graph,
    validate_spanning_tree,
)
from .oracles import (
    PreconditionError,
    bruteforce_mst,
    hu_minmax_via_mst,
    kruskal_mst,
    kruskal_tree,
    maggs_plotkin_mst,
)
from .solver import (
    Decomposition,
    OpCounts,
    mst_decomposition,
    mst_puredp,
    mst_puredp_naive,
    naive_op_counts,
    puredp_op_counts,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Decomposition",
    "DistanceMatrix",
    "ExtendedWeighting",
    "Graph",
    "GraphError",
    "OpCounts",
    "ParseError",
    "PreconditionError",
    "SpanningTree",
    "Weighting",
    "all_pairs_minmax",
    "bruteforce_mst",
    "compile_mst_circuit",
    "complete_extension",
    "complete_graph",
    "count_ops",
    "evaluate",
    "fix_spanning_tree",
    "format_circuit",
    "format_edge_list",
    "hu_minmax_via_mst",
    "kruskal_mst",
    "kruskal_tree",
    "live_ops",
    "maggs_plotkin_mst",
    "minmax_distance_bruteforce",
    "mst_decomposition",
    "mst_puredp",
    "mst_puredp_naive",
    "naive_op_counts",
    "parse_graph",
    "puredp_op_counts",
    "random_connected_graph",
    "random_weighting",
    "validate_spanning_tree",
    "zero_edge_update",
]
