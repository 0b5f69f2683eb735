"""Superlocal degree-clique colouring bounds and constructive colourings.

Exact-arithmetic library for the per-edge strengthening of the
degree-clique chromatic bound: invariants, a constructive fractional
colouring, a multigraph edge colouring at the nine-expression bound,
independent oracles, and a verification harness over enumerated and
seeded corpora.
"""

from .errors import DomainError, GraphFormatError, InternalBugError, SizeLimitError
from .graphs import (
    Multigraph,
    SimpleGraph,
    complement,
    format_multigraph,
    induced_subgraph,
    line_graph,
    parse_graph6,
    parse_multigraph,
    to_graph6,
)
from .stable_sets import (
    ENUMERATION_VERTEX_LIMIT,
    StableSetFamily,
    maximal_stable_sets,
    maximum_stable_sets,
)
from .invariants import (
    GraphBounds,
    clique_average_bound,
    clique_number,
    gamma_bar_ll,
    gamma_bar_ll_via_line_graph,
    gamma_ll,
    gamma_ll_prime,
    graph_bounds,
    local_sums,
    subgraph_neighbourhood_bound,
)
from .oracles import (
    FractionalChromaticSolution,
    VertexColouring,
    chi_via_complement_matching,
    chromatic_number,
    fractional_chromatic_solution,
    stability_number,
    verify_vertex_colouring,
)
from .frac_colour import (
    ColouringVerdict,
    FractionalColouring,
    IterationRecord,
    IterationTrace,
    superlocal_fractional_colour,
    verify_fractional_colouring,
)
from .edge_colour import (
    Fan,
    PartialEdgeColouring,
    build_maximal_fan,
    edge_colour,
    kempe_swap,
    rotate_fan,
)
from .harness import (
    BoundReport,
    CheckFlags,
    Finding,
    MultigraphReport,
    SearchSummary,
    check_graph,
    check_multigraph,
    enumerate_graph_classes,
    frac_str,
    multigraph_line,
    random_corpus,
    report_to_dict,
    reverify_finding,
    search_counterexamples,
    summary_to_dict,
    write_reports,
)

__version__ = "0.1.0"
