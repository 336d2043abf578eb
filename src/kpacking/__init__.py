"""Exact combinatorial tools for closed-neighbourhood packing problems and
for recognizing graphs whose closed neighbourhood matrices are perfect."""

from .errors import (
    CapExceededError,
    ConsistencyError,
    FamilyParameterError,
    KpackingError,
    ParseError,
    ZeroColumnError,
)
from .families import (
    FAMILIES,
    FamilySpec,
    antiweb,
    circulant_matrix,
    clique_cycle_family,
    complete,
    cycle,
    enumerate_connected_graphs,
    pyramid,
    three_sun,
    web,
    wheel,
)
from .graphs import (
    BinaryMatrix,
    Graph,
    closed_neighbourhood_matrix,
    complement,
    find_induced_cycle,
    format_graph,
    format_matrix,
    induced_cycles,
    is_connected,
    is_isomorphic,
    maximal_cliques,
    parse_graph,
    parse_matrix,
)
from .perfection import (
    PerfectionReport,
    RationalPoint,
    find_odd_hole,
    is_perfect_graph,
    is_perfect_matrix,
    perfection_report,
    polytope_vertices,
)
from .recognition import (
    RecognitionCertificate,
    clique_graph,
    find_undominated_obstruction,
    is_extended_clique_node_by_cliques,
    is_extended_clique_node_by_pattern,
    recheck_certificate,
)
from .solver import (
    PackingFunction,
    ScalingReport,
    SolveResult,
    check_scaling_identity,
    lp_relaxation,
    scaling_reports,
    solve_kpf,
    solve_kpf_bruteforce,
    solve_limited_bruteforce,
    solve_limited_packing,
)

__version__ = "0.1.0"
