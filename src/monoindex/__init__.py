"""Monochromatic connectivity indices of small graphs.

The edge index mx_k(G) is the largest number of colors an edge coloring can
use while every k-set of vertices still lies in some one-colored tree; the
vertex index mvx_k(G) is the analogue for vertex colorings, where only the
internal vertices of the tree must share a color. This package carries
exact solvers and closed forms for both, the dominating-set reduction that
makes the vertex index hard, and a survey harness that grades the
complement-pair bounds over exhaustively enumerated small graphs.
"""

__version__ = "0.1.0"

from .coloring import (
    EdgeColoring,
    VertexColoring,
    mono_stree_exists,
    normalize_to_forest,
    parse_coloring_certificate,
    verify_mvx_coloring,
    verify_mx_coloring,
    vertex_mono_tree_exists,
    write_coloring_certificate,
)
from .graphs import (
    BudgetError,
    Graph,
    Graph6Error,
    canonical_code,
    canonical_form,
    complement,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cut_vertices,
    cycle_graph,
    diameter,
    enumerate_connected_graphs,
    enumerate_graphs,
    from_edges,
    is_connected,
    iter_bits,
    k_subsets,
    mask_from,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    star_graph,
    to_edge_list,
    to_graph6,
)
from .mvx import (
    MvxResult,
    SpanningTreeResult,
    complement_cycle_mvx,
    connected_domination_number,
    cycle_mvc_formula,
    diameter_upper_bound,
    extract_mono_spanning_tree,
    max_leaf_spanning_tree,
    minimum_connected_dominating_set,
    mvx_exact,
    mvx_n_formula,
    mvx_via_cut_vertex,
)
from .mx import (
    MxResult,
    construct_extremal_mx,
    mx_exact_bruteforce,
    mx_k_formula,
    simplify_coloring,
)
from .reduction import (
    build_gadget,
    decide_ds_via_mvx,
    dominating_number,
    is_dominating,
    lift_dominating_set,
    minimum_dominating_set,
    project_cds,
)
from .survey import (
    SurveyRecord,
    build_near_complete_bipartite,
    enumerate_coconnected,
    expected_lower_bound,
    locate_F1,
    survey_bounds,
    write_survey_csv,
)
