"""Exact proportional component-order connectivity of small graphs.

A graph of order n is failed, at proportion r, when every component has
order at most floor(r*n).  This package computes the minimum number of
vertex or edge deletions reaching a failure state (exactly, with witnesses),
evaluates the known closed forms and extremal-family values against that
solver, and checks two open claims about the family maximum at desk scale.
"""

from .graph import (Graph, Threshold, MAX_VERTICES, proportion,
                    parse_proportion, threshold, edgeless, path, cycle,
                    complete, complete_bipartite, disjoint_union)
from .solver import (DisconnectingWitness, EdgeSolverLimitError,
                     MAX_EDGE_SOLVER_VERTICES, MAX_VERTEX_SOLVER_VERTICES,
                     VertexSolverLimitError, copvc_exact, copec_exact,
                     copvc_value, copec_value, verify_witness)
from .formulas import (FormulaResult, ClassSpec, FormulaCheck,
                       DiscrepancyEntry, PROVEN_FORMULAS,
                       copvc_path, copvc_cycle, copvc_cycle_original_order,
                       copvc_complete, copvc_complete_bipartite,
                       copec_path, copec_cycle, copec_cycle_arc_cover,
                       copec_complete, formula_vs_oracle)
from .families import (ExtremalResult, max_failure_edges,
                       build_max_failure_state, covmin_threshold_f, covmin,
                       covmin_piecewise_crosscheck, coemin, covmax_tail,
                       coemax_tail, complete_minus_two_disjoint_edges,
                       extremal_by_enumeration, covmin_witness, coemin_witness)
from .enumeration import (MAX_ENUM_VERTICES, MAX_CANONICAL_VERTICES,
                          canonical_graph, canonical_key,
                          enumerate_gnm, count_classes, family_profile,
                          upper_triangle_key)
from .bounds import (BipartiteWitness, ConjectureVerdict, MAX_CUT_VERTICES,
                     max_bipartite_subgraph, edwards_bound, egk_bounds,
                     check_equal_partition_conjecture,
                     check_coemax_upper_bound)
from .formats import (parse_edge_list, serialize_edge_list, parse_graph6,
                      encode_graph6, fraction_str)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Threshold", "MAX_VERTICES",
    "proportion", "parse_proportion", "threshold", "edgeless", "path", "cycle",
    "complete", "complete_bipartite", "disjoint_union",
    "DisconnectingWitness", "EdgeSolverLimitError", "MAX_EDGE_SOLVER_VERTICES",
    "VertexSolverLimitError", "MAX_VERTEX_SOLVER_VERTICES",
    "copvc_exact", "copec_exact",
    "copvc_value", "copec_value", "verify_witness",
    "FormulaResult", "ClassSpec", "FormulaCheck", "DiscrepancyEntry",
    "PROVEN_FORMULAS", "copvc_path", "copvc_cycle",
    "copvc_cycle_original_order", "copvc_complete",
    "copvc_complete_bipartite", "copec_path", "copec_cycle",
    "copec_cycle_arc_cover", "copec_complete", "formula_vs_oracle",
    "ExtremalResult", "max_failure_edges", "build_max_failure_state",
    "covmin_threshold_f", "covmin", "covmin_piecewise_crosscheck", "coemin",
    "covmax_tail", "coemax_tail", "complete_minus_two_disjoint_edges",
    "extremal_by_enumeration", "covmin_witness", "coemin_witness",
    "MAX_ENUM_VERTICES", "MAX_CANONICAL_VERTICES", "canonical_graph",
    "canonical_key",
    "enumerate_gnm", "count_classes", "family_profile", "upper_triangle_key",
    "BipartiteWitness", "ConjectureVerdict", "MAX_CUT_VERTICES",
    "max_bipartite_subgraph", "edwards_bound", "egk_bounds",
    "check_equal_partition_conjecture", "check_coemax_upper_bound",
    "parse_edge_list", "serialize_edge_list", "parse_graph6",
    "encode_graph6", "fraction_str",
]
