"""Defensive alliances: instances, reductions, decompositions, solvers.

The problem family is the defensive alliance search with optional
forbidden vertices, necessary vertices, and complementary pairs. The
reduction chain eliminates those constraints one stage at a time and
starts, one level higher, from the minimum maximum outdegree problem
on weighted graphs. Tree decompositions travel along every stage with
bounded width growth.
"""

from .alliance import (
    AllianceInstance,
    AllianceVerdict,
    Defense,
    construct_defense,
    instance_from_json,
    instance_to_json,
    is_defensive_alliance,
    is_solution,
    primal_graph,
    solution_problems,
)
from .graph import (
    Graph,
    VertexId,
    edge_key,
    graph_from_edgelist,
    graph_to_dot,
    graph_to_edgelist,
    parse_vertex,
)
from .mmo import (
    MmoInstance,
    Orientation,
    max_weighted_outdegree,
    mmo_from_json,
    mmo_to_json,
    orientations,
    solve_mmo,
)
from .reductions import (
    STAGE_TAGS,
    ReductionStage,
    eliminate_forbidden,
    eliminate_necessary,
    eliminate_necessary_auto,
    eliminate_pairs,
    lift_solution,
    mmo_to_alliance,
    orientation_to_solution,
    project_solution,
    solution_to_orientation,
)
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SolveRequest,
    SolveResult,
    solve,
    solve_connected_pruned,
)
from .treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_td,
    make_nice,
    postorder_ordering,
    td_from_lines,
    td_to_dot,
    td_to_lines,
    transform_td,
    treewidth_exact_small,
    validate_td,
)

__version__ = "0.1.0"

__all__ = [
    "AllianceInstance",
    "AllianceVerdict",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Defense",
    "Graph",
    "MmoInstance",
    "NiceTreeDecomposition",
    "Orientation",
    "ReductionStage",
    "STAGE_TAGS",
    "SolveRequest",
    "SolveResult",
    "TreeDecomposition",
    "VertexId",
    "construct_defense",
    "edge_key",
    "eliminate_forbidden",
    "eliminate_necessary",
    "eliminate_necessary_auto",
    "eliminate_pairs",
    "graph_from_edgelist",
    "graph_to_dot",
    "graph_to_edgelist",
    "heuristic_td",
    "instance_from_json",
    "instance_to_json",
    "is_defensive_alliance",
    "is_solution",
    "lift_solution",
    "make_nice",
    "max_weighted_outdegree",
    "mmo_from_json",
    "mmo_to_alliance",
    "mmo_to_json",
    "orientation_to_solution",
    "orientations",
    "parse_vertex",
    "postorder_ordering",
    "primal_graph",
    "project_solution",
    "solution_problems",
    "solution_to_orientation",
    "solve",
    "solve_connected_pruned",
    "solve_mmo",
    "td_from_lines",
    "td_to_dot",
    "td_to_lines",
    "transform_td",
    "treewidth_exact_small",
    "validate_td",
]
