"""Defensive alliances: instances, reductions, decompositions, solvers.

The problem family is the defensive alliance search with optional
forbidden vertices, necessary vertices, and complementary pairs. The
reduction chain eliminates those constraints one stage at a time and
starts, one level higher, from the minimum maximum outdegree problem
on weighted graphs. Tree decompositions travel along every stage with
bounded width growth.

The public names are resolved on first access, so importing the package
loads no submodule: a command-line request pays only for the modules
its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_SOURCES = {
    name: module
    for module, names in {
        "_record": ("replace",),
        "alliance": (
            "AllianceInstance", "AllianceVerdict", "Defense", "STAGE_TAGS",
            "construct_defense", "instance_document", "instance_from_json",
            "instance_to_json", "is_defensive_alliance", "is_solution", "primal_graph",
            "solution_problems",
        ),
        "graph": (
            "Graph", "VertexId", "edge_key", "graph_from_edgelist", "graph_to_dot",
            "graph_to_edgelist", "parse_vertex",
        ),
        "mmo": (
            "MmoInstance", "Orientation", "max_weighted_outdegree", "mmo_document",
            "mmo_from_json", "mmo_to_json", "orientations", "solve_mmo",
        ),
        "pipeline": ("audit_stage",),
        "reductions": (
            "ReductionStage", "build_stage", "eliminate_forbidden",
            "eliminate_necessary", "eliminate_necessary_auto", "eliminate_pairs",
            "lift_solution", "mmo_to_alliance", "orientation_to_solution",
            "project_solution", "solution_to_orientation",
        ),
        "solver": (
            "DEFAULT_BUDGET", "BudgetExceededError", "SolveRequest", "SolveResult",
            "solve", "solve_connected_pruned",
        ),
        "treewidth": (
            "NiceTreeDecomposition", "TreeDecomposition", "heuristic_td", "make_nice",
            "postorder_ordering", "td_from_lines", "td_to_dot", "td_to_lines",
            "transform_td", "treewidth_exact_small", "validate_td",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
