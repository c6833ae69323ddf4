"""The reduction chain run as a whole: the bijection audit of one stage
and a prefix of the chain from an orientation target.

audit_stage enumerates both sides of a stage and checks that every
solution lifts and projects back. run_pipeline builds stages up to a
vertex cap, projects the rest by the counting formulas, and decides the
last stage when every stage was built. Only the reduce and roundtrip
commands load this module.
"""

from functools import partial

from .alliance import MATERIALIZE_CAP, STAGE_TAGS
from .mmo import MmoInstance, _orientations_within, max_weighted_outdegree, solve_mmo
from .reductions import (
    build_stage,
    lift_solution,
    orientation_to_solution,
    project_solution,
    solution_to_orientation,
    stage_kind,
)
from .solver import DEFAULT_BUDGET, BudgetExceededError, SolveRequest, solve


def audit_stage(stage, budget=DEFAULT_BUDGET):
    """Check the solution bijection of a stage: each source solution
    lifts to one of the mapped size and projects back, and each result
    solution projects and lifts back. The first stage's source
    solutions are the feasible orientations, through the orientation
    converters. Returns both sides' solution counts, the number of
    checks and whether all held with equal counts."""
    source, result = stage.source, stage.result
    orienting = stage.kind.lift is None
    if orienting:
        if len(source.graph.edges) > 12:
            raise ValueError("the orientation audit is limited to 12 edges")
        inputs = list(_orientations_within(source, source.r))
        lift = partial(orientation_to_solution, source)
        project = partial(solution_to_orientation, source)
    else:
        inputs = solve(SolveRequest(source, "enumerate-all", budget=budget)).solutions or ()
        lift = partial(lift_solution, stage)
        project = partial(project_solution, stage)
    outputs = solve(SolveRequest(result, "enumerate-all", budget=budget)).solutions or ()
    checks = []
    for s in inputs:
        lifted = lift(s)
        size = result.k if orienting else stage.size_fn(len(s))
        checks += [len(lifted) == size, project(lifted) == s]
    for s in outputs:
        back = project(s)
        checks.append(lift(back) == s)
        if orienting:
            checks.append(max_weighted_outdegree(source, back) <= source.r)
    return {
        "input_solutions": len(inputs),
        "output_solutions": len(outputs),
        "checks": len(checks),
        "verified": all(checks) and len(inputs) == len(outputs),
    }


def _instance_stats(instance):
    return {
        "vertices": len(instance.graph.vertices),
        "edges": len(instance.graph.edges),
        "pairs": len(instance.pairs),
        "forbidden": len(instance.forbidden),
        "necessary": len(instance.necessary),
        "k": instance.k,
        "variant": instance.variant,
    }


def _orientation_stats(instance):
    """The counts of an orientation target that the first stage's
    counts read."""
    return {
        "vertices": len(instance.graph.vertices),
        "edges": len(instance.graph.edges),
        "weight": sum(instance.weights.values()),
        "r": instance.r,
    }


def run_pipeline(
    mmo,
    stages,
    decomposition=None,
    budget=DEFAULT_BUDGET,
    max_vertices=MATERIALIZE_CAP,
):
    """Run a prefix of the reduction chain and report per-stage sizes.

    Stages past the cap max_vertices, as on the command line, are only
    projected: their budgets and instance sizes come from the counting
    formulas, no graph is built. The decision is attempted on the final
    instance when every stage was materialized; a witness is projected
    back stage by stage and read out as an orientation.
    """
    stages = list(stages)
    if not stages or tuple(stages) != STAGE_TAGS[: len(stages)]:
        raise ValueError(
            "stages must be a nonempty prefix of %s" % (", ".join(STAGE_TAGS),)
        )
    if not isinstance(mmo, MmoInstance):
        raise ValueError("the chain starts from an orientation target")
    report_stages = []
    flags = []
    built = []
    current = mmo
    stats = _orientation_stats(mmo)
    td = decomposition
    projected = False
    for tag in stages:
        counted = stage_kind(tag).counts(stats)
        if not projected and counted["vertices"] > max_vertices:
            projected = True
            flags.append("size-cap")
        entry = {"tag": tag, "projected": projected, "width": None}
        if projected:
            stats = counted
            entry["edges"] = None
        else:
            stage, td = build_stage(tag, current, td)
            built.append(stage)
            current = stage.result
            stats = _instance_stats(current)
            entry["width"] = None if td is None else td.width()
        entry.update(stats)
        report_stages.append(entry)

    decision = None
    witness_size = None
    orientation_payload = None
    if not projected:
        try:
            outcome = solve(SolveRequest(built[-1].result, "decide", budget=budget))
        except BudgetExceededError as exc:
            flags.append("budget-exceeded")
            flags.append(str(exc))
        else:
            decision = outcome.feasible
            if outcome.feasible:
                witness_size = len(outcome.witness)
                witness = outcome.witness
                for stage in reversed(built[1:]):
                    witness = project_solution(stage, witness)
                orientation = solution_to_orientation(mmo, witness)
                orientation_payload = {
                    "%s--%s" % edge: [str(tail), str(head)]
                    for edge, (tail, head) in sorted(orientation.direction.items())
                }

    mmo_decision = None
    if len(mmo.graph.edges) <= 25:
        mmo_decision = solve_mmo(mmo) is not None
    return {
        "command": "reduce",
        "chain": True,
        "stages": report_stages,
        "flags": flags,
        "decision": decision,
        "witness_size": witness_size,
        "orientation": orientation_payload,
        "mmo_decision": mmo_decision,
    }
