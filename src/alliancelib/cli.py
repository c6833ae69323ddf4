"""Command line front end.

Subcommands: verify, solve, reduce, decompose, roundtrip, gen. Every
report is a JSON document on stdout; diagnostics go to stderr. Exit
codes: 0 for yes or success, 1 for no, 2 for usage and parse trouble,
3 when the search budget is exceeded.
"""

import argparse
import dataclasses
import json
import os
import sys

# only what the parser, verify and solve need; every other subcommand
# imports its modules when it runs, so a request compiles no code it
# does not use
from .alliance import (
    STAGE_TAGS,
    AllianceInstance,
    instance_from_json,
    instance_to_json,
    is_defensive_alliance,
    primal_graph,
    solution_problems,
)
from .graph import VertexId, graph_from_edgelist, graph_to_dot, parse_vertex
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SolveRequest,
    solve,
    solve_connected_pruned,
)

# reduction chains grow instances by orders of magnitude per stage;
# beyond this vertex count a stage is only reported, never built
MATERIALIZE_CAP = 4000


def parse_instance(text, fmt="json", k=None, mode="at-most"):
    """Instance from an input document.

    JSON documents carry their own kind: an object with an "r" field is
    an orientation target, anything else an alliance instance. Edge
    lists describe a bare graph and need an explicit k.
    """
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError("invalid JSON: %s" % (exc,)) from None
        if isinstance(payload, dict) and "r" in payload:
            from .mmo import mmo_from_json

            return mmo_from_json(text)
        return instance_from_json(text)
    if fmt == "edgelist":
        if k is None:
            raise ValueError("edge list input needs an explicit k")
        return AllianceInstance(graph_from_edgelist(text), k=k, mode=mode)
    raise ValueError("unknown input format %r" % (fmt,))


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror or exc)) from None


def _names(members):
    return [str(u) for u in sorted(members)]


def _load_alliance(args):
    parsed = parse_instance(
        _read(args.instance),
        getattr(args, "format", "json"),
        getattr(args, "k", None),
        getattr(args, "mode", None) or "at-most",
    )
    if not isinstance(parsed, AllianceInstance):
        raise ValueError(
            "this command reads an alliance instance, not an orientation target"
        )
    if getattr(args, "mode", None) and parsed.mode != args.mode:
        parsed = dataclasses.replace(parsed, mode=args.mode)
    return parsed


# a VertexId is a tuple too, so test for it before taking a tuple apart
def _render_key(key):
    if isinstance(key, tuple) and not isinstance(key, VertexId):
        return "|".join(_render_key(part) for part in key)
    return str(key)


def _render_value(value):
    if isinstance(value, VertexId):
        return [str(value)]
    return [str(x) for x in value]


def _gadget_table(gadgets):
    table = {}
    for field in dataclasses.fields(gadgets):
        mapping = getattr(gadgets, field.name)
        table[field.name] = {
            _render_key(key): _render_value(mapping[key]) for key in mapping
        }
    return table


def _cmd_verify(args):
    instance = _load_alliance(args)
    members = frozenset(
        parse_vertex(part.strip()) for part in args.set.split(",") if part.strip()
    )
    problems = solution_problems(instance, members)
    report = {
        "command": "verify",
        "solution": not problems,
        "size": len(members),
        "violators": _names(is_defensive_alliance(instance.graph, members).violators),
        "problems": problems,
    }
    return (1 if problems else 0), report


def _cmd_solve(args):
    instance = _load_alliance(args)
    if args.connected:
        result = solve_connected_pruned(instance, goal=args.goal)
    else:
        result = solve(SolveRequest(instance, args.goal, budget=args.budget))
    report = {
        "command": "solve",
        "goal": args.goal,
        "feasible": result.feasible,
        "size": result.size,
        "witness": None if result.witness is None else _names(result.witness),
        "count": result.count,
        "free_count": result.free_count,
    }
    if result.solutions is not None:
        report["solutions"] = [_names(s) for s in result.solutions]
    return (0 if result.feasible else 1), report


def _cmd_reduce(args):
    from .reductions import _build_stage, _instance_stats, run_pipeline
    from .treewidth import make_nice, td_from_lines, td_to_dot, td_to_lines, transform_td

    text = _read(args.instance)
    decomposition = td_from_lines(_read(args.td)) if args.td else None
    if args.chain:
        parsed = parse_instance(text)
        report = run_pipeline(
            parsed,
            STAGE_TAGS[: args.stages],
            decomposition,
            budget=args.budget,
            max_vertices=args.max_vertices,
        )
        if report["decision"] is None:
            code = 3
        else:
            code = 0 if report["decision"] else 1
        return code, report
    if not args.stage:
        raise ValueError("pick a stage with --stage or run the whole chain with --chain")
    parsed = parse_instance(text)
    if args.stage == "fn-to-f" and decomposition is not None:
        decomposition = make_nice(decomposition)
    stage = _build_stage(args.stage, parsed, decomposition)
    report = {
        "command": "reduce",
        "stage": stage.tag,
        "instance": json.loads(instance_to_json(stage.result)),
        "gadgets": _gadget_table(stage.gadgets),
    }
    report.update(_instance_stats(stage.result))
    if isinstance(parsed, AllianceInstance):
        report["size_map"] = {"input_k": parsed.k, "output_k": stage.size_fn(parsed.k)}
    if decomposition is not None:
        transformed = transform_td(stage, decomposition)
        report["width_in"] = decomposition.width()
        report["width_out"] = transformed.width()
        report["decomposition"] = td_to_lines(transformed).splitlines()
        _write_dot(args, "decomposition", td_to_dot(transformed))
    _write_dot(args, "result", graph_to_dot(stage.result.graph))
    return 0, report


def _cmd_decompose(args):
    from .treewidth import (
        NiceTreeDecomposition,
        heuristic_td,
        make_nice,
        td_to_dot,
        td_to_lines,
        treewidth_exact_small,
    )

    parsed = parse_instance(
        _read(args.instance), args.format, getattr(args, "k", None)
    )
    graph = primal_graph(parsed) if isinstance(parsed, AllianceInstance) else parsed.graph
    td = heuristic_td(graph)
    if args.nice:
        td = make_nice(td)
    report = {
        "command": "decompose",
        "width": td.width(),
        "nodes": len(td.nodes()),
        "nice": isinstance(td, NiceTreeDecomposition),
        "treewidth": None,
        "optimal": None,
        "lines": td_to_lines(td).splitlines(),
    }
    if args.exact:
        exact = treewidth_exact_small(graph)
        report["treewidth"] = exact
        report["optimal"] = td.width() == exact
    _write_dot(args, "decomposition", td_to_dot(td))
    _write_dot(args, "graph", graph_to_dot(graph))
    return 0, report


def _cmd_roundtrip(args):
    from .mmo import max_weighted_outdegree, orientations
    from .reductions import (
        _build_stage,
        lift_solution,
        mmo_to_alliance,
        orientation_to_solution,
        project_solution,
        solution_to_orientation,
    )

    parsed = parse_instance(_read(args.instance))
    checks = []
    if args.stage == "mmo-to-fnc":
        if isinstance(parsed, AllianceInstance):
            raise ValueError("stage mmo-to-fnc starts from an orientation target")
        if len(parsed.graph.edges) > 12:
            raise ValueError("the orientation audit is limited to 12 edges")
        stage = mmo_to_alliance(parsed)
        feasible = [
            o
            for o in orientations(parsed)
            if max_weighted_outdegree(parsed, o) <= parsed.r
        ]
        for o in feasible:
            lifted = orientation_to_solution(parsed, o)
            checks.append(solution_to_orientation(parsed, lifted) == o)
            checks.append(len(lifted) == stage.result.k)
        outcome = solve(
            SolveRequest(stage.result, "enumerate-all", budget=args.budget)
        )
        solutions = outcome.solutions or ()
        for s in solutions:
            back = solution_to_orientation(parsed, s)
            checks.append(max_weighted_outdegree(parsed, back) <= parsed.r)
            checks.append(orientation_to_solution(parsed, back) == s)
        input_count = len(feasible)
    else:
        stage = _build_stage(args.stage, parsed)
        inputs = solve(SolveRequest(parsed, "enumerate-all", budget=args.budget))
        outcome = solve(
            SolveRequest(stage.result, "enumerate-all", budget=args.budget)
        )
        solutions = outcome.solutions or ()
        for s in inputs.solutions or ():
            lifted = lift_solution(stage, s)
            checks.append(len(lifted) == stage.size_fn(len(s)))
            checks.append(project_solution(stage, lifted) == s)
        for s in solutions:
            checks.append(lift_solution(stage, project_solution(stage, s)) == s)
        input_count = len(inputs.solutions or ())
    verified = all(checks) and input_count == len(solutions)
    report = {
        "command": "roundtrip",
        "stage": args.stage,
        "input_solutions": input_count,
        "output_solutions": len(solutions),
        "checks": len(checks),
        "verified": verified,
    }
    return (0 if verified else 1), report


# each gen kind and the alliancelib.gen function that draws it
_GEN_KINDS = {
    "mmo": "random_mmo",
    "fnc": "random_pair_toy",
    "fn": "random_necessary_toy",
    "f": "random_forbidden_toy",
    "plain": "random_plain_instance",
}


def _cmd_gen(args):
    import random

    from . import gen
    from .mmo import mmo_to_json

    rng = random.Random(args.seed)
    factory = getattr(gen, _GEN_KINDS[args.kind])
    docs = []
    for _ in range(args.count):
        drawn = factory(rng)
        text = mmo_to_json(drawn) if args.kind == "mmo" else instance_to_json(drawn)
        docs.append(json.loads(text))
    return 0, (docs[0] if args.count == 1 else docs)


def _write_dot(args, name, text):
    directory = getattr(args, "dot", None)
    if not directory:
        return
    stem = os.path.splitext(os.path.basename(args.instance))[0]
    path = os.path.join(directory, "%s-%s.dot" % (stem, name))
    with open(path, "w") as handle:
        handle.write(text)


def _add_instance_argument(parser):
    parser.add_argument("instance", help="path to the instance document")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="alliancelib",
        description="defensive alliance toolkit: verify, solve, reduce, decompose",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a vertex set against an instance")
    p.add_argument("-S", "--set", required=True, help="comma separated vertex names")
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.add_argument("--k", type=int, help="budget for edge list inputs")
    p.add_argument("--mode", choices=("at-most", "exact"))
    _add_instance_argument(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve", help="run the exhaustive solver")
    p.add_argument(
        "--goal",
        choices=("decide", "minimum", "enumerate-all", "count"),
        default="decide",
    )
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--connected", action="store_true",
                   help="prune to connected candidate sets")
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.add_argument("--k", type=int, help="budget for edge list inputs")
    p.add_argument("--mode", choices=("at-most", "exact"))
    _add_instance_argument(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("reduce", help="apply one reduction stage or the chain")
    p.add_argument("--stage", choices=STAGE_TAGS)
    p.add_argument("--chain", action="store_true")
    p.add_argument("--stages", type=int, default=len(STAGE_TAGS),
                   choices=range(1, len(STAGE_TAGS) + 1),
                   help="how many chain stages to run")
    p.add_argument("--td", help="tree decomposition to transform along")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--max-vertices", type=int, default=MATERIALIZE_CAP)
    p.add_argument("--dot", help="directory for DOT exports")
    _add_instance_argument(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("decompose", help="tree decomposition of the primal graph")
    p.add_argument("--nice", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="verify the width against the exact treewidth")
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.add_argument("--k", type=int, help="budget for edge list inputs")
    p.add_argument("--dot", help="directory for DOT exports")
    _add_instance_argument(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("roundtrip", help="audit the solution bijection of a stage")
    p.add_argument("--stage", choices=STAGE_TAGS, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_instance_argument(p)
    p.set_defaults(handler=_cmd_roundtrip)

    p = sub.add_parser("gen", help="draw a seeded random instance")
    p.add_argument("--kind", choices=sorted(_GEN_KINDS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(handler=_cmd_gen)

    return parser


def _check_limits(args):
    """Refuse a negative search budget, vertex cap or draw count before
    any work is done."""
    for option in ("budget", "max_vertices", "count"):
        value = getattr(args, option, 0)
        if value < 0:
            raise ValueError(
                "--%s must be non-negative, got %d" % (option.replace("_", "-"), value)
            )


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_limits(args)
        code, report = args.handler(args)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % (exc,), file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    if report is not None:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
