"""The four workloads: corpora drawn from a seed, and the items run on them.

Every workload is a closed loop with one client: the next item starts
when the previous one has ended. Set-up draws the corpus and computes
the oracle answers; items then do the measured work and check their
outputs. An item returns the seconds to add to its measured time: a
decision that is refused or runs past the workload's decision limit is
charged the limit, so that a solver which decides slowly never reads
as worse than one which refuses at once.

Which layer each workload stresses, and why, is in README.md.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import random
import signal
import string
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from alliancelib import cli
from alliancelib.alliance import instance_to_json, is_solution, primal_graph
from alliancelib.gen import (
    random_forbidden_toy,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
    random_plain_instance,
)
from alliancelib.graph import Graph, VertexId, parse_vertex
from alliancelib.mmo import MmoInstance, mmo_to_json, solve_mmo
from alliancelib.reductions import (
    eliminate_forbidden,
    eliminate_necessary_auto,
    eliminate_pairs,
    lift_solution,
    mmo_to_alliance,
    project_solution,
    solution_to_orientation,
)
from alliancelib.solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SolveRequest,
    solve,
    solve_connected_pruned,
)
from alliancelib.treewidth import (
    heuristic_td,
    make_nice,
    td_from_lines,
    transform_td,
    validate_td,
)

import oracle
from spans import call

# failures the benchmark expects at this version, by the defect they show;
# they count as failed operations but do not make a run incorrect
KNOWN_DEFECTS = {
    "a": "fn-to-f decomposition wider than the documented +13 bound",
    "b": "non-list \"vertices\" raises a traceback (exit 1) instead of exit 2",
    "c": "a boolean is accepted as an integer",
    "d": "a string is read as a list of one-letter vertices",
    "e": "make_nice overflows the recursion limit on a deep decomposition",
}


@dataclass(frozen=True)
class Failure:
    item: str
    operation: str
    detail: str
    defect: str = None

    def __str__(self):
        known = KNOWN_DEFECTS.get(self.defect)
        tag = "defect %s: %s" % (self.defect, known) if known else "unexpected"
        return "%s %s: %s [%s]" % (self.item, self.operation, self.detail, tag)


class Ledger:
    """Operations attempted and failed in one run, and decision verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.decisions = 0
        self.agreed = 0

    def check(self, item, operation, ok, detail="", defect=None):
        """Count one operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(Failure(item, operation, detail, defect))
        return ok

    def unexpected(self):
        return [f for f in self.failures if f.defect not in KNOWN_DEFECTS]


@dataclass
class Context:
    """What the items of one run share."""

    root: str
    scratch: str
    tracer: object
    ledger: Ledger
    # checks to run after timing, in the check phase
    pending: list = field(default_factory=list)
    # largest peak RSS, in KB, of the processes a workload starts to do
    # its work (cli); None when the work runs in this process
    process_peak_kb: int = None


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    sizes: dict
    # seconds charged to a decision that is refused or times out
    decision_limit: float = None


# ---------------------------------------------------------------- helpers


def build_stage(ctx, tag, build, *args):
    stage = call(ctx.tracer, "reductions.%s.build" % tag, build, *args)
    ctx.tracer.add("reductions.%s.vertices_out" % tag, len(stage.result.graph.vertices))
    ctx.tracer.add("reductions.%s.edges_out" % tag, len(stage.result.graph.edges))
    return stage


def solve_goal(ctx, instance, goal, budget=DEFAULT_BUDGET):
    """solve() inside its span, with the solver counters."""
    tracer = ctx.tracer
    tracer.add("solver.solve.calls")
    if goal == "decide":
        tracer.add("solver.decide_attempts")
    try:
        result = call(
            tracer, "solver.solve." + goal, solve, SolveRequest(instance, goal, budget)
        )
    except BudgetExceededError as exc:
        tracer.add("solver.budget_refused")
        tracer.peak("solver.free_count_max", exc.free_count)
        raise
    tracer.peak("solver.free_count_max", result.free_count)
    if goal == "decide":
        tracer.add("solver.decided")
    return result


class DecisionTimeout(Exception):
    pass


def _expire(signum, frame):
    raise DecisionTimeout()


def decide_within(ctx, instance, limit):
    """Decide under the default budget and a time limit.

    Returns the result, or None when the solver refused or ran out of
    time, and the seconds to add to the measured time so that an
    undecided attempt costs exactly the limit.
    """
    ctx.ledger.decisions += 1
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        result = solve_goal(ctx, instance, "decide")
    except (BudgetExceededError, DecisionTimeout):
        result = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    return result, (0.0 if result is not None else limit - elapsed)


def check_decision(ctx, item, mmo, feasible, stages, result):
    """Check a verdict against solve_mmo; project a witness back to the
    first stage and check the orientation it reads as."""
    if result is None:
        return
    ledger = ctx.ledger
    agreed = ledger.check(
        item, "decision", result.feasible == feasible,
        "solver says %s, solve_mmo says %s" % (result.feasible, feasible),
    )
    if result.feasible:
        witness = result.witness
        for stage in reversed(stages[1:]):
            witness = call(
                ctx.tracer, "reductions.project_solution", project_solution, stage, witness
            )
        orientation = call(
            ctx.tracer, "reductions.solution_to_orientation",
            solution_to_orientation, mmo, witness,
        )
        degree = oracle.outdegree(mmo, orientation.direction)
        agreed &= ledger.check(
            item, "decision orientation", degree <= mmo.r,
            "outdegree %d over r=%d" % (degree, mmo.r),
        )
    ledger.agreed += agreed


def advance(ctx, item, tag, build, args, td, expected, validate):
    """Build one stage and carry the decomposition along it.

    Checks the vertex count against the size formula, the width
    against its documented bound and, when validate is set, the
    decomposition against the primal graph of the result.
    """
    tracer, ledger = ctx.tracer, ctx.ledger
    stage = build_stage(ctx, tag, build, *args)
    vertices = len(stage.result.graph.vertices)
    ledger.check(
        item, tag + " size", vertices == expected,
        "%d vertices, formula gives %d" % (vertices, expected),
    )
    out = call(tracer, "treewidth.transform_td." + tag, transform_td, stage, td)
    width, bound = out.width(), oracle.WIDTH_BOUND[tag](td.width())
    tracer.add("treewidth.nodes_out", len(out.nodes()))
    tracer.peak("treewidth.width_out." + tag, width)
    ledger.check(
        item, tag + " width", width <= bound,
        "width %d over bound %d" % (width, bound),
        defect="a" if tag == "fn-to-f" else None,
    )
    if validate:
        graph = call(tracer, "alliance.primal_graph", primal_graph, stage.result)
        verdict = call(tracer, "treewidth.validate_td", validate_td, graph, out)
        ledger.check(item, tag + " decomposition", verdict.ok, "; ".join(verdict.problems[:1]))
    return stage, out


def nice(ctx, item, td):
    """make_nice, counting a recursion overflow as a failed operation."""
    try:
        out = call(ctx.tracer, "treewidth.make_nice", make_nice, td)
    except RecursionError:
        ctx.tracer.add("treewidth.make_nice.failed")
        ctx.ledger.check(
            item, "make_nice", False,
            "RecursionError on %d nodes" % (len(td.nodes()),), defect="e",
        )
        return None
    ctx.tracer.add("treewidth.nodes_out", len(out.nodes()))
    ctx.ledger.check(
        item, "make_nice", out.width() == td.width(),
        "width %d from %d" % (out.width(), td.width()),
    )
    return out


def labelled_target(rng, n, edges, weights, r):
    """Orientation target on seeded vertex names: the seed picks which
    labelled member of the isomorphism class is built."""
    names = [VertexId(x) for x in rng.sample(string.ascii_lowercase, n)]
    pairs = [(names[u], names[w]) for u, w in edges]
    return MmoInstance(Graph(names, pairs), dict(zip(pairs, weights)), r)


def target_counts(mmo):
    return oracle.mmo_stage_counts(
        len(mmo.graph.vertices), len(mmo.graph.edges), sum(mmo.weights.values()), mmo.r
    )


# ------------------------------------------------------------------ audit

AUDIT_BUDGET = 32
AUDIT_TOYS = (
    (random_pair_toy, "fnc-to-fn", eliminate_pairs),
    (random_necessary_toy, "fn-to-f", eliminate_necessary_auto),
    (random_forbidden_toy, "f-to-plain", eliminate_forbidden),
)


@dataclass
class AuditUnit:
    """One toy per elimination stage and a few orientation targets."""

    id: str
    toys: list
    targets: list


def audit_setup(ctx, seed, size):
    tracer = ctx.tracer
    rng = random.Random(seed)
    units = []
    for i in range(size["units"]):
        toys = [
            (tag, build, call(tracer, "gen.draw", draw, rng))
            for draw, tag, build in AUDIT_TOYS
        ]
        targets = []
        for _ in range(size["targets"]):
            mmo = call(tracer, "gen.draw", random_mmo, rng)
            feasible = call(tracer, "mmo.solve_mmo", solve_mmo, mmo) is not None
            targets.append((mmo, feasible, oracle.feasible_orientations(mmo)))
        units.append(AuditUnit("audit:%d" % i, toys, targets))
    return units


def audit_toy(ctx, item, tag, build, toy):
    """Criterion-4 shape: both sides enumerated, every solution lifted
    and projected, counts equal."""
    tracer, ledger = ctx.tracer, ctx.ledger
    stage = build_stage(ctx, tag, build, toy)
    inputs = solve_goal(ctx, toy, "enumerate-all", AUDIT_BUDGET).solutions
    outputs = solve_goal(ctx, stage.result, "enumerate-all", AUDIT_BUDGET).solutions
    ledger.check(
        item, tag + " solution count", len(inputs) == len(outputs),
        "%d source, %d result solutions" % (len(inputs), len(outputs)),
    )
    for s in inputs:
        lifted = call(tracer, "reductions.lift_solution", lift_solution, stage, s)
        ledger.check(item, tag + " lift size", len(lifted) == stage.size_fn(len(s)))
        back = call(tracer, "reductions.project_solution", project_solution, stage, lifted)
        ledger.check(item, tag + " project after lift", back == s)
    for t in outputs:
        back = call(tracer, "reductions.project_solution", project_solution, stage, t)
        again = call(tracer, "reductions.lift_solution", lift_solution, stage, back)
        ledger.check(item, tag + " lift after project", again == t)


def audit_target(ctx, item, mmo, feasible, orientations):
    """Criterion-3 shape: verdict against solve_mmo, solutions against
    the feasible orientations counted by brute force."""
    ledger = ctx.ledger
    stage = build_stage(ctx, "mmo-to-fnc", mmo_to_alliance, mmo)
    verdict = solve_goal(ctx, stage.result, "decide", AUDIT_BUDGET).feasible
    ledger.check(
        item, "mmo-to-fnc verdict", verdict == feasible,
        "solver says %s, solve_mmo says %s" % (verdict, feasible),
    )
    solutions = solve_goal(ctx, stage.result, "enumerate-all", AUDIT_BUDGET).solutions
    ledger.check(
        item, "mmo-to-fnc solution count", len(solutions) == orientations,
        "%d solutions, %d feasible orientations" % (len(solutions), orientations),
    )
    for s in solutions:
        ledger.check(item, "mmo-to-fnc solution size", len(s) == stage.result.k)
        back = call(
            ctx.tracer, "reductions.solution_to_orientation",
            solution_to_orientation, mmo, s,
        )
        ledger.check(
            item, "mmo-to-fnc orientation", oracle.outdegree(mmo, back.direction) <= mmo.r
        )


def audit_item(ctx, unit):
    for tag, build, toy in unit.toys:
        audit_toy(ctx, unit.id, tag, build, toy)
    for mmo, feasible, orientations in unit.targets:
        audit_target(ctx, unit.id, mmo, feasible, orientations)
    return 0.0


# ------------------------------------------------------------------ chain

# the CLI's MATERIALIZE_CAP when the benchmark was defined; fixed here so
# that raising the cap in the library does not change the workload
CHAIN_CAP = 4000

# graphs on at most three vertices with at least one edge, one per
# isomorphism class, as (name, vertex count, edges)
SHAPES = (
    ("edge", 2, ((0, 1),)),
    ("edge+isolated", 3, ((0, 1),)),
    ("path", 3, ((0, 1), (1, 2))),
    ("triangle", 3, ((0, 1), (1, 2), (0, 2))),
)


def _least_weighting(n, edges, weights):
    """Whether weights is the least of its images under the
    automorphisms of the shape, so that each class is built once."""
    position = {e: i for i, e in enumerate(edges)}
    for perm in itertools.permutations(range(n)):
        mapped = [tuple(sorted((perm[u], perm[w]))) for u, w in edges]
        if set(mapped) != set(edges):
            continue
        image = [0] * len(edges)
        for e, weight in zip(mapped, weights):
            image[position[e]] = weight
        if tuple(image) < weights:
            return False
    return True


def _two_stage_vertices(n, m, total_weight, r):
    counts = oracle.mmo_stage_counts(n, m, total_weight, r)
    return oracle.next_stage_counts("fnc-to-fn", counts)["vertices"]


def chain_family(cap):
    """(shape, n, edges, weights, r) of every orientation target on at
    most three vertices whose two-stage output has at most cap
    vertices, one per isomorphism class. Sizes grow with r and with
    the total weight, which bounds both loops."""
    for name, n, edges in SHAPES:
        m = len(edges)
        for r in itertools.count(1):
            if _two_stage_vertices(n, m, m, r) > cap:
                break
            for total in itertools.count(m):
                if _two_stage_vertices(n, m, total, r) > cap:
                    break
                for weights in itertools.product(range(1, total + 1), repeat=m):
                    if sum(weights) == total and _least_weighting(n, edges, weights):
                        yield name, n, edges, weights, r


@dataclass
class Source:
    id: str
    mmo: MmoInstance
    feasible: bool
    stages: int = 2


def chain_setup(ctx, seed, size):
    rng = random.Random(seed)
    sources = []
    for name, n, edges, weights, r in chain_family(size["cap"]):
        mmo = labelled_target(rng, n, edges, weights, r)
        feasible = call(ctx.tracer, "mmo.solve_mmo", solve_mmo, mmo) is not None
        label = "chain:%s:w%s:r%d" % (name, "-".join(map(str, weights)), r)
        sources.append(Source(label, mmo, feasible))
    return sources


CHAIN_DECISION_LIMIT = 2.0


def two_stages(ctx, item, mmo, validate):
    """mmo-to-fnc and fnc-to-fn from a heuristic decomposition of the
    target, carried along both; returns the stages, the last
    decomposition and the counts the formulas give for stage 2."""
    td = call(ctx.tracer, "treewidth.heuristic_td", heuristic_td, mmo.graph)
    counts1 = target_counts(mmo)
    stage1, td1 = advance(
        ctx, item, "mmo-to-fnc", mmo_to_alliance, (mmo,), td, counts1["vertices"], validate
    )
    counts2 = oracle.next_stage_counts("fnc-to-fn", counts1)
    stage2, td2 = advance(
        ctx, item, "fnc-to-fn", eliminate_pairs, (stage1.result,), td1,
        counts2["vertices"], validate,
    )
    return [stage1, stage2], td2, counts2


def chain_item(ctx, source):
    stages, td2, _counts = two_stages(ctx, source.id, source.mmo, validate=True)
    nice(ctx, source.id, td2)
    result, extra = decide_within(ctx, stages[-1].result, CHAIN_DECISION_LIMIT)
    check_decision(ctx, source.id, source.mmo, source.feasible, stages, result)
    return extra


# ------------------------------------------------------------------ large

# (name, edge weight, r, stages): the smallest one-edge target taken
# through three stages, and a deep two-stage decomposition
LARGE_SOURCES = (("deep", 3, 3, 2), ("three-stage", 1, 1, 3))
LARGE_DECISION_LIMIT = 10.0


def large_setup(ctx, seed, size):
    rng = random.Random(seed)
    sources = []
    for name, weight, r, stages in LARGE_SOURCES:
        mmo = labelled_target(rng, 2, ((0, 1),), (weight,), r)
        feasible = call(ctx.tracer, "mmo.solve_mmo", solve_mmo, mmo) is not None
        label = "large:%s:w%d:r%d" % (name, weight, r)
        sources.append(Source(label, mmo, feasible, min(stages, size["stages"])))
    return sources


def large_item(ctx, source):
    """No validate_td here: it is quadratic in the instance size."""
    stages, td2, counts2 = two_stages(ctx, source.id, source.mmo, validate=False)
    nice_td = nice(ctx, source.id, td2)
    if source.stages < 3 or nice_td is None:
        return 0.0
    counts3 = oracle.next_stage_counts("fn-to-f", counts2)
    stage3, _td3 = advance(
        ctx, source.id, "fn-to-f", eliminate_necessary_auto, (stages[-1].result, nice_td),
        nice_td, counts3["vertices"], False,
    )
    stages.append(stage3)
    result, extra = decide_within(ctx, stage3.result, LARGE_DECISION_LIMIT)
    check_decision(ctx, source.id, source.mmo, source.feasible, stages, result)
    return extra


# -------------------------------------------------------------------- cli

# kinds of well-formed request. There is no usage data to weight them
# by, so the mix is assumed: the same number of requests of each kind
# per pass, and malformed documents at about one request in ten
CLI_KINDS = (
    "solve-decide",
    "solve-minimum",
    "solve-count",
    "solve-connected",
    "verify",
    "reduce",
    "decompose",
    "gen",
)
# malformed document shapes and the defect each one shows today; every
# one of them should exit 2
MALFORMED = (
    ("vertices-not-list", "b"),
    ("k-boolean", "c"),
    ("weight-boolean", "c"),
    ("set-as-string", "d"),
    ("invalid-json", None),
)
CLI_TIMEOUT = 120


@dataclass
class Request:
    id: str
    argv: list
    document: str
    expect: object  # ctx -> the exit code the request should give
    check: object = None  # (ctx, report) -> a problem, or None
    defect: str = None


class _Documents:
    """Writes the request documents into the run's scratch directory."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, text):
        self.count += 1
        path = os.path.join(self.directory, "doc%d.json" % (self.count,))
        with open(path, "w") as handle:
            handle.write(text)
        return path


class _Smallest:
    """Smallest connected alliance of a plain instance, the oracle for
    solve requests. It is computed on first use, in the check phase
    after timing: its cost varies a lot between instances, and neither
    set-up nor the items should carry it."""

    def __init__(self, instance):
        self.instance = instance
        self._result = None

    def __call__(self, ctx):
        if self._result is None:
            self._result = call(
                ctx.tracer, "solver.solve_connected_pruned",
                solve_connected_pruned, self.instance, "minimum",
            )
        return self._result


def _names(members):
    return ",".join(sorted(str(v) for v in members))


def _plain(ctx, rng, docs):
    tracer = ctx.tracer
    instance = call(tracer, "gen.draw", random_plain_instance, rng)
    text = call(tracer, "alliance.instance_to_json", instance_to_json, instance)
    return instance, text, docs.write(text)


def _exit(code):
    return lambda ctx: code


def _solve_request(ctx, rng, docs, kind):
    instance, text, path = _plain(ctx, rng, docs)
    smallest = _Smallest(instance)

    def expect(ctx):
        return 0 if smallest(ctx).feasible else 1

    if kind == "solve-decide":
        argv = ["solve", "--goal", "decide", path]

        def check(ctx, report):
            best = smallest(ctx)
            if report.get("feasible") != best.feasible:
                return "verdict %s, connected search gives %s" % (
                    report.get("feasible"), best.feasible)
            return None
    elif kind == "solve-count":
        argv = ["solve", "--goal", "count", path]

        def check(ctx, report):
            best = smallest(ctx)
            if ((report.get("count") or 0) > 0) != best.feasible:
                return "count %s, connected search feasible %s" % (
                    report.get("count"), best.feasible)
            return None
    else:
        argv = ["solve", "--goal", "minimum", path]
        if kind == "solve-connected":
            argv.insert(1, "--connected")

        def check(ctx, report):
            best = smallest(ctx)
            if report.get("size") != best.size:
                return "size %s, connected search gives %s" % (report.get("size"), best.size)
            members = {parse_vertex(x) for x in report.get("witness") or ()}
            if best.feasible and not call(
                ctx.tracer, "alliance.is_solution", is_solution, instance, members
            ):
                return "witness %s is not a solution" % (_names(members),)
            return None
    return argv, text, expect, check


def _verify_request(ctx, rng, docs):
    """A random vertex set, or every vertex, which is a solution
    exactly when k allows it."""
    instance, text, path = _plain(ctx, rng, docs)
    vertices = instance.graph.sorted_vertices()
    if rng.random() < 0.5:
        members = vertices
    else:
        members = rng.sample(vertices, rng.randint(1, min(instance.k, len(vertices))))
    expected = call(ctx.tracer, "alliance.is_solution", is_solution, instance, members)

    def check(ctx, report):
        if report.get("solution") != expected:
            return "verify says %s, is_solution says %s" % (report.get("solution"), expected)
        return None

    return ["verify", "-S", _names(members), path], text, _exit(0 if expected else 1), check


def _reduce_request(ctx, rng, docs):
    tracer = ctx.tracer
    draw, tag, _build = rng.choice(AUDIT_TOYS + ((random_mmo, "mmo-to-fnc", None),))
    source = call(tracer, "gen.draw", draw, rng)
    if tag == "mmo-to-fnc":
        text = call(tracer, "mmo.mmo_to_json", mmo_to_json, source)
        expected = target_counts(source)["vertices"]
    else:
        text = call(tracer, "alliance.instance_to_json", instance_to_json, source)
        expected = oracle.next_stage_counts(tag, oracle.instance_counts(source))["vertices"]

    def check(ctx, report):
        if report.get("vertices") != expected:
            return "%s vertices, formula gives %d" % (report.get("vertices"), expected)
        return None

    return ["reduce", "--stage", tag, docs.write(text)], text, _exit(0), check


def _decompose_request(ctx, rng, docs):
    instance, text, path = _plain(ctx, rng, docs)

    def check(ctx, report):
        if not report.get("nice"):
            return "decomposition is not nice"
        td = call(ctx.tracer, "treewidth.td_from_lines", td_from_lines,
                  "\n".join(report.get("lines", ())))
        graph = call(ctx.tracer, "alliance.primal_graph", primal_graph, instance)
        verdict = call(ctx.tracer, "treewidth.validate_td", validate_td, graph, td)
        return None if verdict.ok else verdict.problems[0]

    return ["decompose", "--nice", path], text, _exit(0), check


def _gen_request(rng):
    kind = rng.choice(("plain", "mmo", "fnc", "fn", "f"))
    argv = ["gen", "--kind", kind, "--seed", str(rng.randrange(10**6))]

    def check(ctx, report):
        return None if isinstance(report, dict) else "not a single document"

    return argv, None, _exit(0), check


def _malformed_request(ctx, rng, docs, shape):
    if shape == "weight-boolean":
        mmo = call(ctx.tracer, "gen.draw", random_mmo, rng)
        payload = json.loads(call(ctx.tracer, "mmo.mmo_to_json", mmo_to_json, mmo))
        payload["edges"][0][2] = True
        text = json.dumps(payload)
        return ["reduce", "--stage", "mmo-to-fnc", docs.write(text)], text
    _instance, text, _path = _plain(ctx, rng, docs)
    payload = json.loads(text)
    if shape == "vertices-not-list":
        payload["vertices"] = len(payload["vertices"])
    elif shape == "k-boolean":
        payload["k"] = True
    elif shape == "set-as-string":
        payload["forbidden"] = "".join(payload["vertices"][:2])
    if shape == "invalid-json":
        text = text[: len(text) // 2]
    else:
        text = json.dumps(payload)
    return ["solve", docs.write(text)], text


def cli_setup(ctx, seed, size):
    rng = random.Random(seed)
    docs = _Documents(ctx.scratch)
    kinds = [kind for kind in CLI_KINDS for _ in range(size["per_kind"])]
    kinds += ["malformed"] * size["malformed"]
    rng.shuffle(kinds)
    shapes = list(MALFORMED)
    rng.shuffle(shapes)
    requests = []
    for i, kind in enumerate(kinds):
        defect = None
        if kind.startswith("solve-"):
            argv, text, expect, check = _solve_request(ctx, rng, docs, kind)
        elif kind == "verify":
            argv, text, expect, check = _verify_request(ctx, rng, docs)
        elif kind == "reduce":
            argv, text, expect, check = _reduce_request(ctx, rng, docs)
        elif kind == "decompose":
            argv, text, expect, check = _decompose_request(ctx, rng, docs)
        elif kind == "gen":
            argv, text, expect, check = _gen_request(rng)
        else:
            shape, defect = shapes.pop()
            argv, text = _malformed_request(ctx, rng, docs, shape)
            expect, check, kind = _exit(2), None, "malformed:" + shape
        requests.append(Request("cli:%d:%s" % (i, kind), argv, text, expect, check, defect))
    return requests


def _environment(root):
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _judge(ctx, request, proc):
    expect = request.expect(ctx)
    last = proc.stderr.strip().splitlines()[-1:]
    ok = ctx.ledger.check(
        request.id, "exit code", proc.returncode == expect,
        "exit %d, expected %d%s" % (proc.returncode, expect, "".join("; " + x for x in last)),
        defect=request.defect,
    )
    if ok and request.check is not None:
        problem = request.check(ctx, json.loads(proc.stdout))
        ctx.ledger.check(request.id, "report", problem is None, problem or "")


def _start(ctx, command):
    """Run one request process and wait for it; its exit code and
    output, and its own peak RSS, which os.wait4 reads as it reaps it.
    Output goes to files, which cannot fill up as a pipe can."""
    with tempfile.TemporaryFile(dir=ctx.scratch) as out, \
            tempfile.TemporaryFile(dir=ctx.scratch) as err:
        proc = subprocess.Popen(command, cwd=ctx.root, env=_environment(ctx.root),
                                stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (subprocess.CompletedProcess(command, proc.returncode,
                                            out.read().decode(), err.read().decode()),
                usage.ru_maxrss)


def _replay(ctx, request):
    """The request in this process, through parse_instance and main,
    which splits its time into process start-up and the library's work."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        # the replay only times the layers; a malformed document may make
        # the library raise anything, and the process exit code judges it
        if request.document is not None:
            with contextlib.suppress(Exception):
                call(ctx.tracer, "cli.parse_instance", cli.parse_instance, request.document)
        with contextlib.suppress(Exception):
            call(ctx.tracer, "cli.main", cli.main, list(request.argv))


def cli_item(ctx, request):
    """One process per request. Its outputs are judged in the check
    phase, and a traced run replays the request in-process there too,
    so the item time is that of the process alone."""
    command = [sys.executable, "-m", "alliancelib.cli"] + request.argv
    with ctx.tracer.span("cli.process"):
        proc, peak_kb = _start(ctx, command)
    ctx.process_peak_kb = max(ctx.process_peak_kb or 0, peak_kb)
    if ctx.tracer.enabled:
        ctx.pending.append(functools.partial(_replay, ctx, request))
    ctx.pending.append(functools.partial(_judge, ctx, request, proc))
    return 0.0


WORKLOADS = {
    "audit": Workload(
        audit_setup, audit_item,
        {"full": {"units": 50, "targets": 4}, "tiny": {"units": 2, "targets": 2}},
    ),
    "chain": Workload(
        chain_setup, chain_item,
        {"full": {"cap": CHAIN_CAP}, "tiny": {"cap": 700}},
        CHAIN_DECISION_LIMIT,
    ),
    "large": Workload(
        large_setup, large_item,
        {"full": {"stages": 3}, "tiny": {"stages": 2}},
        LARGE_DECISION_LIMIT,
    ),
    "cli": Workload(
        cli_setup, cli_item,
        {"full": {"per_kind": 6, "malformed": len(MALFORMED)},
         "tiny": {"per_kind": 1, "malformed": 1}},
    ),
}
