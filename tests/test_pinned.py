"""Solver results and alliance verdicts pinned as recorded before Graph
stored its adjacency as int arrays. The decide records of at-most
instances without pairs were re-recorded when decide began to stop at
the first complete alliance; their verdicts and free counts stayed.

The search numbers vertices in sorted order and branches on the least
ids first, so the node counts pin the search order as well as the
answers. The records live in golden/pins.json; running this file as a
script rewrites it from the current code:

    PYTHONPATH=src python3 tests/test_pinned.py
"""

import json
import pathlib
import random

from alliancelib import replace
from alliancelib.alliance import is_defensive_alliance
from alliancelib.gen import (
    random_forbidden_toy,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
    random_plain_instance,
)
from alliancelib.reductions import (
    eliminate_forbidden,
    eliminate_necessary_auto,
    eliminate_pairs,
    mmo_to_alliance,
)
from alliancelib.solver import GOALS, BudgetExceededError, SolveRequest, solve

from helpers import one_edge_target

PINS = pathlib.Path(__file__).parent / "golden" / "pins.json"


def names(vertices):
    return sorted(str(x) for x in vertices)


def corpus():
    """(label, instance): seeded toys of every generator with their stage
    outputs of at most 16 vertices, in both modes, then the two-stage
    outputs of the one-edge targets w=1 r=1 and w=2 r=1."""
    rng = random.Random(515)
    found = [random_plain_instance(rng, 9) for _ in range(10)]
    for draw, build in (
        (random_pair_toy, eliminate_pairs),
        (random_necessary_toy, eliminate_necessary_auto),
        (random_forbidden_toy, eliminate_forbidden),
    ):
        for _ in range(8):
            toy = draw(rng)
            found.append(toy)
            out = build(toy).result
            if len(out.graph.vertices) <= 16:
                found.append(out)
    for _ in range(4):
        out = mmo_to_alliance(random_mmo(rng, max_vertices=2, max_edges=1)).result
        if len(out.graph.vertices) <= 16:
            found.append(out)
    for i, inst in enumerate(found):
        for mode in ("at-most", "exact"):
            yield "toy %d %s" % (i, mode), replace(inst, mode=mode)
    for weight, r in ((1, 1), (2, 1)):
        first = mmo_to_alliance(one_edge_target(weight, r)).result
        yield "one-edge w=%d r=%d" % (weight, r), eliminate_pairs(first).result


def solver_record(instance, goal):
    try:
        res = solve(SolveRequest(instance, goal))
    except BudgetExceededError as exc:
        return {"budget_exceeded": exc.free_count}
    return {
        "feasible": res.feasible,
        "size": res.size,
        "witness": None if res.witness is None else names(res.witness),
        "count": res.count,
        "free_count": res.free_count,
        "nodes": res.nodes,
    }


def alliance_records(rng, graph):
    """Verdicts on seeded random candidates: a few of each size class,
    from single vertices to most of the graph."""
    order = graph.sorted_vertices()
    n = len(order)
    out = []
    for size in (1, 2, n // 4, n // 2, 3 * n // 4):
        if not 1 <= size <= n:
            continue
        candidate = rng.sample(order, size)
        verdict = is_defensive_alliance(graph, candidate)
        out.append({"ok": verdict.ok, "violators": names(verdict.violators)})
    return out


def record():
    rng = random.Random(516)
    pins = {}
    for label, inst in corpus():
        for goal in GOALS:
            pins["%s %s" % (label, goal)] = solver_record(inst, goal)
        if label.endswith("at-most") or label.startswith("one-edge"):
            pins["%s alliance" % label] = alliance_records(rng, inst.graph)
    return pins


def test_pinned_solver_and_alliance_outputs():
    expected = json.loads(PINS.read_text())
    got = record()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


if __name__ == "__main__":
    pins = record()
    lines = ["%s: %s" % (json.dumps(k), json.dumps(pins[k])) for k in sorted(pins)]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
