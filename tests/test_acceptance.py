"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -s to see the lines; each test name also carries its
criterion number, so plain -v output reports the same verdicts.
"""

import itertools
import random
import time
from functools import wraps

import pytest

from alliancelib.alliance import (
    AllianceInstance,
    is_defensive_alliance,
    is_solution,
    primal_graph,
)
from alliancelib.gen import (
    random_forbidden_toy,
    random_graph,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
    random_plain_instance,
)
from alliancelib.graph import Graph
from alliancelib.mmo import max_weighted_outdegree, solve_mmo
from alliancelib.pipeline import audit_stage
from alliancelib.reductions import (
    eliminate_forbidden,
    eliminate_necessary_auto,
    eliminate_pairs,
    mmo_to_alliance,
    solution_to_orientation,
)
from alliancelib.solver import (
    SolveRequest,
    solve,
    solve_connected_pruned,
)
from alliancelib.treewidth import (
    heuristic_td,
    make_nice,
    transform_td,
    treewidth_exact_small,
    validate_td,
)

from helpers import constrained_instance, two_vertex_mmo, v, vs, wheelish_graph


def criterion(number, label, limit=None):
    """Print the verdict line and enforce the stated time budget."""

    def wrap(fn):
        @wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                elapsed = time.monotonic() - start
                print("criterion %d FAIL (%.2fs): %s" % (number, elapsed, label))
                raise
            elapsed = time.monotonic() - start
            print("criterion %d PASS (%.2fs): %s" % (number, elapsed, label))
            if limit is not None:
                assert elapsed < limit, "criterion %d took %.2fs, limit %ss" % (
                    number,
                    elapsed,
                    limit,
                )

        return run

    return wrap


def enumerate_solutions(instance, budget=32):
    result = solve(SolveRequest(instance, "enumerate-all", budget=budget))
    return result.solutions or ()


@criterion(1, "small wheel: minimum size 2, {a,b} accepted, {a,d} rejected", 1.0)
def test_criterion_1_minimum_and_rejection():
    g = wheelish_graph()
    inst = AllianceInstance(g, k=len(g.vertices))
    result = solve(SolveRequest(inst, "minimum"))
    assert result.feasible and result.size == 2
    a, b, d = vs("a b d")
    assert is_solution(inst, {a, b})
    verdict = is_defensive_alliance(g, {a, d})
    assert not verdict.ok
    assert verdict.violators == frozenset([d])
    assert not is_solution(inst, {a, d})


@criterion(2, "constrained instance: exactly one solution {a, b, g}", 1.0)
def test_criterion_2_unique_constrained_solution():
    solutions = enumerate_solutions(constrained_instance())
    assert solutions == (frozenset(vs("a b g")),)


@criterion(3, "orientation equivalence on 200 random weighted instances", 300.0)
def test_criterion_3_mmo_equivalence():
    rng = random.Random(1003)
    for _ in range(200):
        source = random_mmo(rng)
        orientation = solve_mmo(source)
        stage = mmo_to_alliance(source)
        outcome = solve(SolveRequest(stage.result, "decide", budget=32))
        assert outcome.feasible == (orientation is not None)
        solutions = enumerate_solutions(stage.result)
        assert all(len(s) == stage.result.k for s in solutions)
        for s in solutions:
            back = solution_to_orientation(source, s)
            assert max_weighted_outdegree(source, back) <= source.r


@criterion(4, "lift/project bijections on 50 toys per elimination stage", 600.0)
def test_criterion_4_bijection_audits():
    rng = random.Random(1004)
    for draw, build in (
        (random_pair_toy, eliminate_pairs),
        (random_necessary_toy, eliminate_necessary_auto),
        (random_forbidden_toy, eliminate_forbidden),
    ):
        for _ in range(50):
            audit = audit_stage(build(draw(rng)), budget=32)
            assert audit["verified"], audit


@criterion(5, "width bounds along every stage transformation")
def test_criterion_5_width_bounds():
    rng = random.Random(1005)
    for _ in range(50):
        source = random_mmo(rng)
        td = heuristic_td(source.graph)
        width = td.width()
        assert width == treewidth_exact_small(source.graph)
        stage = mmo_to_alliance(source)
        out = transform_td(stage, td)
        assert validate_td(primal_graph(stage.result), out).ok
        assert out.width() <= width + 4
    for _ in range(50):
        toy = random_pair_toy(rng)
        td = heuristic_td(primal_graph(toy))
        width = td.width()
        assert width == treewidth_exact_small(primal_graph(toy))
        stage = eliminate_pairs(toy)
        out = transform_td(stage, td)
        assert validate_td(stage.result.graph, out).ok
        assert out.width() <= 3 * width + 5
    for _ in range(50):
        toy = random_necessary_toy(rng)
        ntd = make_nice(heuristic_td(toy.graph))
        width = ntd.width()
        assert width == treewidth_exact_small(toy.graph)
        stage = eliminate_necessary_auto(toy, ntd)
        out = transform_td(stage, ntd)
        assert validate_td(stage.result.graph, out).ok
        assert out.width() <= width + 13
    for _ in range(50):
        toy = random_forbidden_toy(rng)
        td = heuristic_td(toy.graph)
        width = td.width()
        assert width == treewidth_exact_small(toy.graph)
        stage = eliminate_forbidden(toy)
        out = transform_td(stage, td)
        assert validate_td(stage.result.graph, out).ok
        assert out.width() <= width + 2


def _majority_subsets(rng, neighbors, closed_size):
    if len(neighbors) <= 6:
        pool = []
        for size in range(len(neighbors) + 1):
            for combo in itertools.combinations(neighbors, size):
                if 2 * len(combo) > closed_size:
                    pool.append(frozenset(combo))
        return pool
    pool = []
    for _ in range(40):
        size = rng.randint(closed_size // 2 + 1, len(neighbors))
        pool.append(frozenset(rng.sample(neighbors, size)))
    return pool


def _components_within(graph, members):
    left = set(members)
    while left:
        seed = left.pop()
        comp = {seed}
        queue = [seed]
        while queue:
            x = queue.pop()
            for y in graph.neighbors(x):
                if y in left:
                    left.discard(y)
                    comp.add(y)
                    queue.append(y)
        yield frozenset(comp)


@criterion(6, "neighborhood majority, forced halves, component closure")
def test_criterion_6_observations():
    rng = random.Random(1006)
    pairs = 0
    while pairs < 1000:
        g = random_graph(rng)
        alliances = enumerate_solutions(
            AllianceInstance(g, k=len(g.vertices)), budget=22
        )
        for _ in range(4):
            if pairs >= 1000:
                break
            s = rng.choice(alliances)
            pairs += 1
            for member in s:
                neighbors = list(g.neighbors(member))
                closed_size = len(neighbors) + 1
                # a majority of the closed neighborhood cannot avoid s
                for subset in _majority_subsets(rng, neighbors, closed_size):
                    assert subset & s
                # an untouched half forces the other half inside
                if len(neighbors) % 2 == 0:
                    half = len(neighbors) // 2
                    outside = [x for x in neighbors if x not in s]
                    for attack in itertools.combinations(outside, half):
                        rest = set(neighbors) - set(attack)
                        assert rest <= s
            for comp in _components_within(g, s):
                assert is_defensive_alliance(g, comp).ok


@criterion(7, "connected pruning agrees with the full solver")
def test_criterion_7_connected_pruning():
    rng = random.Random(1007)
    for _ in range(500):
        inst = random_plain_instance(rng)
        # the search that answers solve --connected for both goals
        full = solve(SolveRequest(inst, "minimum"))
        for goal in ("decide", "minimum"):
            pruned = solve_connected_pruned(inst, goal)
            assert full.feasible == pruned.feasible
            assert full.size == pruned.size
            assert full.witness == pruned.witness
    # frozen regression: an exact-size solution may span several
    # components, which only the full solver can report
    p, q, r, x, y, z = vs("p q r x y z")
    g = Graph(
        [p, q, r, x, y, z],
        [(p, q), (q, r), (r, p), (x, y), (y, z), (z, x)],
    )
    exact = AllianceInstance(g, k=6, mode="exact")
    solutions = enumerate_solutions(exact)
    assert solutions == (frozenset(g.vertices),)
    assert len(list(_components_within(g, solutions[0]))) == 2
    with pytest.raises(ValueError):
        solve_connected_pruned(exact, "decide")


@criterion(8, "stage size formulas on fixed inputs")
def test_criterion_8_size_formulas():
    seven = vs("a b c d e f g")
    pair_instance = AllianceInstance(
        Graph(seven, []), k=3, pairs=[(seven[0], seven[1])]
    )
    assert eliminate_pairs(pair_instance).size_fn(3) == 82

    a, b = vs("a b")
    necessary_instance = AllianceInstance(
        Graph([a, b], [(a, b)]), k=2, necessary=[a]
    )
    assert eliminate_necessary_auto(necessary_instance).size_fn(2) == 14

    stage = mmo_to_alliance(two_vertex_mmo())
    assert len(stage.result.graph.vertices) == 24
    assert len(stage.result.pairs) == 5
    assert stage.result.k == 15
