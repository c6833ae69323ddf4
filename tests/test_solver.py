"""Oracles for the exact solver. Free-vertex counts, witnesses and
solution counts below were worked out by hand before the solver
existed; the cross-checks compare every goal with brute force over
is_solution."""

import hashlib
import itertools
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from alliancelib import replace
from alliancelib.alliance import AllianceInstance, is_solution
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
from alliancelib.pipeline import _instance_stats
from alliancelib.reductions import (
    STAGE_KINDS,
    build_stage,
    eliminate_forbidden,
    eliminate_necessary_auto,
    eliminate_pairs,
    mmo_to_alliance,
    project_solution,
    solution_to_orientation,
)
from alliancelib.solver import (
    DEFAULT_BUDGET,
    GOALS,
    BudgetExceededError,
    SolveRequest,
    _Search,
    _connected_candidates,
    solve,
    solve_connected_pruned,
)

from helpers import (
    constrained_instance,
    one_edge_target,
    two_vertex_mmo,
    v,
    vs,
    wheelish_graph,
)


def brute_solutions(instance):
    verts = instance.graph.sorted_vertices()
    found = []
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if is_solution(instance, frozenset(combo)):
                found.append(frozenset(combo))
    return found


def two_triangles():
    p, q, r, x, y, z = vs("p q r x y z")
    return Graph(
        [p, q, r, x, y, z],
        [(p, q), (q, r), (r, p), (x, y), (y, z), (z, x)],
    )


class TestRequestValidation:
    def test_defaults(self):
        req = SolveRequest(AllianceInstance(wheelish_graph(), k=2), "decide")
        assert req.budget == 22

    def test_rejects_unknown_goal(self):
        inst = AllianceInstance(wheelish_graph(), k=2)
        with pytest.raises(ValueError, match="goal"):
            SolveRequest(inst, "optimise")

    def test_budget_exceeded_reports_free_count(self):
        inst = AllianceInstance(wheelish_graph(), k=2)
        nodes = solve(SolveRequest(inst, "decide")).nodes
        assert nodes > 1
        # the largest budget of 2^budget nodes that the search overruns
        budget = (nodes - 1).bit_length() - 1
        pattern = r"\b5 free vertices .* 2\^%d nodes" % budget
        with pytest.raises(BudgetExceededError, match=pattern) as err:
            solve(SolveRequest(inst, "decide", budget=budget))
        assert err.value.free_count == 5
        assert err.value.budget == budget


class TestPlainGoals:
    def test_minimum_on_wheelish(self):
        inst = AllianceInstance(wheelish_graph(), k=5)
        res = solve(SolveRequest(inst, "minimum"))
        assert res.feasible
        assert res.size == 2
        assert res.witness == frozenset(vs("a b"))
        assert is_solution(inst, res.witness)

    def test_no_singleton_alliance_exact(self):
        inst = AllianceInstance(wheelish_graph(), k=1, mode="exact")
        res = solve(SolveRequest(inst, "decide"))
        assert not res.feasible
        assert res.witness is None
        assert res.size is None

    def test_enumerate_matches_brute_force(self):
        inst = AllianceInstance(wheelish_graph(), k=3)
        res = solve(SolveRequest(inst, "enumerate-all"))
        assert sorted(res.solutions) == sorted(brute_solutions(inst))

    def test_enumeration_order_is_deterministic(self):
        inst = AllianceInstance(wheelish_graph(), k=3)
        res = solve(SolveRequest(inst, "enumerate-all"))
        keyed = [(len(s), sorted(str(x) for x in s)) for s in res.solutions]
        assert keyed == sorted(keyed)

    def test_count_equals_enumeration_length(self):
        inst = AllianceInstance(wheelish_graph(), k=4)
        res_count = solve(SolveRequest(inst, "count"))
        res_enum = solve(SolveRequest(inst, "enumerate-all"))
        assert res_count.count == len(res_enum.solutions) > 0

    def test_decide_witness_verifies(self):
        inst = AllianceInstance(wheelish_graph(), k=2)
        res = solve(SolveRequest(inst, "decide"))
        assert res.feasible
        assert is_solution(inst, res.witness)


class TestConstrainedInstances:
    def test_unique_solution_enumeration(self):
        res = solve(SolveRequest(constrained_instance(), "enumerate-all"))
        assert len(res.solutions) == 1
        assert res.solutions[0] == frozenset(vs("a b g"))

    def test_free_count_reflects_pair_propagation(self):
        res = solve(SolveRequest(constrained_instance(), "count"))
        # seven vertices minus two forbidden minus two necessary
        assert res.free_count == 3
        assert res.count == 1

    def test_reduced_mmo_free_count_frozen(self):
        stage = mmo_to_alliance(two_vertex_mmo())
        res = solve(SolveRequest(stage.result, "count"))
        assert res.free_count == 6
        assert res.count == 2

    def test_reduced_mmo_budget_boundary(self):
        stage = mmo_to_alliance(two_vertex_mmo())
        nodes = solve(SolveRequest(stage.result, "decide")).nodes
        budget = (nodes - 1).bit_length()  # ceil(log2(nodes))
        assert budget >= 1
        assert solve(SolveRequest(stage.result, "decide", budget=budget)).feasible
        with pytest.raises(BudgetExceededError) as err:
            solve(SolveRequest(stage.result, "decide", budget=budget - 1))
        assert err.value.free_count == 6

    def test_reduced_solutions_have_exact_size(self):
        stage = mmo_to_alliance(two_vertex_mmo())
        res = solve(SolveRequest(stage.result, "enumerate-all"))
        assert {len(s) for s in res.solutions} == {stage.result.k}

    def test_exact_mode_filter(self):
        inst = AllianceInstance(wheelish_graph(), k=2, mode="exact")
        res = solve(SolveRequest(inst, "enumerate-all"))
        assert res.solutions
        assert all(len(s) == 2 for s in res.solutions)

    def test_infeasible_pair_chain(self):
        # an odd pair cycle admits no exactly-one assignment
        a, b, c = vs("a b c")
        inst = AllianceInstance(
            Graph([a, b, c], []), k=2, pairs=[(a, b), (b, c), (c, a)]
        )
        res = solve(SolveRequest(inst, "count"))
        assert res.count == 0
        assert not solve(SolveRequest(inst, "decide")).feasible


class TestPropagation:
    def test_forced_inclusion_shrinks_free_set(self):
        # x is the only undetermined neighbor of the necessary hub, and
        # without it the hub is outnumbered, so the root fixes x in
        hub, x, y = vs("hub x y")
        inst = AllianceInstance(
            Graph([hub, x, y], [(hub, x), (hub, y)]),
            k=2,
            necessary=[hub],
            forbidden=[y],
        )
        res = solve(SolveRequest(inst, "count"))
        assert res.free_count == 0
        assert res.count == 1

    def test_propagation_detects_dead_end(self):
        hub, x, y = vs("hub x y")
        inst = AllianceInstance(
            Graph([hub, x, y], [(hub, x), (hub, y)]),
            k=3,
            necessary=[hub],
            forbidden=[x, y],
        )
        res = solve(SolveRequest(inst, "count"))
        assert res.count == 0

    @pytest.mark.parametrize("goal", GOALS)
    def test_dead_root_free_count_is_the_vertices_not_forbidden(self, goal):
        # propagation stops at the hub with nothing left open; the
        # reported count does not depend on where it stopped
        hub, x, y = vs("hub x y")
        inst = AllianceInstance(
            Graph([hub, x, y], [(hub, x), (hub, y)]),
            k=3,
            necessary=[hub],
            forbidden=[x, y],
        )
        res = solve(SolveRequest(inst, goal))
        assert (res.feasible, res.nodes, res.free_count) == (False, 1, 1)

    @pytest.mark.parametrize("goal", GOALS)
    def test_inconsistent_root_counts_one_node(self, goal):
        a, b, c, f, hub, m, n, p, q, x, y = vs("a b c f hub m n p q x y")
        cases = [
            # a pair joining two necessary vertices
            AllianceInstance(
                Graph([a, b], []), k=2, necessary=[a, b], pairs=[(a, b)]
            ),
            # a necessary hub whose neighbours are all forbidden
            AllianceInstance(
                Graph([hub, x, y], [(hub, x), (hub, y)]),
                k=3,
                necessary=[hub],
                forbidden=[x, y],
            ),
            # exact mode, and the forbidden vertex leaves two open for k = 3
            AllianceInstance(
                Graph([a, b, c], [(a, b), (b, c)]),
                k=3,
                mode="exact",
                forbidden=[c],
            ),
            # m and n each see the forbidden f and one pair endpoint, so
            # whichever comes first is at zero slack and forces its
            # endpoint in; the partner goes out and outnumbers the other
            AllianceInstance(
                Graph([f, m, n, p, q], [(m, f), (m, p), (n, f), (n, q)]),
                k=5,
                necessary=[m, n],
                forbidden=[f],
                pairs=[(p, q)],
            ),
        ]
        for inst in cases:
            res = solve(SolveRequest(inst, goal))
            assert res.feasible is False
            assert res.witness is None
            assert res.nodes == 1
            if goal in ("count", "enumerate-all"):
                assert res.count == 0


class TestRefusedInBranches:
    """Nodes and witnesses, recorded before in-branches that fail at the
    branch vertex itself were refused unassigned: w1 and w2 see three
    forbidden vertices and can never reach a majority, and at k = 4 the
    set is full once the hub has its majority. decide was re-recorded
    when it began to stop at the first complete alliance: once a, b and
    c are in, no member is short."""

    @staticmethod
    def instance(k):
        names = "hub f a b c x y z w1 w2 g1 g2 g3"
        hub, f, a, b, c, x, y, z, w1, w2, g1, g2, g3 = vs(names)
        edges = [(hub, u) for u in (f, a, b, c, w1, w2)]
        edges += [(a, x), (b, y), (c, z)]
        edges += [(w, g) for w in (w1, w2) for g in (g1, g2, g3)]
        return AllianceInstance(
            Graph(vs(names), edges),
            k=k,
            necessary=[hub],
            forbidden=[f, g1, g2, g3],
        )

    @pytest.mark.parametrize(
        "k, goal, nodes, witness, count",
        [
            (4, "decide", 4, "a b c hub", None),
            (4, "minimum", 29, "a b c hub", None),
            (4, "enumerate-all", 29, "a b c hub", 1),
            (4, "count", 29, None, 1),
            (8, "decide", 4, "a b c hub", None),
            (8, "minimum", 37, "a b c hub", None),
            (8, "enumerate-all", 37, "a b c hub", 8),
            (8, "count", 37, None, 8),
        ],
    )
    def test_nodes_and_witness_are_unchanged(self, k, goal, nodes, witness, count):
        res = solve(SolveRequest(self.instance(k), goal))
        assert res.feasible
        assert res.free_count == 8
        assert res.nodes == nodes
        assert res.witness == (frozenset(vs(witness)) if witness else None)
        assert res.count == count


class TestConnectedPruned:
    def test_agrees_on_wheelish(self):
        inst = AllianceInstance(wheelish_graph(), k=2)
        full = solve(SolveRequest(inst, "minimum"))
        pruned = solve_connected_pruned(inst, "minimum")
        assert pruned.feasible == full.feasible
        assert pruned.size == full.size

    def test_disconnected_graph_still_answers(self):
        inst = AllianceInstance(two_triangles(), k=3)
        res = solve_connected_pruned(inst, "minimum")
        assert res.feasible
        # two adjacent triangle vertices already defend each other
        assert res.size == 2

    def test_rejects_exact_mode(self):
        inst = AllianceInstance(two_triangles(), k=3, mode="exact")
        with pytest.raises(ValueError, match="at-most"):
            solve_connected_pruned(inst)

    def test_rejects_constrained_variants(self):
        a, b = vs("a b")
        inst = AllianceInstance(Graph([a, b], [(a, b)]), k=1, forbidden=[b])
        with pytest.raises(ValueError, match="plain"):
            solve_connected_pruned(inst)

    def test_decide_goal(self):
        inst = AllianceInstance(two_triangles(), k=1)
        res = solve_connected_pruned(inst, "decide")
        assert not res.feasible

    def test_rejects_other_goals(self):
        inst = AllianceInstance(two_triangles(), k=3)
        with pytest.raises(ValueError, match="goal"):
            solve_connected_pruned(inst, "count")

    def test_candidates_on_a_long_path_hit_no_recursion_limit(self):
        # one stack frame per member would pass the interpreter's limit;
        # zero-padded names keep the path's vertex order its path order
        names = vs(" ".join("p%04d" % i for i in range(1500)))
        g = Graph(names, list(zip(names, names[1:])))
        prefixes = itertools.islice(_connected_candidates(g, 1500), 1500)
        assert list(prefixes) == [tuple(names[:i]) for i in range(1, 1501)]

    def test_disconnected_exact_solution_regression(self):
        # frozen witness for the caveat that connected search cannot
        # answer exact-size questions: the only size-6 alliance here is
        # the whole graph, which is disconnected
        g = two_triangles()
        exact = AllianceInstance(g, k=6, mode="exact")
        res = solve(SolveRequest(exact, "enumerate-all"))
        assert res.solutions == (frozenset(g.vertices),)
        parts = [c for c in g.connected_components() if c & res.solutions[0]]
        assert len(parts) == 2
        relaxed = AllianceInstance(g, k=6)
        pruned = solve_connected_pruned(relaxed, "minimum")
        assert pruned.size == 2

    def test_agreement_on_random_instances(self):
        import random

        rng = random.Random(7)
        names = "abcdefgh"
        for _ in range(60):
            n = rng.randint(2, 8)
            verts = [v(x) for x in names[:n]]
            edges = [
                (u, w)
                for u, w in itertools.combinations(verts, 2)
                if rng.random() < 0.4
            ]
            inst = AllianceInstance(
                Graph(verts, edges), k=rng.randint(1, n)
            )
            full = solve(SolveRequest(inst, "minimum"))
            pruned = solve_connected_pruned(inst, "minimum")
            assert full.feasible == pruned.feasible
            assert full.size == pruned.size


def set_key(members):
    return (len(members), sorted(members))


def brute_within_k(instance):
    """Every solution, from the candidates whose size is within k."""
    verts = instance.graph.sorted_vertices()
    sizes = [instance.k] if instance.mode == "exact" else range(1, instance.k + 1)
    return [
        frozenset(combo)
        for size in sizes
        for combo in itertools.combinations(verts, size)
        if is_solution(instance, frozenset(combo))
    ]


def assert_goals_agree_with(instance, expected):
    expected = sorted(expected, key=set_key)
    results = {goal: solve(SolveRequest(instance, goal)) for goal in GOALS}
    decide = results["decide"]
    assert decide.feasible == bool(expected)
    if expected:
        assert is_solution(instance, decide.witness)
    else:
        assert decide.witness is None
    minimum = results["minimum"]
    assert minimum.feasible == bool(expected)
    assert minimum.witness == (expected[0] if expected else None)
    assert minimum.size == (len(expected[0]) if expected else None)
    listed = results["enumerate-all"]
    assert list(listed.solutions) == expected
    assert listed.count == len(listed.solutions)
    assert results["count"].count == len(listed.solutions)
    assert results["count"].feasible == bool(expected)


class TestEmptySet:
    def test_k_zero_agrees_with_brute_force(self):
        # the empty set is never a solution, so k = 0 admits none
        a, b = vs("a b")
        rng = random.Random(41)
        cases = [AllianceInstance(Graph([a, b], [(a, b)]), k=0, mode="exact")]
        cases.extend(
            AllianceInstance(random_graph(rng, 6), k=0, mode="exact")
            for _ in range(20)
        )
        cases.append(replace(constrained_instance(), k=0, mode="exact"))
        for inst in cases:
            assert_goals_agree_with(inst, brute_solutions(inst))


def cross_check_corpus():
    """Seeded toys of every generator, and the stage outputs of the
    toys that have at most 16 vertices, each in both modes."""
    rng = random.Random(2024)
    found = [random_plain_instance(rng, 9) for _ in range(25)]
    for draw, build in (
        (random_pair_toy, eliminate_pairs),
        (random_necessary_toy, eliminate_necessary_auto),
        (random_forbidden_toy, eliminate_forbidden),
    ):
        for _ in range(25):
            toy = draw(rng)
            found.append(toy)
            out = build(toy).result
            if len(out.graph.vertices) <= 16:
                found.append(out)
    for inst in found:
        for mode in ("at-most", "exact"):
            yield replace(inst, mode=mode)


class TestBruteForceCrossCheck:
    def test_every_goal_agrees_with_brute_force(self):
        stage_outputs = 0
        for inst in cross_check_corpus():
            expected = brute_within_k(inst)
            stage_outputs += any(
                x.decoration != "original" for x in inst.graph.vertices
            )
            assert_goals_agree_with(inst, expected)
        # the corpus does reach the gadget-built stage outputs
        assert stage_outputs >= 20


class TestChainOutputs:
    """Decisions on the two-stage outputs of one-edge targets, checked
    against solve_mmo."""

    def decide_two_stages(self, weight, r):
        mmo = one_edge_target(weight, r)
        stages = [mmo_to_alliance(mmo)]
        stages.append(eliminate_pairs(stages[0].result))
        request = SolveRequest(stages[-1].result, "decide")
        assert request.budget == DEFAULT_BUDGET
        return mmo, stages, solve(request)

    def test_feasible_target(self):
        mmo, stages, res = self.decide_two_stages(1, 1)
        assert len(stages[-1].result.graph.vertices) == 427
        assert solve_mmo(mmo) is not None
        assert res.feasible
        assert is_solution(stages[-1].result, res.witness)
        witness = res.witness
        for stage in reversed(stages[1:]):
            witness = project_solution(stage, witness)
        orientation = solution_to_orientation(mmo, witness)
        assert max_weighted_outdegree(mmo, orientation) <= mmo.r

    def test_infeasible_target(self):
        mmo, stages, res = self.decide_two_stages(2, 1)
        assert len(stages[-1].result.graph.vertices) == 2181
        assert solve_mmo(mmo) is None
        assert not res.feasible
        assert res.witness is None


def test_stage_three_decision_is_unchanged(stage_three):
    # the figures and witness digest of the search over the closed
    # copy of the adjacency that the search used to make; nodes fell from
    # 84,292 to 208, and the witness stayed, when decide began to stop at
    # the first complete alliance
    instance = stage_three.third.result
    res = solve(SolveRequest(instance, "decide"))
    assert res.feasible
    assert (res.free_count, res.nodes, len(res.witness)) == (184465, 208, 142325)
    names = "\n".join(sorted(map(str, res.witness)))
    assert hashlib.sha256(names.encode()).hexdigest() == (
        "3ae1bbfc2210dbfefe4a5dcf821ccdfa09b4d310dd946555615ff98da0b1ec9c"
    )


def test_the_search_reads_the_graph_arrays_in_place():
    instance = constrained_instance()
    search = _Search(instance)
    assert search.first is instance.graph.first
    assert search.adjacent is instance.graph.adjacent


@st.composite
def constrained_instances(draw, max_vertices):
    """An instance on up to max_vertices vertices with necessary and
    forbidden vertices and pairs of non-adjacent, non-forbidden ones, in
    either mode."""
    n = draw(st.integers(1, max_vertices))
    names = [v("x%d" % i) for i in range(n)]
    pool = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    roles = draw(st.lists(st.sampled_from("onf"), min_size=n, max_size=n))
    apart = [
        (i, j) for (i, j), edge in zip(pool, mask)
        if not edge and "f" not in (roles[i], roles[j])
    ]
    pairs = draw(st.lists(st.sampled_from(apart), max_size=5)) if apart else []
    mode = draw(st.sampled_from(("at-most", "exact")))
    return AllianceInstance(
        Graph(names, [(names[i], names[j]) for (i, j), edge in zip(pool, mask) if edge]),
        k=draw(st.integers(1 if mode == "at-most" else 0, n)),
        necessary=[x for x, role in zip(names, roles) if role == "n"],
        forbidden=[x for x, role in zip(names, roles) if role == "f"],
        pairs=[(names[i], names[j]) for i, j in pairs],
        mode=mode,
    )


@st.composite
def constrained_searches(draw):
    """An instance of constrained_instances on up to 9 vertices and a
    decision sequence: steps (pending, undo), where pending holds 1-3
    signed decisions, v to put v in and ~v to put it out."""
    instance = draw(constrained_instances(9))
    n = len(instance.graph.vertices)
    decisions = st.lists(st.integers(-n, n - 1), min_size=1, max_size=3)
    steps = st.tuples(decisions, st.integers(0, 3))
    return instance, draw(st.lists(steps, max_size=20))


@settings(max_examples=300, deadline=None)
@given(constrained_instances(10))
def test_decide_agrees_with_brute_force(instance):
    # in at-most mode without pairs decide stops once no member is short
    # of a majority, with the members as its witness; in exact mode and
    # with pairs it searches on
    res = solve(SolveRequest(instance, "decide"))
    assert res.feasible == bool(brute_within_k(instance))
    if res.feasible:
        assert is_solution(instance, res.witness)
    else:
        assert res.witness is None


def assert_counts_recounted(search):
    """slack and deficit of every vertex, and the live candidates of
    short, as recounted from state and the graph arrays."""
    first, adjacent, state = search.first, search.adjacent, search.state
    for u, value in enumerate(state):
        closed = [state[w] for w in adjacent[first[u]:first[u + 1]]] + [value]
        need = (len(closed) + 1) // 2
        inside, undecided = closed.count(True), closed.count(None)
        assert search.slack[u] == inside + undecided - need
        assert search.deficit[u] == need - inside
    live = {u for u in search.short if state[u] and search.deficit[u] > 0}
    assert live == {u for u, value in enumerate(state) if value and search.deficit[u] > 0}
    assert (search.size, search.open) == (state.count(True), state.count(None))


@given(constrained_searches())
def test_slack_and_deficit_follow_every_assign_and_undo(case):
    # a step assigns its decisions in one queue below a new mark, so
    # that a forced vertex can meet a queued one as at the root, and
    # undoes to that mark when the assignment is a dead end; undo 0
    # backs up to the last mark instead, as an exhausted branch does
    instance, steps = case
    search = _Search(instance)
    assert_counts_recounted(search)
    marks = []
    for pending, undo in steps:
        if not undo and marks:
            search.undo(marks.pop())
        else:
            marks.append(len(search.trail))
            if not search.assign(pending):
                assert_counts_recounted(search)
                search.undo(marks.pop())
        assert_counts_recounted(search)


def branch_recounted(search):
    """What branch_vertex(0) should give, from state and the graph
    arrays alone, or None where the search never asks: no vertex is
    open, or a member is a dead end."""
    first, adjacent, state = search.first, search.adjacent, search.state
    slack, deficit = {}, {}
    for u, value in enumerate(state):
        closed = [state[w] for w in adjacent[first[u]:first[u + 1]]] + [value]
        need = (len(closed) + 1) // 2
        slack[u] = closed.count(True) + closed.count(None) - need
        deficit[u] = need - closed.count(True)
    members = [u for u, value in enumerate(state) if value]
    if None not in state or any(slack[u] < 0 for u in members):
        return None
    least = state.index(None)
    short = [u for u in members if deficit[u] > 0]
    if not short:
        return least, least
    member = min(short, key=lambda u: (slack[u], u))
    lent = min(w for w in adjacent[first[member]:first[member + 1]] if state[w] is None)
    return lent, least


_PATH = [v("x%d" % i) for i in range(3)]
_RING = [v("x%d" % i) for i in range(6)]


@settings(max_examples=300)
@given(constrained_searches())
# x1 goes in short of a majority, x0 joins it and x1 is compacted out of
# short, then undoing x0 leaves x1 short again
@example((AllianceInstance(Graph(_PATH, list(zip(_PATH, _PATH[1:]))), k=3), [([1], 1), ([0], 1), ([], 0)]))
# x4 and then x1 go in, both short with equal slack: the tie goes to the
# lesser id, which lends x0, not to the first appended
@example((AllianceInstance(Graph(_RING, list(zip(_RING, _RING[1:] + _RING[:1]))), k=6), [([1, 4], 1)]))
def test_branch_vertex_follows_every_assign_and_undo(case):
    # the steps of the test above, with branch_vertex asked at the root
    # and after each step, so that short is compacted between steps as
    # the search does
    instance, steps = case
    search = _Search(instance)

    def check():
        expected = branch_recounted(search)
        if expected is not None:
            assert search.branch_vertex(0) == expected
        assert_counts_recounted(search)

    check()
    marks = []
    for pending, undo in steps:
        if not undo and marks:
            search.undo(marks.pop())
        else:
            marks.append(len(search.trail))
            if not search.assign(pending):
                search.undo(marks.pop())
        check()


class TestDeepSearch:
    def test_search_deeper_than_the_recursion_limit(self):
        # exact mode with k = n leaves one candidate, the whole path, so
        # the search branches once per vertex on a single path
        depth = 2000
        assert depth > sys.getrecursionlimit()
        verts = [v("p%d" % i) for i in range(depth)]
        g = Graph(verts, list(zip(verts, verts[1:])))
        inst = AllianceInstance(g, k=depth, mode="exact")
        res = solve(SolveRequest(inst, "decide"))
        assert res.feasible
        assert res.witness == frozenset(verts)
        assert res.nodes > depth


def per_vertex_root(instance):
    """(state, slack, deficit, open, free_count, consistent) of the
    root as _Search made it when it set the forbidden vertices out one
    vertex at a time: state, the vertex's own slack and each
    neighbour's slack, per forbidden vertex. Propagation from there is
    _Search.assign itself."""
    graph = instance.graph
    first, adjacent = graph.first, graph.adjacent
    n = len(graph.order)
    search = _Search.__new__(_Search)
    search.table, search.first, search.adjacent = graph.order, first, adjacent
    search.partners = {}
    for x, y in instance.pairs:
        i, j = graph.order.find(x), graph.order.find(y)
        search.partners.setdefault(i, []).append(j)
        search.partners.setdefault(j, []).append(i)
    degrees = [first[i + 1] - first[i] for i in range(n)]
    search.slack = [(d + 1) // 2 for d in degrees]
    search.deficit = [d // 2 + 1 for d in degrees]
    search.state = [None] * n
    search.short, search.trail = array("i"), array("i")
    search.size, search.k = 0, instance.k
    for i in instance.forbidden.ids:
        search.state[i] = False
        search.slack[i] -= 1
        for u in adjacent[first[i]:first[i + 1]]:
            search.slack[u] -= 1
    forbidden = len(instance.forbidden)
    search.open = n - forbidden
    search.cap, search.exact = n, False
    consistent = search.assign(list(instance.necessary.ids))
    free_count = search.open if consistent else n - forbidden
    exact = instance.mode == "exact"
    consistent = consistent and search.size <= instance.k and (
        not exact or search.size + search.open >= instance.k
    )
    return search.state, search.slack, search.deficit, search.open, free_count, consistent


def root_fields(search):
    return (
        search.state, search.slack, search.deficit, search.open, search.free_count,
        search.consistent,
    )


# the first stage each kind of source goes through
_FIRST_TAG = {"FNC": "fnc-to-fn", "FN": "fn-to-f", "F": "f-to-plain", "plain": None}


def generator_corpora():
    """Instances of every generator, seeds 0-29, and every stage output
    of at most 4,000 vertices reached from them and from the one-edge
    targets of the chain family."""
    sources = []
    for seed in range(30):
        for draw in (random_pair_toy, random_necessary_toy, random_forbidden_toy):
            sources.append(draw(random.Random(seed)))
        sources.append(random_plain_instance(random.Random(seed)))
        sources.append(mmo_to_alliance(random_mmo(random.Random(seed))).result)
    for weight, r in ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2)):
        sources.append(mmo_to_alliance(one_edge_target(weight, r)).result)
    instances = []
    for source in sources:
        instances.append(source)
        tag = _FIRST_TAG[source.variant]
        # the size formulas tell a stage past 4,000 vertices unbuilt
        while tag is not None and STAGE_KINDS[tag].counts(_instance_stats(source))["vertices"] <= 4000:
            source = build_stage(tag, source)[0].result
            instances.append(source)
            tag = _FIRST_TAG[source.variant]
    return instances


def test_root_agrees_with_the_per_vertex_loop():
    # the root sets the forbidden vertices out one run of ids at a time
    instances = generator_corpora()
    assert len(instances) > 300
    assert max(len(i.graph.vertices) for i in instances) > 3000
    for instance in instances:
        assert root_fields(_Search(instance)) == per_vertex_root(instance)


def test_stage_three_root_agrees_with_the_per_vertex_loop(stage_three):
    instance = stage_three.third.result
    assert root_fields(_Search(instance)) == per_vertex_root(instance)


# tracemalloc peak of _Search(instance) on the w=1 r=1 stage 3 while it
# set the forbidden vertices out one at a time, on Python 3.11: the
# state, slack, deficit and degree lists of 368,711 ints each
PER_VERTEX_ROOT_PEAK = 9_913_692


def test_stage_three_root_makes_no_list_over_the_forbidden_ids(stage_three):
    # the runs take one slice each; a list over the 184,246 forbidden
    # ids, or another list over every id, would pass the ceiling
    instance = stage_three.third.result
    tracemalloc.start()
    try:
        search = _Search(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search.consistent
    assert peak <= PER_VERTEX_ROOT_PEAK * 1.05
