import itertools
import os
import random
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import alliancelib
from alliancelib.alliance import (
    AllianceInstance,
    construct_defense,
    instance_from_json,
    instance_to_json,
    is_defensive_alliance,
    is_solution,
    primal_graph,
    solution_problems,
)
from alliancelib.gen import random_mmo, random_pair_toy
from alliancelib.graph import Graph, VertexId, VertexSet
from alliancelib.reductions import mmo_to_alliance
from alliancelib.solver import SolveRequest, solve

from helpers import constrained_instance, one_edge_target, v, vs, wheelish_graph


class TestPredicate:
    def test_pair_of_mutual_defenders(self):
        g = wheelish_graph()
        verdict = is_defensive_alliance(g, vs("a b"))
        assert verdict
        assert verdict.violators == frozenset()

    def test_outnumbered_vertex_is_reported(self):
        g = wheelish_graph()
        verdict = is_defensive_alliance(g, vs("a d"))
        assert not verdict
        assert verdict.violators == set(vs("d"))

    def test_all_violators_reported(self):
        g = wheelish_graph()
        # b and c each keep one defender (themselves) against three
        verdict = is_defensive_alliance(g, vs("b c"))
        assert verdict.violators == set(vs("b c"))

    def test_empty_set_is_an_alliance(self):
        assert is_defensive_alliance(wheelish_graph(), frozenset())

    def test_whole_vertex_set_is_an_alliance(self):
        g = wheelish_graph()
        assert is_defensive_alliance(g, g.vertices)

    def test_candidate_must_be_subset(self):
        with pytest.raises(ValueError, match="zz"):
            is_defensive_alliance(wheelish_graph(), {v("zz")})

    def test_isolated_vertex_defends_itself(self):
        g = Graph([v("a")])
        assert is_defensive_alliance(g, {v("a")})


class TestDefense:
    def test_defense_for_protected_vertex(self):
        g = wheelish_graph()
        d = construct_defense(g, vs("a b"), v("a"))
        assert d is not None
        assert set(d.assignment.keys()) == set(vs("c d"))
        assert set(d.assignment.values()) <= set(vs("a b"))
        assert len(set(d.assignment.values())) == len(d.assignment)

    def test_no_defense_when_outnumbered(self):
        g = wheelish_graph()
        assert construct_defense(g, vs("a d"), v("d")) is None

    def test_vertex_must_be_in_candidate(self):
        with pytest.raises(ValueError):
            construct_defense(wheelish_graph(), vs("a b"), v("c"))

    def test_defense_exists_iff_alliance_holds_everywhere(self):
        g = wheelish_graph()
        for size in range(1, 6):
            for comb in itertools.combinations(sorted(g.vertices), size):
                cand = frozenset(comb)
                ok = all(construct_defense(g, cand, u) is not None for u in cand)
                assert ok == bool(is_defensive_alliance(g, cand))


class TestInstanceValidation:
    def test_variant_derivation(self):
        g = wheelish_graph()
        plain = AllianceInstance(g, k=2)
        assert plain.variant == "plain"
        f = AllianceInstance(g, k=2, forbidden=vs("e"))
        assert f.variant == "F"
        fn = AllianceInstance(g, k=2, forbidden=vs("e"), necessary=vs("a"))
        assert fn.variant == "FN"
        fnc = AllianceInstance(g, k=2, necessary=vs("a"), pairs={(v("b"), v("c"))})
        assert fnc.variant == "FNC"
        # necessary alone still reads as FN: the forbidden set may be empty
        assert AllianceInstance(g, k=2, necessary=vs("a")).variant == "FN"

    def test_forbidden_and_necessary_must_be_disjoint(self):
        with pytest.raises(ValueError, match="both"):
            AllianceInstance(wheelish_graph(), k=2, forbidden=vs("a"), necessary=vs("a"))

    def test_constraint_vertices_must_exist(self):
        with pytest.raises(ValueError, match="zz"):
            AllianceInstance(wheelish_graph(), k=2, forbidden={v("zz")})

    def test_names_the_least_unknown_constraint_vertex_whatever_the_hash_seed(self):
        # a frozenset of names iterates in string-hash order, which under
        # this seed puts y first on Python 3.11; the seed is fixed when a
        # process starts
        script = (
            "from alliancelib.alliance import AllianceInstance\n"
            "from alliancelib.graph import Graph, VertexId\n"
            "names = frozenset(map(VertexId, 'xyz'))\n"
            "AllianceInstance(Graph([VertexId('a')], []), k=1, forbidden=names)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(alliancelib.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED="1"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.endswith("ValueError: forbidden vertex x is not in the graph\n")

    def test_names_the_least_unknown_pair_vertex_whatever_the_hash_seed(self):
        # under this seed the pairs' frozenset order puts (a, z) first on
        # Python 3.11, so a check pair by pair would name z
        script = (
            "from alliancelib.alliance import AllianceInstance\n"
            "from alliancelib.graph import Graph, VertexId as v\n"
            "pairs = [(v('a'), v('x')), (v('b'), v('y')), (v('a'), v('z'))]\n"
            "AllianceInstance(Graph([v('a'), v('b')], []), k=1, pairs=pairs)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(alliancelib.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED="3"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.endswith("ValueError: pair vertex x is not in the graph\n")

    def test_pair_endpoints_must_not_be_forbidden(self):
        with pytest.raises(ValueError, match="forbidden"):
            AllianceInstance(
                wheelish_graph(), k=2, forbidden=vs("b"), pairs={(v("b"), v("c"))}
            )
        # of several, the least forbidden pair vertex is named
        pairs = {(v("a"), v("d")), (v("b"), v("e")), (v("a"), v("c"))}
        with pytest.raises(ValueError, match=r"^pair vertex c is forbidden$"):
            AllianceInstance(wheelish_graph(), k=2, forbidden=vs("c d e"), pairs=pairs)

    def test_pair_with_itself_rejected(self):
        with pytest.raises(ValueError):
            AllianceInstance(wheelish_graph(), k=2, pairs={(v("b"), v("b"))})

    def test_constraint_views_are_checked_by_id_range(self):
        g = wheelish_graph()
        view = VertexSet(g.order, array("i", [1, 3]))
        inst = AllianceInstance(g, k=2, forbidden=view)
        assert inst.forbidden is view and inst.forbidden == {v("b"), v("d")}
        for ids in ([3, 5], [-1, 2]):
            with pytest.raises(ValueError, match=r"^necessary vertex ids fall outside the graph$"):
                AllianceInstance(g, k=2, necessary=VertexSet(g.order, array("i", ids)))
        # a view over another table is taken name by name
        other = AllianceInstance(wheelish_graph(), k=2, forbidden=view)
        assert other.forbidden == view and other.forbidden.table is not g.order

    def test_pair_with_equal_endpoints_is_named_as_a_pair(self):
        # not as the "self loop" of an edge
        with pytest.raises(ValueError, match=r"^pair b/b has equal endpoints$"):
            AllianceInstance(wheelish_graph(), k=2, pairs=[(v("a"), v("c")), (v("b"), v("b"))])

    def test_pairs_are_stored_unordered(self):
        g = wheelish_graph()
        i1 = AllianceInstance(g, k=2, pairs={(v("c"), v("b"))})
        i2 = AllianceInstance(g, k=2, pairs={(v("b"), v("c"))})
        assert i1.pairs == i2.pairs

    def test_k_zero_at_most_rejected(self):
        with pytest.raises(ValueError, match="k"):
            AllianceInstance(wheelish_graph(), k=0)

    def test_k_zero_exact_accepted_but_unsatisfiable(self):
        inst = AllianceInstance(wheelish_graph(), k=0, mode="exact")
        assert not is_solution(inst, frozenset())

    def test_pair_overlapping_edge_warns(self):
        g = wheelish_graph()
        with pytest.warns(UserWarning, match="pair") as caught:
            AllianceInstance(g, k=2, pairs={(v("a"), v("b"))})
        # the warning names the line that made the instance
        assert [w.filename for w in caught] == [__file__]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            AllianceInstance(wheelish_graph(), k=2, mode="at least")


class TestSolutionPredicate:
    def test_unique_solution_of_constrained_example(self):
        inst = constrained_instance()
        assert is_solution(inst, vs("a b g"))

    def test_pair_must_contribute_exactly_one(self):
        inst = constrained_instance()
        # both of b, c present violates the pair
        assert not is_solution(inst, vs("a b c g"))
        # neither present violates it too; a loses its majority anyway
        assert not is_solution(inst, vs("a g"))

    def test_alternative_pair_choice_fails_the_alliance_condition(self):
        # with c instead of b, vertex a keeps one defender against two
        inst = constrained_instance()
        assert not is_solution(inst, vs("a c g"))

    def test_forbidden_vertex_disqualifies(self):
        inst = constrained_instance()
        assert not is_solution(inst, vs("a b d g"))

    def test_missing_necessary_vertex_disqualifies(self):
        inst = constrained_instance()
        assert not is_solution(inst, vs("a b"))

    def test_size_budget(self):
        g = wheelish_graph()
        inst = AllianceInstance(g, k=2)
        assert is_solution(inst, vs("a b"))
        assert not is_solution(inst, vs("a b c"))  # too large
        assert not is_solution(inst, frozenset())  # nonempty required
        exact = AllianceInstance(g, k=3, mode="exact")
        assert not is_solution(exact, vs("a b"))
        assert is_solution(exact, vs("a b c"))

    def test_verdict_is_a_plain_bool_with_reasons_behind_it(self):
        inst = constrained_instance()
        assert is_solution(inst, vs("a b g")) is True
        assert solution_problems(inst, vs("a b g")) == []
        assert is_solution(inst, vs("a c g")) is False
        assert solution_problems(inst, vs("a c g")) == ["vertex a is outnumbered"]

    def test_unknown_candidate_vertex_is_rejected(self):
        with pytest.raises(ValueError, match="not in the graph"):
            solution_problems(constrained_instance(), vs("a z"))

    def test_candidate_views_are_checked_by_id_range(self):
        # refused as a constraint set is, not read past the graph's ids
        a, b = vs("a b")
        g = Graph([a, b], [(a, b)])
        inst = AllianceInstance(g, k=2)
        for ids in ([0, 5], [-1, 1]):
            view = VertexSet(g.order, array("i", ids))
            for check in (lambda: is_solution(inst, view), lambda: is_defensive_alliance(g, view)):
                with pytest.raises(ValueError, match=r"^candidate vertex ids fall outside the graph$"):
                    check()
        assert is_solution(inst, VertexSet(g.order, array("i", [0, 1])))

    def test_adding_a_vertex_can_break_an_alliance(self):
        # path w - x - y - z: {w} defends itself, {w, y} leaves y outnumbered
        w, x, y, z = (v(n) for n in "wxyz")
        path = Graph([w, x, y, z], [(w, x), (x, y), (y, z)])
        found = []
        verts = sorted(path.vertices)
        for size in range(1, 5):
            for comb in itertools.combinations(verts, size):
                small = frozenset(comb)
                if not is_defensive_alliance(path, small):
                    continue
                for extra in verts:
                    if extra in small:
                        continue
                    if not is_defensive_alliance(path, small | {extra}):
                        found.append((small, small | {extra}))
        assert (frozenset({w}), frozenset({w, y})) in found


class TestPrimalGraph:
    def test_pairs_become_edges(self):
        inst = constrained_instance()
        pg = primal_graph(inst)
        assert pg.has_edge(v("b"), v("c"))
        assert not inst.graph.has_edge(v("b"), v("c"))
        assert pg.vertices == inst.graph.vertices
        assert pg.edges == inst.graph.edges | {(v("b"), v("c"))}

    def test_overlap_collapses(self):
        g = wheelish_graph()
        with pytest.warns(UserWarning):
            inst = AllianceInstance(g, k=2, pairs={(v("a"), v("b"))})
        assert primal_graph(inst).edges == g.edges

    def test_without_pairs_it_is_the_graph_itself(self):
        inst = AllianceInstance(wheelish_graph(), k=2)
        assert primal_graph(inst) is inst.graph

    def test_agrees_with_the_graph_of_edges_and_pairs(self):
        rng = random.Random(3)
        instances = [constrained_instance()]
        instances += [random_pair_toy(rng) for _ in range(10)]
        instances += [mmo_to_alliance(random_mmo(rng)).result for _ in range(30)]
        instances += [mmo_to_alliance(one_edge_target(w, r)).result for w, r in ((1, 1), (2, 3))]
        assert sum(1 for inst in instances if inst.pairs) > 30
        for inst in instances:
            g = inst.graph
            want = Graph(g.vertices, list(g.edges) + list(inst.pairs))
            got = primal_graph(inst)
            assert got == want and got.order == want.order
            assert got.edges == want.edges and list(got.edges) == list(want.edges)


class TestJson:
    def test_round_trip(self):
        inst = constrained_instance()
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back == inst
        assert instance_to_json(back) == text

    def test_plain_round_trip(self):
        inst = AllianceInstance(wheelish_graph(), k=4, mode="exact")
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_missing_field_is_reported(self):
        with pytest.raises(ValueError, match="k"):
            instance_from_json('{"vertices": ["a"], "edges": []}')

    def test_bad_edge_shape_is_reported(self):
        with pytest.raises(ValueError, match="edge"):
            instance_from_json(
                '{"vertices": ["a", "b"], "edges": [["a", "b", "c"]], "k": 1}'
            )


names = st.sampled_from([chr(ord("a") + i) for i in range(6)])


@st.composite
def graph_and_subset(draw):
    raw = sorted(set(draw(st.lists(names, min_size=1, max_size=6))))
    verts = [VertexId(x) for x in raw]
    pool = list(itertools.combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    g = Graph(verts, [e for e, k in zip(pool, keep) if k])
    subset = {u for u in verts if draw(st.booleans())}
    return g, frozenset(subset)


@given(graph_and_subset())
def test_verdict_matches_counting_rule(gs):
    g, cand = gs
    verdict = is_defensive_alliance(g, cand)
    expected = {
        u
        for u in cand
        if 2 * len(g.closed_neighborhood(u) & cand) < len(g.closed_neighborhood(u))
    }
    assert verdict.violators == frozenset(expected)
    assert bool(verdict) == (not expected)


@given(graph_and_subset())
def test_components_of_an_alliance_are_alliances(gs):
    g, cand = gs
    if not is_defensive_alliance(g, cand):
        return
    for comp in g.induced(cand).connected_components():
        assert is_defensive_alliance(g, comp)


@given(graph_and_subset())
def test_defense_assignment_is_injective_into_defenders(gs):
    g, cand = gs
    for u in cand:
        d = construct_defense(g, cand, u)
        if d is None:
            assert not is_defensive_alliance(g, cand)
            continue
        attackers = g.closed_neighborhood(u) - cand
        defenders = g.closed_neighborhood(u) & cand
        assert set(d.assignment.keys()) == attackers
        assert set(d.assignment.values()) <= defenders
        assert len(set(d.assignment.values())) == len(d.assignment)


def per_member_problems(instance, ids):
    """solution_problems of the candidate with the given ids, by the
    per-member rule: each member's neighbours inside counted one member
    at a time, with the reasons in the same order and words."""
    graph = instance.graph
    order, first, adjacent = graph.order, graph.first, graph.adjacent
    inside = set(ids)
    problems = []
    size = len(inside)
    if instance.mode == "exact":
        if size != instance.k:
            problems.append("size %d is not exactly k=%d" % (size, instance.k))
        elif not size:
            problems.append("the empty set is not a solution")
    elif not 1 <= size <= instance.k:
        problems.append("size %d is outside 1..%d" % (size, instance.k))
    hit = [order[i] for i in instance.forbidden.ids if i in inside]
    if hit:
        problems.append("forbidden vertices selected: %s" % ", ".join(map(str, hit)))
    missing = [order[i] for i in instance.necessary.ids if i not in inside]
    if missing:
        problems.append("necessary vertices missing: %s" % ", ".join(map(str, missing)))
    for a, b in sorted(instance.pairs):
        if (order.find(a) in inside) == (order.find(b) in inside):
            problems.append("pair %s/%s is not split" % (a, b))
    problems += [
        "vertex %s is outnumbered" % (order[i],)
        for i in sorted(inside)
        if 2 * (1 + sum(j in inside for j in adjacent[first[i]:first[i + 1]]))
        < first[i + 1] - first[i] + 1
    ]
    return problems


def outnumbered(problems):
    return [p for p in problems if p.endswith(" is outnumbered")]


@st.composite
def run_sets(draw, n):
    """Ids below n drawn as a union of runs of consecutive ids and of
    single ids, the shape in which stage sets come."""
    ids = set()
    for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 15)), max_size=4)):
        ids.update(range(start, min(n, start + length)))
    ids.update(draw(st.lists(st.integers(0, n - 1), max_size=4)))
    return ids


@st.composite
def run_instances(draw):
    """An instance on up to 40 vertices whose forbidden and necessary
    sets, and a candidate, are run_sets, with pairs of non-adjacent
    vertices that are not forbidden, in either mode."""
    n = draw(st.integers(1, 40))
    # zero-padded names keep id order the order of the numbers
    names = [v("x%02d" % i) for i in range(n)]
    density = draw(st.sampled_from((0.05, 0.15, 0.4)))
    rng = draw(st.randoms(use_true_random=False))
    pool = list(itertools.combinations(range(n), 2))
    edges = {(i, j) for i, j in pool if rng.random() < density}
    forbidden = draw(run_sets(n))
    necessary = draw(run_sets(n)) - forbidden
    apart = [(i, j) for i, j in pool if (i, j) not in edges and not {i, j} & forbidden]
    pairs = draw(st.lists(st.sampled_from(apart), max_size=3)) if apart else []
    mode = draw(st.sampled_from(("at-most", "exact")))
    instance = AllianceInstance(
        Graph(names, [(names[i], names[j]) for i, j in edges]),
        k=draw(st.integers(1 if mode == "at-most" else 0, n)),
        forbidden=[names[i] for i in forbidden],
        necessary=[names[i] for i in necessary],
        pairs=[(names[i], names[j]) for i, j in pairs],
        mode=mode,
    )
    return instance, sorted(draw(run_sets(n)))


@settings(max_examples=200, deadline=None)
@given(run_instances())
def test_problems_agree_with_the_per_member_rule(case):
    # the checks walk runs of ids; the reference walks one member at a
    # time, and every reason and its place must agree, whether the
    # candidate comes as names or as a VertexSet over the table
    instance, ids = case
    graph = instance.graph
    expected = per_member_problems(instance, ids)
    as_names = frozenset(graph.order[i] for i in ids)
    as_set = VertexSet(graph.order, array("i", ids))
    for candidate in (as_names, as_set):
        assert solution_problems(instance, candidate) == expected
        assert is_solution(instance, candidate) == (not expected)
        verdict = is_defensive_alliance(graph, candidate)
        violators = {"vertex %s is outnumbered" % (u,) for u in verdict.violators}
        assert violators == set(outnumbered(expected))
        assert bool(verdict) == (not violators)


def test_stage_three_witness_against_the_per_member_rule(stage_three):
    # the witness passes; with one run of its ids taken out, the
    # members left outnumbered are the ones the reference names
    instance = stage_three.third.result
    witness = solve(SolveRequest(instance, "decide")).witness
    assert is_solution(instance, witness)
    assert per_member_problems(instance, witness.ids) == []
    ids = witness.ids.tolist()
    starts = [k for k in range(len(ids)) if not k or ids[k] != ids[k - 1] + 1]
    stops = starts[1:] + [len(ids)]
    assert len(starts) == 762
    # the longest run: its members' neighbours lose the most support
    start, stop = max(zip(starts, stops), key=lambda run: run[1] - run[0])
    rest = ids[:start] + ids[stop:]
    cut = VertexSet(instance.graph.order, array("i", rest))
    expected = per_member_problems(instance, rest)
    assert outnumbered(expected)
    assert solution_problems(instance, cut) == expected
    violators = {"vertex %s is outnumbered" % (u,) for u in is_defensive_alliance(instance.graph, cut).violators}
    assert violators == set(outnumbered(expected))
