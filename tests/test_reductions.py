"""Oracles for the four reduction stages and their decomposition
transformations. Counts and memberships below were derived by hand from
the gadget definitions before the implementation existed."""

import itertools
import pickle
import random

import pytest

from alliancelib import replace
from alliancelib.alliance import STAGE_TAGS, AllianceInstance, is_solution, primal_graph
from alliancelib.gen import random_forbidden_toy, random_mmo, random_necessary_toy, random_pair_toy
from alliancelib.graph import Graph, VertexId, parse_vertex
from alliancelib.mmo import MmoInstance, Orientation, max_weighted_outdegree
from alliancelib.pipeline import audit_stage
from alliancelib.reductions import (
    STAGE_KINDS,
    Affine,
    ReductionStage,
    _carry,
    build_stage,
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
from alliancelib.treewidth import (
    _joint_top,
    heuristic_td,
    make_nice,
    postorder_ordering,
    td_from_lines,
    td_to_lines,
    transform_td,
    validate_td,
)

from helpers import one_edge_target, two_vertex_mmo, v, vs


def names(vertices):
    return {str(x) for x in vertices}


def pair_toy(k=1, mode="at-most"):
    """Two isolated vertices bound by one complementary pair."""
    a, b = vs("a b")
    return AllianceInstance(
        graph=Graph([a, b], []), k=k, pairs=[(a, b)], mode=mode
    )


def fn_toy(k=2, mode="at-most"):
    """Edge a--b with b necessary, the smallest worthwhile FN input."""
    a, b = vs("a b")
    return AllianceInstance(
        graph=Graph([a, b], [(a, b)]), k=k, necessary=[b], mode=mode
    )


def f_toy():
    """Path a-b-c-d with d forbidden."""
    a, b, c, d = vs("a b c d")
    return AllianceInstance(
        graph=Graph([a, b, c, d], [(a, b), (b, c), (c, d)]), k=2, forbidden=[d]
    )


def enumerate_solutions(instance):
    """Brute force over all vertex subsets; only for tiny instances."""
    verts = instance.graph.sorted_vertices()
    found = []
    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if is_solution(instance, frozenset(combo)):
                found.append(frozenset(combo))
    return found


class TestMmoStage:
    def test_two_vertex_instance_counts(self):
        stage = mmo_to_alliance(two_vertex_mmo())
        out = stage.result
        assert stage.tag == "mmo-to-fnc"
        assert len(out.graph.vertices) == 24
        assert len(out.pairs) == 5
        assert out.k == 15
        assert out.variant == "FNC"
        assert out.mode == "at-most"

    def test_two_vertex_instance_groups(self):
        stage = mmo_to_alliance(two_vertex_mmo())
        out = stage.result
        a, b = vs("a b")
        assert names(stage.gadgets.helper[a]) == {
            "a/h1", "a/h2", "a/h3", "a/h4", "a/h5"
        }
        assert names(stage.gadgets.edge_copy[(a, b)]) == {
            "a.b/ec1", "a.b/ec2", "a.b/ec3"
        }
        assert names(stage.gadgets.edge_copy_forbidden[(b, a)]) == {
            "b.a/ecf1", "b.a/ecf2", "b.a/ecf3"
        }
        assert names(out.forbidden) == {
            "a.b/ecf1", "a.b/ecf2", "a.b/ecf3",
            "b.a/ecf1", "b.a/ecf2", "b.a/ecf3",
        }
        assert len(out.necessary) == 12

    def test_two_vertex_instance_pairs_chain(self):
        out = mmo_to_alliance(two_vertex_mmo()).result
        rendered = {tuple(sorted([str(x), str(y)])) for x, y in out.pairs}
        assert rendered == {
            ("a.b/ec1", "b.a/ec1"),
            ("a.b/ec2", "b.a/ec2"),
            ("a.b/ec3", "b.a/ec3"),
            ("a.b/ec2", "b.a/ec1"),
            ("a.b/ec3", "b.a/ec2"),
        }

    def test_adjacency_shape(self):
        out = mmo_to_alliance(two_vertex_mmo()).result
        a = v("a")
        # a sees its helpers plus both copy groups pointing at b, but not b
        assert names(out.graph.neighbors(a)) == {
            "a/h1", "a/h2", "a/h3", "a/h4", "a/h5",
            "a.b/ec1", "a.b/ec2", "a.b/ec3",
            "a.b/ecf1", "a.b/ecf2", "a.b/ecf3",
        }
        assert names(out.graph.neighbors(parse_vertex("a.b/ec2"))) == {"a"}
        assert names(out.graph.neighbors(parse_vertex("a/h3"))) == {"a"}

    def test_weight_one_edge_single_pair(self):
        a, b = vs("a b")
        m = MmoInstance(Graph([a, b], [(a, b)]), {(a, b): 1}, r=1)
        stage = mmo_to_alliance(m)
        assert len(stage.result.pairs) == 1
        assert len(stage.gadgets.helper[a]) == 1
        assert stage.result.k == 4 + 1

    def test_orientation_to_solution_both_directions(self):
        m = two_vertex_mmo()
        stage = mmo_to_alliance(m)
        a, b = vs("a b")
        toward_b = Orientation({(a, b): (a, b)})
        s = orientation_to_solution(m, toward_b)
        assert len(s) == 15
        assert set(stage.result.necessary) <= s
        # the head keeps its copies: orienting a->b puts b's copies in
        assert {"b.a/ec1", "b.a/ec2", "b.a/ec3"} <= names(s)
        assert not {"a.b/ec1", "a.b/ec2", "a.b/ec3"} & names(s)
        assert is_solution(stage.result, s)
        assert len(s) == stage.result.k
        toward_a = Orientation({(a, b): (b, a)})
        s2 = orientation_to_solution(m, toward_a)
        assert {"a.b/ec1", "a.b/ec2", "a.b/ec3"} <= names(s2)
        assert is_solution(stage.result, s2)

    def test_orientation_roundtrip(self):
        m = two_vertex_mmo()
        a, b = vs("a b")
        for direction in [(a, b), (b, a)]:
            o = Orientation({(a, b): direction})
            back = solution_to_orientation(m, orientation_to_solution(m, o))
            assert back.direction == o.direction

    def test_edgeless_source(self):
        a, b = vs("a b")
        m = MmoInstance(Graph([a, b], []), {}, r=2)
        stage = mmo_to_alliance(m)
        s = orientation_to_solution(m, Orientation({}))
        assert s == frozenset(stage.result.necessary)
        assert is_solution(stage.result, s)

    def test_solution_to_orientation_rejects_mixed_sides(self):
        m = two_vertex_mmo()
        stage = mmo_to_alliance(m)
        s = orientation_to_solution(m, Orientation({tuple(vs("a b")): tuple(vs("a b"))}))
        broken = (s - {parse_vertex("b.a/ec2")}) | {parse_vertex("a.b/ec2")}
        with pytest.raises(ValueError, match="orientation"):
            solution_to_orientation(m, broken)

    def test_enumerated_solutions_match_orientations(self):
        # triangle with weights 1,2,3: check the solution set of the
        # reduced instance against brute force over all 8 orientations
        a, b, c = vs("a b c")
        g = Graph([a, b, c], [(a, b), (b, c), (c, a)])
        weights = {(a, b): 1, (b, c): 2, (c, a): 3}
        m = MmoInstance(g, weights, r=3)
        stage = mmo_to_alliance(m)
        out = stage.result
        base = frozenset(out.necessary)
        edges = g.sorted_edges()
        solutions = []
        feasible = []
        for choice in itertools.product([0, 1], repeat=3):
            direction = {
                e: (e if bit == 0 else (e[1], e[0]))
                for e, bit in zip(edges, choice)
            }
            o = Orientation(direction)
            cand = base | {
                x
                for e, (tail, head) in o.direction.items()
                for x in stage.gadgets.edge_copy[(head, tail)]
            }
            if is_solution(out, cand):
                solutions.append(cand)
                assert len(cand) == out.k
                mapped = solution_to_orientation(m, cand)
                assert max_weighted_outdegree(m, mapped) <= m.r
            if max_weighted_outdegree(m, o) <= m.r:
                feasible.append(o)
        assert len(solutions) == len(feasible) > 0

    def test_lift_solution_redirects_orientation_stage(self):
        m = two_vertex_mmo()
        stage = mmo_to_alliance(m)
        with pytest.raises(ValueError, match="orientation"):
            lift_solution(stage, frozenset())
        with pytest.raises(ValueError, match="orientation"):
            project_solution(stage, frozenset())


class TestPairElimination:
    def test_rejects_instances_without_pairs(self):
        a, b = vs("a b")
        plain = AllianceInstance(graph=Graph([a, b], [(a, b)]), k=1)
        with pytest.raises(ValueError, match="pair"):
            eliminate_pairs(plain)
        with pytest.raises(ValueError, match="pair"):
            eliminate_pairs(replace(plain, forbidden=[a]))

    def test_pair_free_instances_keep_their_bijection(self):
        # FN is the zero-pair case, as a target without edges gives it
        rng = random.Random(21)
        for _ in range(20):
            stage = eliminate_pairs(random_necessary_toy(rng))
            assert stage.result.variant == "FN"
            audit = audit_stage(stage, budget=32)
            assert audit["verified"], audit

    def test_toy_budget(self):
        stage = eliminate_pairs(pair_toy(k=1))
        assert stage.result.k == 11
        assert stage.size_fn(1) == 11
        assert stage.tag == "fnc-to-fn"

    def test_budget_formula_larger_instance(self):
        from helpers import constrained_instance

        stage = eliminate_pairs(constrained_instance())
        # n=7 and one pair: x*8 + 58 evaluated at k=3
        assert stage.result.k == 82
        assert stage.size_fn(3) == 82

    def test_group_sizes(self):
        toy = pair_toy()
        stage = eliminate_pairs(toy)
        a, b = vs("a b")
        pair = next(iter(toy.pairs))
        assert names(stage.gadgets.y_chain[a]) == {"a/y1", "a/y2"}
        assert names(stage.gadgets.y_chain_forbidden[b]) == {"b/yf1", "b/yf2"}
        assert len(stage.gadgets.z_chain[(pair, a)]) == 6
        assert len(stage.gadgets.z_chain_forbidden[(pair, b)]) == 6
        assert str(stage.gadgets.z_hub[(pair, a)]) == "a.b/z"
        assert str(stage.gadgets.z_hub[(pair, b)]) == "b.a/z"
        assert str(stage.gadgets.triangle[pair]) == "a.b/tri"
        assert len(stage.result.graph.vertices) == 37

    def test_output_constraint_sets(self):
        stage = eliminate_pairs(pair_toy())
        out = stage.result
        assert out.variant == "FN"
        assert not out.pairs
        assert names(out.necessary) == {"a.b/tri"}
        assert "a/yf1" in names(out.forbidden)
        assert "a.b/zf6" in names(out.forbidden)
        assert len(out.forbidden) == 4 + 12

    def test_coupling_edges_frozen(self):
        out = eliminate_pairs(pair_toy()).result
        g = out.graph
        assert names(g.neighbors(parse_vertex("a/y1"))) == {
            "a", "a/y2", "a/yf1", "a/yf2"
        }
        assert names(g.neighbors(parse_vertex("a/y2"))) == {
            "a", "a/y1", "a/yf1", "a/yf2", "a.b/z1", "a.b/zf1"
        }
        assert names(g.neighbors(parse_vertex("a.b/z"))) == {
            "a.b/tri", "a.b/z1", "a.b/z2", "a.b/z3", "a.b/z4", "a.b/z5", "a.b/z6"
        }
        assert names(g.neighbors(parse_vertex("a.b/tri"))) == {"a.b/z", "b.a/z"}

    def test_lift_membership_frozen(self):
        toy = pair_toy()
        stage = eliminate_pairs(toy)
        lifted = lift_solution(stage, frozenset([v("a")]))
        assert names(lifted) == {
            "a", "a/y1", "a/y2", "a.b/tri", "a.b/z",
            "a.b/z1", "a.b/z2", "a.b/z3", "a.b/z4", "a.b/z5", "a.b/z6",
        }
        assert is_solution(stage.result, lifted)

    def test_lift_project_inverse_on_toy(self):
        toy = pair_toy()
        stage = eliminate_pairs(toy)
        solutions = enumerate_solutions(toy)
        assert sorted(sorted(names(s)) for s in solutions) == [["a"], ["b"]]
        lifted = [lift_solution(stage, s) for s in solutions]
        assert lifted[0] != lifted[1]
        for s, up in zip(solutions, lifted):
            assert len(up) == stage.size_fn(len(s))
            assert project_solution(stage, up) == s

    def test_lift_rejects_non_solution(self):
        stage = eliminate_pairs(pair_toy())
        with pytest.raises(ValueError, match="solution"):
            lift_solution(stage, frozenset(vs("a b")))

    def test_mode_carries_through(self):
        stage = eliminate_pairs(pair_toy(k=1, mode="exact"))
        assert stage.result.mode == "exact"

    def test_keeps_original_edges(self):
        a, b, c = vs("a b c")
        inst = AllianceInstance(
            graph=Graph([a, b, c], [(b, c)]), k=2, pairs=[(a, b)]
        )
        out = eliminate_pairs(inst).result
        assert out.graph.has_edge(b, c)


class TestNecessaryElimination:
    def test_rejects_wrong_variant(self):
        with pytest.raises(ValueError, match="necessary"):
            eliminate_necessary(f_toy(), tuple(vs("a b c")))
        with pytest.raises(ValueError, match="necessary"):
            eliminate_necessary(pair_toy(), tuple(vs("a b")))

    def test_rejects_bad_ordering(self):
        toy = fn_toy()
        with pytest.raises(ValueError, match="ordering"):
            eliminate_necessary(toy, (v("a"),))
        with pytest.raises(ValueError, match="ordering"):
            eliminate_necessary(toy, (v("a"), v("a")))
        with pytest.raises(ValueError, match="ordering"):
            eliminate_necessary(toy, (v("a"), v("zz")))

    def test_auto_ordering_refuses_nodes_off_the_root_tree(self):
        # c's topmost bag, node 1, and node 2 are each other's parent; b
        # is forbidden, so every eligible vertex has a top
        a, b, c = vs("a b c")
        toy = AllianceInstance(
            graph=Graph([a, b, c], [(b, c)]), k=2, forbidden=[b], necessary=[a]
        )
        td = td_from_lines("0 - a\n1 2 b c\n2 1 b\n")
        with pytest.raises(ValueError, match="^some nodes are not reachable from the root$"):
            eliminate_necessary_auto(toy, td)

    def test_size_function_frozen(self):
        stage = eliminate_necessary(fn_toy(k=2), tuple(vs("a b")))
        assert stage.size_fn(2) == 14
        assert stage.result.k == 14
        assert stage.tag == "fn-to-f"
        assert stage.ordering == tuple(vs("a b"))

    def test_vertex_count_frozen(self):
        stage = eliminate_necessary(fn_toy(), tuple(vs("a b")))
        # 2 originals + 5 club vertices for a + 3 chains of 6
        assert len(stage.result.graph.vertices) == 25

    def test_chain_groups(self):
        stage = eliminate_necessary(fn_toy(), tuple(vs("a b")))
        a, b = vs("a b")
        ap = parse_vertex("a/p")
        assert names(stage.gadgets.a_chain[a]) == {"a/a1", "a/a2", "a/a3"}
        assert names(stage.gadgets.a_chain_forbidden[b]) == {
            "b/af1", "b/af2", "b/af3"
        }
        assert names(stage.gadgets.a_chain[ap]) == {
            "{a/p}/a1", "{a/p}/a2", "{a/p}/a3"
        }
        assert stage.gadgets.primed[a] == ap
        assert str(stage.gadgets.g_vertex[a]) == "a/gv"
        assert str(stage.gadgets.h_forbidden[a]) == "a/hvf"

    def test_ordering_controls_link_edges(self):
        toy = fn_toy()
        g1 = eliminate_necessary(toy, tuple(vs("a b"))).result.graph
        # ordering a,b maps to images a',b so the chains join at a'_3+b_1
        assert g1.has_edge(parse_vertex("{a/p}/a3"), parse_vertex("b/a1"))
        assert g1.has_edge(parse_vertex("{a/p}/a3"), parse_vertex("b/af1"))
        assert not g1.has_edge(parse_vertex("b/a3"), parse_vertex("{a/p}/a1"))
        g2 = eliminate_necessary(toy, tuple(vs("b a"))).result.graph
        assert g2.has_edge(parse_vertex("b/a3"), parse_vertex("{a/p}/a1"))
        assert not g2.has_edge(parse_vertex("{a/p}/a3"), parse_vertex("b/a1"))

    def test_club_edges_frozen(self):
        out = eliminate_necessary(fn_toy(), tuple(vs("a b"))).result
        g = out.graph
        assert names(g.neighbors(parse_vertex("a/gv"))) == {
            "a/p", "a/hv", "a/hvf", "a/gvf", "a/a3", "a/af3"
        }
        assert names(g.neighbors(parse_vertex("a/hv"))) == {"a/p", "a/gv"}
        assert names(g.neighbors(parse_vertex("a/hvf"))) == {"a/gv"}

    def test_output_is_forbidden_only(self):
        out = eliminate_necessary(fn_toy(), tuple(vs("a b"))).result
        assert out.variant == "F"
        assert not out.necessary
        assert "a/gvf" in names(out.forbidden)
        assert "{a/p}/af2" in names(out.forbidden)
        # 3 chains of 6 squares... chains contribute 9, club 2
        assert len(out.forbidden) == 9 + 2

    def test_lift_membership_frozen(self):
        toy = fn_toy()
        stage = eliminate_necessary(toy, tuple(vs("a b")))
        lifted = lift_solution(stage, frozenset(vs("a b")))
        assert names(lifted) == {
            "a", "b",
            "a/a1", "a/a2", "a/a3",
            "b/a1", "b/a2", "b/a3",
            "a/p", "a/hv",
            "{a/p}/a1", "{a/p}/a2", "{a/p}/a3",
            "a/gv",
        }
        assert len(lifted) == 14
        assert is_solution(stage.result, lifted)

    def test_lift_without_open_member(self):
        toy = fn_toy()
        stage = eliminate_necessary(toy, tuple(vs("a b")))
        lifted = lift_solution(stage, frozenset([v("b")]))
        assert len(lifted) == stage.size_fn(1) == 9
        assert "a/gv" not in names(lifted)
        assert is_solution(stage.result, lifted)

    def test_bijection_for_every_ordering(self):
        toy = fn_toy()
        for ordering in itertools.permutations(vs("a b")):
            stage = eliminate_necessary(toy, ordering)
            for s in enumerate_solutions(toy):
                up = lift_solution(stage, s)
                assert len(up) == stage.size_fn(len(s))
                assert project_solution(stage, up) == s

    def test_auto_falls_back_to_sorted(self):
        stage = eliminate_necessary_auto(fn_toy())
        assert stage.ordering == tuple(vs("a b"))

    def test_auto_uses_postorder_of_decomposition(self):
        from helpers import square_with_chord, square_with_chord_nice_td

        g = square_with_chord()
        inst = AllianceInstance(graph=g, k=3, necessary=[v("a")])
        td = square_with_chord_nice_td()
        stage = eliminate_necessary_auto(inst, td)
        assert stage.ordering == postorder_ordering(td, g.vertices)
        assert stage.ordering == tuple(vs("b d c a"))


class TestForbiddenElimination:
    def test_fan_counts(self):
        stage = eliminate_forbidden(f_toy())
        out = stage.result
        assert stage.tag == "f-to-plain"
        assert len(out.graph.vertices) == 4 + 5
        assert len(out.graph.edges) == 3 + 8
        assert out.variant == "plain"
        assert out.k == 2
        assert stage.size_fn(2) == 2

    def test_fan_adjacency(self):
        stage = eliminate_forbidden(f_toy())
        g = stage.result.graph
        d = v("d")
        assert names(g.neighbors(parse_vertex("d/fl1"))) == {"d", "d/fh"}
        assert names(g.neighbors(parse_vertex("d/fh"))) == {
            "d/fl1", "d/fl2", "d/fl3", "d/fl4"
        }
        assert names(g.neighbors(d)) == {"c", "d/fl1", "d/fl2", "d/fl3", "d/fl4"}

    def test_plain_input_is_identity(self):
        a, b = vs("a b")
        plain = AllianceInstance(graph=Graph([a, b], [(a, b)]), k=1)
        stage = eliminate_forbidden(plain)
        assert stage.result.graph == plain.graph
        assert stage.result.k == plain.k

    def test_rejects_necessary_or_pairs(self):
        with pytest.raises(ValueError, match="forbidden"):
            eliminate_forbidden(fn_toy())
        with pytest.raises(ValueError, match="forbidden"):
            eliminate_forbidden(pair_toy())

    def test_solutions_coincide(self):
        toy = f_toy()
        stage = eliminate_forbidden(toy)
        inside = enumerate_solutions(toy)
        outside = enumerate_solutions(stage.result)
        assert sorted(sorted(names(s)) for s in inside) == [
            ["a"], ["a", "b"], ["b", "c"]
        ]
        assert sorted(inside) == sorted(outside)

    def test_lift_project_are_identity_on_solutions(self):
        toy = f_toy()
        stage = eliminate_forbidden(toy)
        for s in enumerate_solutions(toy):
            assert lift_solution(stage, s) == s
            assert project_solution(stage, s) == s

    def test_exact_zero_keeps_vacuous_gadget(self):
        a, b = vs("a b")
        inst = AllianceInstance(
            graph=Graph([a, b], [(a, b)]), k=0, forbidden=[b], mode="exact"
        )
        stage = eliminate_forbidden(inst)
        assert parse_vertex("b/fh") in stage.result.graph.vertices
        assert stage.gadgets.fan_leaves[b] == ()
        assert enumerate_solutions(stage.result) == []


class TestStageChaining:
    def test_pairs_then_necessary(self):
        first = eliminate_pairs(pair_toy(k=1))
        second = eliminate_necessary_auto(first.result)
        assert second.result.variant == "F"
        assert second.result.k == second.size_fn(first.size_fn(1))
        # n=37 for the middle instance, 20 open + 1 necessary vertices
        n = len(first.result.graph.vertices)
        assert second.size_fn(11) == (n + 3) * (11 + 20) - 1

    def test_stage_fields(self):
        stage = eliminate_pairs(pair_toy())
        assert isinstance(stage, ReductionStage)
        assert stage.source is not None
        assert stage.ordering is None


class TestDecompositionTransforms:
    def test_mmo_stage_transform(self):
        m = two_vertex_mmo()
        stage = mmo_to_alliance(m)
        td = heuristic_td(m.graph)
        assert td.width() == 1
        out = transform_td(stage, td)
        check = validate_td(primal_graph(stage.result), out)
        assert check.ok, check.problems
        assert out.width() <= td.width() + 4

    def test_mmo_stage_transform_weight_one(self):
        a, b, c = vs("a b c")
        m = MmoInstance(
            Graph([a, b, c], [(a, b), (b, c)]), {(a, b): 1, (b, c): 2}, r=1
        )
        stage = mmo_to_alliance(m)
        td = heuristic_td(m.graph)
        out = transform_td(stage, td)
        check = validate_td(primal_graph(stage.result), out)
        assert check.ok, check.problems
        assert out.width() <= td.width() + 4

    def test_pairs_stage_transform(self):
        toy = pair_toy()
        stage = eliminate_pairs(toy)
        td = heuristic_td(primal_graph(toy))
        assert td.width() == 1
        out = transform_td(stage, td)
        check = validate_td(stage.result.graph, out)
        assert check.ok, check.problems
        assert out.width() <= 3 * td.width() + 5

    def test_pairs_stage_transform_with_graph_edges(self):
        a, b, c = vs("a b c")
        inst = AllianceInstance(
            graph=Graph([a, b, c], [(b, c)]), k=2, pairs=[(a, b)]
        )
        stage = eliminate_pairs(inst)
        td = heuristic_td(primal_graph(inst))
        out = transform_td(stage, td)
        check = validate_td(stage.result.graph, out)
        assert check.ok, check.problems
        assert out.width() <= 3 * td.width() + 5

    def test_necessary_stage_transform(self):
        toy = fn_toy()
        ntd = make_nice(heuristic_td(toy.graph))
        ordering = postorder_ordering(ntd, toy.graph.vertices)
        stage = eliminate_necessary(toy, ordering)
        out = transform_td(stage, ntd)
        check = validate_td(stage.result.graph, out)
        assert check.ok, check.problems
        assert out.width() <= ntd.width() + 13

    def test_necessary_stage_transform_rejects_other_ordering(self):
        toy = fn_toy()
        ntd = make_nice(heuristic_td(toy.graph))
        ordering = postorder_ordering(ntd, toy.graph.vertices)
        stage = eliminate_necessary(toy, tuple(reversed(ordering)))
        with pytest.raises(ValueError, match="ordering"):
            transform_td(stage, ntd)

    def test_necessary_stage_transform_requires_nice(self):
        toy = fn_toy()
        td = heuristic_td(toy.graph)
        stage = eliminate_necessary_auto(toy)
        with pytest.raises(ValueError, match="nice"):
            transform_td(stage, td)

    def test_forbidden_stage_transform(self):
        toy = f_toy()
        stage = eliminate_forbidden(toy)
        td = heuristic_td(toy.graph)
        out = transform_td(stage, td)
        check = validate_td(stage.result.graph, out)
        assert check.ok, check.problems
        assert out.width() <= td.width() + 2

    def test_forbidden_stage_transform_zero_budget(self):
        a, b = vs("a b")
        inst = AllianceInstance(
            graph=Graph([a, b], [(a, b)]), k=0, forbidden=[b], mode="exact"
        )
        stage = eliminate_forbidden(inst)
        td = heuristic_td(inst.graph)
        out = transform_td(stage, td)
        check = validate_td(stage.result.graph, out)
        assert check.ok, check.problems
        assert out.width() <= td.width() + 2

    def test_unknown_tag_rejected(self):
        stage = eliminate_forbidden(f_toy())
        broken = replace(stage, tag="sideways")
        with pytest.raises(ValueError, match="sideways"):
            transform_td(broken, heuristic_td(f_toy().graph))


def _stage_two_size(n, m, total, r):
    stats = {"vertices": n, "edges": m, "weight": total, "r": r}
    return STAGE_KINDS["fnc-to-fn"].counts(STAGE_KINDS["mmo-to-fnc"].counts(stats))["vertices"]


def _composed_targets(cap=4000):
    """(id, target) of the one-edge, path and triangle targets whose
    stage 2 has at most cap vertices, weights up to the shape's
    symmetry. Stage 2 grows with r and with the total weight, so each
    loop stops at its first size past the cap; no triangle fits."""
    a, b, c = vs("a b c")
    for shape, edges in (
        ("edge", [(a, b)]),
        ("path", [(a, b), (b, c)]),
        ("triangle", [(a, b), (b, c), (a, c)]),
    ):
        graph = Graph(sorted({x for e in edges for x in e}), edges)
        n, m = len(graph.vertices), len(edges)
        for r in itertools.takewhile(
            lambda r: _stage_two_size(n, m, m, r) <= cap, itertools.count(1)
        ):
            for total in itertools.takewhile(
                lambda t: _stage_two_size(n, m, t, r) <= cap, itertools.count(m)
            ):
                for weights in itertools.combinations_with_replacement(range(1, total + 1), m):
                    if sum(weights) == total:
                        label = "%s-w%s-r%d" % (shape, "-".join(map(str, weights)), r)
                        yield label, MmoInstance(graph, dict(zip(edges, weights)), r)


COMPOSED_TARGETS = dict(_composed_targets())


def test_composed_targets_are_the_ones_under_the_cap():
    assert sorted(COMPOSED_TARGETS) == [
        "edge-w1-r1", "edge-w1-r2", "edge-w1-r3", "edge-w1-r4", "edge-w1-r5",
        "edge-w2-r1", "edge-w2-r2", "path-w1-1-r1",
    ]


@pytest.mark.parametrize("label", sorted(COMPOSED_TARGETS))
def test_widths_hold_along_the_composed_chain(label):
    # one decomposition carried through both stages, each bound taken
    # against the width it came in with
    target = COMPOSED_TARGETS[label]
    td = heuristic_td(target.graph)
    first = mmo_to_alliance(target)
    td1 = transform_td(first, td)
    assert validate_td(primal_graph(first.result), td1).ok
    assert td1.width() <= td.width() + 4
    second = eliminate_pairs(first.result)
    td2 = transform_td(second, td1)
    assert validate_td(second.result.graph, td2).ok
    assert td2.width() <= 3 * td1.width() + 5


def _carried_sources():
    """(stage, decomposition of its source) of mmo-to-fnc and fnc-to-fn,
    from generator seeds 0-29 and from the one-edge targets under the
    cap, whose stage 1 carries its decomposition into stage 2."""
    for seed in range(30):
        mmo = random_mmo(random.Random(seed))
        yield mmo_to_alliance(mmo), heuristic_td(mmo.graph)
        toy = random_pair_toy(random.Random(seed))
        yield eliminate_pairs(toy), heuristic_td(primal_graph(toy))
    for label, target in sorted(COMPOSED_TARGETS.items()):
        if label.startswith("edge-"):
            first, td = mmo_to_alliance(target), heuristic_td(target.graph)
            yield first, td
            yield eliminate_pairs(first.result), transform_td(first, td)


def _topmost_holding(td, u, w):
    """The one node nearest the root whose bag holds ids u and w, found
    by walking every node and each holder's path to the root."""
    depth = {}
    for n in td.nodes():
        if u in td._bag(n) and w in td._bag(n):
            depth[n] = len(td.path_between(n, td.root()))
    least = min(depth.values())
    holders = [n for n, d in depth.items() if d == least]
    assert len(holders) == 1
    return holders[0]


def test_joint_top_is_the_topmost_node_holding_both_ends():
    # the ends of every source edge (mmo-to-fnc) and every pair
    # (fnc-to-fn), the gadgets hung below the joint top; both orders,
    # so that the top of either end is the one asked first
    checked = 0
    for stage, td in _carried_sources():
        source = stage.source
        if stage.tag == "mmo-to-fnc":
            out, first = _carry(stage, td, td.validate(source.graph))
            ends = source.graph.sorted_edges()
        else:
            out, first = _carry(stage, td, td.validate(primal_graph(source)), "primal")
            ends = sorted(source.pairs)
        find = stage.result.graph.order.find
        for u, w in ends:
            a, b = find(u), find(w)
            top = _topmost_holding(out, a, b)
            assert _joint_top(out, first, a, b) == _joint_top(out, first, b, a) == top
            checked += 1
    assert checked > 0


def _transform_inputs(stage_three):
    """(stage, decomposition of its source) for 43 transforms: the
    one-edge w=1 r=1 chain, each stage from the decomposition the one
    before carried (nice at stage 3), and generator seeds 0-9 of the
    toys of each stage."""
    target = one_edge_target(1, 1)
    first, td = mmo_to_alliance(target), heuristic_td(target.graph)
    yield first, td
    yield eliminate_pairs(first.result), transform_td(first, td)
    yield stage_three.third, stage_three.nice
    for seed in range(10):
        mmo = random_mmo(random.Random(seed))
        yield mmo_to_alliance(mmo), heuristic_td(mmo.graph)
        toy = random_pair_toy(random.Random(seed))
        yield eliminate_pairs(toy), heuristic_td(primal_graph(toy))
        toy = random_necessary_toy(random.Random(seed))
        nice = make_nice(heuristic_td(toy.graph))
        yield eliminate_necessary_auto(toy, nice), nice
        toy = random_forbidden_toy(random.Random(seed))
        yield eliminate_forbidden(toy), heuristic_td(toy.graph)


ARRAYS = ("_ids", "_start", "_end", "_parent")


def test_transforms_leave_their_input_as_it_was(stage_three):
    # the transforms hang and splice on their output, which must own
    # every array it writes
    count = 0
    for stage, td in _transform_inputs(stage_three):
        before = td_to_lines(td), [getattr(td, a).tobytes() for a in ARRAYS]
        out = transform_td(stage, td)
        assert (td_to_lines(td), [getattr(td, a).tobytes() for a in ARRAYS]) == before
        assert all(getattr(out, a) is not getattr(td, b) for a in ARRAYS for b in ARRAYS)
        count += 1
    assert count == 43


def _refused(tag):
    """(stage, decomposition, message) whose decomposition misses an
    edge or a vertex of the graph the stage's transform checks it on."""
    a, b = vs("a b")
    two_bags = td_from_lines("0 - a\n1 0 b\n")
    if tag == "mmo-to-fnc":
        return (mmo_to_alliance(one_edge_target(1, 1)), two_bags,
                "decomposition does not fit the source graph: edge a--b is in no bag")
    if tag == "fnc-to-fn":
        # the pair is the primal graph's only edge
        toy = AllianceInstance(Graph([a, b], []), 1, pairs=[(a, b)])
        return (eliminate_pairs(toy), heuristic_td(toy.graph),
                "decomposition does not fit the primal graph: edge a--b is in no bag")
    if tag == "fn-to-f":
        fn = AllianceInstance(Graph([a, b], [(a, b)]), 1, necessary=[a])
        return (eliminate_necessary(fn, (a, b)), make_nice(two_bags),
                "decomposition does not fit the source graph: edge a--b is in no bag")
    f = AllianceInstance(Graph([a, b], [(a, b)]), 1, forbidden=[b])
    return (eliminate_forbidden(f), td_from_lines("0 - a\n"),
            "decomposition does not fit the source graph: vertex b is in no bag")


@pytest.mark.parametrize("tag", STAGE_TAGS)
def test_every_transform_refuses_a_decomposition_that_does_not_fit(tag):
    stage, td, message = _refused(tag)
    assert stage.tag == tag
    with pytest.raises(ValueError) as refused:
        transform_td(stage, td)
    assert str(refused.value) == message


class TestStageRecords:
    def test_records_follow_the_chain(self):
        assert tuple(STAGE_KINDS) == STAGE_TAGS
        for tag, kind in STAGE_KINDS.items():
            assert kind.tag == tag

    def test_built_stages_find_their_record(self):
        stage = eliminate_forbidden(f_toy())
        assert stage.kind is STAGE_KINDS["f-to-plain"]
        assert "kind" not in stage._fields

    @pytest.mark.parametrize("call", [
        lambda stage: lift_solution(stage, set(vs("a b"))),
        lambda stage: project_solution(stage, set(vs("a b"))),
        lambda stage: build_stage(stage.tag, f_toy()),
    ])
    def test_unknown_tag_is_named(self, call):
        broken = replace(eliminate_forbidden(f_toy()), tag="sideways")
        with pytest.raises(ValueError, match="^unknown reduction stage tag 'sideways'$"):
            call(broken)

    def test_build_carries_the_decomposition(self):
        toy = fn_toy()
        td = heuristic_td(toy.graph)
        stage, out = build_stage("fn-to-f", toy, td)
        nice = make_nice(td)
        assert stage.ordering == postorder_ordering(nice, vs("a b"))
        assert td_to_lines(out) == td_to_lines(transform_td(stage, nice))
        assert build_stage("fn-to-f", toy)[1] is None

    def test_audit_counts_both_sides(self):
        stage = eliminate_pairs(pair_toy())
        audit = audit_stage(stage)
        assert audit == {
            "input_solutions": 2, "output_solutions": 2, "checks": 6, "verified": True,
        }
        mmo = audit_stage(mmo_to_alliance(two_vertex_mmo()))
        assert mmo["verified"] and mmo["input_solutions"] == mmo["output_solutions"] == 2

    def test_audit_fails_on_a_broken_size_map(self):
        stage = eliminate_pairs(pair_toy())
        audit = audit_stage(replace(stage, size_fn=Affine(1, 1)))
        assert audit["verified"] is False
        assert audit["checks"] == 6


def test_every_chain_stage_pickles_with_its_size_map(stage_three):
    # the stages of the one-edge w=1 r=1 chain up to stage 3 and an
    # f-to-plain stage (stage 4 of that chain is too large to build)
    stages = [
        mmo_to_alliance(one_edge_target(1, 1)),
        stage_three.second,
        stage_three.third,
        eliminate_forbidden(f_toy()),
    ]
    for stage in stages:
        back = pickle.loads(pickle.dumps(stage))
        assert back.tag == stage.tag
        for k in (0, 1, stage.result.k):
            assert back.size_fn(k) == stage.size_fn(k)
        # the arrays, not the names, which stage 3 would make by the 100,000
        graph, copied = stage.result.graph, back.result.graph
        assert (copied.first, copied.adjacent) == (graph.first, graph.adjacent)
        assert back.result.k == stage.result.k
