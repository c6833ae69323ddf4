import json
import random

import pytest

from alliancelib.gen import random_mmo
from alliancelib.graph import Graph
from alliancelib.mmo import (
    MmoInstance,
    Orientation,
    _orientations_within,
    max_weighted_outdegree,
    mmo_from_json,
    mmo_to_json,
    orientations,
    solve_mmo,
)

from helpers import two_vertex_mmo, v


def triangle_instance(r=3):
    a, b, c = v("a"), v("b"), v("c")
    g = Graph([a, b, c], [(a, b), (b, c), (c, a)])
    return MmoInstance(g, {(a, b): 1, (b, c): 2, (a, c): 3}, r=r)


def star_instance():
    c = v("c")
    leaves = [v("x"), v("y"), v("z")]
    g = Graph([c] + leaves, [(c, u) for u in leaves])
    return MmoInstance(g, {e: 1 for e in g.edges}, r=1)


class TestModel:
    def test_weights_must_cover_all_edges(self):
        a, b, c = v("a"), v("b"), v("c")
        g = Graph([a, b, c], [(a, b), (b, c)])
        with pytest.raises(ValueError, match="weight"):
            MmoInstance(g, {(a, b): 1}, r=1)

    def test_weights_must_be_positive_integers(self):
        a, b = v("a"), v("b")
        g = Graph([a, b], [(a, b)])
        with pytest.raises(ValueError):
            MmoInstance(g, {(a, b): 0}, r=1)
        with pytest.raises(ValueError):
            MmoInstance(g, {(a, b): 1.5}, r=1)

    def test_weight_keys_normalized(self):
        a, b = v("a"), v("b")
        g = Graph([a, b], [(a, b)])
        inst = MmoInstance(g, {(b, a): 2}, r=2)
        assert inst.weight(a, b) == 2

    @pytest.mark.parametrize("first, second", [(1, 5), (5, 1)])
    def test_a_repeated_edge_keeps_one_weight(self, first, second):
        a, b = v("a"), v("b")
        g = Graph([a, b], [(a, b)])
        message = "edge a--b is given weights %d and %d" % (first, second)
        with pytest.raises(ValueError, match="^%s$" % (message,)):
            MmoInstance(g, {(a, b): first, (b, a): second}, r=1)
        for u, w in ((a, b), (b, a)):
            text = json.dumps(
                {"vertices": ["a", "b"], "edges": [["a", "b", first], [str(u), str(w), second]],
                 "r": 1}
            )
            with pytest.raises(ValueError, match="^%s$" % (message,)):
                mmo_from_json(text)
        same = MmoInstance(g, {(a, b): first, (b, a): first}, r=1)
        assert same.weights == {(a, b): first}

    def test_total_weight_cap(self):
        a, b = v("a"), v("b")
        g = Graph([a, b], [(a, b)])
        with pytest.raises(ValueError, match="total"):
            MmoInstance(g, {(a, b): 1_000_001}, r=1)

    def test_target_must_be_positive(self):
        a, b = v("a"), v("b")
        g = Graph([a, b], [(a, b)])
        with pytest.raises(ValueError, match="r"):
            MmoInstance(g, {(a, b): 1}, r=0)


class TestOutdegree:
    def test_cyclic_triangle(self):
        inst = triangle_instance()
        a, b, c = v("a"), v("b"), v("c")
        o = Orientation({(a, b): (a, b), (b, c): (b, c), (a, c): (c, a)})
        assert max_weighted_outdegree(inst, o) == 3

    def test_orientation_must_cover_all_edges(self):
        inst = triangle_instance()
        a, b = v("a"), v("b")
        with pytest.raises(ValueError, match="orient"):
            max_weighted_outdegree(inst, Orientation({(a, b): (a, b)}))

    def test_orientation_endpoints_must_match(self):
        a, b, c = v("a"), v("b"), v("c")
        with pytest.raises(ValueError):
            Orientation({(a, b): (a, c)})

    def test_sink_source(self):
        inst = two_vertex_mmo()
        a, b = v("a"), v("b")
        o = Orientation({(a, b): (a, b)})
        assert max_weighted_outdegree(inst, o) == 3


class TestSolve:
    def test_star_toward_center_is_feasible(self):
        o = solve_mmo(star_instance())
        assert o is not None
        assert max_weighted_outdegree(star_instance(), o) <= 1

    def test_triangle_needs_three(self):
        assert solve_mmo(triangle_instance(r=3)) is not None
        assert solve_mmo(triangle_instance(r=2)) is None

    def test_single_heavy_edge(self):
        assert solve_mmo(two_vertex_mmo()) is not None
        a, b = v("a"), v("b")
        g = Graph([a, b], [(a, b)])
        assert solve_mmo(MmoInstance(g, {(a, b): 3}, r=2)) is None

    def test_edgeless_graph_is_trivially_feasible(self):
        g = Graph([v("a"), v("b")])
        o = solve_mmo(MmoInstance(g, {}, r=1))
        assert o is not None
        assert max_weighted_outdegree(MmoInstance(g, {}, r=1), o) == 0

    def test_deterministic_witness(self):
        first = solve_mmo(triangle_instance())
        second = solve_mmo(triangle_instance())
        assert first.direction == second.direction

    def test_edge_count_guard(self):
        verts = [v("n%d" % i) for i in range(27)]
        edges = [(verts[0], u) for u in verts[1:]]
        g = Graph(verts, edges)
        inst = MmoInstance(g, {e: 1 for e in g.edges}, r=26)
        with pytest.raises(ValueError, match="25"):
            solve_mmo(inst)

    def test_random_instances_verified(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(2, 4)
            verts = [v(chr(ord("a") + i)) for i in range(n)]
            pool = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pool, rng.randint(1, len(pool)))
            g = Graph(verts, edges)
            inst = MmoInstance(
                g, {e: rng.randint(1, 3) for e in g.edges}, r=rng.randint(1, 4)
            )
            o = solve_mmo(inst)
            if o is not None:
                assert max_weighted_outdegree(inst, o) <= inst.r
            else:
                # exhaust every orientation to confirm infeasibility
                m = len(g.sorted_edges())
                for mask in range(2**m):
                    cand = Orientation(
                        {
                            e: (e[0], e[1]) if mask >> i & 1 == 0 else (e[1], e[0])
                            for i, e in enumerate(g.sorted_edges())
                        }
                    )
                    assert max_weighted_outdegree(inst, cand) > inst.r

    def test_orientations_in_mask_order(self):
        inst = triangle_instance()
        edges = inst.graph.sorted_edges()
        listed = list(orientations(inst))
        assert len(listed) == 8
        assert len({tuple(sorted(o.direction.items())) for o in listed}) == 8
        # bit i of the position reverses edge i
        for mask, o in enumerate(listed):
            for i, (x, y) in enumerate(edges):
                assert o.tail(x, y) == (y if mask >> i & 1 else x)
        for r in range(1, 7):
            inst = triangle_instance(r=r)
            feasible = [o for o in listed if max_weighted_outdegree(inst, o) <= r]
            assert solve_mmo(inst) == (feasible[0] if feasible else None)

    def test_feasible_walk_is_the_filtered_mask_order(self):
        rng = random.Random(11)
        for inst in [triangle_instance(r) for r in range(1, 7)] + [
            random_mmo(rng) for _ in range(30)
        ]:
            listed = list(orientations(inst))
            feasible = [o for o in listed if max_weighted_outdegree(inst, o) <= inst.r]
            assert list(_orientations_within(inst, inst.r)) == feasible


class TestJson:
    def test_round_trip(self):
        inst = triangle_instance()
        text = mmo_to_json(inst)
        back = mmo_from_json(text)
        assert back == inst
        assert mmo_to_json(back) == text

    def test_missing_r_reported(self):
        with pytest.raises(ValueError, match="r"):
            mmo_from_json('{"vertices": ["a"], "edges": []}')

    def test_bad_weight_reported(self):
        with pytest.raises(ValueError, match="edge"):
            mmo_from_json('{"vertices": ["a", "b"], "edges": [["a", "b"]], "r": 1}')
