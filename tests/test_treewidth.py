import hashlib
import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from alliancelib.alliance import primal_graph
from alliancelib.gen import random_forbidden_toy, random_mmo, random_necessary_toy, random_pair_toy
from alliancelib.graph import Graph, VertexId, VertexTable
from alliancelib.mmo import MmoInstance
from alliancelib.reductions import build_stage, eliminate_pairs, mmo_to_alliance
from alliancelib.treewidth import (
    NICE_KINDS,
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_td,
    make_nice,
    postorder_ordering,
    td_from_lines,
    td_to_dot,
    td_to_lines,
    transform_td,
    treewidth_exact_small,
    validate_td,
)

from helpers import (
    BAD_NODE_IDS,
    one_edge_target,
    square_with_chord,
    square_with_chord_nice_td,
    td_of,
    v,
    vs,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def path_graph(n):
    verts = [VertexId("p%d" % i) for i in range(n)]
    return Graph(verts, list(zip(verts, verts[1:])))


def complete_graph(n):
    verts = [VertexId("k%d" % i) for i in range(n)]
    return Graph(verts, itertools.combinations(verts, 2))


def random_graph(rng, max_n=8):
    n = rng.randint(1, max_n)
    verts = [VertexId(chr(ord("a") + i)) for i in range(n)]
    edges = [e for e in itertools.combinations(verts, 2) if rng.random() < 0.4]
    return Graph(verts, edges)


class TestValidation:
    def test_hand_built_decomposition_is_valid(self):
        td = square_with_chord_nice_td()
        assert validate_td(square_with_chord(), td)
        assert td.width() == 2

    def test_missing_vertex_detected(self):
        g = Graph([v("a"), v("b")], [(v("a"), v("b"))])
        td = td_of([(vs("a"), None)])
        verdict = validate_td(g, td)
        assert not verdict
        assert any("b" in p for p in verdict.problems)

    def test_missing_edge_detected(self):
        g = Graph([v("a"), v("b")], [(v("a"), v("b"))])
        td = td_of([(vs("a"), None), (vs("b"), 0)])
        verdict = validate_td(g, td)
        assert not verdict
        assert any("edge" in p for p in verdict.problems)

    def test_disconnected_occurrence_detected(self):
        g = Graph([v("a"), v("b"), v("c")], [(v("a"), v("b")), (v("b"), v("c"))])
        # a reappears below a bag without it
        td = td_of([(vs("a b"), None), (vs("b c"), 0), (vs("a"), 1)])
        verdict = validate_td(g, td)
        assert not verdict
        assert any("connected" in p for p in verdict.problems)

    def test_foreign_vertex_detected(self):
        g = Graph([v("a")])
        td = td_of([(vs("a zz"), None)])
        assert not validate_td(g, td)

    def test_width_of_empty_bag_tree(self):
        td = td_of([((), None)])
        assert td.width() == -1
        assert validate_td(Graph([]), td)


def _td(*rows):
    """Decomposition from (bag names, parent id) rows, node i the i-th;
    a parent may come later, so that the links can close a cycle."""
    return td_of([(vs(names), parent) for names, parent in rows])


def _unknown_parent():
    """td_from_lines refuses an unknown parent, so the link is written
    directly: validate still diagnoses a tree assembled another way."""
    td = _td(("a b", None), ("b c", 0))
    td._parent[1] = 7
    return td


def _path(names):
    verts = vs(names)
    return Graph(verts, list(zip(verts, verts[1:])))


# exact verdicts, messages and their order included
BROKEN = {
    "two roots": (
        _td(("a b", None), ("b c", None)),
        _path("a b c"),
        ("expected exactly one root, found 2",),
    ),
    "unknown parent": (
        _unknown_parent(),
        _path("a b c"),
        ("node 1 has unknown parent 7",),
    ),
    "cycle": (
        _td(("a b", 1), ("b c", 0)),
        _path("a b c"),
        ("expected exactly one root, found 0",),
    ),
    "unreachable": (
        # nodes 2 and 3 are each other's parent, off the root's tree
        _td(("a b", None), ("b c", 0), ("b", 3), ("b", 2)),
        _path("a b c"),
        ("some nodes are not reachable from the root",),
    ),
    "foreign vertex": (
        _td(("a b", None), ("b c zz", 0)),
        _path("a b c"),
        ("bag of node 1 contains foreign vertex zz",),
    ),
    "uncovered vertex": (
        _td(("a b", None), ("b c", 0)),
        Graph(vs("a b c d"), [(v("a"), v("b")), (v("b"), v("c"))]),
        ("vertex d is in no bag",),
    ),
    "uncovered edge": (
        _td(("a", None), ("b", 0), ("c", 1)),
        _path("a b c"),
        ("edge a--b is in no bag", "edge b--c is in no bag"),
    ),
    "disconnected": (
        _td(("a b", None), ("b c", 0), ("a", 1)),
        _path("a b c"),
        ("occurrences of a are not connected",),
    ),
    "covered at a second top": (
        # a's tops are nodes 1 and 2; only the second holds b
        _td(("b", None), ("a", 0), ("a b", 0)),
        _path("a b"),
        ("occurrences of a are not connected",),
    ),
    "mixed": (
        _td(("a zz", None), ("b c", 0), ("a", 1)),
        _path("a b c d"),
        (
            "bag of node 0 contains foreign vertex zz",
            "vertex d is in no bag",
            "edge a--b is in no bag",
            "edge c--d is in no bag",
            "occurrences of a are not connected",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_decomposition_verdict_is_pinned(case):
    td, graph, problems = BROKEN[case]
    verdict = validate_td(graph, td)
    assert not verdict
    assert verdict.problems == problems


class TestStructure:
    def test_children_follow_every_mutator(self):
        # the builders the stage transforms use, over one-id bags
        td = td_of([(vs("a"), None)])
        a = [td._order.find(v("a"))]
        root = 0
        x = td._hang(root, [a])
        y = td._hang(root, [a])
        assert td.children(root) == [x, y]
        below = td._hang(y, [a, a])
        assert td.children(y) == [below - 1]
        assert td.children(below - 1) == [below]
        ids = td._splice(y, [a, a])
        assert td.children(root) == [x, ids[-1]]
        assert td.children(ids[0]) == [y]
        assert td.children(ids[-1]) == [ids[0]]
        assert td.children(y) == [below - 1]
        back = td_from_lines(td_to_lines(td))
        copied = td.copy()
        for n in td.nodes():
            assert back.children(n) == copied.children(n) == td.children(n)

    @pytest.mark.parametrize("node", [-1, 2, 10**12])
    def test_ids_outside_the_tables_are_unknown_nodes(self, node):
        # -1 would otherwise read the last entry of a node table
        td = td_of([(vs("a"), None), (vs("b"), 0)])
        root = 0
        for call in (td.bag, td.parent, lambda n: td.path_between(n, root)):
            with pytest.raises(ValueError, match="unknown node"):
                call(node)
        assert td.children(node) == []
        assert td.nodes() == [0, 1]

    def test_bag_is_a_read_only_view_of_names(self):
        g = square_with_chord()
        td = heuristic_td(g)
        for n in td.nodes():
            bag = td.bag(n)
            assert isinstance(bag, frozenset)
            assert bag == {g.order[u] for u in td._bag(n)}
        # the graph's own table, shared and not copied
        assert td._order is g.order
        with pytest.raises(AttributeError):
            td.bag(0).add(v("zz"))

    def test_path_between(self):
        # two branches under root 0, and a second root, node 8
        td = td_of([((), p) for p in (None, 0, 0, 1, 3, 4, 5, 2, None)])
        root, left, right, other = 0, [1, 3, 4, 5, 6], [2, 7], 8
        assert td.path_between(left[3], right[1]) == (
            left[3::-1] + [root] + right[:2]
        )
        assert td.path_between(right[1], left[0]) == [right[1], right[0], root, left[0]]
        assert td.path_between(left[4], left[1]) == left[4:0:-1]
        assert td.path_between(root, left[2]) == [root] + left[:3]
        assert td.path_between(left[2], left[2]) == [left[2]]
        with pytest.raises(ValueError, match="not in one tree"):
            td.path_between(left[1], other)

    @pytest.mark.parametrize("cycle", ["1 1 a\n", "1 2 a\n2 1 a\n"])
    def test_path_between_stops_on_a_cycle_of_parent_links(self, cycle):
        td = td_from_lines("0 - a\n" + cycle)
        with pytest.raises(ValueError, match="not in one tree"):
            td.path_between(1, 0)


class TestExactTreewidth:
    def test_known_values(self):
        assert treewidth_exact_small(Graph([])) == -1
        assert treewidth_exact_small(Graph([v("a")])) == 0
        assert treewidth_exact_small(path_graph(4)) == 1
        assert treewidth_exact_small(complete_graph(4)) == 3
        assert treewidth_exact_small(square_with_chord()) == 2
        cyc = Graph(
            [v(x) for x in "abcd"],
            [(v("a"), v("b")), (v("b"), v("c")), (v("c"), v("d")), (v("d"), v("a"))],
        )
        assert treewidth_exact_small(cyc) == 2

    def test_size_guard(self):
        with pytest.raises(ValueError, match="12"):
            treewidth_exact_small(path_graph(13))

    def test_disconnected(self):
        g = Graph([v("a"), v("b"), v("c"), v("d")], [(v("a"), v("b"))])
        assert treewidth_exact_small(g) == 1


class TestHeuristic:
    def test_empty_graph(self):
        td = heuristic_td(Graph([]))
        assert validate_td(Graph([]), td)
        assert td.width() == -1

    def test_edgeless_graph(self):
        g = Graph([v("a"), v("b"), v("c")])
        td = heuristic_td(g)
        assert validate_td(g, td)
        assert td.width() == 0

    def test_tree_gets_width_one(self):
        g = Graph(
            [v(x) for x in "abcde"],
            [(v("a"), v("b")), (v("a"), v("c")), (v("c"), v("d")), (v("c"), v("e"))],
        )
        td = heuristic_td(g)
        assert validate_td(g, td)
        assert td.width() == 1

    def test_complete_graph(self):
        g = complete_graph(5)
        td = heuristic_td(g)
        assert validate_td(g, td)
        assert td.width() == 4

    def test_random_graphs_valid_and_at_least_exact(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng)
            td = heuristic_td(g)
            assert validate_td(g, td)
            assert td.width() >= treewidth_exact_small(g)

    def test_matches_exact_on_tiny_graphs(self):
        # on up to four vertices min-fill never misses
        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, max_n=4)
            assert heuristic_td(g).width() == treewidth_exact_small(g)


class TestMakeNice:
    def test_already_nice_is_kept(self):
        td = square_with_chord_nice_td()
        nice = make_nice(td)
        assert td_to_lines(nice) == td_to_lines(td)

    def test_rebuilds_to_nice_form(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng)
            td = heuristic_td(g)
            nice = make_nice(td)
            assert isinstance(nice, NiceTreeDecomposition)
            assert nice.validate_nice(g)
            assert nice.width() == td.width()

    def test_join_nodes_are_binary(self):
        g = Graph(
            [v(x) for x in "sabc"],
            [(v("s"), v("a")), (v("s"), v("b")), (v("s"), v("c"))],
        )
        td = td_of([(vs("s"), None), (vs("s a"), 0), (vs("s b"), 0), (vs("s c"), 0)])
        nice = make_nice(td)
        assert nice.validate_nice(g)
        for node in nice.nodes():
            assert len(nice.children(node)) <= 2

    def test_single_bag_input(self):
        g = complete_graph(3)
        td = td_of([(g.vertices, None)])
        nice = make_nice(td)
        assert nice.validate_nice(g)
        assert nice.width() == 2


def _star_graph():
    s = v("s")
    leaves = [v(x) for x in "abcde"]
    edges = [(s, x) for x in leaves] + [(leaves[0], leaves[1]), (leaves[2], leaves[3])]
    return Graph([s] + leaves, edges)


def _grid_graph():
    g = {(i, j): v("g%d%d" % (i, j)) for i in range(3) for j in range(3)}
    edges = [(g[i, j], g[i + 1, j]) for i in range(2) for j in range(3)]
    edges += [(g[i, j], g[i, j + 1]) for i in range(3) for j in range(2)]
    return Graph(list(g.values()), edges)


# make_nice output of the min-fill decompositions of the two graphs
# above, as the recursive construction numbered it
GOLDEN_NICE = {
    "star": (
        _star_graph,
        "0 1 leaf\n1 2 introduce a\n2 3 introduce a b\n3 4 introduce a b s\n"
        "4 5 forget b s\n5 16 forget s\n6 7 leaf\n7 8 introduce c\n"
        "8 9 introduce c d\n9 10 introduce c d s\n10 11 forget d s\n"
        "11 16 forget s\n12 13 leaf\n13 14 introduce e\n14 15 introduce e s\n"
        "15 17 forget s\n16 17 join s\n17 18 join s\n18 - forget\n",
    ),
    "grid": (
        _grid_graph,
        "0 1 leaf\n1 2 introduce g00\n2 3 introduce g00 g01\n"
        "3 4 introduce g00 g01 g10\n4 5 forget g01 g10\n"
        "5 6 introduce g01 g10 g11\n6 14 introduce g01 g10 g11 g12\n"
        "7 8 leaf\n8 9 introduce g01\n9 10 introduce g01 g02\n"
        "10 11 introduce g01 g02 g12\n11 12 forget g01 g12\n"
        "12 13 introduce g01 g10 g12\n13 14 introduce g01 g10 g11 g12\n"
        "14 15 join g01 g10 g11 g12\n15 16 forget g10 g11 g12\n"
        "16 24 introduce g10 g11 g12 g21\n17 18 leaf\n18 19 introduce g10\n"
        "19 20 introduce g10 g20\n20 21 introduce g10 g20 g21\n"
        "21 22 forget g10 g21\n22 23 introduce g10 g11 g21\n"
        "23 24 introduce g10 g11 g12 g21\n24 25 join g10 g11 g12 g21\n"
        "25 26 forget g11 g12 g21\n26 27 forget g12 g21\n"
        "27 28 introduce g12 g21 g22\n28 29 forget g21 g22\n29 30 forget g22\n"
        "30 - forget\n",
    ),
}


class TestDeepDecompositions:
    """make_nice at the interpreter's default recursion limit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_NICE))
    def test_node_numbering_is_pinned(self, name):
        build, expected = GOLDEN_NICE[name]
        assert td_to_lines(make_nice(heuristic_td(build()))) == expected

    def test_deep_path_decomposition(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        verts = [VertexId("p%d" % i) for i in range(depth + 1)]
        g = Graph(verts, list(zip(verts, verts[1:])))
        td = td_of([(verts[i:i + 2], i - 1 if i else None) for i in range(depth)])
        nice = make_nice(td)
        assert nice.validate_nice(g)
        assert nice.width() == 1

    def test_fnc_to_fn_decomposition_of_chain_target(self):
        a, b = v("a"), v("b")
        mmo = MmoInstance(Graph([a, b], [(a, b)]), {(a, b): 1}, r=5)
        stage1 = mmo_to_alliance(mmo)
        td1 = transform_td(stage1, heuristic_td(mmo.graph))
        stage2 = eliminate_pairs(stage1.result)
        td2 = transform_td(stage2, td1)
        assert len(td2.nodes()) == 1776
        nice = make_nice(td2)
        assert nice.validate_nice(primal_graph(stage2.result))
        assert nice.width() == td2.width()


def _random_tree(seed):
    """Up to 30 nodes with random bags of up to five of at most twelve
    names, hung under one another in shuffled node order; no
    decomposition conditions hold."""
    rng = random.Random(seed)
    names = [v("x%d" % i) for i in range(rng.randint(1, 12))]
    rng.shuffle(names)
    size = rng.randint(1, 30)
    bags = [rng.sample(names, rng.randint(0, min(5, len(names)))) for _ in range(size)]
    parent = [None] * size
    nodes = list(range(size))
    rng.shuffle(nodes)
    for i in range(1, size):
        parent[nodes[i]] = nodes[rng.randrange(i)]
    return td_of(zip(bags, parent))


def _three_way_join():
    """The root has three children, one with an empty bag and one
    repeating the root's bag."""
    a, b, c, d = vs("a b c d")
    return td_of([([c, a], None), ([b, c], 0), ([], 0), ([a, c], 0), ([d, a, b], 3), ([d], 1)])


# make_nice output of _three_way_join and the SHA-256 digests of its
# td_to_lines over _random_tree(0..39), as the explicit-stack walk made them
THREE_WAY_JOIN_NICE = (
    "0 1 leaf\n1 2 introduce d\n2 3 forget\n3 4 introduce b\n4 5 introduce b c\n"
    "5 6 forget c\n6 17 introduce a c\n7 8 leaf\n8 9 introduce a\n9 17 introduce a c\n"
    "10 11 leaf\n11 12 introduce a\n12 13 introduce a b\n13 14 introduce a b d\n"
    "14 15 forget a d\n15 16 forget a\n16 18 introduce a c\n17 18 join a c\n"
    "18 19 join a c\n19 20 forget c\n20 - forget\n"
)
RANDOM_TREE_NICE = [
    "768a2610c18051f6c7c775dfed1fb2d3d186af703d8c7639f504187609618b1c",
    "f69207921a9a2b108738fb7cf3e7a7538bded4f89f8a29e71cb0beba945b73bd",
    "956ce8fbede48d3889f38e3ac2aa75eea82238529ab39ade018701af0c7141e5",
    "d0873238db0549d07db496353fb797f1f347c3205b5f6e2a652167cdeef83ae4",
    "da309d6590207af786332d96df15055caf1658c6aff442b700463b91f59faf46",
    "a4916d6d0a5367eab4471231e6d452fedebe899545204ba9498ba85f5a67d5f9",
    "12bfd7c8b7efd1e1703e7a1e53f5ae49681f27816b5b34165f33a9a38b90de91",
    "3beef77afd579ee1e5c0b3b528362cda2490a12156102e6c4c8512d029eafb8d",
    "b87834da48a3b44528f74f2ad69304cb76157a22503dd8ea40b2ddd2a23289e1",
    "ff9e1eee83ee5ffe122ba0939a163c5cb7c5f7a52bce9984df9820035c0b8bac",
    "80c6259b1eb832ae66434591729616385f1ca58ac6e382dfb716ce71914a0e2a",
    "121e831112ddf0915788e24925673c903ec101b824d57952807a10121263af7e",
    "9aab7142987b778da16f8269d605986bf5ec2d916a3d8175ca5e9e0dcf93f9ff",
    "7ba22372675037f575926de2c0ff8118f3af75cb5686b4157bdd8c68814f99d6",
    "d657cc78a723a4509181eb84e409ff7d0d1df5728d4188efc3c753f9de1ad3e8",
    "e182852675f7e730b17f62b252102f09615f1ed98e6a47a661af04023d887345",
    "6bfdf91153aa9e4a1a7adad33120306a710971976c4e69296612943f5170328b",
    "b8f2da7c62bb0e9272667b4257e135f7c983276a785cf28d068cfc55b8465c4f",
    "80a9f7b54056ee19f4d163592b663b18c4f4e84bfc1b9f32c4e3d19676814f22",
    "b09263c4007c5bb915f575ccf9ba6b2660d1edbf71149aa7110b55babe1ae1da",
    "51a9ae55251dcfffa8e24e5305307da4953b0d9593972727da5920dec7e1677a",
    "1a67a15db9fc19a724b7d4df96cde4eb21888042f7ede0c49c2994ff93929b14",
    "62c7742648f63429e78a13c060470ca1161005171bb330a2bbcd681f52e93281",
    "bc33776de24cde65958f46962d704c81f510669aa6bb11d73ee7d683399977c1",
    "c9f6131b66ca7384a103e1ad78be94a04ba25319801281b90839f776017f6f68",
    "642ee63d0fc0283c65f3314946a6921f53069ea6db218fcb96ee20245f48fba0",
    "1fe9958cbc5821ec9b9f24b84374c143d11e7e53be61f0408172b65dc15c8f85",
    "ca47fc99301e40ab236f23b6f4d58efed6cabf8b63b6f4a9c0fda80bcef80cad",
    "00cf0e053bb223136daa94e8df75f45f4add3eb25f5cd33c9843d60406b6de62",
    "eff3053e395075a81e51ddb0473cc2c697824d0f3a4ab06cfef6cf9c42b122aa",
    "4c9de28dbd1eda6a08c5c3e1cae74c46915f1259fa0a0bb49f04846c463c8002",
    "d5384598382f2fa9965d3559456cbe7be497b5f299e8feddb5db164543dc9fdb",
    "aa131f918851a04f51fcbd9e1b3e58365f44be15f09d3bee9d0d41a7c1639dcc",
    "00a6d8ed45e4625d7985a80f494ab429d481d03928776c8e9bd41160396adea2",
    "341c1204ae0c27f19b22310888fbdc948085952697dae548c41881352b066617",
    "1bb11affed99a9833e8a867b27e394d4b80da260960e6e9bf45871073b2ea4d6",
    "e4625b8ef47a6890588ebf01e0191bde79f3956380e6eef4350ebf60e0fb37f5",
    "4e4bc5f05df5408f05d2c55cd94b4218942d191c532e7d9870bef99bda235ca5",
    "0866bfe491b68e112822e0fb3cc533bce6f8543714452b3816aa44f603ddf064",
    "072e0c51f1c60608012ef882f8e5cf68d6b83d6349a709faf6fdd7ebec4d6af5",
]


class TestNicePins:
    def test_three_way_join_is_pinned(self):
        assert td_to_lines(make_nice(_three_way_join())) == THREE_WAY_JOIN_NICE

    @pytest.mark.parametrize("seed", range(len(RANDOM_TREE_NICE)))
    def test_random_tree_is_pinned(self, seed):
        lines = td_to_lines(make_nice(_random_tree(seed)))
        assert hashlib.sha256(lines.encode()).hexdigest() == RANDOM_TREE_NICE[seed]

    @pytest.mark.parametrize("seed", range(len(RANDOM_TREE_NICE)))
    def test_child_links_match_the_parent_table(self, seed):
        # the child index is derived from the parent table on read
        nice = make_nice(_random_tree(seed))
        below = {n: [] for n in nice.nodes()}
        for n in nice.nodes():
            if nice.parent(n) is not None:
                below[nice.parent(n)].append(n)
        assert [nice.children(n) for n in nice.nodes()] == list(below.values())

    @pytest.mark.parametrize("text", [
        "0 - a b c\n1 2 b c\n2 1 b c\n",
        # nice in shape, so that no rebuild would meet the cycle
        "0 - leaf\n1 2 introduce b\n2 1 forget\n",
    ])
    def test_nodes_off_the_root_tree_are_refused(self, text):
        td = td_from_lines(text)
        with pytest.raises(ValueError, match="^some nodes are not reachable from the root$"):
            make_nice(td)


def _outcome(call, *args):
    """What call returns, or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def _on_graph(td, graph):
    """td's tree with its bags over the graph's own table."""
    bags = [sorted(map(graph.index.__getitem__, td.bag(n))) for n in td.nodes()]
    return TreeDecomposition(graph.order, bags, td._parent)


def _golden_pair():
    """The golden mmo-to-fnc decomposition as read from its file, and as
    carried from a heuristic one over the stage graph's table."""
    mmo = one_edge_target(1, 1)
    stage = mmo_to_alliance(mmo)
    own = td_from_lines((GOLDEN / "mmo-to-fnc.td").read_text())
    return own, transform_td(stage, heuristic_td(mmo.graph)), primal_graph(stage.result)


def _square_pair():
    g = square_with_chord()
    shared = heuristic_td(g)
    return td_from_lines(td_to_lines(shared)), shared, g


def _random_pair(seed):
    """_random_tree(seed), and the same tree over the table of a path
    through its names and one name no bag holds."""
    own = _random_tree(seed)
    names = list(own._order) + [v("y")]
    graph = Graph(names, list(zip(names, names[1:])))
    return own, _on_graph(own, graph), graph


TABLE_PAIRS = {"square": _square_pair, "golden mmo-to-fnc": _golden_pair}
TABLE_PAIRS.update(
    ("random tree %d" % seed, lambda seed=seed: _random_pair(seed))
    for seed in range(len(RANDOM_TREE_NICE))
)


@pytest.mark.parametrize("case", list(TABLE_PAIRS))
def test_a_table_of_its_own_and_the_graphs_give_the_same_output(case):
    own, shared, graph = TABLE_PAIRS[case]()
    assert own._order is not graph.order and shared._order is graph.order
    assert td_to_lines(own) == td_to_lines(shared)
    assert td_to_lines(make_nice(own)) == td_to_lines(make_nice(shared))
    eligible = set().union(*map(own.bag, own.nodes()))
    assert _outcome(postorder_ordering, own, eligible) == _outcome(
        postorder_ordering, shared, eligible
    )
    assert own.validate(graph).problems == shared.validate(graph).problems


@pytest.mark.parametrize("tag, draw", [
    ("mmo-to-fnc", random_mmo),
    ("fnc-to-fn", random_pair_toy),
    ("fn-to-f", random_necessary_toy),
    ("f-to-plain", random_forbidden_toy),
])
def test_every_decomposition_is_over_a_table_in_name_order(tag, draw):
    source = draw(random.Random(5))
    made = heuristic_td(source.graph if tag == "mmo-to-fnc" else primal_graph(source))
    read = td_from_lines(td_to_lines(made))
    carried = build_stage(tag, source, read)[1]
    for td in (
        TreeDecomposition(), made, read, make_nice(made), make_nice(read), carried,
        td_from_lines(td_to_lines(carried)),
    ):
        assert isinstance(td._order, VertexTable)
        assert list(td._order) == sorted(td._order)


class TestPostorder:
    def test_frozen_ordering_on_example(self):
        td = square_with_chord_nice_td()
        order = postorder_ordering(td, {v(x) for x in "abcd"})
        assert order == (v("b"), v("d"), v("c"), v("a"))

    def test_subset_of_eligible_vertices(self):
        td = square_with_chord_nice_td()
        assert postorder_ordering(td, {v("b"), v("a")}) == (v("b"), v("a"))

    def test_vertex_not_in_any_bag_rejected(self):
        td = square_with_chord_nice_td()
        with pytest.raises(ValueError, match="zz"):
            postorder_ordering(td, {v("zz")})

    def test_nodes_off_the_root_tree_are_refused(self):
        # c's topmost bag, node 1, and node 2 are each other's parent
        td = td_from_lines("0 - a\n1 2 b c\n2 1 b\n")
        with pytest.raises(ValueError, match="^some nodes are not reachable from the root$"):
            postorder_ordering(td, vs("a c"))

    def test_is_permutation_on_random_inputs(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng)
            nice = make_nice(heuristic_td(g))
            order = postorder_ordering(nice, g.vertices)
            assert sorted(order) == sorted(g.vertices)


class TestSerialization:
    def test_plain_round_trip(self):
        td = heuristic_td(square_with_chord())
        text = td_to_lines(td)
        back = td_from_lines(text)
        assert td_to_lines(back) == text
        assert not isinstance(back, NiceTreeDecomposition)

    def test_nice_round_trip_keeps_kinds(self):
        td = square_with_chord_nice_td()
        text = td_to_lines(td)
        assert " join " in text or " join\n" in text
        back = td_from_lines(text)
        assert isinstance(back, NiceTreeDecomposition)
        assert back.validate_nice(square_with_chord())
        assert td_to_lines(back) == text

    def test_bag_named_like_a_kind_stays_plain(self):
        text = "0 - join\n"
        back = td_from_lines(text)
        assert not isinstance(back, NiceTreeDecomposition)
        assert back.bag(0) == {v("join")}
        assert td_to_lines(back) == text

    def test_declared_kinds_must_match_the_tree(self):
        # every line starts with a kind name, but node 0 is no join
        back = td_from_lines("0 - join a\n1 0 leaf a\n")
        assert not isinstance(back, NiceTreeDecomposition)
        assert back.bag(0) == {v("join"), v("a")}

    def test_nice_type_follows_the_declared_kinds(self):
        # a lone leaf holding a is read as nice though neither its root
        # nor its leaf bag is empty: validate_nice checks the shape, and
        # make_nice rebuilds it
        back = td_from_lines("0 - leaf a\n")
        assert isinstance(back, NiceTreeDecomposition)
        assert back.validate_nice(Graph(vs("a"), [])).problems == (
            "root bag is not empty",
            "leaf node 0 has a nonempty bag",
        )
        assert td_to_lines(make_nice(back)) == "0 1 leaf\n1 2 introduce a\n2 - forget\n"

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            td_from_lines("not a node line\n")

    def test_node_ids_may_come_in_any_order(self):
        back = td_from_lines("1 2 b\n2 - a\n0 2 c\n")
        assert back.root() == 2
        assert back.children(2) == [0, 1]
        assert back.bag(1) == {v("b")}

    def test_dot_smoke(self):
        dot = td_to_dot(square_with_chord_nice_td())
        assert dot.startswith("graph ")
        assert "a,c" in dot.replace(" ", "") or "a, c" in dot


@pytest.mark.parametrize("case", sorted(BAD_NODE_IDS))
def test_node_ids_must_number_the_lines_from_zero(case):
    text, message = BAD_NODE_IDS[case]
    with pytest.raises(ValueError, match="^%s" % message):
        td_from_lines(text)


class TestEmptyBagKinds:
    def test_kinds_derived(self):
        td = square_with_chord_nice_td()
        kinds = {n: td.kind(n) for n in td.nodes()}
        assert kinds[0] == "forget"
        assert kinds[2] == "join"
        assert sum(1 for k in kinds.values() if k == "leaf") == 2
        assert sum(1 for k in kinds.values() if k == "join") == 1


KIND_NAMED = ["a", "b", "c"] + list(NICE_KINDS)


@st.composite
def decompositions(draw):
    """A tree of up to eight nodes over vertices, some named like node
    kinds; parents come before children, so it has a single root."""
    size = draw(st.integers(1, 8))
    names = st.sets(st.sampled_from(KIND_NAMED), max_size=4)
    rows = []
    for i in range(size):
        parent = draw(st.integers(0, i - 1)) if i else None
        rows.append((vs(" ".join(sorted(draw(names)))), parent))
    return td_of(rows)


@settings(max_examples=150, deadline=None)
@given(decompositions(), st.booleans())
def test_lines_round_trip(td, nice):
    if nice:
        td = make_nice(td)
    text = td_to_lines(td)
    assert td_to_lines(td_from_lines(text)) == text
