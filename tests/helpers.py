"""Shared example instances used across the test suite.

Everything here is small enough to check by hand; expected values in
the tests were derived on paper from these definitions.
"""

from alliancelib.alliance import AllianceInstance
from alliancelib.graph import Graph, VertexId
from alliancelib.mmo import MmoInstance
from alliancelib.treewidth import NiceTreeDecomposition


def v(name):
    return VertexId(name)


def vs(names):
    return tuple(v(x) for x in names.split())


def wheelish_graph():
    """Five vertices; d is adjacent to all but e misses a."""
    a, b, c, d, e = (v(x) for x in "abcde")
    edges = [(a, b), (c, a), (a, d), (d, b), (b, e), (c, d), (d, e), (c, e)]
    return Graph([a, b, c, d, e], edges)


def constrained_instance():
    """Seven-vertex instance with one forbidden pendant, one necessary
    pendant, one forbidden interior vertex and one complementary pair."""
    names = [v(x) for x in "abcdefg"]
    a, b, c, d, e, f, g = names
    edges = [(a, b), (b, e), (e, a), (d, e), (e, f), (e, c), (c, g)]
    return AllianceInstance(
        Graph(names, edges),
        k=3,
        forbidden=frozenset({d, f}),
        necessary=frozenset({a, g}),
        pairs=frozenset({(b, c)}),
    )


def two_vertex_mmo():
    """Two vertices joined by a single edge of weight 3, target 3."""
    a, b = v("a"), v("b")
    g = Graph([a, b], [(a, b)])
    return MmoInstance(g, {(a, b): 3}, r=3)


def one_edge_target(weight, r):
    """Two vertices joined by one edge of the given weight, target r."""
    a, b = vs("a b")
    return MmoInstance(Graph([a, b], [(a, b)]), {(a, b): weight}, r)


def square_with_chord():
    a, b, c, d = (v(x) for x in "abcd")
    return Graph([a, b, c, d], [(a, b), (b, c), (c, d), (d, a), (a, c)])


def square_with_chord_nice_td():
    """Hand-built nice decomposition of square_with_chord, width 2.

    Shape (root first): {} - {a} - {a,c} join, whose branches run
    {a,c} - {a,b,c} - {a,b} - {a} - {} and {a,c} - {a,c,d} - {c,d} -
    {d} - {}.
    """
    t = NiceTreeDecomposition()
    n0 = t.add_node(set())
    n1 = t.add_node({v("a")}, parent=n0)
    n2 = t.add_node({v("a"), v("c")}, parent=n1)
    n3 = t.add_node({v("a"), v("c")}, parent=n2)
    n4 = t.add_node({v("a"), v("b"), v("c")}, parent=n3)
    n5 = t.add_node({v("a"), v("b")}, parent=n4)
    n6 = t.add_node({v("a")}, parent=n5)
    t.add_node(set(), parent=n6)
    n8 = t.add_node({v("a"), v("c")}, parent=n2)
    n9 = t.add_node({v("a"), v("c"), v("d")}, parent=n8)
    n10 = t.add_node({v("c"), v("d")}, parent=n9)
    n11 = t.add_node({v("d")}, parent=n10)
    t.add_node(set(), parent=n11)
    return t


# node ids outside 0..n-1 for n lines: a negative one, a gap and one too
# large to allocate tables for; then parents outside the nodes
BAD_NODE_IDS = {
    "negative": ("0 - a\n-1 0 a\n", "line 2: node id -1 is not in 0..1"),
    "gap": ("0 - a\n2 0 a\n", "line 2: node id 2 is not in 0..1"),
    "huge": ("%d - a\n0 %d a\n" % (10**12, 10**12), "line 1: node id %d is not in 0..1" % 10**12),
    "negative parent": ("0 - a\n1 -1 a\n", "line 2: unknown parent -1"),
    "huge parent": ("0 - a\n1 %d a\n" % 10**12, "line 2: unknown parent %d" % 10**12),
}
