"""Shared example instances used across the test suite.

Everything here is small enough to check by hand; expected values in
the tests were derived on paper from these definitions.
"""

from alliancelib.alliance import AllianceInstance
from alliancelib.graph import Graph, VertexId
from alliancelib.mmo import MmoInstance
from alliancelib.treewidth import NiceTreeDecomposition, TreeDecomposition, td_from_lines


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


def td_of(rows, cls=TreeDecomposition):
    """Decomposition of class cls read by td_from_lines from rows, each
    (bag, parent) for the next node id: bag an iterable of names, parent
    a node id or None for a root."""
    text = "".join(
        "%d %s %s\n" % (n, "-" if p is None else p, " ".join(map(str, bag)))
        for n, (bag, p) in enumerate(rows)
    )
    return td_from_lines(text).copy(into=cls)


def square_with_chord_nice_td():
    """Hand-written nice decomposition of square_with_chord, width 2.

    Shape (root first): {} - {a} - {a,c} join, whose branches run
    {a,c} - {a,b,c} - {a,b} - {a} - {} and {a,c} - {a,c,d} - {c,d} -
    {d} - {}.
    """
    rows = [
        ("", None), ("a", 0), ("a c", 1), ("a c", 2), ("a b c", 3), ("a b", 4), ("a", 5),
        ("", 6), ("a c", 2), ("a c d", 8), ("c d", 9), ("d", 10), ("", 11),
    ]
    return td_of([(vs(names), p) for names, p in rows], NiceTreeDecomposition)


# node ids outside 0..n-1 for n lines: a negative one, a gap and one too
# large to allocate tables for; then parents outside the nodes
BAD_NODE_IDS = {
    "negative": ("0 - a\n-1 0 a\n", "line 2: node id -1 is not in 0..1"),
    "gap": ("0 - a\n2 0 a\n", "line 2: node id 2 is not in 0..1"),
    "huge": ("%d - a\n0 %d a\n" % (10**12, 10**12), "line 1: node id %d is not in 0..1" % 10**12),
    "negative parent": ("0 - a\n1 -1 a\n", "line 2: unknown parent -1"),
    "huge parent": ("0 - a\n1 %d a\n" % 10**12, "line 2: unknown parent %d" % 10**12),
}
