"""The node tables of TreeDecomposition against a reference model.

The model keeps a decomposition the plain way, in dicts keyed by node
id, and derives children, paths and orders from the parent map alone.
Random sequences of the builders the stage transforms use (_hang, with
one bag or several, and _splice, with bags of table ids), copies among
them, must leave the decomposition and the model in agreement, and
every copy taken along the way must stay as it was while the copy is
built on. The constructor, given the model's bags and parents at each
step, must build the same decomposition.
"""

import copy
import tracemalloc

from hypothesis import given, settings, strategies as st

from alliancelib.graph import Graph
from alliancelib.treewidth import TreeDecomposition, td_to_lines

from helpers import vs

NAMES = vs("a b c d e f")
GRAPH = Graph(NAMES)


def ids(bag):
    """The bag of names as a sorted list of GRAPH's ids."""
    return sorted(map(GRAPH.order.find, bag))


class Model:
    """Bags as frozensets of names and parents by node id."""

    def __init__(self):
        self.bags = {}
        self.parent = {}

    def add(self, bag, parent):
        n = len(self.bags)
        self.bags[n] = frozenset(bag)
        self.parent[n] = parent
        return n

    def hang(self, parent, bags):
        for bag in bags:
            parent = self.add(bag, parent)
        return parent

    def splice(self, n, bags):
        old, below, ids = self.parent[n], n, []
        for bag in bags:
            nid = self.add(bag, None)
            self.parent[below] = nid
            below = nid
            ids.append(nid)
        if ids:
            self.parent[below] = old
        return ids

    def children(self, n):
        return sorted(c for c, p in self.parent.items() if p == n)

    def root(self):
        (root,) = [n for n, p in self.parent.items() if p is None]
        return root

    def postorder(self):
        def walk(n):
            for c in self.children(n):
                yield from walk(c)
            yield n

        return list(walk(self.root()))

    def subtree(self, n):
        out = {n}
        for c in self.children(n):
            out |= self.subtree(c)
        return out

    def ancestors(self, n):
        out = [n]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def path(self, a, b):
        up_a, up_b = self.ancestors(a), self.ancestors(b)
        meet = next(x for x in up_a if x in up_b)
        return up_a[: up_a.index(meet) + 1] + up_b[: up_b.index(meet)][::-1]

    def width(self):
        return max(map(len, self.bags.values())) - 1

    def lines(self):
        out = []
        for n in sorted(self.bags):
            p = self.parent[n]
            row = [str(n), "-" if p is None else str(p)]
            out.append(" ".join(row + [str(x) for x in sorted(self.bags[n])]) + "\n")
        return "".join(out)


def assert_agrees(td, model):
    nodes = sorted(model.bags)
    assert td.nodes() == nodes
    for n in nodes:
        assert td.parent(n) == model.parent[n]
        assert td.children(n) == model.children(n)
        assert td.bag(n) == model.bags[n]
    assert td.root() == model.root()
    assert td.postorder() == model.postorder()
    for a in nodes:
        for b in {nodes[0], nodes[-1], nodes[a // 2]}:
            assert td.path_between(a, b) == model.path(a, b)
    assert td.width() == model.width()
    assert td_to_lines(td) == model.lines()


OPS = ("one", "_hang", "_splice", "copy")
bags = st.frozensets(st.sampled_from(NAMES), max_size=4)
steps = st.lists(
    st.tuples(
        st.sampled_from(OPS), st.integers(0, 63), st.integers(0, 63), bags,
        st.lists(bags, max_size=3),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(bags, steps)
def test_mutators_agree_with_the_dict_model(first, steps):
    td, model = TreeDecomposition(GRAPH.order), Model()
    assert td._hang(-1, [ids(first)]) == model.add(first, None)
    # every copy taken, with the model as it was then
    frozen = []
    for op, i, j, bag, more in steps:
        nodes = sorted(model.bags)
        n, p = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if op == "one":
            assert td._hang(p, [ids(bag)]) == model.add(bag, p)
        elif op == "_hang":
            assert td._hang(p, list(map(ids, more))) == model.hang(p, more)
        elif op == "_splice":
            assert list(td._splice(n, list(map(ids, more)))) == model.splice(n, more)
        else:
            frozen.append((td, copy.deepcopy(model)))
            td = td.copy()
        assert_agrees(td, model)
        nodes = sorted(model.bags)
        parents = [-1 if model.parent[n] is None else model.parent[n] for n in nodes]
        built = TreeDecomposition(GRAPH.order, [ids(model.bags[n]) for n in nodes], parents)
        assert_agrees(built, model)
    for old, then in frozen:
        assert_agrees(old, then)


def test_a_node_costs_under_16_bytes_beside_its_bag():
    # empty bags add no entries, so what the splice leaves behind is the
    # node tables alone: two bag offsets and a parent entry, where
    # sibling links beside them cost about 20 B a node and per-node
    # dicts of bags and parents with a child tuple about 250 B
    td = TreeDecomposition()
    root = td._hang(-1, [[]])
    count = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        td._splice(root, [[]] * count)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(td.nodes()) == count + 1
    assert held / count < 16, "%.1f bytes per node" % (held / count)


def test_a_bag_entry_costs_under_6_bytes_with_its_node():
    # 4 B an entry in the one array of bags, and the node tables spread
    # over the 18 entries of each bag; a tuple per bag cost a 56 B
    # header and an 8 B slot per entry, about 11 B an entry, with the
    # int objects shared
    td = TreeDecomposition()
    root = td._hang(-1, [[]])
    count, size = 100_000, 18
    pool = list(range(count + size))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        td._splice(root, [pool[i:i + size] for i in range(count)])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(td.nodes()) == count + 1 and td.width() == size - 1
    entries = count * size
    assert held / entries < 6, "%.1f bytes per entry" % (held / entries)
