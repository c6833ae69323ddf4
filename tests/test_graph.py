import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import weakref
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

import alliancelib
import alliancelib.graph
from alliancelib.graph import (
    Block,
    Graph,
    VertexId,
    VertexTable,
    graph_from_edgelist,
    graph_to_dot,
    graph_to_edgelist,
    parse_vertex,
)
from alliancelib.reductions import eliminate_pairs, mmo_to_alliance

from helpers import one_edge_target


def v(name):
    return VertexId(name)


# (decoration, indices, partner) for every decoration; chain-Z may
# carry no index, one or two
ROLES = [
    ("original", (), None),
    ("helper-h", (5,), None),
    ("edge-copy", (1,), "b"),
    ("edge-copy-forbidden", (2,), "a/h1"),
    ("chain-Y", (3,), None),
    ("chain-Y", (10,), None),
    ("chain-Y-forbidden", (3,), None),
    ("chain-Z", (), "b"),
    ("chain-Z", (7,), "b"),
    ("chain-Z", (1, 2), "{a.b/ec1}/y2"),
    ("chain-Z-forbidden", (7,), "b"),
    ("triangle", (), "b"),
    ("primed", (), None),
    ("fan-hub", (), None),
    ("fan-leaf", (4,), None),
    ("A-chain", (3,), None),
    ("A-chain-forbidden", (3,), None),
    ("g", (), None),
    ("h", (), None),
    ("g-forbidden", (), None),
    ("h-forbidden", (), None),
]
# the order of decorations in the sort key: "original" first, then by name
RANK = ["original"] + sorted({role for role, _, _ in ROLES} - {"original"})


def field_key(vid):
    """The sort key spelled out from the public fields."""
    return (vid.base, RANK.index(vid.decoration), vid.partner or "", vid.indices)


def role_samples():
    """Every decoration on plain and nested bases, where allowed."""
    out = []
    for base in ["a", "b", "b/y3", "{b/y3}/a1", "a.b/z"]:
        for decoration, indices, partner in ROLES:
            if decoration == "original" and "/" in base:
                continue
            out.append(VertexId(base, decoration, indices, partner))
    return out


def chain_vertices():
    """The 427 vertices of the two-stage output of a one-edge target."""
    first = mmo_to_alliance(one_edge_target(1, 1)).result
    return sorted(eliminate_pairs(first).result.graph.vertices)


def fig_graph():
    # 5-cycle-ish graph used across the test suite: a is adjacent to b, c, d;
    # d is adjacent to everything except e... spelled out below.
    names = [v(x) for x in "abcde"]
    a, b, c, d, e = names
    edges = [(a, b), (c, a), (a, d), (d, b), (b, e), (c, d), (d, e), (c, e)]
    return Graph(names, edges)


class TestVertexId:
    def test_plain_rendering(self):
        assert str(v("a")) == "a"
        assert str(v("node7")) == "node7"

    def test_gadget_renderings(self):
        assert str(VertexId("a", "edge-copy", (1,), partner="b")) == "a.b/ec1"
        assert str(VertexId("a", "edge-copy-forbidden", (2,), partner="b")) == "a.b/ecf2"
        assert str(VertexId("a", "helper-h", (5,))) == "a/h5"
        assert str(VertexId("a", "chain-Y", (3,))) == "a/y3"
        assert str(VertexId("a", "chain-Y-forbidden", (3,))) == "a/yf3"
        assert str(VertexId("a", "chain-Z", (), partner="b")) == "a.b/z"
        assert str(VertexId("a", "chain-Z", (7,), partner="b")) == "a.b/z7"
        assert str(VertexId("a", "chain-Z-forbidden", (7,), partner="b")) == "a.b/zf7"
        assert str(VertexId("a", "triangle", (), partner="b")) == "a.b/tri"
        assert str(VertexId("a", "primed")) == "a/p"
        assert str(VertexId("f", "fan-hub")) == "f/fh"
        assert str(VertexId("f", "fan-leaf", (4,))) == "f/fl4"
        assert str(VertexId("a", "A-chain", (3,))) == "a/a3"
        assert str(VertexId("a", "A-chain-forbidden", (3,))) == "a/af3"
        assert str(VertexId("a", "g")) == "a/gv"
        assert str(VertexId("a", "h")) == "a/hv"
        assert str(VertexId("a", "g-forbidden")) == "a/gvf"
        assert str(VertexId("a", "h-forbidden")) == "a/hvf"

    def test_composed_base_is_braced(self):
        inner = VertexId("b", "chain-Y", (3,))
        outer = VertexId(str(inner), "A-chain", (1,))
        assert str(outer) == "{b/y3}/a1"
        again = VertexId(str(outer), "A-chain-forbidden", (2,))
        assert str(again) == "{{b/y3}/a1}/af2"

    def test_parse_round_trip(self):
        samples = [
            v("a"),
            VertexId("a", "edge-copy", (12,), partner="b"),
            VertexId("a", "edge-copy-forbidden", (1,), partner="b"),
            VertexId("x", "helper-h", (9,)),
            VertexId("a", "chain-Y", (1,)),
            VertexId("a", "chain-Z", (), partner="b"),
            VertexId("a", "chain-Z-forbidden", (30,), partner="b"),
            VertexId("a", "triangle", (), partner="b"),
            VertexId("a", "primed"),
            VertexId("f", "fan-hub"),
            VertexId("f", "fan-leaf", (8,)),
            VertexId("a/p", "A-chain", (4,)),
            VertexId("a", "g-forbidden"),
            VertexId("{b/y3}/a1", "A-chain", (2,)),
        ]
        for vid in samples:
            assert parse_vertex(str(vid)) == vid

    def test_parse_rejects_garbage(self):
        for bad in ["", "a b", "a/xy3", "a./ec1", "a/ec1", "{a/y1", "a}b"]:
            with pytest.raises(ValueError):
                parse_vertex(bad)

    def test_plain_names_reject_structural_characters(self):
        for bad in ["a.b", "a/b", "{a}", "a b", ""]:
            with pytest.raises(ValueError):
                VertexId(bad)

    def test_indices_and_partner_are_validated(self):
        bad = [
            ("a", "edge-copy", (1,), None),  # partner missing
            ("a", "primed", (), "b"),  # partner not allowed
            ("a", "edge-copy", (1,), ""),
            ("a", "edge-copy", (1,), "b c"),
            ("a", "helper-h", (), None),  # index missing
            ("a", "helper-h", (1, 2), None),
            ("a", "primed", (1,), None),  # no index allowed
            ("a", "chain-Z", (1, 2, 3), "b"),
            ("a", "chain-Z", (-1,), "b"),
            ("a", "chain-Z", ("1",), "b"),
            # equal to a/h1, yet rendered a/hTrue, which does not parse
            ("a", "helper-h", (True,), None),
            ("a", "no-such-role", (1,), None),
            ("", "primed", (), None),
            ("a\u00a0b", "primed", (), None),
            ("{a", "primed", (), None),
            ("a}", "helper-h", (1,), None),
        ]
        for base, decoration, indices, partner in bad:
            with pytest.raises(ValueError):
                VertexId(base, decoration, indices, partner)

    @pytest.mark.parametrize("decoration", RANK)
    def test_each_decoration_refuses_what_its_role_does_not_take(self, decoration):
        # the index counts and the partner of the decoration's samples
        counts = {len(indices) for role, indices, _ in ROLES if role == decoration}
        partner = next(partner for role, _, partner in ROLES if role == decoration)
        taken = "no index" if counts == {0} else "exactly one index"
        for count in range(4):
            indices = tuple(range(1, count + 1))
            if count in counts:
                assert VertexId("a", decoration, indices, partner).indices == indices
                continue
            with pytest.raises(ValueError) as caught:
                VertexId("a", decoration, indices, partner)
            assert str(caught.value) == (
                "indices must be at most two non-negative ints" if count > 2
                else "decoration %r takes %s" % (decoration, taken)
            )
        indices = tuple(range(1, min(counts) + 1))
        with pytest.raises(ValueError) as caught:
            VertexId("a", decoration, indices, None if partner else "b")
        assert str(caught.value) == "decoration %r %s a partner vertex" % (
            decoration, "requires" if partner else "forbids"
        )

    def test_total_order_is_deterministic(self):
        ids = [
            VertexId("a", "chain-Y", (2,)),
            VertexId("a", "chain-Y", (10,)),
            v("a"),
            v("b"),
            VertexId("a", "edge-copy", (1,), partner="b"),
        ]
        once = sorted(ids)
        twice = sorted(reversed(once))
        assert once == twice
        # numeric indices sort numerically, not textually
        assert once.index(VertexId("a", "chain-Y", (2,))) < once.index(
            VertexId("a", "chain-Y", (10,))
        )

    def test_hashable_and_equal_by_value(self):
        assert VertexId("a", "chain-Y", (1,)) == VertexId("a", "chain-Y", (1,))
        assert len({v("a"), v("a"), v("b")}) == 2
        samples = role_samples()
        for vid in samples:
            # equal fields built from distinct objects
            twin = VertexId(
                "".join(list(vid.base)), vid.decoration, list(vid.indices),
                None if vid.partner is None else "".join(list(vid.partner)),
            )
            assert twin == vid and hash(twin) == hash(vid)
            assert (vid.base, vid.decoration, vid.indices, vid.partner) == (
                twin.base, twin.decoration, twin.indices, twin.partner,
            )
        assert len(set(samples)) == len(samples)

    def test_order_matches_the_field_key(self):
        samples = role_samples()
        values = samples + chain_vertices()
        random.Random(7).shuffle(values)
        assert sorted(values) == sorted(values, key=field_key)
        for x in samples:
            for y in samples:
                assert (x < y) == (field_key(x) < field_key(y))
                assert (x <= y) == (field_key(x) <= field_key(y))
        assert all(vid.sort_key() == field_key(vid) for vid in values)

    def test_round_trips_preserve_the_value(self):
        for vid in role_samples() + chain_vertices():
            assert parse_vertex(str(vid)) == vid
            assert eval(repr(vid)) == vid
            copies = [copy.deepcopy(vid), copy.copy(vid)] + [
                pickle.loads(pickle.dumps(vid, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for other in copies:
                assert type(other) is VertexId
                assert other == vid and str(other) == str(vid)

    def test_formats_as_one_argument(self):
        vid = VertexId("{b/y3}/a1", "chain-Z", (2,), "b")
        assert "%s" % (vid,) == str(vid) == "{{b/y3}/a1}.b/z2"
        assert "%s--%s" % (vid, v("a")) == "{{b/y3}/a1}.b/z2--a"

    def test_fields_are_read_only(self):
        vid = VertexId("a", "edge-copy", (1,), "b")
        for name in ["base", "decoration", "indices", "partner", "other"]:
            with pytest.raises(AttributeError):
                setattr(vid, name, "x")
        assert vid == VertexId("a", "edge-copy", (1,), "b")


class TestGraph:
    def test_closed_neighborhood(self):
        g = fig_graph()
        assert g.closed_neighborhood(v("a")) == {v("a"), v("b"), v("c"), v("d")}
        assert g.closed_neighborhood(v("d")) == {v(x) for x in "abcde"}

    def test_neighbors_sorted(self):
        g = fig_graph()
        assert g.neighbors(v("a")) == (v("b"), v("c"), v("d"))

    def test_unknown_vertex_is_named_in_error(self):
        g = fig_graph()
        with pytest.raises(ValueError, match="zz"):
            g.neighbors(v("zz"))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([v("a")], [(v("a"), v("a"))])

    def test_edge_endpoint_must_be_vertex(self):
        with pytest.raises(ValueError, match="b"):
            Graph([v("a")], [(v("a"), v("b"))])

    def test_edges_are_unordered(self):
        g1 = Graph([v("a"), v("b")], [(v("a"), v("b"))])
        g2 = Graph([v("a"), v("b")], [(v("b"), v("a"))])
        assert g1 == g2
        assert g1.has_edge(v("a"), v("b"))
        assert g1.has_edge(v("b"), v("a"))

    def test_components_ordered_by_least_vertex(self):
        g = Graph(
            [v(x) for x in "abcdxy"],
            [(v("x"), v("y")), (v("a"), v("b")), (v("c"), v("d"))],
        )
        comps = g.connected_components()
        assert comps == [
            frozenset({v("a"), v("b")}),
            frozenset({v("c"), v("d")}),
            frozenset({v("x"), v("y")}),
        ]

    def test_single_component(self):
        assert fig_graph().connected_components() == [frozenset(v(x) for x in "abcde")]

    def test_induced_subgraph(self):
        g = fig_graph()
        sub = g.induced({v("a"), v("b"), v("e")})
        assert sub.vertices == frozenset({v("a"), v("b"), v("e")})
        assert sub.has_edge(v("a"), v("b"))
        assert sub.has_edge(v("b"), v("e"))
        assert not sub.has_edge(v("a"), v("e"))

    def test_isolated_vertex(self):
        g = Graph([v("a"), v("b")], [])
        assert g.closed_neighborhood(v("a")) == {v("a")}
        assert g.connected_components() == [frozenset({v("a")}), frozenset({v("b")})]


class TestSerialization:
    def test_edgelist_round_trip(self):
        g = fig_graph()
        text = graph_to_edgelist(g)
        assert graph_from_edgelist(text) == g
        # canonical form is stable
        assert graph_to_edgelist(graph_from_edgelist(text)) == text

    def test_edgelist_comments_and_isolated(self):
        text = "# a comment\na b\nc\n"
        g = graph_from_edgelist(text)
        assert g.vertices == {v("a"), v("b"), v("c")}
        assert g.edges == frozenset({(v("a"), v("b"))})

    def test_edgelist_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            graph_from_edgelist("a b\na b c\n")

    def test_dot_output(self):
        g = Graph([v("a"), v("b"), v("c")], [(v("a"), v("b"))])
        dot = graph_to_dot(g)
        assert dot.startswith("graph ")
        assert '"a" -- "b"' in dot
        assert '"c"' in dot


names = st.sampled_from([chr(ord("a") + i) for i in range(8)])


@st.composite
def graphs(draw):
    vs = sorted(set(draw(st.lists(names, min_size=1, max_size=8))))
    pool = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1 :]]
    mask = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    vids = [VertexId(x) for x in vs]
    edges = [
        (VertexId(u), VertexId(w)) for (u, w), keep in zip(pool, mask) if keep
    ]
    return Graph(vids, edges)


@given(graphs())
def test_adjacency_is_symmetric(g):
    for u in g.vertices:
        for w in g.neighbors(u):
            assert u in g.neighbors(w)
            assert u != w


@given(graphs())
def test_closed_neighborhood_contains_vertex(g):
    for u in g.vertices:
        assert u in g.closed_neighborhood(u)
        assert g.closed_neighborhood(u) == set(g.neighbors(u)) | {u}


@given(graphs())
def test_components_partition_vertices(g):
    comps = g.connected_components()
    seen = set()
    for comp in comps:
        assert comp, "components are nonempty"
        assert not (comp & seen)
        seen |= comp
    assert seen == g.vertices
    # edges never cross component boundaries
    for u, w in g.edges:
        assert any(u in comp and w in comp for comp in comps)


@given(graphs())
def test_edgelist_round_trip_property(g):
    assert graph_from_edgelist(graph_to_edgelist(g)) == g


# ------------------------------------------------ frozenset reference model

# plain names and gadget vertices, so that the sorted order, and with it
# the ids, is not the order of first appearance
POOL = [v(x) for x in "abcdefg"] + role_samples()[::7]


class Model:
    """The graph as plain sets: what Graph must agree with."""

    def __init__(self, vertices, edges):
        self.vertices = frozenset(vertices)
        self.edges = frozenset((u, w) if u < w else (w, u) for u, w in edges)
        self.adj = {x: set() for x in self.vertices}
        for u, w in self.edges:
            self.adj[u].add(w)
            self.adj[w].add(u)

    def components(self):
        comps, seen = [], set()
        for start in sorted(self.vertices):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                for w in self.adj[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def induced(self, subset):
        return Model(subset, [e for e in self.edges if set(e) <= subset])


@st.composite
def vertex_edge_lists(draw):
    """Vertex and edge lists with duplicate and reversed edges; vertices
    that no edge touches stay isolated."""
    vertices = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=12))
    distinct = sorted(set(vertices))
    pairs = st.tuples(st.sampled_from(distinct), st.sampled_from(distinct))
    edges = [(u, w) for u, w in draw(st.lists(pairs, max_size=30)) if u != w]
    edges += [(w, u) for u, w in edges[: draw(st.integers(0, len(edges)))]]
    return vertices, draw(st.permutations(edges))


def assert_agrees(g, m):
    assert g.vertices == m.vertices
    assert g.order == sorted(m.vertices)
    assert all(g.index[x] == i for i, x in enumerate(g.order))
    assert len(g.edges) == len(m.edges)
    assert g.edges == m.edges and m.edges == g.edges
    assert not (g.edges != m.edges)
    assert hash(g.edges) == hash(m.edges) == hash(frozenset(g.edges))
    assert list(g.edges) == g.sorted_edges() == sorted(m.edges)
    assert g.sorted_vertices() == sorted(m.vertices)
    for x in m.vertices:
        assert g.neighbors(x) == tuple(sorted(m.adj[x]))
        assert g.degree(x) == len(m.adj[x])
        i = g.index[x]
        ids = g.adjacent[g.first[i]:g.first[i + 1]]
        assert list(ids) == sorted(g.index[w] for w in m.adj[x])
        for w in m.vertices - {x}:
            assert g.has_edge(x, w) == (w in m.adj[x])
            assert ((x, w) in g.edges) == ((x, w) in m.edges)
    assert g.connected_components() == m.components()


@given(vertex_edge_lists(), st.data())
def test_graph_agrees_with_the_set_model(lists, data):
    vertices, edges = lists
    g, m = Graph(vertices, edges), Model(vertices, edges)
    assert_agrees(g, m)
    subset = frozenset(data.draw(st.sets(st.sampled_from(sorted(m.vertices)))))
    assert_agrees(g.induced(subset), m.induced(subset))
    # equal graphs, however their edges were listed, are equal and hash
    # alike; a graph with one edge more or less is not equal
    again = Graph(reversed(vertices), [(w, u) for u, w in reversed(edges)])
    assert again == g and hash(again) == hash(g)
    if m.edges:
        fewer = Graph(vertices, sorted(m.edges)[1:])
        assert fewer != g and not (fewer == g)
    assert Graph(vertices) == Graph(m.vertices, ())
    assert (Graph(vertices) == g) == (not m.edges)


@given(vertex_edge_lists(), st.sets(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL))))
def test_edge_view_set_algebra(lists, other):
    g = Graph(*lists)
    model = frozenset(g.edges)
    other = frozenset(other)
    for got, want in (
        (g.edges | other, model | other),
        (other | g.edges, model | other),
        (g.edges & other, model & other),
        (other & g.edges, model & other),
        (g.edges - other, model - other),
        (other - g.edges, other - model),
        (g.edges ^ other, model ^ other),
    ):
        assert type(got) is frozenset
        assert got == want
    assert (g.edges <= model) and (model >= g.edges)
    assert g.edges.isdisjoint(other) == model.isdisjoint(other)


def test_edge_view_membership_of_non_pairs():
    a, b, c, z = (v(x) for x in "abcz")
    g = Graph([a, b, c], [(a, b), (c, b)])
    assert (a, b) in g.edges and (b, c) in g.edges
    # only canonical pairs of known vertices are members
    for probe in [(b, a), (c, b), (a, c), (a, z), (z, a), (z, z), (a, a),
                  (a,), (a, b, c), a, "ab", 3, None, [a, b]]:
        assert probe not in g.edges
    assert hash(g.edges) == hash(frozenset(g.edges))
    assert hash(Graph([a]).edges) == hash(frozenset())


def test_errors_keep_their_messages():
    a, b, c = (v(x) for x in "abc")
    with pytest.raises(ValueError, match=r"^edge endpoint b is not a vertex$"):
        Graph([a], [(a, b)])
    with pytest.raises(ValueError, match=r"^edge endpoint b is not a vertex$"):
        Graph([a], [(b, a)])
    # an unknown first endpoint is named before the second, and before a
    # self loop
    with pytest.raises(ValueError, match=r"^edge endpoint b is not a vertex$"):
        Graph([a], [(b, c)])
    with pytest.raises(ValueError, match=r"^edge endpoint b is not a vertex$"):
        Graph([a], [(b, b)])
    with pytest.raises(ValueError, match=r"^self loop at a$"):
        Graph([a, b], [(a, b), (a, a)])
    g = Graph([a, b], [(a, b)])
    for call in (
        lambda: g.neighbors(c),
        lambda: g.degree(c),
        lambda: g.closed_neighborhood(c),
        lambda: g.has_edge(a, c),
        lambda: g.has_edge(c, a),
        lambda: g.induced([a, c]),
    ):
        with pytest.raises(ValueError, match=r"^unknown vertex: c$"):
            call()
    with pytest.raises(ValueError, match=r"^self loop at a$"):
        g.has_edge(a, a)


def test_a_deleted_graph_is_freed_without_the_collector():
    a, b = v("a"), v("b")
    gc.disable()
    try:
        g = Graph([a, b], [(a, b)])
        assert (a, b) in g.edges
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_graphs_over_one_table_compare_and_hash_without_names(monkeypatch):
    g = eliminate_pairs(mmo_to_alliance(one_edge_target(1, 2)).result).result.graph
    n = len(g.order)
    # one key per edge; the build consumes the list it is given
    keys = [i * n + j for i in range(n) for j in g.adjacent[g.first[i]:g.first[i + 1]] if i < j]
    same, fewer = Graph._from_keys(g.order, keys[:]), Graph._from_keys(g.order, keys[1:])
    assert len(fewer.edges) == len(g.edges) - 1
    twin = Graph(list(g.order), g.edges)

    def refuse(*args):
        raise AssertionError("a vertex name was made or looked up")

    with monkeypatch.context() as patched:
        for cls, method in ((VertexTable, "find"), (VertexTable, "__getitem__"),
                            (VertexTable, "__iter__"), (Block, "__getitem__"),
                            (Block, "__iter__")):
            patched.setattr(cls, method, refuse)
        assert same == g and hash(same) == hash(g) and fewer != g
    # a graph over another table with the same names is equal too
    assert twin.order is not g.order and twin == g and hash(twin) == hash(g)


def test_a_graph_survives_pickle_and_copy():
    g = fig_graph()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(g, protocol))
        assert back == g and back.edges == g.edges
        assert list(back.edges) == list(g.edges)
    assert copy.deepcopy(g) == g and copy.copy(g) == g


# ------------------------------------------------------------ array core


def reference_arrays(n, keys):
    """first and adjacent as lists, from the sorted arcs of the keys in
    both directions with repeats dropped."""
    arcs = sorted({divmod(key, n) for key in keys} | {divmod(key, n)[::-1] for key in keys})
    counts = [0] * (n + 1)
    for i, _ in arcs:
        counts[i + 1] += 1
    return list(accumulate(counts)), [j for _, j in arcs]


def oriented(n, keys):
    """Each key turned to i * n + j with i < j, the keys _from_keys takes."""
    return [min(divmod(key, n)) * n + max(divmod(key, n)) for key in keys]


def assert_built_from_keys(n, keys):
    """Graph._from_keys on the oriented keys and Graph(vertices, edges)
    on the edges as given both give the reference arrays, and equal
    graphs."""
    want = reference_arrays(n, keys)
    order = [v("x%03d" % i) for i in range(n)]
    by_keys = Graph._from_keys(order, oriented(n, keys))
    by_names = Graph(reversed(order), [(order[key // n], order[key % n]) for key in keys])
    for g in (by_keys, by_names):
        assert (list(g.first), list(g.adjacent)) == want
    assert by_keys == by_names


@st.composite
def keyed_edges(draw):
    """A vertex count from 0 and int keys i * n + j over it: some edges
    repeated, some in both orientations, in any order."""
    n = draw(st.integers(0, 9))
    ids = st.integers(0, max(n - 1, 0))
    pairs = [(i, j) for i, j in draw(st.lists(st.tuples(ids, ids), max_size=40)) if i != j]
    pairs += [(j, i) for i, j in pairs[: draw(st.integers(0, len(pairs)))]]
    pairs += pairs[: draw(st.integers(0, len(pairs)))]
    return n, [i * n + j for i, j in draw(st.permutations(pairs))]


@given(keyed_edges())
@example((0, []))
@example((1, []))
@example((2, [1, 2, 1, 2]))
def test_the_array_core_gives_the_sorted_arcs(case):
    assert_built_from_keys(*case)


@st.composite
def key_families(draw):
    """A vertex count and a mix of families, the ranges of keys the
    stage builders emit, with explicit int keys, some repeated: fans
    from an id (step 1), fans into an id (step n) and runs of parallel
    edges (step n + 1), of any length from 0, in any order."""
    n = draw(st.integers(2, 90))
    ids = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    entries = []
    for shape in draw(st.lists(st.sampled_from(("from", "into", "run", "key")), max_size=12)):
        i, j = sorted(draw(ids))
        key = i * n + j
        if shape == "key":
            entries += [key] * draw(st.integers(1, 3))
        elif shape == "from":
            entries.append(range(key, key + draw(st.integers(0, n - j))))
        elif shape == "into":
            entries.append(range(key, key + draw(st.integers(0, j - i)) * n, n))
        else:
            entries.append(range(key, key + draw(st.integers(0, n - j)) * (n + 1), n + 1))
    return n, draw(st.permutations(entries))


@given(key_families())
@settings(max_examples=300)
# rows 1-3 hold the constant 5, which the run (t, 3 + t) reaches at row
# 2; the explicit key (1, 4) repeats a member of that run; empty and
# one-key families
@example((10, [range(3, 58, 11), range(15, 45, 10), 14, 14, range(5, 5), range(13, 14)]))
@example((2, [range(1, 2)]))
# rows 4-9 hold int keys that no family reaches
@example((10, [range(12, 14), 89, 78, 89, 45]))
def test_families_build_the_arrays_of_their_keys(case):
    n, entries = case
    keys = [key for entry in entries for key in (entry if isinstance(entry, range) else (entry,))]
    assert build_by_each_writer(n, entries) == [reference_arrays(n, keys)] * 2


def build_by_each_writer(n, entries):
    """The arrays Graph._from_keys builds from entries, int keys and
    families, once with the families expanded into int keys and once
    with every family written by _fill."""
    order = [v("x%03d" % i) for i in range(n)]
    built = []
    for fill_vertices in (10**9, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(alliancelib.graph, "_FILL_VERTICES", fill_vertices)
            g = Graph._from_keys(order, list(entries))
        built.append((list(g.first), list(g.adjacent)))
    return built


def test_repeats_of_an_edge_far_apart_count_once():
    # half the ordered pairs over 40 vertices, repeated and shuffled, so
    # that an edge's repeats lie far apart in both orientations
    rng = random.Random(5)
    n = 40
    keys = [i * n + j for i in range(n) for j in range(n) if i != j and rng.random() < 0.5]
    keys *= 50
    rng.shuffle(keys)
    assert_built_from_keys(n, keys)
    # with a fan from id 0 over ids 1-19, which many keys repeat, the
    # fill meets the keys in rows 0-19 and copies the rows after
    fan = range(1, 20)
    want = reference_arrays(n, keys + list(fan))
    assert build_by_each_writer(n, oriented(n, keys) + [fan]) == [want] * 2


def test_reversed_and_repeated_edges_give_the_oriented_graph():
    a, b, c, d = (v(x) for x in "abcd")
    edges = [(a, b), (b, c), (c, d), (a, d)]
    messy = [(d, c), (b, a), (a, b), (c, b), (d, a), (c, d), (b, a)]
    built = Graph([a, b, c, d], messy)
    assert built == Graph([a, b, c, d], edges)
    assert list(built.edges) == sorted(edges)


def test_listing_edges_makes_each_name_once(monkeypatch):
    # a stage-2 output's table makes its family names on demand
    g = eliminate_pairs(mmo_to_alliance(one_edge_target(1, 1)).result).result.graph
    made = []
    mint = alliancelib.graph._mint

    def counted(fields):
        made.append(fields)
        return mint(fields)

    monkeypatch.setattr(alliancelib.graph, "_mint", counted)
    listed = list(g.edges)
    assert len(listed) == len(g.adjacent) // 2
    assert 0 < len(made) <= len(g.order)


def test_listing_edges_lets_go_of_the_names_of_passed_rows():
    # the names of a stage-2 table take more memory together than the
    # listing may hold at any one time while streaming its edges
    g = eliminate_pairs(mmo_to_alliance(one_edge_target(1, 1)).result).result.graph
    names = list(g.order)
    first, adjacent = g.first, g.adjacent
    expected = [
        (names[i], names[j])
        for i in range(len(names))
        for j in adjacent[first[i]:first[i + 1]]
        if i < j
    ]
    assert list(g.edges) == expected
    del names, expected
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        names = list(g.order)
        held = tracemalloc.get_traced_memory()[0] - base
        del names
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in g.edges:
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < held * 0.75, (peak, held)


def test_a_table_keeps_nothing_per_family_id():
    # its ids are a range: a list of a million int objects took 40 MB
    block = Block.family("x", "fan-leaf", 1_000_000)
    tracemalloc.start()
    try:
        table = VertexTable([block])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 1_000_000 and table.find(block[-1]) == 999_999
    assert peak < 1 << 20, peak


# a million-edge build in a fresh process: it prints the arc count and
# how far the build raises the peak resident size (VmHWM) over the
# resident size just before it (VmRSS). Not ru_maxrss: on Linux a
# process started by exec inherits the resident peak of the process
# that started it, which for a test run may be hundreds of MB
MILLION_EDGE_BUILD = """
from alliancelib.graph import Graph, VertexId

def status(field):
    with open("/proc/self/status") as lines:
        for line in lines:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024

n, width = 20_000, 50
order = [VertexId("x%05d" % i) for i in range(n)]
# i joins i + d (mod n) for d up to width, each key with its lower id first
keys = [
    min(i, (i + d) % n) * n + max(i, (i + d) % n)
    for i in range(n)
    for d in range(1, width + 1)
]
before = status("VmRSS")
graph = Graph._from_keys(order, keys)
print(len(graph.adjacent), status("VmHWM") - before)
"""


def test_building_a_million_edges_holds_little_beside_the_arrays():
    """The build sorts the keys in place and writes each arc into the
    adjacency array: its resident growth over the keys it is given
    is the 4-byte arcs, the vertex tables and a few per-vertex lists,
    about 5.1 B per arc (the build that held both orientations as ints
    grew by 76 B per arc). Resident sizes, not tracemalloc, because
    tracing the build takes about 25 s against 1 s untraced."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(alliancelib.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", MILLION_EDGE_BUILD],
        env=dict(os.environ, PYTHONPATH=root),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    arcs, growth = map(int, done.stdout.split())
    assert arcs == 2 * 20_000 * 50
    assert growth / arcs < 8, "%.1f bytes per arc" % (growth / arcs)
