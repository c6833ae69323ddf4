"""Stage decompositions of the one-edge chain targets at full size,
fn-to-f decompositions of seeded small instances, and heuristic
decompositions of seeded corpora.

The digests pin td_to_lines byte for byte, node numbering and bag
order included. The fn-to-f column bags, spliced once per run of equal
threads, are also checked against the sorted bags on random chains.
The stage-3 decomposition is also validated against the stage-3 graph,
whose table it shares, without a name being made or looked up. Its
bags are runs of one int array, so building it must leave the cyclic
collector next to nothing new to track and hold under 20 MB.
"""

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from alliancelib.alliance import AllianceInstance, primal_graph
from alliancelib.gen import (
    random_forbidden_toy,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
    random_plain_instance,
)
from alliancelib.graph import Block, Graph, VertexId, VertexTable
from alliancelib.reductions import _spliced, build_stage, eliminate_pairs, mmo_to_alliance
from alliancelib.treewidth import (
    _tops,
    heuristic_td,
    make_nice,
    td_to_lines,
    transform_td,
    validate_td,
)

from helpers import one_edge_target

FNC_TO_FN_R5 = "ac4806188d02691f60ee5db21fd7c4e9008bfccfd67e786bacae3d45a4e26660"
FNC_TO_FN_R5_NICE = "24f7573ebefcf6f3e2dafe53b6e199565d1823d2a602bd8e9860d321153a0a2c"
FN_TO_F_R1 = "a0dae76a779a976bfec076888fd83f35aa0afed6c2816be11d3ec540374425c6"


def digest(td):
    return hashlib.sha256(td_to_lines(td).encode()).hexdigest()


@pytest.fixture(scope="module")
def fn_to_f(stage_three):
    """The fn-to-f decomposition of stage 3, how many objects the
    collector tracks after building it that it did not before, and how
    many bytes tracemalloc traces to the build once it has returned."""
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        td = transform_td(stage_three.third, stage_three.nice)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    return td, len(gc.get_objects()) - before, held


def test_fnc_to_fn_output_and_its_nice_form_are_pinned():
    mmo = one_edge_target(1, 5)
    first = mmo_to_alliance(mmo)
    td = transform_td(first, heuristic_td(mmo.graph))
    td = transform_td(eliminate_pairs(first.result), td)
    assert len(td.nodes()) == 1776
    assert digest(td) == FNC_TO_FN_R5
    assert digest(make_nice(td)) == FNC_TO_FN_R5_NICE


def test_fn_to_f_output_is_pinned_and_valid(stage_three, fn_to_f):
    td, _tracked, _held = fn_to_f
    # one more node above each of the 3 chain anchors that are joins
    assert len(td.nodes()) == 183891
    assert digest(td) == FN_TO_F_R1
    result = stage_three.third.result
    assert not result.pairs  # so the primal graph is the graph itself
    verdict = validate_td(result.graph, td)
    assert verdict.ok, verdict.problems[:3]


def test_fn_to_f_width_bound(stage_three, fn_to_f):
    td, _tracked, _held = fn_to_f
    width, bound = td.width(), stage_three.nice.width() + 13
    assert width <= bound


def test_fn_to_f_leaves_the_collector_nothing_to_track(fn_to_f):
    # bags and tree are arrays, which the collector never tracks;
    # per-node sets or lists would add about 368,000
    _td, tracked, _held = fn_to_f
    assert tracked < 1000


def test_fn_to_f_holds_under_20_mb(fn_to_f):
    # 3,345,306 bag entries at 4 B and 183,891 nodes at 12 B; a tuple
    # per bag, with an int object per id, held 46.2 MB
    td, _tracked, held = fn_to_f
    assert len(td.nodes()) == 183891
    assert held < 20 * 2**20, "%.1f MB" % (held / 2**20)


def test_fn_to_f_output_shares_the_graph_table(stage_three, fn_to_f):
    # bag entries are the table's ids of their names
    td, _tracked, _held = fn_to_f
    graph = stage_three.third.result.graph
    assert td._order is graph.order
    order = graph.order
    assert all(u == order.find(order[u]) for n in td.nodes() for u in td._bag(n))


def test_validating_over_the_shared_table_makes_and_looks_up_no_names(
    stage_three, fn_to_f, monkeypatch
):
    td, _tracked, _held = fn_to_f
    graph = stage_three.third.result.graph

    def refuse(*args):
        raise AssertionError("validate made or looked up a vertex name")

    # every name lookup goes through find, and every name is made by a
    # table or a block
    for cls, method in (
        (VertexTable, "find"),
        (VertexTable, "__getitem__"),
        (VertexTable, "__iter__"),
        (VertexTable, "names"),
        (Block, "__getitem__"),
        (Block, "__iter__"),
    ):
        monkeypatch.setattr(cls, method, refuse)
    assert validate_td(graph, td).ok


def tree_instance(seed):
    """A seeded necessary-vertex instance on 5 to 8 vertices: a random
    tree with a few chords, some vertices necessary, some forbidden."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    verts = [VertexId("v%d" % i) for i in range(n)]
    edges = [(verts[i], verts[rng.randrange(i)]) for i in range(1, n)]
    edges += [
        e for e in itertools.combinations(verts, 2) if rng.random() < 0.15 and e not in edges
    ]
    shuffled = rng.sample(verts, n)
    necessary = shuffled[: rng.randint(1, n // 2)]
    rest = shuffled[len(necessary):]
    forbidden = rest[: rng.randint(0, len(rest) // 2)]
    return AllianceInstance(
        Graph(verts, edges), k=rng.randint(1, n), forbidden=forbidden, necessary=necessary
    )


SMALL_SOURCES = {
    "toy": lambda seed: random_necessary_toy(random.Random(seed)),
    "tree": tree_instance,
}

# (source, seed): (join anchors, nodes, width, digest) of the fn-to-f
# decomposition carried from the heuristic decomposition
FN_TO_F_SMALL = {
    ("toy", 0): (0, 7, 6, "86ab46f26aa4a27944591982b9ab23b68054bdbcde519358b10dd40b92ebd437"),
    ("toy", 1): (0, 3, 4, "afdefd463e3d96a328a17d3f7d07d6b2accf2887c6f5813a675ee1cdc4e8ed7a"),
    ("toy", 5): (0, 9, 4, "777654590a4a441d6b172d176d1123628aa09ab988d863d83de86e65cce3cfbb"),
    ("toy", 6): (1, 17, 9, "56eced88110b08b3daa3d4f58685c5430e78c9104ae205e090a8eec35bccb7dd"),
    ("toy", 7): (0, 9, 11, "67553c4c9353b618ee6bb537aa7d262b8f44affa295873ae3245d166c3882354"),
    ("toy", 10): (0, 13, 8, "490fcb528548eb89f779c0a926383d4208007019075d5b7f55ab9b790b8426a4"),
    ("tree", 0): (1, 133, 17, "97a23abb85abb1a0a4fe9f4be1d4a4ae3ec1cd1ae1e24a63f9db337c1822144b"),
    ("tree", 1): (0, 61, 13, "009d0ed8e68ae5132c01d320cd9532d0272c041acf6be534994e58ae4e4b6d10"),
    ("tree", 2): (1, 56, 14, "4b9748eeb368a1530f225fad5e1d677b428a3e22a84a18b48ea29f5550ec4bcc"),
    ("tree", 3): (0, 62, 12, "7eef03c61c99466befa8a2f1c5d1d7c4c79cbf36aff8dfea01620cf1e51c3f34"),
    ("tree", 4): (0, 51, 12, "450b7bd376a144e4a436a796e342dc24f5a8720085d62afbb50852f6e454161c"),
    ("tree", 5): (1, 98, 15, "943909d0aad103e1be3d0e03e5a4247ab04653b80dc34975e95a157ab5c74bdc"),
    ("tree", 6): (0, 37, 13, "cbc33bedb191016e700856bc9caa95b6b9f0fc89e25652ff9a7ac6a5d44c682c"),
    ("tree", 7): (2, 110, 16, "8c30e40a9a4f6db5c1a77b307801960e7dde630fd25a61881141843d712d7444"),
}


@pytest.mark.parametrize("case", sorted(FN_TO_F_SMALL), ids="%s-%d".__mod__)
def test_small_fn_to_f_outputs_are_pinned(case):
    source, seed = case
    instance = SMALL_SOURCES[source](seed)
    joins, nodes, width, pinned = FN_TO_F_SMALL[case]
    td = heuristic_td(instance.graph)
    stage, out = build_stage("fn-to-f", instance, td)
    nice = make_nice(td)
    first = _tops(nice)[0]
    anchors = [first[nice._order.find(u)] for u in stage.ordering]
    assert sum(nice.kind(x) == "join" for x in anchors) == joins
    assert (len(out.nodes()), out.width(), digest(out)) == (nodes, width, pinned)
    assert validate_td(stage.result.graph, out).ok
    assert width <= nice.width() + 13


def spliced_case(rng, members_below, threads_kind):
    """A chain of up to 12 links, its member and twin blocks at ids 100
    and 200 of 300, a shuffled base from outside both blocks, and
    threads of pairs from outside them too: in runs laid over bag
    spans, one new pair per bag, or, with spans, the chain's own first
    pair on every bag above the first."""
    length = rng.randint(1, 12)
    c, f = (100, 200) if members_below else (200, 100)
    links = [(c + i, f + i, c + i + 1, f + i + 1) for i in range(length)]
    outside = [i for i in range(300) if not (c <= i <= c + length or f <= i <= f + length)]
    drawn = rng.sample(outside, 40)
    base, others = tuple(drawn[:rng.randint(0, 12)]), drawn[12:]
    pairs = list(zip(others[::2], others[1::2]))
    threads = [()] * length
    if threads_kind == "per-bag":
        threads = pairs[:length]
    else:
        if threads_kind == "own-first":
            threads[1:] = [(c, f)] * (length - 1)
        for pair in pairs[:rng.randint(0, 3)]:
            lo = rng.randrange(length)
            hi = rng.randrange(lo, length)
            threads[lo:hi + 1] = [extra + pair for extra in threads[lo:hi + 1]]
    return base, links, threads


@pytest.mark.parametrize("members_below", [True, False], ids=["members-below", "members-above"])
@pytest.mark.parametrize("threads_kind", ["runs", "per-bag", "own-first"])
def test_spliced_bags_are_the_sorted_bags(members_below, threads_kind):
    rng = random.Random("%s-%s" % (members_below, threads_kind))
    for _ in range(200):
        base, links, threads = spliced_case(rng, members_below, threads_kind)
        # fnc-to-fn splices some chains top down
        for order in (slice(None), slice(None, None, -1)):
            assert [tuple(bag) for bag in _spliced(base, iter(links[order]), threads[order])] == [
                tuple(sorted(base + link + extra))
                for link, extra in zip(links[order], threads[order])
            ]


def gnp_graph(seed):
    """A seeded random graph on up to 30 vertices, of one of five
    densities: many vertices tie on their fill."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.8))
    verts = [VertexId("v%d" % i) for i in range(n)]
    return Graph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])


def drawn(draw):
    return lambda seed: primal_graph(draw(random.Random(seed)))


def chain_stage(seed):
    """Stage 1's primal graph (odd seeds) or stage 2's graph (even
    seeds) of the one-edge target with w = seed // 3 + 1, r = seed % 3 + 1."""
    w, r = divmod(seed, 3)
    first = mmo_to_alliance(one_edge_target(w + 1, r + 1)).result
    return primal_graph(first) if seed % 2 else eliminate_pairs(first).result.graph


# corpus: (its source, graphs, vertices in all, digest of the td_to_lines
# of each graph's heuristic_td in turn)
HEURISTIC_TD = {
    "gnp": (gnp_graph, 300, 4571,
            "5e92db46ebbc9a843307841677b1d59cb513e636cf236aaaaa98c969700306d5"),
    "plain": (drawn(random_plain_instance), 100, 625,
              "fd9c11026aaa12049d6321c210497b8f58028207367078b0bae09ee9c3ee7f2f"),
    "pair-toy": (drawn(random_pair_toy), 50, 100,
                 "43f27cc05c2313394745ee2f612892f8da7fb8965fe3e8bdecc74a32b3d05aa1"),
    "necessary-toy": (drawn(random_necessary_toy), 50, 98,
                      "0e6d22b6e0603ed79d0ab1e567d70fdee589676cb70a099bf6f3d011f3334792"),
    "forbidden-toy": (drawn(random_forbidden_toy), 50, 121,
                      "5c26490e3feabc35f6a8851ef68e821998e615a075a1778e266fe926de070f77"),
    "mmo": (lambda seed: random_mmo(random.Random(seed)).graph, 50, 151,
            "96132cec87358750e304ad013c9659d38052145aca17e03f88da4534133deed5"),
    "chain-stage": (chain_stage, 6, 5891,
                    "5a3ccfd5510924953a5ed8b0c948564af0d776d5bb1863a40e7cbbc623f487be"),
}


@pytest.mark.parametrize("corpus", sorted(HEURISTIC_TD))
def test_heuristic_decompositions_are_pinned(corpus):
    source, count, vertices, pinned = HEURISTIC_TD[corpus]
    graphs = [source(seed) for seed in range(count)]
    assert sum(len(g.order) for g in graphs) == vertices
    lines = "".join(td_to_lines(heuristic_td(g)) for g in graphs)
    assert hashlib.sha256(lines.encode()).hexdigest() == pinned


def test_heuristic_decomposition_of_a_stage_prefix_is_pinned():
    # the first 1,000 ids of the 13,191-vertex stage 2 of the w=3 r=3
    # target: a full rescan per elimination step took 3.4 s here
    first = mmo_to_alliance(one_edge_target(3, 3)).result
    graph = eliminate_pairs(first).result.graph
    assert len(graph.order) == 13191
    prefix = graph.induced(graph.order[:1000])
    td = heuristic_td(prefix)
    assert td.width() == 3
    assert digest(td) == "11238cd6b2aac65a44c646a693aa7aff4ac643f5a3e31f5ffc02e014bd04d074"
    assert validate_td(prefix, td).ok
    # bag entries are the table's ids of their names
    order = prefix.order
    assert all(u == order.find(order[u]) for n in td.nodes() for u in td._bag(n))
