"""The adjacency arrays of stage graphs pinned by digest: the one-edge
chain targets at full size, stages 1-2 of every small chain target and
each stage builder on seeded toys.

Each digest is the SHA-256 of first.tobytes() + adjacent.tobytes(), so
it pins every row's degree and its neighbours in order; for a corpus,
one digest runs over the graphs in turn.
"""

import hashlib
import itertools
import random

import pytest

from alliancelib.gen import (
    random_forbidden_toy,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
)
from alliancelib.graph import _FILL_VERTICES, Graph, VertexId
from alliancelib.mmo import MmoInstance
from alliancelib.reductions import (
    STAGE_KINDS,
    build_stage,
    eliminate_forbidden,
    eliminate_necessary_auto,
    eliminate_pairs,
    mmo_to_alliance,
)

from helpers import one_edge_target

ONE_EDGE_W1_R1 = {
    "mmo-to-fnc": "cbb79575532e6e2c228736504f27e145a8ccc6d39c1d2fc9ceb7f2b17ebab2dd",
    "fnc-to-fn": "4c17f63591e0ee9d75135d476cb0ed7ca8d8550831eae99837e126cfbdc89981",
    "fn-to-f": "1d75d6aa639d84c2523924d84b6d054e07cc8090620ae02336b6cf26dada99c4",
}
ONE_EDGE_W1_R2_STAGE_3 = "75719e2914edf5cb4b90deb5c8908ba914af211af8ad266157862e2d35421920"
CHAIN_SOURCES = "61740ffabcb45b229405dd3619ad4e33fe350ec8f6ad09ce63318bd5e7ce917b"
TOYS = {
    "mmo-to-fnc": "f585e7159337dfc8a44faa9a89d91772130bb755409d62c0bd031eb042b12da8",
    "fnc-to-fn": "4043e78a3deb3c44db0176eefffcf2d3d9175b3cfc6d00186cfe3696ce53c6d4",
    "fn-to-f": "54fed290d6742d1b0cfb269e0b67622f16476fe46f11fd18bbee523caaf70bea",
    "f-to-plain": "65595be5cfd6bd3a2fb77ec2270395ff817667dff7ec0192e2a343e2fc40d2f7",
}

# the fewest vertices of a graph whose families the fill writes. The
# default sends the larger fnc-to-fn toys and chain stage 2s through the
# fill and the rest key by key; with 0 every build with a family goes
# through the fill, and with 10**9, above every graph here, every build
# goes key by key
FILL_VERTICES = [
    pytest.param(_FILL_VERTICES, id="default"),
    pytest.param(0, id="fill"),
    pytest.param(10**9, id="keys"),
]


def arrays(graph):
    return graph.first.tobytes() + graph.adjacent.tobytes()


def digest(graphs):
    h = hashlib.sha256()
    for graph in graphs:
        h.update(arrays(graph))
    return h.hexdigest()


def test_one_edge_w1_r1_stages_are_pinned(stage_three):
    graphs = {
        "mmo-to-fnc": stage_three.second.source.graph,
        "fnc-to-fn": stage_three.second.result.graph,
        "fn-to-f": stage_three.third.result.graph,
    }
    assert {tag: digest([g]) for tag, g in graphs.items()} == ONE_EDGE_W1_R1


def test_one_edge_w1_r2_stage_3_is_pinned():
    source = one_edge_target(1, 2)
    for tag in ("mmo-to-fnc", "fnc-to-fn", "fn-to-f"):
        stage, _td = build_stage(tag, source)
        source = stage.result
    assert len(source.graph.order) == 1727451
    assert digest([source.graph]) == ONE_EDGE_W1_R2_STAGE_3


# the edge shapes on at most three vertices
SHAPES = (((0, 1),), ((0, 1),), ((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2)))
SHAPE_VERTICES = (2, 3, 3, 3)


def _two_stage_vertices(n, m, weight, r):
    stats = {"vertices": n, "edges": m, "weight": weight, "r": r}
    stats = STAGE_KINDS["mmo-to-fnc"].counts(stats)
    return STAGE_KINDS["fnc-to-fn"].counts(stats)["vertices"]


def chain_targets(cap):
    """Every labelled orientation target on a shape above, vertices
    a, b, c, whose two-stage output has at most cap vertices: a
    superset of the chain benchmark's sources, which keep one per
    isomorphism class. Sizes grow with r and the total weight."""
    for n, edges in zip(SHAPE_VERTICES, SHAPES):
        names = [VertexId(x) for x in "abc"[:n]]
        pairs = [(names[u], names[w]) for u, w in edges]
        m = len(edges)
        for r in itertools.count(1):
            if _two_stage_vertices(n, m, m, r) > cap:
                break
            for total in itertools.count(m):
                if _two_stage_vertices(n, m, total, r) > cap:
                    break
                for weights in itertools.product(range(1, total + 1), repeat=m):
                    if sum(weights) == total:
                        yield MmoInstance(Graph(names, pairs), dict(zip(pairs, weights)), r)


@pytest.mark.parametrize("fill_vertices", FILL_VERTICES)
def test_chain_targets_stages_1_and_2_are_pinned(monkeypatch, fill_vertices):
    monkeypatch.setattr("alliancelib.graph._FILL_VERTICES", fill_vertices)
    graphs = []
    for mmo in chain_targets(4000):
        first = mmo_to_alliance(mmo)
        graphs += [first.result.graph, eliminate_pairs(first.result).result.graph]
    assert len(graphs) == 24
    assert digest(graphs) == CHAIN_SOURCES


TOY_BUILDS = {
    "mmo-to-fnc": lambda rng: mmo_to_alliance(random_mmo(rng)),
    # the pair toys and the stage-1 outputs of orientation toys, whose
    # chain families run past a few dozen members
    "fnc-to-fn": lambda rng: eliminate_pairs(
        random_pair_toy(rng) if rng.random() < 0.8 else mmo_to_alliance(
            random_mmo(rng, max_vertices=3, max_edges=2, max_weight=2, max_target=1)
        ).result
    ),
    "fn-to-f": lambda rng: eliminate_necessary_auto(random_necessary_toy(rng)),
    "f-to-plain": lambda rng: eliminate_forbidden(random_forbidden_toy(rng)),
}


@pytest.mark.parametrize("fill_vertices", FILL_VERTICES)
@pytest.mark.parametrize("tag", sorted(TOY_BUILDS))
def test_stage_builders_on_seeded_toys_are_pinned(monkeypatch, tag, fill_vertices):
    monkeypatch.setattr("alliancelib.graph._FILL_VERTICES", fill_vertices)
    rng = random.Random(2301)
    graphs = [TOY_BUILDS[tag](rng).result.graph for _ in range(300)]
    assert digest(graphs) == TOYS[tag]
