"""Seeded random instances for audits and benchmarks.

Every generator takes a random.Random so corpora are reproducible from
a single seed. The toy generators keep their outputs to at most
FREE_VERTEX_LIMIT free vertices after the matching reduction stage, so
that audits can enumerate every solution on both sides; the bound
arithmetic mirrors the stage size formulas.
"""

import itertools

from .alliance import AllianceInstance
from .graph import Graph, VertexId
from .mmo import MmoInstance

_NAMES = "abcdefghijklmnopqrstuvwxyz"

FREE_VERTEX_LIMIT = 22


def _vertices(count):
    return [VertexId(_NAMES[i]) for i in range(count)]


def random_graph(rng, max_vertices=10):
    """Erdos-Renyi style graph with a randomized edge density."""
    n = rng.randint(1, max_vertices)
    verts = _vertices(n)
    density = rng.uniform(0.2, 0.7)
    edges = [
        (u, w)
        for u, w in itertools.combinations(verts, 2)
        if rng.random() < density
    ]
    return Graph(verts, edges)


def random_mmo(rng, max_vertices=4, max_edges=5, max_weight=3, max_target=4):
    n = rng.randint(2, max_vertices)
    verts = _vertices(n)
    candidates = list(itertools.combinations(verts, 2))
    count = rng.randint(1, min(max_edges, len(candidates)))
    edges = rng.sample(candidates, count)
    weights = {e: rng.randint(1, max_weight) for e in edges}
    return MmoInstance(Graph(verts, edges), weights, r=rng.randint(1, max_target))


def random_pair_toy(rng):
    """Smallest pair-constrained shape: two vertices, one pair."""
    a, b = _vertices(2)
    return AllianceInstance(
        Graph([a, b], []),
        k=rng.randint(1, 2),
        pairs=[(a, b)],
        mode=rng.choice(("at-most", "exact")),
    )


def random_necessary_toy(rng):
    """Pair-free instance with a necessary core, sized so the output of
    the necessary-elimination stage stays within FREE_VERTEX_LIMIT."""
    while True:
        n = rng.randint(1, 3)
        verts = _vertices(n)
        edges = [
            (u, w)
            for u, w in itertools.combinations(verts, 2)
            if rng.random() < 0.5
        ]
        shuffled = rng.sample(verts, n)
        necessary = shuffled[: rng.randint(1, n)]
        rest = shuffled[len(necessary):]
        forbidden = rest[: rng.randint(0, len(rest))]
        open_count = n - len(necessary) - len(forbidden)
        free_after = (
            n
            + 3 * open_count
            + (len(necessary) + 2 * open_count) * (n + 1)
        )
        if free_after > FREE_VERTEX_LIMIT:
            continue
        return AllianceInstance(
            Graph(verts, edges),
            k=rng.randint(1, n),
            forbidden=forbidden,
            necessary=necessary,
            mode=rng.choice(("at-most", "exact")),
        )


def random_forbidden_toy(rng):
    """Forbidden-only (occasionally plain) instance whose fan gadgets
    keep the eliminated form within FREE_VERTEX_LIMIT."""
    while True:
        n = rng.randint(1, 4)
        k = rng.randint(1, 2)
        verts = _vertices(n)
        edges = [
            (u, w)
            for u, w in itertools.combinations(verts, 2)
            if rng.random() < 0.5
        ]
        forbidden = rng.sample(verts, rng.randint(0, n))
        if n + len(forbidden) * (2 * k + 1) > FREE_VERTEX_LIMIT:
            continue
        return AllianceInstance(
            Graph(verts, edges),
            k=k,
            forbidden=forbidden,
            mode=rng.choice(("at-most", "exact")),
        )


def random_plain_instance(rng, max_vertices=12):
    graph = random_graph(rng, max_vertices)
    return AllianceInstance(graph, k=rng.randint(1, len(graph.vertices)))
