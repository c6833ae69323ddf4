"""Minimum maximum outdegree: orient a weighted graph so that every
vertex sends out total weight at most r."""

import json

from ._record import record
from .graph import Graph, _Document, edge_key, is_integer

# reductions blow an instance up by a factor of the total weight, so
# keep sources at desk scale
TOTAL_WEIGHT_CAP = 1_000_000


def _weight_table(rows):
    """{canonical edge: weight} from (u, w, weight) rows; an edge may
    repeat only with the same weight."""
    norm = {}
    for u, w, value in rows:
        if not is_integer(value) or value < 1:
            raise ValueError("edge weight must be a positive integer, got %r" % (value,))
        key = edge_key(u, w)
        if norm.setdefault(key, value) != value:
            raise ValueError(
                "edge %s--%s is given weights %r and %r" % (key[0], key[1], norm[key], value)
            )
    return norm


@record
class MmoInstance:
    graph: Graph
    weights: dict
    r: int

    def __post_init__(self):
        norm = _weight_table((u, w, value) for (u, w), value in self.weights.items())
        if set(norm) != set(self.graph.edges):
            missing = sorted(set(self.graph.edges) - set(norm))
            extra = sorted(set(norm) - set(self.graph.edges))
            if missing:
                raise ValueError("edge %s--%s has no weight" % missing[0])
            raise ValueError("weight given for non-edge %s--%s" % extra[0])
        if sum(norm.values()) > TOTAL_WEIGHT_CAP:
            raise ValueError("total weight exceeds %d" % (TOTAL_WEIGHT_CAP,))
        if not is_integer(self.r) or self.r < 1:
            raise ValueError("target r must be a positive integer")
        object.__setattr__(self, "weights", norm)

    def weight(self, u, w):
        return self.weights[edge_key(u, w)]

    def __hash__(self):
        return hash((self.graph, tuple(sorted(self.weights.items())), self.r))


@record
class Orientation:
    """Maps each canonical edge to the ordered pair (tail, head)."""

    direction: dict

    def __post_init__(self):
        norm = {}
        for key, (tail, head) in self.direction.items():
            canon = edge_key(*key)
            if {tail, head} != {canon[0], canon[1]}:
                raise ValueError(
                    "direction (%s, %s) does not match edge %s--%s"
                    % (tail, head, canon[0], canon[1])
                )
            norm[canon] = (tail, head)
        object.__setattr__(self, "direction", norm)

    def tail(self, u, w):
        return self.direction[edge_key(u, w)][0]


def max_weighted_outdegree(instance, orientation):
    """Largest total weight leaving any single vertex."""
    if set(orientation.direction) != set(instance.graph.edges):
        raise ValueError("orientation must orient exactly the instance edges")
    out = {v: 0 for v in instance.graph.vertices}
    for edge, (tail, _head) in orientation.direction.items():
        out[tail] += instance.weights[edge]
    return max(out.values(), default=0)


def solve_mmo(instance):
    """Exhaustive search over all orientations; None when infeasible.

    The witness is deterministic: the first feasible orientation in the
    mask order of _orientations_within.
    """
    m = len(instance.graph.edges)
    if m > 25:
        raise ValueError("exhaustive search is limited to 25 edges, got %d" % (m,))
    return next(_orientations_within(instance, instance.r), None)


def orientations(instance):
    """Every orientation of the instance, in the mask order of
    solve_mmo."""
    return _orientations_within(instance, float("inf"))


def _orientations_within(instance, r):
    """The orientations whose weighted outdegrees are all at most r, in
    increasing mask order: edges are taken in sorted order, and bit i
    of a mask reverses edge i from its canonical direction."""
    edges = instance.graph.sorted_edges()
    weights = [instance.weights[e] for e in edges]
    for mask in range(1 << len(edges)):
        out = {}
        for i, (u, w) in enumerate(edges):
            tail = u if mask >> i & 1 == 0 else w
            out[tail] = out.get(tail, 0) + weights[i]
            if out[tail] > r:
                break
        else:
            yield Orientation({e: e[::-1] if mask >> i & 1 else e for i, e in enumerate(edges)})


def mmo_document(instance):
    """The JSON document of an orientation target, as the object to
    encode."""
    return {
        "vertices": [str(u) for u in instance.graph.sorted_vertices()],
        "edges": [
            [str(u), str(w), instance.weights[(u, w)]]
            for u, w in instance.graph.sorted_edges()
        ],
        "r": instance.r,
    }


def mmo_to_json(instance):
    return json.dumps(mmo_document(instance), indent=2) + "\n"


def mmo_from_json(text):
    """An orientation target from its document, given as JSON text or as
    the object it decodes to."""
    document = _Document(text)
    document.expect(("vertices", "edges", "r"))
    vertices = document.vertices("vertices", "vertex")
    rows = document.rows("edges", "edge", 3)
    r = document.integer("r")
    edges = [(u, w) for u, w, _weight in rows]
    return MmoInstance(Graph(vertices, edges), _weight_table(rows), r)
