"""Minimum maximum outdegree: orient a weighted graph so that every
vertex sends out total weight at most r."""

import json

from ._record import record
from .graph import Graph, edge_key, is_integer, parse_vertex

# reductions blow an instance up by a factor of the total weight, so
# keep sources at desk scale
TOTAL_WEIGHT_CAP = 1_000_000


@record
class MmoInstance:
    graph: Graph
    weights: dict
    r: int

    def __post_init__(self):
        norm = {}
        for (u, w), value in self.weights.items():
            if not is_integer(value) or value < 1:
                raise ValueError("edge weight must be a positive integer, got %r" % (value,))
            norm[edge_key(u, w)] = value
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

    The witness is deterministic: edges are tried in sorted order and
    the first feasible bitmask wins, where bit i reverses edge i from
    its canonical direction.
    """
    edges = instance.graph.sorted_edges()
    m = len(edges)
    if m > 25:
        raise ValueError("exhaustive search is limited to 25 edges, got %d" % (m,))
    weights = [instance.weights[e] for e in edges]
    for mask in range(1 << m):
        out = {}
        for i, (u, w) in enumerate(edges):
            tail = u if mask >> i & 1 == 0 else w
            out[tail] = out.get(tail, 0) + weights[i]
            if out[tail] > instance.r:
                break
        else:
            return _orientation(edges, mask)
    return None


def orientations(instance):
    """Every orientation of the instance, in the mask order of
    solve_mmo."""
    edges = instance.graph.sorted_edges()
    for mask in range(1 << len(edges)):
        yield _orientation(edges, mask)


def _orientation(edges, mask):
    """Bit i of mask reverses edges[i] from its canonical direction."""
    return Orientation(
        {
            e: (e[0], e[1]) if mask >> i & 1 == 0 else (e[1], e[0])
            for i, e in enumerate(edges)
        }
    )


def mmo_to_json(instance):
    payload = {
        "vertices": [str(u) for u in instance.graph.sorted_vertices()],
        "edges": [
            [str(u), str(w), instance.weights[(u, w)]]
            for u, w in instance.graph.sorted_edges()
        ],
        "r": instance.r,
    }
    return json.dumps(payload, indent=2) + "\n"


def mmo_from_json(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("invalid JSON: %s" % (exc,)) from None
    if not isinstance(payload, dict):
        raise ValueError("instance document must be a JSON object")
    for required in ("vertices", "edges", "r"):
        if required not in payload:
            raise ValueError("missing field: %s" % (required,))
    for field in ("vertices", "edges"):
        if not isinstance(payload[field], list):
            raise ValueError("field %r must be a list" % (field,))
    try:
        vertices = [parse_vertex(x) for x in payload["vertices"]]
    except (TypeError, ValueError) as exc:
        raise ValueError("bad vertex list: %s" % (exc,)) from None
    weights = {}
    edges = []
    for i, item in enumerate(payload["edges"]):
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError("edge %d must be a [u, v, weight] triple" % (i,))
        u, w, value = item
        try:
            uu, ww = parse_vertex(u), parse_vertex(w)
        except (TypeError, ValueError) as exc:
            raise ValueError("edge %d: %s" % (i, exc)) from None
        edges.append((uu, ww))
        weights[(uu, ww)] = value
    if not is_integer(payload["r"]):
        raise ValueError("field 'r' must be an integer")
    return MmoInstance(Graph(vertices, edges), weights, payload["r"])
