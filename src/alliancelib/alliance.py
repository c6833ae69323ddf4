"""Alliance problem instances and the defensive alliance predicate.

A candidate set S is a defensive alliance when every member has at
least as many closed neighbors inside S as outside, i.e. each member
can pair off its attackers with distinct defenders. Instances add a
spending limit k plus optional constraint sets: forbidden vertices can
never be picked, necessary vertices always must be, and each
complementary pair contributes exactly one endpoint.
"""

import json
import warnings
from dataclasses import dataclass

from .graph import Graph, edge_key, is_integer, parse_vertex

MODES = ("at-most", "exact")


@dataclass(frozen=True)
class AllianceVerdict:
    """Outcome of the alliance check; violators lists every member that
    cannot pair off its attackers."""

    ok: bool
    violators: frozenset

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Defense:
    """Witness that vertex survives: an injective map from its attackers
    (closed neighbors outside the set) to defenders (inside)."""

    vertex: object
    assignment: dict

    def __post_init__(self):
        values = list(self.assignment.values())
        if len(set(values)) != len(values):
            raise ValueError("defense assignment must be injective")


@dataclass(frozen=True)
class AllianceInstance:
    graph: Graph
    k: int
    forbidden: frozenset = frozenset()
    necessary: frozenset = frozenset()
    pairs: frozenset = frozenset()
    mode: str = "at-most"

    def __post_init__(self):
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        object.__setattr__(self, "necessary", frozenset(self.necessary))
        object.__setattr__(self, "pairs", frozenset(edge_key(a, b) for a, b in self.pairs))
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        if not is_integer(self.k) or self.k < 0:
            raise ValueError("k must be a non-negative integer")
        if self.k == 0 and self.mode == "at-most":
            raise ValueError("k = 0 leaves no room for a nonempty set in at-most mode")
        for name, group in (("forbidden", self.forbidden), ("necessary", self.necessary)):
            for u in group:
                if u not in self.graph.vertices:
                    raise ValueError("%s vertex %s is not in the graph" % (name, u))
        overlap = self.forbidden & self.necessary
        if overlap:
            raise ValueError(
                "vertex %s is both forbidden and necessary" % (sorted(overlap)[0],)
            )
        for a, b in self.pairs:
            for u in (a, b):
                if u not in self.graph.vertices:
                    raise ValueError("pair vertex %s is not in the graph" % (u,))
                if u in self.forbidden:
                    raise ValueError("pair vertex %s is forbidden" % (u,))
        shared = self.pairs & self.graph.edges
        if shared:
            warnings.warn(
                "%d complementary pair(s) coincide with graph edges; they are "
                "kept and collapse in the primal graph" % (len(shared),),
                stacklevel=2,
            )

    @property
    def variant(self):
        """Constraint profile: FNC with pairs, FN with necessary vertices,
        F with only forbidden ones, plain otherwise."""
        if self.pairs:
            return "FNC"
        if self.necessary:
            return "FN"
        if self.forbidden:
            return "F"
        return "plain"


def is_defensive_alliance(graph, candidate):
    """Check the counting condition at every member of candidate."""
    candidate = frozenset(candidate)
    index, first, adjacent = graph.index, graph.first, graph.adjacent
    members = []
    for u in candidate:
        i = index.get(u)
        if i is None:
            raise ValueError("candidate vertex %s is not in the graph" % (u,))
        members.append(i)
    inside = bytearray(len(index))
    for i in members:
        inside[i] = 1
    violators = []
    for i in members:
        lo, hi = first[i], first[i + 1]
        # the closed neighbourhood has hi - lo + 1 vertices, the member
        # itself and the neighbours marked inside among them
        if 2 * (1 + sum(map(inside.__getitem__, adjacent[lo:hi]))) < hi - lo + 1:
            violators.append(graph.order[i])
    violators = frozenset(violators)
    return AllianceVerdict(not violators, violators)


def construct_defense(graph, candidate, vertex):
    """Injective attacker-to-defender map for vertex, or None.

    None is returned exactly when the vertex is outnumbered, so a
    candidate is a defensive alliance iff every member gets a defense.
    """
    candidate = frozenset(candidate)
    if vertex not in candidate:
        raise ValueError("vertex %s is not in the candidate set" % (vertex,))
    closed = graph.closed_neighborhood(vertex)
    attackers = sorted(closed - candidate)
    defenders = sorted(closed & candidate)
    if len(attackers) > len(defenders):
        return None
    return Defense(vertex, dict(zip(attackers, defenders)))


def solution_problems(instance, candidate):
    """Why candidate is no solution, as a list of reasons: size, then
    forbidden, necessary, pairs and outnumbered members. Empty exactly
    when it is one; only the reasons found are sorted."""
    candidate = frozenset(candidate)
    verdict = is_defensive_alliance(instance.graph, candidate)
    problems = []
    size = len(candidate)
    if instance.mode == "exact":
        if size != instance.k:
            problems.append("size %d is not exactly k=%d" % (size, instance.k))
        elif not size:
            problems.append("the empty set is not a solution")
    elif not 1 <= size <= instance.k:
        problems.append("size %d is outside 1..%d" % (size, instance.k))
    hit = candidate & instance.forbidden
    if hit:
        problems.append(
            "forbidden vertices selected: %s" % ", ".join(map(str, sorted(hit)))
        )
    missing = instance.necessary - candidate
    if missing:
        problems.append(
            "necessary vertices missing: %s" % ", ".join(map(str, sorted(missing)))
        )
    unsplit = [(a, b) for a, b in instance.pairs if (a in candidate) == (b in candidate)]
    for a, b in sorted(unsplit):
        problems.append("pair %s/%s is not split" % (a, b))
    for u in sorted(verdict.violators):
        problems.append("vertex %s is outnumbered" % (u,))
    return problems


def is_solution(instance, candidate):
    """Solution test: size within budget, constraints met, alliance holds."""
    return not solution_problems(instance, candidate)


def primal_graph(instance):
    """Instance graph with every complementary pair added as an edge;
    the instance graph itself when there are no pairs."""
    graph = instance.graph
    if not instance.pairs:
        return graph
    n, index, first, adjacent = len(graph.order), graph.index, graph.first, graph.adjacent
    keys = [i * n + j for i in range(n) for j in adjacent[first[i]:first[i + 1]] if j > i]
    keys += [index[a] * n + index[b] for a, b in instance.pairs]
    return Graph._from_keys(graph.order, keys)


def instance_to_json(instance):
    payload = {
        "vertices": [str(u) for u in instance.graph.sorted_vertices()],
        "edges": [[str(u), str(w)] for u, w in instance.graph.sorted_edges()],
        "k": instance.k,
        "forbidden": [str(u) for u in sorted(instance.forbidden)],
        "necessary": [str(u) for u in sorted(instance.necessary)],
        "pairs": [
            [str(a), str(b)]
            for a, b in sorted(instance.pairs)
        ],
        "mode": instance.mode,
    }
    return json.dumps(payload, indent=2) + "\n"


def _parse_vertex_field(raw, context):
    if not isinstance(raw, str):
        raise ValueError("%s: expected a vertex name, got %r" % (context, raw))
    try:
        return parse_vertex(raw)
    except ValueError as exc:
        raise ValueError("%s: %s" % (context, exc)) from None


def _parse_vertex_list(raw, field, item):
    if not isinstance(raw, list):
        raise ValueError("field %r must be a list" % (field,))
    return [_parse_vertex_field(x, "%s %d" % (item, i)) for i, x in enumerate(raw)]


def _parse_vertex_pairs(raw, what):
    if not isinstance(raw, list):
        raise ValueError("field %r must be a list" % (what,))
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError("%s %d must be a [u, v] pair" % (what, i))
        out.append(
            (
                _parse_vertex_field(item[0], "%s %d" % (what, i)),
                _parse_vertex_field(item[1], "%s %d" % (what, i)),
            )
        )
    return out


def instance_from_json(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("invalid JSON: %s" % (exc,)) from None
    if not isinstance(payload, dict):
        raise ValueError("instance document must be a JSON object")
    for required in ("vertices", "edges", "k"):
        if required not in payload:
            raise ValueError("missing field: %s" % (required,))
    vertices = _parse_vertex_list(payload["vertices"], "vertices", "vertex")
    edges = _parse_vertex_pairs(payload["edges"], "edge")
    k = payload["k"]
    if not is_integer(k):
        raise ValueError("field 'k' must be an integer")
    graph = Graph(vertices, edges)
    forbidden = _parse_vertex_list(payload.get("forbidden", []), "forbidden", "forbidden")
    necessary = _parse_vertex_list(payload.get("necessary", []), "necessary", "necessary")
    pairs = _parse_vertex_pairs(payload.get("pairs", []), "pair")
    mode = payload.get("mode", "at-most")
    return AllianceInstance(
        graph,
        k=k,
        forbidden=frozenset(forbidden),
        necessary=frozenset(necessary),
        pairs=frozenset(pairs),
        mode=mode,
    )
