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
from array import array
from dataclasses import dataclass

from .graph import Graph, VertexSet, _holds, _linked, edge_key, is_integer, parse_vertex

MODES = ("at-most", "exact")

# the reduction chain's stages in chain order; kept here, beside the
# instances they produce, so that the command-line parser can offer them
# without loading the reductions
STAGE_TAGS = ("mmo-to-fnc", "fnc-to-fn", "fn-to-f", "f-to-plain")


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


def _vertex_set(graph, group, what):
    """group as a VertexSet over the graph's table. A VertexSet over
    that table is checked by its id range, any other group name by
    name."""
    table = graph.order
    if isinstance(group, VertexSet) and group.table is table:
        ids = group.ids
        if ids and not (ids[0] >= 0 and ids[-1] < len(table)):
            raise ValueError("%s vertex ids fall outside the graph" % (what,))
        return group
    ids = set()
    for u in group:
        i = table.find(u)
        if i is None:
            raise ValueError("%s vertex %s is not in the graph" % (what, u))
        ids.add(i)
    return VertexSet(table, array("i", sorted(ids)))


def _pair(a, b):
    if a == b:
        raise ValueError("pair %s/%s has equal endpoints" % (a, b))
    return edge_key(a, b)


@dataclass(frozen=True)
class AllianceInstance:
    """An alliance problem. forbidden and necessary may be given as any
    collections of vertices; they are kept as VertexSets over the
    graph's table, which compare and hash like frozensets."""

    graph: Graph
    k: int
    forbidden: frozenset = frozenset()
    necessary: frozenset = frozenset()
    pairs: frozenset = frozenset()
    mode: str = "at-most"

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(_pair(a, b) for a, b in self.pairs))
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        if not is_integer(self.k) or self.k < 0:
            raise ValueError("k must be a non-negative integer")
        if self.k == 0 and self.mode == "at-most":
            raise ValueError("k = 0 leaves no room for a nonempty set in at-most mode")
        for name in ("forbidden", "necessary"):
            object.__setattr__(self, name, _vertex_set(self.graph, getattr(self, name), name))
        # the first shared id in id order names the least shared vertex
        small, large = sorted((self.forbidden.ids, self.necessary.ids), key=len)
        both = next((i for i in small if _holds(large, i)), None)
        if both is not None:
            raise ValueError(
                "vertex %s is both forbidden and necessary" % (self.graph.order[both],)
            )
        graph = self.graph
        shared = 0
        for pair in self.pairs:
            ids = []
            for u in pair:
                i = graph.order.find(u)
                if i is None:
                    raise ValueError("pair vertex %s is not in the graph" % (u,))
                if _holds(self.forbidden.ids, i):
                    raise ValueError("pair vertex %s is forbidden" % (u,))
                ids.append(i)
            shared += _linked(graph.first, graph.adjacent, *ids)
        if shared:
            warnings.warn(
                "%d complementary pair(s) coincide with graph edges; they are "
                "kept and collapse in the primal graph" % (shared,),
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


def _members(graph, candidate):
    """The ids of the candidate's vertices, and a bytearray over the ids
    that marks them. A VertexSet over the graph's table gives its own
    ids; any other candidate is looked up name by name."""
    if isinstance(candidate, VertexSet) and candidate.table is graph.order:
        members = candidate.ids
    else:
        find = graph.order.find
        members = []
        for u in frozenset(candidate):
            i = find(u)
            if i is None:
                raise ValueError("candidate vertex %s is not in the graph" % (u,))
            members.append(i)
    inside = bytearray(len(graph.order))
    for i in members:
        inside[i] = 1
    return members, inside


def _verdict(graph, members, inside):
    first, adjacent = graph.first, graph.adjacent
    violators = []
    for i in members:
        lo, hi = first[i], first[i + 1]
        # the closed neighbourhood has hi - lo + 1 vertices, the member
        # itself and the neighbours marked inside among them
        if 2 * (1 + sum(map(inside.__getitem__, adjacent[lo:hi]))) < hi - lo + 1:
            violators.append(graph.order[i])
    violators = frozenset(violators)
    return AllianceVerdict(not violators, violators)


def is_defensive_alliance(graph, candidate):
    """Check the counting condition at every member of candidate."""
    return _verdict(graph, *_members(graph, candidate))


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
    graph = instance.graph
    members, inside = _members(graph, candidate)
    verdict = _verdict(graph, members, inside)
    problems = []
    size = len(members)
    if instance.mode == "exact":
        if size != instance.k:
            problems.append("size %d is not exactly k=%d" % (size, instance.k))
        elif not size:
            problems.append("the empty set is not a solution")
    elif not 1 <= size <= instance.k:
        problems.append("size %d is outside 1..%d" % (size, instance.k))
    # ids follow name order, so these come out sorted
    order = graph.order
    hit = [order[i] for i in instance.forbidden.ids if inside[i]]
    if hit:
        problems.append("forbidden vertices selected: %s" % ", ".join(map(str, hit)))
    missing = [order[i] for i in instance.necessary.ids if not inside[i]]
    if missing:
        problems.append("necessary vertices missing: %s" % ", ".join(map(str, missing)))
    find = order.find
    unsplit = [(a, b) for a, b in instance.pairs if inside[find(a)] == inside[find(b)]]
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
    n, find, first, adjacent = len(graph.order), graph.order.find, graph.first, graph.adjacent
    keys = [i * n + j for i in range(n) for j in adjacent[first[i]:first[i + 1]] if j > i]
    keys += [find(a) * n + find(b) for a, b in instance.pairs]
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


def _parse_vertex_pairs(raw, field, item):
    if not isinstance(raw, list):
        raise ValueError("field %r must be a list" % (field,))
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError("%s %d must be a [u, v] pair" % (item, i))
        context = "%s %d" % (item, i)
        out.append(tuple(_parse_vertex_field(x, context) for x in entry))
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
    edges = _parse_vertex_pairs(payload["edges"], "edges", "edge")
    k = payload["k"]
    if not is_integer(k):
        raise ValueError("field 'k' must be an integer")
    graph = Graph(vertices, edges)
    forbidden = _parse_vertex_list(payload.get("forbidden", []), "forbidden", "forbidden")
    necessary = _parse_vertex_list(payload.get("necessary", []), "necessary", "necessary")
    pairs = _parse_vertex_pairs(payload.get("pairs", []), "pairs", "pair")
    mode = payload.get("mode", "at-most")
    return AllianceInstance(
        graph,
        k=k,
        forbidden=frozenset(forbidden),
        necessary=frozenset(necessary),
        pairs=frozenset(pairs),
        mode=mode,
    )
