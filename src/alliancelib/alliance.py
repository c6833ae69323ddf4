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
from bisect import bisect_left
from itertools import chain, compress
from operator import lt, sub

from ._record import record
from .graph import (
    Graph, VertexSet, _Document, _edge_keys, _holds, _linked, _tally, edge_key, is_integer,
)

MODES = ("at-most", "exact")

# the reduction chain's stages in chain order; kept here, beside the
# instances they produce, so that the command-line parser can offer them
# without loading the reductions
STAGE_TAGS = ("mmo-to-fnc", "fnc-to-fn", "fn-to-f", "f-to-plain")
# each stage grows an instance by orders of magnitude; past this vertex
# count a chain stage is only counted, never built
MATERIALIZE_CAP = 4000


@record
class AllianceVerdict:
    """Outcome of the alliance check; violators lists every member that
    cannot pair off its attackers."""

    ok: bool
    violators: frozenset

    def __bool__(self):
        return self.ok


@record
class Defense:
    """Witness that vertex survives: an injective map from its attackers
    (closed neighbors outside the set) to defenders (inside)."""

    vertex: object
    assignment: dict

    def __post_init__(self):
        values = list(self.assignment.values())
        if len(set(values)) != len(values):
            raise ValueError("defense assignment must be injective")


def _find_all(table, names, what):
    """The ids of names, a frozenset, in table; the least name
    the table lacks is reported, whatever the set's hash order."""
    ids = list(map(table.find, names))
    if None in ids:
        unknown = min(u for u, i in zip(names, ids) if i is None)
        raise ValueError("%s vertex %s is not in the graph" % (what, unknown))
    return ids


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
    return VertexSet(table, array("i", sorted(_find_all(table, frozenset(group), what))))


def _pair(a, b):
    if a == b:
        raise ValueError("pair %s/%s has equal endpoints" % (a, b))
    return edge_key(a, b)


@record
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
        if self.pairs:
            # every pair vertex is looked up at once, so that the least
            # unknown one, and then the least forbidden one, is named
            # whatever the hash order of the pairs
            ends = frozenset(chain.from_iterable(self.pairs))
            ids = dict(zip(ends, _find_all(graph.order, ends, "pair")))
            bad = [i for i in ids.values() if _holds(self.forbidden.ids, i)]
            if bad:
                raise ValueError("pair vertex %s is forbidden" % (graph.order[min(bad)],))
            shared = sum(_linked(graph.first, graph.adjacent, ids[a], ids[b]) for a, b in self.pairs)
        if shared:
            warnings.warn(
                "%d complementary pair(s) coincide with graph edges; they are "
                "kept and collapse in the primal graph" % (shared,),
                # past __post_init__ and the generated __init__, to the
                # line that made the instance
                stacklevel=3,
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


def _verdict(graph, candidate):
    """The ids of the candidate's vertices, sorted, their runs, and the
    names of those that cannot pair off their attackers, in id order.
    A member with c of its d neighbours inside holds when
    2 * (1 + c) >= d + 1, that is when 2 * c + 1 >= d. One _tally pass
    per run of members, not per member, takes margin from 1 to
    2 * c + 1, and the members of a run are tested against their
    degrees over slices of the run."""
    members = _vertex_set(graph, candidate, "candidate").ids
    first, order = graph.first, graph.order
    margin = [1] * len(order)
    runs = _tally(graph, members, margin, 2)
    return members, runs, [
        order[i] for start, stop in runs for i in compress(range(start, stop), map(
            lt, margin[start:stop], map(sub, first[start + 1:stop + 1], first[start:stop])
        ))
    ]


def is_defensive_alliance(graph, candidate):
    """Check the counting condition at every member of candidate."""
    violators = frozenset(_verdict(graph, candidate)[2])
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
    graph = instance.graph
    members, runs, violators = _verdict(graph, candidate)
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
    forbidden = instance.forbidden.ids
    hit = [
        order[i] for start, stop in runs
        for i in forbidden[bisect_left(forbidden, start):bisect_left(forbidden, stop)]
    ]
    if hit:
        problems.append("forbidden vertices selected: %s" % ", ".join(map(str, hit)))
    missing = [order[i] for i in instance.necessary.ids if not _holds(members, i)]
    if missing:
        problems.append("necessary vertices missing: %s" % ", ".join(map(str, missing)))
    find = order.find
    unsplit = [(a, b) for a, b in instance.pairs if _holds(members, find(a)) == _holds(members, find(b))]
    for a, b in sorted(unsplit):
        problems.append("pair %s/%s is not split" % (a, b))
    for u in violators:
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
    n, find = len(graph.order), graph.order.find
    keys = _edge_keys(graph, graph.order.ids, n)
    # a pair is stored as (a, b) with a < b, and ids follow name order
    keys += [find(a) * n + find(b) for a, b in instance.pairs]
    return Graph._from_keys(graph.order, keys)


def instance_document(instance):
    """The JSON document of an instance, as the object to encode."""
    return {
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


def instance_to_json(instance):
    return json.dumps(instance_document(instance), indent=2) + "\n"


def instance_from_json(text):
    """An alliance instance from its document, given as JSON text or as
    the object it decodes to."""
    document = _Document(text)
    document.expect(("vertices", "edges", "k"), ("forbidden", "necessary", "pairs", "mode"))
    vertices = document.vertices("vertices", "vertex")
    edges = document.rows("edges", "edge")
    k = document.integer("k")
    return AllianceInstance(
        Graph(vertices, edges),
        k=k,
        forbidden=document.vertices("forbidden", "forbidden"),
        necessary=document.vertices("necessary", "necessary"),
        pairs=document.rows("pairs", "pair"),
        mode=document.get("mode", "at-most"),
    )
