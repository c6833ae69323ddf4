"""The four-stage reduction chain from weighted orientation feasibility
down to plain defensive alliance.

Each stage turns one constraint family into graph structure: the
orientation stage encodes edge directions as complementary pairs,
eliminate_pairs trades pairs for chain gadgets, eliminate_necessary
trades the necessary set for chain-linked anchor gadgets, and
eliminate_forbidden prices forbidden vertices out with leaf fans. A
stage records its gadget vertices so solutions can be lifted forward
and projected back without re-deriving names, and its size function
maps solution sizes across the stage.

A stage builds its output from a layout (_Layout): one block of names
per input vertex or singleton gadget, and one per gadget family, the
names that share base, decoration and partner with indices 1..m.
Sorted by their first names, the blocks give each vertex its id by
arithmetic, the gadget tables are the blocks' name tuples, and every
edge is emitted as an int key i * n + j over those ids; runs of
chain edges are ranges. An input vertex whose name a gadget of the
stage would also take is rejected rather than merged.
"""

from dataclasses import dataclass

from .alliance import AllianceInstance, is_solution
from .graph import Graph, VertexId, _family
from .mmo import Orientation
from .treewidth import postorder_ordering

STAGE_TAGS = ("mmo-to-fnc", "fnc-to-fn", "fn-to-f", "f-to-plain")


@dataclass(frozen=True, eq=False)
class MmoGadgets:
    helper: dict
    edge_copy: dict
    edge_copy_forbidden: dict


@dataclass(frozen=True, eq=False)
class PairGadgets:
    y_chain: dict
    y_chain_forbidden: dict
    z_hub: dict
    z_chain: dict
    z_chain_forbidden: dict
    triangle: dict


@dataclass(frozen=True, eq=False)
class NecessaryGadgets:
    a_chain: dict
    a_chain_forbidden: dict
    primed: dict
    g_vertex: dict
    h_vertex: dict
    g_forbidden: dict
    h_forbidden: dict


@dataclass(frozen=True, eq=False)
class ForbiddenGadgets:
    fan_hub: dict
    fan_leaves: dict


@dataclass(frozen=True, eq=False)
class ReductionStage:
    tag: str
    source: object
    result: AllianceInstance
    gadgets: object
    size_fn: object
    ordering: tuple = None


def _identity(x):
    return x


def _affine(scale, shift):
    def size(x):
        return scale * x + shift

    return size


class _Block:
    """A run of names of a stage result, in sorted order; start is the
    id of its first name once the layout is placed."""

    __slots__ = ("names", "start")

    def __init__(self, names):
        self.names = names
        self.start = 0


def _first_name(block):
    return block.names[0]


class _Layout:
    """The vertex names of a stage result, laid out in blocks so that
    every id follows by arithmetic.

    A block is one input vertex, one singleton gadget, or one gadget
    family: the names with the same base, decoration and partner and
    indices 1..m. place() sorts the blocks by their first names and
    checks that each block's last name sorts strictly below the next
    block's first. That proves the concatenated order sorted, and it
    rejects an input name that equals a gadget name, which Graph would
    otherwise merge into one vertex. The name at position t of a block
    then has id block.start + t.
    """

    def __init__(self, tag):
        self.tag = tag
        self.blocks = []
        self.order = None
        self._indices = []

    def _add(self, names):
        block = _Block(names)
        self.blocks.append(block)
        return block

    def vertex(self, name):
        return self._add((name,))

    def inputs(self, graph):
        """One block per vertex of graph, in its id order."""
        return [self._add((u,)) for u in graph.order]

    def family(self, base, decoration, count, partner=None):
        # the families share their index tuples (1,), (2,), ...
        indices = self._indices
        indices.extend((i,) for i in range(len(indices) + 1, count + 1))
        return self._add(_family(base, decoration, indices[:count], partner))

    def place(self):
        """Sort the blocks, check them and set their starts; returns
        the number of vertices."""
        order = []
        last = None
        for block in sorted((b for b in self.blocks if b.names), key=_first_name):
            names = block.names
            if last is not None and not last < names[0]:
                raise ValueError(
                    "vertex %s collides with the gadget vertex names of stage %s"
                    % (names[0], self.tag)
                )
            block.start = len(order)
            order += names
            last = names[-1]
        self.order = order
        return len(order)


def _names(blocks):
    return {key: block.names for key, block in blocks.items()}


def _name(blocks):
    return {key: block.names[0] for key, block in blocks.items()}


def _source_keys(graph, inputs, n):
    """Keys of the edges of graph, whose id i is now inputs[i].start,
    in a graph of n vertices."""
    first, adjacent = graph.first, graph.adjacent
    ids = [block.start for block in inputs]
    keys = []
    for i, row in enumerate(ids):
        row *= n
        keys += [row + ids[j] for j in adjacent[first[i]:first[i + 1]] if j > i]
    return keys


def _fan(n, i, j, count):
    """Keys of the edges from id i to ids j .. j + count - 1."""
    key = i * n + j
    return range(key, key + count)


def _run(n, i, j, count):
    """Keys of the edges (i + t, j + t) for t < count."""
    key = i * n + j
    return range(key, key + count * (n + 1), n + 1)


def _oplus(n, u, u_forbidden, w, w_forbidden):
    """Couple two vertices that both own a forbidden twin."""
    return [
        u * n + w,
        u * n + u_forbidden,
        w * n + w_forbidden,
        u * n + w_forbidden,
        w * n + u_forbidden,
    ]


def _chain(n, chain, twins):
    """Keys of the _oplus couplings of consecutive members of a chain
    block and of its block of forbidden twins."""
    length = len(chain.names)
    if length < 2:
        return []
    a, f = chain.start, twins.start
    return [
        *_run(n, a, a + 1, length - 1),
        *_run(n, a, f, length),
        *_run(n, a, f + 1, length - 1),
        *_run(n, a + 1, f, length - 1),
    ]


def _mmo_layout(instance):
    """Layout of the orientation stage: the input blocks, and blocks
    of helpers, edge copies and their twins, with the gadget tables."""
    graph = instance.graph
    layout = _Layout("mmo-to-fnc")
    inputs = layout.inputs(graph)
    helper = {u: layout.family(str(u), "helper-h", 2 * instance.r - 1) for u in graph.order}
    copies = {}
    twins = {}
    for u, w in graph.edges:
        weight = instance.weights[(u, w)]
        for owner, other in ((u, w), (w, u)):
            name, partner = str(owner), str(other)
            copies[(owner, other)] = layout.family(name, "edge-copy", weight, partner)
            twins[(owner, other)] = layout.family(
                name, "edge-copy-forbidden", weight, partner
            )
    layout.place()
    gadgets = MmoGadgets(_names(helper), _names(copies), _names(twins))
    return layout, inputs, helper, copies, twins, gadgets


def mmo_to_alliance(instance, mode="at-most"):
    """Encode an orientation problem as a pair-constrained alliance
    instance. Every solution of the result has size exactly k, so both
    modes accept the same solution sets."""
    layout, inputs, helper, copies, twins, gadgets = _mmo_layout(instance)
    graph = instance.graph
    n = len(layout.order)
    keys = []
    for u, block in zip(graph.order, inputs):
        helpers = helper[u]
        keys += _fan(n, block.start, helpers.start, len(helpers.names))
    for edge, block in copies.items():
        owner = inputs[graph.index[edge[0]]].start
        weight = len(block.names)
        keys += _fan(n, owner, block.start, weight)
        keys += _fan(n, owner, twins[edge].start, weight)
    pairs = []
    for u, w in graph.edges:
        mine = gadgets.edge_copy[(u, w)]
        theirs = gadgets.edge_copy[(w, u)]
        pairs.extend(zip(mine, theirs))
        pairs.extend(zip(theirs, mine[1:]))
    necessary = list(graph.order)
    for block in helper.values():
        necessary += block.names
    forbidden = [x for group in gadgets.edge_copy_forbidden.values() for x in group]
    k = len(necessary) + sum(instance.weights.values())
    result = AllianceInstance(
        graph=Graph._from_keys(layout.order, keys),
        k=k,
        forbidden=forbidden,
        necessary=necessary,
        pairs=pairs,
        mode=mode,
    )
    return ReductionStage(
        tag="mmo-to-fnc",
        source=instance,
        result=result,
        gadgets=gadgets,
        size_fn=_identity,
    )


def orientation_to_solution(instance, orientation):
    """Solution of the reduced instance encoding this orientation: the
    head of each edge keeps its copies in the set."""
    if set(orientation.direction) != set(instance.graph.edges):
        raise ValueError("orientation must orient exactly the instance edges")
    gadgets = _mmo_layout(instance)[-1]
    out = set(instance.graph.vertices)
    for u in instance.graph.sorted_vertices():
        out.update(gadgets.helper[u])
    for _edge, (tail, head) in orientation.direction.items():
        out.update(gadgets.edge_copy[(head, tail)])
    return frozenset(out)


def solution_to_orientation(instance, solution):
    """Read the edge directions back out of a reduced-instance solution."""
    gadgets = _mmo_layout(instance)[-1]
    solution = frozenset(solution)
    direction = {}
    for u, w in instance.graph.sorted_edges():
        mine = set(gadgets.edge_copy[(u, w)])
        theirs = set(gadgets.edge_copy[(w, u)])
        if theirs <= solution and not mine & solution:
            direction[(u, w)] = (u, w)
        elif mine <= solution and not theirs & solution:
            direction[(u, w)] = (w, u)
        else:
            raise ValueError(
                "solution selects neither orientation of edge %s--%s" % (u, w)
            )
    return Orientation(direction)


def eliminate_pairs(instance):
    """Replace every complementary pair with chain gadgets whose parity
    forces exactly one endpoint into any solution."""
    if instance.variant != "FNC":
        raise ValueError("instance has no complementary pairs to eliminate")
    source = instance.graph
    originals = source.order
    n = len(originals)
    m = n * n + n
    layout = _Layout("fnc-to-fn")
    inputs = layout.inputs(source)
    y_chain = {u: layout.family(str(u), "chain-Y", n) for u in originals}
    y_twins = {u: layout.family(str(u), "chain-Y-forbidden", n) for u in originals}
    pairs = sorted(instance.pairs)
    triangle = {}
    z_hub = {}
    z_chain = {}
    z_twins = {}
    for a, b in pairs:
        triangle[(a, b)] = layout.vertex(VertexId(str(a), "triangle", (), str(b)))
        for x, other in ((a, b), (b, a)):
            key = ((a, b), x)
            name, partner = str(x), str(other)
            z_hub[key] = layout.vertex(VertexId(name, "chain-Z", (), partner))
            z_chain[key] = layout.family(name, "chain-Z", m, partner)
            z_twins[key] = layout.family(name, "chain-Z-forbidden", m, partner)
    total = layout.place()
    keys = _source_keys(source, inputs, total)
    for u, block in zip(originals, inputs):
        ys, yf = y_chain[u], y_twins[u]
        keys += _fan(total, block.start, ys.start, n)
        keys += _fan(total, block.start, yf.start, n)
        keys += _chain(total, ys, yf)
    for a, b in pairs:
        for x in (a, b):
            key = ((a, b), x)
            hub, zs, zf = z_hub[key].start, z_chain[key], z_twins[key]
            keys.append(triangle[(a, b)].start * total + hub)
            keys += _fan(total, hub, zs.start, m)
            keys += _oplus(
                total, y_chain[x].start + n - 1, y_twins[x].start + n - 1, zs.start, zf.start
            )
            keys += _chain(total, zs, zf)
    gadgets = PairGadgets(
        _names(y_chain), _names(y_twins), _name(z_hub),
        _names(z_chain), _names(z_twins), _name(triangle),
    )
    forbidden = list(instance.forbidden)
    for group in (y_twins, z_twins):
        for block in group.values():
            forbidden += block.names
    necessary = list(instance.necessary) + list(gadgets.triangle.values())
    size_fn = _affine(n + 1, len(pairs) * (m + 2))
    result = AllianceInstance(
        graph=Graph._from_keys(layout.order, keys),
        k=size_fn(instance.k),
        forbidden=forbidden,
        necessary=necessary,
        mode=instance.mode,
    )
    return ReductionStage(
        tag="fnc-to-fn",
        source=instance,
        result=result,
        gadgets=gadgets,
        size_fn=size_fn,
    )


def eliminate_necessary(instance, ordering):
    """Replace the necessary set with anchor chains threaded along the
    given ordering of the non-forbidden vertices. Any permutation gives
    a correct reduction; the post-order ordering of a decomposition is
    what keeps the transformed decomposition narrow."""
    if instance.variant != "FN":
        raise ValueError(
            "only pair-free instances with necessary vertices go through "
            "this stage, got variant %s" % (instance.variant,)
        )
    ordering = tuple(ordering)
    eligible = set(instance.graph.vertices) - set(instance.forbidden)
    if len(ordering) != len(set(ordering)) or set(ordering) != eligible:
        raise ValueError(
            "ordering must be a permutation of the non-forbidden vertices"
        )
    source = instance.graph
    originals = source.order
    n = len(originals)
    open_vertices = [
        u
        for u in originals
        if u not in instance.forbidden and u not in instance.necessary
    ]
    layout = _Layout("fn-to-f")
    inputs = layout.inputs(source)
    primed = {u: layout.vertex(VertexId(str(u), "primed")) for u in open_vertices}
    # (member, its block): the chain gadgets hang off these vertices
    members = [
        (x, inputs[source.index[x]])
        for x in sorted(instance.necessary) + open_vertices
    ] + [(block.names[0], block) for block in primed.values()]
    a_chain = {x: layout.family(str(x), "A-chain", n + 1) for x, _ in members}
    a_twins = {x: layout.family(str(x), "A-chain-forbidden", n + 1) for x, _ in members}
    g, h, g_twin, h_twin = (
        {u: layout.vertex(VertexId(str(u), decoration)) for u in open_vertices}
        for decoration in ("g", "h", "g-forbidden", "h-forbidden")
    )
    total = layout.place()
    keys = _source_keys(source, inputs, total)
    for x, block in members:
        chain, twins = a_chain[x], a_twins[x]
        keys += _fan(total, block.start, chain.start, n + 1)
        keys += _fan(total, block.start, twins.start, n + 1)
        keys += _chain(total, chain, twins)
    for u in open_vertices:
        mark, gu = primed[u].start, g[u].start
        keys += _oplus(total, a_chain[u].start + n, a_twins[u].start + n, gu, g_twin[u].start)
        keys += [
            mark * total + gu,
            mark * total + h[u].start,
            gu * total + h[u].start,
            gu * total + h_twin[u].start,
        ]
    images = [
        u if u in instance.necessary else primed[u].names[0] for u in ordering
    ]
    for left, right in zip(images, images[1:]):
        keys += _oplus(
            total,
            a_chain[left].start + n,
            a_twins[left].start + n,
            a_chain[right].start,
            a_twins[right].start,
        )
    gadgets = NecessaryGadgets(
        _names(a_chain), _names(a_twins), _name(primed),
        _name(g), _name(h), _name(g_twin), _name(h_twin),
    )
    forbidden = list(instance.forbidden)
    for block in a_twins.values():
        forbidden += block.names
    for u in open_vertices:
        forbidden += [g_twin[u].names[0], h_twin[u].names[0]]
    size_fn = _affine(
        n + 3, (n + 3) * len(open_vertices) - len(instance.necessary)
    )
    result = AllianceInstance(
        graph=Graph._from_keys(layout.order, keys),
        k=size_fn(instance.k),
        forbidden=forbidden,
        mode=instance.mode,
    )
    return ReductionStage(
        tag="fn-to-f",
        source=instance,
        result=result,
        gadgets=gadgets,
        size_fn=size_fn,
        ordering=ordering,
    )


def eliminate_necessary_auto(instance, decomposition=None):
    """eliminate_necessary with the ordering taken from a decomposition
    of the instance graph (post-order rule). Without a decomposition the
    sorted vertex order is used; the reduction stays correct, only the
    width guarantee of the decomposition transformation needs the
    post-order choice."""
    eligible = set(instance.graph.vertices) - set(instance.forbidden)
    if decomposition is None:
        ordering = tuple(sorted(eligible))
    else:
        ordering = postorder_ordering(decomposition, eligible)
    return eliminate_necessary(instance, ordering)


def eliminate_forbidden(instance):
    """Attach a 2k-leaf fan to each forbidden vertex; defending the
    vertex would then take more than k members, so the marker becomes
    redundant and is dropped."""
    if instance.variant not in ("F", "plain"):
        raise ValueError(
            "pairs and necessary vertices must be eliminated before the "
            "forbidden stage"
        )
    source = instance.graph
    layout = _Layout("f-to-plain")
    inputs = layout.inputs(source)
    fan_hub = {}
    fan_leaves = {}
    for f in sorted(instance.forbidden):
        name = str(f)
        fan_hub[f] = layout.vertex(VertexId(name, "fan-hub"))
        fan_leaves[f] = layout.family(name, "fan-leaf", 2 * instance.k)
    total = layout.place()
    keys = _source_keys(source, inputs, total)
    for f, hub in fan_hub.items():
        leaves = fan_leaves[f]
        keys += _fan(total, inputs[source.index[f]].start, leaves.start, 2 * instance.k)
        keys += _fan(total, hub.start, leaves.start, 2 * instance.k)
    result = AllianceInstance(
        graph=Graph._from_keys(layout.order, keys),
        k=instance.k,
        mode=instance.mode,
    )
    return ReductionStage(
        tag="f-to-plain",
        source=instance,
        result=result,
        gadgets=ForbiddenGadgets(_name(fan_hub), _names(fan_leaves)),
        size_fn=_identity,
    )


def _lift_pairs(stage, solution):
    out = set(solution)
    for u in solution:
        out.update(stage.gadgets.y_chain[u])
    for pair in sorted(stage.source.pairs):
        chosen = [x for x in pair if x in solution]
        x = chosen[0]
        out.add(stage.gadgets.triangle[pair])
        out.add(stage.gadgets.z_hub[(pair, x)])
        out.update(stage.gadgets.z_chain[(pair, x)])
    return out


def _lift_necessary(stage, solution):
    out = set(solution)
    for u in solution:
        out.update(stage.gadgets.a_chain[u])
    for u, prime in stage.gadgets.primed.items():
        out.add(prime)
        out.add(stage.gadgets.h_vertex[u])
        out.update(stage.gadgets.a_chain[prime])
        if u in solution:
            out.add(stage.gadgets.g_vertex[u])
    return out


def lift_solution(stage, solution):
    """Map a solution of the stage source to the matching solution of
    the stage result."""
    if stage.tag == "mmo-to-fnc":
        raise ValueError(
            "the first stage starts from an orientation; use "
            "orientation_to_solution"
        )
    solution = frozenset(solution)
    if not is_solution(stage.source, solution):
        raise ValueError("the given set is not a solution of the stage source")
    if stage.tag == "fnc-to-fn":
        out = _lift_pairs(stage, solution)
    elif stage.tag == "fn-to-f":
        out = _lift_necessary(stage, solution)
    elif stage.tag == "f-to-plain":
        out = set(solution)
    else:
        raise ValueError("unknown reduction stage tag %r" % (stage.tag,))
    out = frozenset(out)
    if not is_solution(stage.result, out):
        raise RuntimeError("lifted set fails verification on the stage result")
    return out


def project_solution(stage, solution):
    """Map a solution of the stage result back to the stage source by
    restriction to the source vertices."""
    if stage.tag == "mmo-to-fnc":
        raise ValueError(
            "the first stage projects to an orientation; use "
            "solution_to_orientation"
        )
    solution = frozenset(solution)
    if not is_solution(stage.result, solution):
        raise ValueError("the given set is not a solution of the stage result")
    out = solution & stage.source.graph.vertices
    if not is_solution(stage.source, out):
        raise RuntimeError("projected set fails verification on the stage source")
    return out
