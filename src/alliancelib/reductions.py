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

Each stage has one record, a StageKind in STAGE_KINDS: its build, the
exact counts of its result, its lift of a solution, and its
decomposition transform, which sits next to the builder it mirrors.

A stage builds its output from a layout (_Layout): one Block of names
per input vertex or singleton gadget, and one per gadget family, the
names that share base, decoration and partner with indices 1..m.
Sorted by their first names, the blocks give each vertex its id by
arithmetic, and every edge is emitted as an int key i * n + j over
those ids; each fan and each run of a gadget is one range of them. The result's vertex table
is the blocks themselves, so a family's names are made only when asked
for: the gadget tables hold the family blocks, which read as name
sequences and give their id range, and the forbidden and necessary
sets are VertexSets over the table's ids. An input vertex whose name a
gadget of the stage would also take is rejected rather than merged.
The layout is also the one place that assembles a stage: it gives the
keys of the source's edges between the input blocks, and builds the
graph, the forbidden and necessary sets, the result instance and the
ReductionStage, so that a builder states only its blocks, gadget keys,
gadget table, size map and constraint blocks.

The chain run as a whole, the bijection audit and run_pipeline, is in
pipeline.
"""

from array import array
from collections.abc import Set
from itertools import chain, groupby
from operator import attrgetter, itemgetter

from ._record import record
from .alliance import AllianceInstance, is_solution, primal_graph
from .graph import Block, Graph, VertexId, VertexSet, VertexTable, _edge_keys
from .mmo import MmoInstance, Orientation
from .treewidth import (
    NiceTreeDecomposition,
    _joint_top,
    _tops,
    _with,
    make_nice,
    postorder_ordering,
)


@record(eq=False)
class MmoGadgets:
    helper: dict
    edge_copy: dict
    edge_copy_forbidden: dict


@record(eq=False)
class PairGadgets:
    y_chain: dict
    y_chain_forbidden: dict
    z_hub: dict
    z_chain: dict
    z_chain_forbidden: dict
    triangle: dict


@record(eq=False)
class NecessaryGadgets:
    a_chain: dict
    a_chain_forbidden: dict
    primed: dict
    g_vertex: dict
    h_vertex: dict
    g_forbidden: dict
    h_forbidden: dict


@record(eq=False)
class ForbiddenGadgets:
    fan_hub: dict
    fan_leaves: dict


@record(eq=False)
class ReductionStage:
    tag: str
    source: object
    result: AllianceInstance
    gadgets: object
    size_fn: object
    ordering: tuple = None

    @property
    def kind(self):
        """The StageKind of the tag; not a field, so a stage pickles as data."""
        return stage_kind(self.tag)


@record
class Affine:
    """A stage's size_fn: solution size x maps to scale * x + shift.
    Plain data, so that a stage pickles."""

    scale: int
    shift: int

    def __call__(self, x):
        return self.scale * x + self.shift


def _ends(block):
    """The first and last names of a block, a family's as plain tuples,
    which order like the VertexIds."""
    if block.names is not None:
        return block.names[0], block.names[-1]
    return block.key + ((1,),), block.key + ((block.count,),)


class _Layout:
    """The vertex names of the result of stage tag from source, laid
    out in Blocks so that every id follows by arithmetic, and the one
    place that assembles the stage.

    A block is one input vertex, one singleton gadget, or one gadget
    family: the names with the same base, decoration and partner and
    indices 1..m, made only when asked for. place() sorts the blocks by
    their first names and checks that each block's last name sorts
    strictly below the next block's first. That proves the concatenated
    order sorted, and it rejects an input name that equals a gadget
    name, which Graph would otherwise merge into one vertex. The
    VertexTable over the blocks then gives the name at position t of a
    block the id block.start + t. source_keys() gives the keys of the
    source's edges between their input blocks, and stage() builds the
    result instance and the ReductionStage.
    """

    def __init__(self, tag, source):
        self.tag, self.source = tag, source
        self.blocks = []
        self.order = self.input_blocks = None

    def _add(self, block):
        self.blocks.append(block)
        return block

    def vertex(self, name):
        return self._add(Block((name,)))

    def inputs(self):
        """One block per vertex of the source graph, in its id order."""
        self.input_blocks = [self._add(Block((u,))) for u in self.source.graph.order]
        return self.input_blocks

    def family(self, base, decoration, count, partner=None):
        return self._add(Block.family(base, decoration, count, partner))

    def place(self):
        """Sort the blocks, check them and build the table; returns the
        number of vertices."""
        ends = sorted(((_ends(b), b) for b in self.blocks if b.count), key=itemgetter(0))
        last = None
        for (first, end), block in ends:
            if last is not None and not last < first:
                raise ValueError(
                    "vertex %s collides with the gadget vertex names of stage %s"
                    % (block[0], self.tag)
                )
            last = end
        self.order = VertexTable([block for _ends, block in ends])
        return len(self.order)

    def source_keys(self):
        """The keys of the source's edges between their placed input blocks."""
        starts = [block.start for block in self.input_blocks]
        return _edge_keys(self.source.graph, starts, len(self.order))

    def stage(self, keys, gadgets, size_fn, forbidden=(), necessary=(), pairs=(),
              k=None, mode=None, ordering=None):
        """The stage whose result is the graph of keys on the placed
        table, with the names of the forbidden and necessary blocks as
        its sets; k is size_fn(source.k) and mode the source's unless
        given."""
        source, table = self.source, self.order
        # the graph refuses ids past 32 bits before the sets take them
        graph = Graph._from_keys(table, keys)
        sets = []
        for blocks in (forbidden, necessary):
            ids = array("i")
            for block in sorted(blocks, key=attrgetter("start")):
                ids.extend(block.ids)
            sets.append(VertexSet(table, ids))
        result = AllianceInstance(
            graph, size_fn(source.k) if k is None else k, *sets,
            pairs=pairs, mode=source.mode if mode is None else mode,
        )
        return ReductionStage(self.tag, source, result, gadgets, size_fn, ordering)


def _name(blocks):
    return {key: block[0] for key, block in blocks.items()}


def _key(n, i, j):
    """Key of the edge between ids i and j, i * n + j with i < j: the
    order Graph._from_keys takes, in which the helpers below emit
    their keys too."""
    return i * n + j if i < j else j * n + i


def _fan(n, i, j, count):
    """The edges from id i to ids j .. j + count - 1, none of them i,
    as one family in a list."""
    if i < j:
        return [range(i * n + j, i * n + j + count)]
    return [range(j * n + i, (j + count) * n + i, n)]


def _run(n, i, j, count):
    """The edges (i + t, j + t) for t < count as one family in a list."""
    key = _key(n, i, j)
    return [range(key, key + count * (n + 1), n + 1)]


def _oplus(n, u, u_forbidden, w, w_forbidden):
    """Couple two vertices that both own a forbidden twin."""
    return [
        _key(n, u, w),
        _key(n, u, u_forbidden),
        _key(n, w, w_forbidden),
        _key(n, u, w_forbidden),
        _key(n, w, u_forbidden),
    ]


def _chain(n, block, twins):
    """Keys of the _oplus couplings of consecutive members of a chain
    block and of its block of forbidden twins: four runs."""
    length = block.count
    if length < 2:
        return []
    a, f = block.start, twins.start
    return [
        *_run(n, a, a + 1, length - 1),
        *_run(n, a, f, length),
        *_run(n, a, f + 1, length - 1),
        *_run(n, a + 1, f, length - 1),
    ]


def _carry(stage, td, verdict, graph="source"):
    """Copy of td over the vertex table of the stage result, and the
    one top of each id in it, once verdict, td checked against the
    stage source's graph or primal graph, holds."""
    if not verdict:
        raise ValueError(
            "decomposition does not fit the %s graph: %s" % (graph, verdict.problems[0])
        )
    result = stage.result.graph
    out = td._onto(result, list(map(result.order.find, td._order)))
    return out, _tops(out)[0]


def _mmo_helpers(instance):
    """The helper family of each vertex of an orientation instance.
    This and _mmo_copies name the families of mmo_to_alliance; the
    orientation converters make through them only the ones they read,
    with no layout."""
    return {u: Block.family(str(u), "helper-h", 2 * instance.r - 1) for u in instance.graph.order}


def _mmo_copies(instance, decoration):
    """The family with decoration of each edge end (owner, other) of an
    orientation instance, named after both ends."""
    out = {}
    for u, w in instance.graph.edges:
        weight = instance.weights[(u, w)]
        for owner, other in ((u, w), (w, u)):
            out[(owner, other)] = Block.family(str(owner), decoration, weight, str(other))
    return out


def mmo_to_alliance(instance):
    """Encode an orientation problem as a pair-constrained alliance
    instance in at-most mode. Every solution of the result has size
    exactly k, so exact mode would accept the same solutions."""
    graph = instance.graph
    layout = _Layout("mmo-to-fnc", instance)
    inputs = layout.inputs()
    helper = _mmo_helpers(instance)
    copies = _mmo_copies(instance, "edge-copy")
    twins = _mmo_copies(instance, "edge-copy-forbidden")
    layout.blocks += [*helper.values(), *copies.values(), *twins.values()]
    n = layout.place()
    keys = []
    for u, block in zip(graph.order, inputs):
        helpers = helper[u]
        keys += _fan(n, block.start, helpers.start, helpers.count)
    for edge, block in copies.items():
        owner = inputs[graph.order.find(edge[0])].start
        weight = block.count
        keys += _fan(n, owner, block.start, weight)
        keys += _fan(n, owner, twins[edge].start, weight)
    pairs = []
    for u, w in graph.edges:
        mine = copies[(u, w)]
        theirs = copies[(w, u)]
        pairs.extend(zip(mine, theirs))
        pairs.extend(zip(theirs, mine[1:]))
    return layout.stage(
        keys, MmoGadgets(helper, copies, twins), Affine(1, 0),
        forbidden=twins.values(), necessary=inputs + list(helper.values()), pairs=pairs,
        k=_mmo_k(len(graph.order), instance.r, sum(instance.weights.values())), mode="at-most",
    )


def _transform_mmo(stage, td):
    source = stage.source
    gadgets = stage.gadgets
    out, first = _carry(stage, td, td.validate(source.graph))
    find, bag = stage.result.graph.order.find, out._bag
    for u, w in source.graph.sorted_edges():
        cu = list(gadgets.edge_copy[(u, w)].ids)
        cw = list(gadgets.edge_copy[(w, u)].ids)
        weight = len(cu)
        t = _joint_top(out, first, find(u), find(w))
        base = bag(t)
        if weight == 1:
            out._hang(t, [_with(base, cu[0], cw[0])])
        else:
            out._hang(t, [_with(base, cu[i - 1], cu[i], cw[i - 1], cw[i]) for i in range(1, weight)])
        for side, owner in ((gadgets.edge_copy_forbidden[(u, w)], u),
                            (gadgets.edge_copy_forbidden[(w, u)], w)):
            anchor = first[find(owner)]
            out._hang(anchor, [_with(bag(anchor), x) for x in side.ids])
    for u in source.graph.sorted_vertices():
        anchor = first[find(u)]
        out._hang(anchor, [_with(bag(anchor), x) for x in gadgets.helper[u].ids])
    return out


def _mmo_k(n, r, weight):
    """The mmo-to-fnc k of a target of n vertices, r and total weight
    weight: its necessary vertices, 2 * n * r, and one copy per unit of
    weight."""
    return 2 * n * r + weight


def _mmo_counts(stats):
    """The counts of mmo_to_alliance's result from _orientation_stats."""
    n, r, total = stats["vertices"], stats["r"], stats["weight"]
    return {
        "vertices": 2 * n * r + 4 * total,
        "pairs": 2 * total - stats["edges"],
        "forbidden": 2 * total,
        "necessary": 2 * n * r,
        "k": _mmo_k(n, r, total),
        "variant": "FNC",
    }


def orientation_to_solution(instance, orientation):
    """Solution of the reduced instance encoding this orientation: the
    head of each edge keeps its copies in the set."""
    if set(orientation.direction) != set(instance.graph.edges):
        raise ValueError("orientation must orient exactly the instance edges")
    copies = _mmo_copies(instance, "edge-copy")
    out = set(instance.graph.vertices)
    for block in _mmo_helpers(instance).values():
        out.update(block)
    for _edge, (tail, head) in orientation.direction.items():
        out.update(copies[(head, tail)])
    return frozenset(out)


def solution_to_orientation(instance, solution):
    """Read the edge directions back out of a reduced-instance solution,
    a set of names (any other iterable is read into one first)."""
    copies = _mmo_copies(instance, "edge-copy")
    if not isinstance(solution, Set):
        solution = frozenset(solution)
    direction = {}
    for u, w in instance.graph.sorted_edges():
        mine = [x in solution for x in copies[(u, w)]]
        theirs = [x in solution for x in copies[(w, u)]]
        if all(theirs) and not any(mine):
            direction[(u, w)] = (u, w)
        elif all(mine) and not any(theirs):
            direction[(u, w)] = (w, u)
        else:
            raise ValueError(
                "solution selects neither orientation of edge %s--%s" % (u, w)
            )
    return Orientation(direction)


def eliminate_pairs(instance):
    """Replace every complementary pair with chain gadgets whose parity
    forces exactly one endpoint into any solution; FN is the case with
    no pairs, which an orientation target without edges gives."""
    if instance.variant not in ("FNC", "FN"):
        raise ValueError("instance has no complementary pairs to eliminate")
    originals = instance.graph.order
    n = len(originals)
    m = n * n + n
    layout = _Layout("fnc-to-fn", instance)
    inputs = layout.inputs()
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
    keys = layout.source_keys()
    for u, block in zip(originals, inputs):
        ys, yf = y_chain[u], y_twins[u]
        keys += _fan(total, block.start, ys.start, n)
        keys += _fan(total, block.start, yf.start, n)
        keys += _chain(total, ys, yf)
    for a, b in pairs:
        for x in (a, b):
            key = ((a, b), x)
            hub, zs, zf = z_hub[key].start, z_chain[key], z_twins[key]
            keys.append(_key(total, triangle[(a, b)].start, hub))
            keys += _fan(total, hub, zs.start, m)
            keys += _oplus(
                total, y_chain[x].start + n - 1, y_twins[x].start + n - 1, zs.start, zf.start
            )
            keys += _chain(total, zs, zf)
    gadgets = PairGadgets(y_chain, y_twins, _name(z_hub), z_chain, z_twins, _name(triangle))
    forbidden = [inputs[i] for i in instance.forbidden.ids]
    forbidden += [*y_twins.values(), *z_twins.values()]
    necessary = [inputs[i] for i in instance.necessary.ids] + list(triangle.values())
    return layout.stage(keys, gadgets, _pair_size(n, len(pairs)), forbidden, necessary)


def _transform_pairs(stage, td):
    source = stage.source
    gadgets = stage.gadgets
    out, first = _carry(stage, td, td.validate(primal_graph(source)), "primal")
    find = stage.result.graph.order.find
    verts = source.graph.sorted_vertices()
    sorted_pairs = sorted(source.pairs)
    top_pair = {(a, b): _joint_top(out, first, find(a), find(b)) for a, b in sorted_pairs}
    # every bag containing v also gets v_n and its forbidden twin
    last = {find(u): (gadgets.y_chain[u].ids[-1], gadgets.y_chain_forbidden[u].ids[-1])
            for u in verts}
    for node in out.nodes():
        bag = out._bag(node).tolist()
        out._rebag(node, _with(bag, *[i for u in bag for i in last[u]]))
    # descending chain below the topmost bag of v keeps v_n adjacent;
    # the chains' bags are spliced, each from the one before
    for u in verts:
        links = [*_links(gadgets.y_chain[u], gadgets.y_chain_forbidden[u])][::-1]
        out._hang(first[find(u)], _spliced((find(u),), links, [()] * len(links)))
    for a, b in sorted_pairs:
        t = top_pair[(a, b)]
        carry = last[find(b)]
        hub_a = find(gadgets.z_hub[((a, b), a)])
        hub_b = find(gadgets.z_hub[((a, b), b)])
        za, zfa = gadgets.z_chain[((a, b), a)], gadgets.z_chain_forbidden[((a, b), a)]
        zb, zfb = gadgets.z_chain[((a, b), b)], gadgets.z_chain_forbidden[((a, b), b)]
        back = [*_links(zb, zfb)][::-1]
        # down from t: a's chain, the triangle, then b's chain back up
        bags = chain(
            [_with(carry, *last[find(a)], hub_a, za.start, zfa.start)],
            _spliced((*carry, hub_a), _links(za, zfa), [()] * (za.count - 1)),
            [_with(carry, hub_a, hub_b, find(gadgets.triangle[(a, b)]))],
            _spliced((*carry, hub_b), back, [()] * len(back)),
            [_with(carry, hub_b, zb.start, zfb.start)],
        )
        out._hang(t, bags)
    return out


def _lift_pairs(stage, solution):
    """The names and the gadget family blocks that a solution of the
    stage source lifts to."""
    gadgets = stage.gadgets
    names = list(solution)
    blocks = [gadgets.y_chain[u] for u in names]
    for pair in sorted(stage.source.pairs):
        x = pair[0] if pair[0] in solution else pair[1]
        names += [gadgets.triangle[pair], gadgets.z_hub[(pair, x)]]
        blocks.append(gadgets.z_chain[(pair, x)])
    return names, blocks


def _pair_size(n, pairs):
    """The fnc-to-fn size map of a source of n vertices and pairs pairs."""
    return Affine(n + 1, pairs * (n * n + n + 2))


def _pair_counts(stats):
    n = stats["vertices"]
    m = n * n + n
    pairs = stats["pairs"]
    return {
        "vertices": n + 2 * n * n + pairs * (3 + 4 * m),
        "pairs": 0,
        "forbidden": stats["forbidden"] + n * n + pairs * 2 * m,
        "necessary": stats["necessary"] + pairs,
        "k": _pair_size(n, pairs)(stats["k"]),
        "variant": "FN",
    }


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
    originals = instance.graph.order
    n = len(originals)
    open_vertices = [
        u
        for u in originals
        if u not in instance.forbidden and u not in instance.necessary
    ]
    layout = _Layout("fn-to-f", instance)
    inputs = layout.inputs()
    primed = {u: layout.vertex(VertexId(str(u), "primed")) for u in open_vertices}
    # (member, its block): the chain gadgets hang off these vertices
    members = [
        (x, inputs[instance.graph.order.find(x)])
        for x in sorted(instance.necessary) + open_vertices
    ] + [(block[0], block) for block in primed.values()]
    a_chain = {x: layout.family(str(x), "A-chain", n + 1) for x, _ in members}
    a_twins = {x: layout.family(str(x), "A-chain-forbidden", n + 1) for x, _ in members}
    g, h, g_twin, h_twin = (
        {u: layout.vertex(VertexId(str(u), decoration)) for u in open_vertices}
        for decoration in ("g", "h", "g-forbidden", "h-forbidden")
    )
    total = layout.place()
    keys = layout.source_keys()
    for x, block in members:
        chain, twins = a_chain[x], a_twins[x]
        keys += _fan(total, block.start, chain.start, n + 1)
        keys += _fan(total, block.start, twins.start, n + 1)
        keys += _chain(total, chain, twins)
    for u in open_vertices:
        mark, gu = primed[u].start, g[u].start
        keys += _oplus(total, a_chain[u].start + n, a_twins[u].start + n, gu, g_twin[u].start)
        keys += [
            _key(total, mark, gu),
            _key(total, mark, h[u].start),
            _key(total, gu, h[u].start),
            _key(total, gu, h_twin[u].start),
        ]
    images = [
        u if u in instance.necessary else primed[u][0] for u in ordering
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
        a_chain, a_twins, _name(primed), _name(g), _name(h), _name(g_twin), _name(h_twin),
    )
    forbidden = [inputs[i] for i in instance.forbidden.ids] + list(a_twins.values())
    forbidden += [*g_twin.values(), *h_twin.values()]
    size_fn = _necessary_size(n, len(open_vertices), len(instance.necessary))
    return layout.stage(keys, gadgets, size_fn, forbidden, ordering=ordering)


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


def _transform_necessary(stage, td):
    """The fn-to-f decomposition, within width + 13 of the nice td.

    Each eligible u grows its chains above its anchor, the topmost node
    holding u: there the gadget base adds 5 vertices (none for a
    necessary u) and each chain bag its 4 link vertices. An anchor that
    is a join keeps its bag, and the chains grow from a copy of it
    spliced directly above, a unary node. The anchor and the chain
    bags above it form u's column.

    Threads join consecutive chains along the tree, from the top of the
    left column to the first bag of the right chain, which holds the
    thread's pair already. A thread is walked on td, where a column is
    one node: it takes every bag of a column it passes through, the
    bottom bag of one where it turns, and at its two ends the bags
    between the column end it leaves or enters by and its own end. As
    the ordering is post-order, threads walk each tree edge at most
    once down and once up, so a unary node lies on at most 2 of them,
    4 vertices, and a join on 3, 6: no bag holds both the gadget and a
    join's threads, and none exceeds 5 + 4 + 4 = 13 vertices beyond its
    input bag. Each bag is built once, with its threads.

    A column bag is its base (the anchor bag and the gadget base), the
    link of its chain and its threads, in id order. For each chain of a
    column and each run of its bags with the same threads, base and
    threads are sorted once with the run's first link; every later bag
    of the run writes its two chain ids and two twin ids over the
    previous link's, at the same positions (_spliced). That gives the
    bags sorting each one would, because a link's pairs are consecutive
    ids of their blocks and no other id of the bag falls between them.
    """
    source = stage.source
    if not isinstance(td, NiceTreeDecomposition):
        raise ValueError("this stage transformation needs a nice decomposition")
    out, first = _carry(stage, td, td.validate_nice(source.graph))
    ordering = tuple(stage.ordering)
    if postorder_ordering(td, frozenset(ordering)) != ordering:
        raise ValueError(
            "stage ordering is not the post-order ordering of this decomposition"
        )
    gadgets = stage.gadgets
    find, bag = stage.result.graph.order.find, out._bag
    n = len(source.graph.vertices)
    necessary = source.necessary
    parent = td._parent
    # a column's bags count from 0 at its anchor: lift is 1 where a join
    # keeps its own bag below the chains, and each chain has n bags
    anchor, lift, height = {}, {}, {}
    for u in ordering:
        x = anchor[u] = first[find(u)]
        lift[x] = td.kind(x) == "join"
        height[x] = lift[x] + (n if u in necessary else 2 * n)
    # node of td -> (lo, hi, pair): the pair goes to column bags lo..hi
    spans = {}
    for left, right in zip(ordering, ordering[1:]):
        image = right if right in necessary else gadgets.primed[right]
        pair = (gadgets.a_chain[image].start, gadgets.a_chain_forbidden[image].start)
        path = td.path_between(anchor[left], anchor[right])
        end = lift[anchor[right]] + (0 if right in necessary else n)
        last = len(path) - 1
        # a column is entered or left by its bottom bag from a child and
        # by its top bag from its parent
        for t, z in enumerate(path):
            top = height.get(z, 1) - 1
            enter = 0 if t and parent[path[t - 1]] == z else top
            if t < last:
                leave = 0 if parent[path[t + 1]] == z else top
                lo, hi = min(enter, leave), max(enter, leave)
            else:
                lo, hi = (enter, end - 1) if enter < end else (end + 1, enter)
            if lo <= hi:
                spans.setdefault(z, []).append((lo, hi, pair))
    for u in sorted(anchor):
        x = anchor[u]
        base = tuple(bag(x))
        images = [u]
        if u not in necessary:
            base += tuple(
                find(names[u])
                for names in (gadgets.primed, gadgets.g_vertex, gadgets.h_vertex,
                              gadgets.g_forbidden, gadgets.h_forbidden)
            )
            images.append(gadgets.primed[u])
        threads = [()] * height[x]
        for lo, hi, pair in spans.pop(x, ()):
            threads[lo:hi + 1] = [extra + pair for extra in threads[lo:hi + 1]]
        column = chain.from_iterable(
            _spliced(base, _links(gadgets.a_chain[image], gadgets.a_chain_forbidden[image]),
                     threads[lift[x] + i * n:])
            for i, image in enumerate(images)
        )
        out._rebag(x, _with(bag(x), *threads[0]) if lift[x] else next(column).tolist())
        out._splice(x, column)
    for z, on in spans.items():
        out._rebag(z, _with(bag(z), *[i for _lo, _hi, pair in on for i in pair]))
    return out


def _spliced(base, links, threads):
    """The bags sorted(base + link + extra), one for each link of one
    chain and the thread ids extra of its bag, with base and the threads
    sorted once per run of bags with equal threads. A link is two
    consecutive ids of the chain's block and the same two of its twin
    block. Base and threads hold no id of either block but its first,
    which a thread into the chain's own image brings only to bags whose
    links lie above it; so in a run the four link ids keep their
    positions, and each later bag writes its link over the last, in
    either order of the links. Each bag is yielded as one array("i")
    that the next overwrites, so a consumer copies it, as
    TreeDecomposition._write does, before the next.
    """
    for extra, run in groupby(zip(threads, links), itemgetter(0)):
        link = next(run)[1]
        bag = array("i", sorted(base + link + extra))
        yield bag
        a, b, c, d = map(bag.index, link)
        for _extra, link in run:
            bag[a], bag[b], bag[c], bag[d] = link
            yield bag


def _links(members, twins):
    """The 4 link vertices of each bag of a chain, made one at a time:
    members i - 1 and i and their forbidden twins, i = 1 .. len - 1."""
    ac, af = list(members.ids), list(twins.ids)
    return zip(ac, af, ac[1:], af[1:])


def _lift_necessary(stage, solution):
    gadgets = stage.gadgets
    names = list(solution)
    blocks = [gadgets.a_chain[u] for u in names]
    for u, prime in gadgets.primed.items():
        names += [prime, gadgets.h_vertex[u]]
        blocks.append(gadgets.a_chain[prime])
        if u in solution:
            names.append(gadgets.g_vertex[u])
    return names, blocks


def _necessary_size(n, open_count, necessary):
    """The fn-to-f size map of a source of n vertices: open_count open, necessary necessary."""
    return Affine(n + 3, (n + 3) * open_count - necessary)


def _necessary_counts(stats):
    n = stats["vertices"]
    open_count = n - stats["forbidden"] - stats["necessary"]
    members = stats["necessary"] + 2 * open_count
    forbidden = stats["forbidden"] + members * (n + 1) + 2 * open_count
    return {
        "vertices": n + 5 * open_count + 2 * members * (n + 1),
        "pairs": 0,
        "forbidden": forbidden,
        "necessary": 0,
        "k": _necessary_size(n, open_count, stats["necessary"])(stats["k"]),
        "variant": "F" if forbidden else "plain",
    }


def eliminate_forbidden(instance):
    """Attach a 2k-leaf fan to each forbidden vertex; defending the
    vertex would then take more than k members, so the marker becomes
    redundant and is dropped."""
    if instance.variant not in ("F", "plain"):
        raise ValueError(
            "pairs and necessary vertices must be eliminated before the "
            "forbidden stage"
        )
    layout = _Layout("f-to-plain", instance)
    inputs = layout.inputs()
    fan_hub = {}
    fan_leaves = {}
    for f in sorted(instance.forbidden):
        name = str(f)
        fan_hub[f] = layout.vertex(VertexId(name, "fan-hub"))
        fan_leaves[f] = layout.family(name, "fan-leaf", 2 * instance.k)
    total = layout.place()
    keys = layout.source_keys()
    for f, hub in fan_hub.items():
        leaves = fan_leaves[f]
        keys += _fan(total, inputs[instance.graph.order.find(f)].start, leaves.start, 2 * instance.k)
        keys += _fan(total, hub.start, leaves.start, 2 * instance.k)
    gadgets = ForbiddenGadgets(_name(fan_hub), fan_leaves)
    return layout.stage(keys, gadgets, Affine(1, 0))


def _transform_forbidden(stage, td):
    source = stage.source
    gadgets = stage.gadgets
    out, first = _carry(stage, td, td.validate(source.graph))
    find = stage.result.graph.order.find
    for f in sorted(source.forbidden):
        t = first[find(f)]
        base = out._bag(t)
        hub = find(gadgets.fan_hub[f])
        leaves = gadgets.fan_leaves[f].ids
        if leaves:
            out._splice(t, [_with(base, hub, leaf) for leaf in leaves])
        else:
            out._splice(t, [_with(base, hub)])
    return out


def _forbidden_counts(stats):
    return {
        "vertices": stats["vertices"] + stats["forbidden"] * (2 * stats["k"] + 1),
        "pairs": 0,
        "forbidden": 0,
        "necessary": 0,
        "k": stats["k"],
        "variant": "plain",
    }


@record
class StageKind:
    """What the chain does with one stage: build(source, td) makes the
    ReductionStage from a source of type starts_from and a decomposition
    of it or None, made nice first if needs_nice; counts(stats) gives
    the result's exact counts from the source's; lift(stage, solution)
    gives the names and family blocks a source solution lifts to, and
    is None for the first stage, read through the orientation
    converters; transform(stage, td) carries a decomposition along."""

    tag: str
    starts_from: type
    build: object
    counts: object
    lift: object
    transform: object
    needs_nice: bool = False


# in the order of STAGE_TAGS
STAGE_KINDS = {
    kind.tag: kind
    for kind in (
        StageKind("mmo-to-fnc", MmoInstance, lambda source, _td: mmo_to_alliance(source),
                  _mmo_counts, None, _transform_mmo),
        StageKind("fnc-to-fn", AllianceInstance, lambda source, _td: eliminate_pairs(source),
                  _pair_counts, _lift_pairs, _transform_pairs),
        StageKind("fn-to-f", AllianceInstance, eliminate_necessary_auto,
                  _necessary_counts, _lift_necessary, _transform_necessary, needs_nice=True),
        StageKind("f-to-plain", AllianceInstance, lambda source, _td: eliminate_forbidden(source),
                  _forbidden_counts, lambda _stage, solution: (list(solution), []),
                  _transform_forbidden),
    )
}

_SOURCE_NAMES = {MmoInstance: "an orientation target", AllianceInstance: "an alliance instance"}


def stage_kind(tag):
    """The StageKind of a stage tag."""
    kind = STAGE_KINDS.get(tag)
    if kind is None:
        raise ValueError("unknown reduction stage tag %r" % (tag,))
    return kind


def build_stage(tag, source, td=None):
    """Build stage tag from source and carry td, a decomposition of the
    source, along: returns the stage and the decomposition of its
    result, or None without td."""
    kind = stage_kind(tag)
    if td is not None and kind.needs_nice:
        td = make_nice(td)
    if not isinstance(source, kind.starts_from):
        raise ValueError("stage %s starts from %s" % (tag, _SOURCE_NAMES[kind.starts_from]))
    stage = kind.build(source, td)
    return stage, (None if td is None else kind.transform(stage, td))


def lift_solution(stage, solution):
    """Map a solution of the stage source to the matching solution of
    the stage result, a VertexSet over the result's table."""
    lift = stage.kind.lift
    if lift is None:
        raise ValueError("the first stage starts from an orientation; use orientation_to_solution")
    if not isinstance(solution, VertexSet):
        solution = frozenset(solution)
    if not is_solution(stage.source, solution):
        raise ValueError("the given set is not a solution of the stage source")
    names, blocks = lift(stage, solution)
    # the names are inputs and singleton gadgets, one dict lookup each;
    # the families give their id ranges without making a name
    table = stage.result.graph.order
    ids = set(map(table.find, names))
    for block in blocks:
        ids.update(block.ids)
    out = VertexSet(table, array("i", sorted(ids)))
    if not is_solution(stage.result, out):
        raise RuntimeError("lifted set fails verification on the stage result")
    return out


def project_solution(stage, solution):
    """Map a solution of the stage result back to the stage source by
    restriction to the source vertices, as a VertexSet over the
    source's table."""
    if stage.kind.lift is None:
        raise ValueError("the first stage projects to an orientation; use solution_to_orientation")
    if not isinstance(solution, VertexSet):
        solution = frozenset(solution)
    if not is_solution(stage.result, solution):
        raise ValueError("the given set is not a solution of the stage result")
    # the source vertices are the stage's input blocks, which the
    # result's table looks up by one dict lookup each
    source = stage.source.graph.order
    out = VertexSet(source, array("i", [i for i, u in enumerate(source) if u in solution]))
    if not is_solution(stage.source, out):
        raise RuntimeError("projected set fails verification on the stage source")
    return out
