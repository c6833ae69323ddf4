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

A stage builds its output from a layout (_Layout): one Block of names
per input vertex or singleton gadget, and one per gadget family, the
names that share base, decoration and partner with indices 1..m.
Sorted by their first names, the blocks give each vertex its id by
arithmetic, and every edge is emitted as an int key i * n + j over
those ids; runs of chain edges are ranges. The result's vertex table
is the blocks themselves, so a family's names are made only when asked
for: the gadget tables hold the family blocks, which read as name
sequences and give their id range, and the forbidden and necessary
sets are VertexSets over the table's ids. An input vertex whose name a
gadget of the stage would also take is rejected rather than merged.

run_pipeline runs a prefix of the chain from an orientation target: it
builds stages up to a vertex cap, projects the rest by the counting
formulas, and decides the last stage when every stage was built.
"""

from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .alliance import STAGE_TAGS, AllianceInstance, is_solution
from .graph import Block, Graph, VertexId, VertexSet, VertexTable
from .mmo import MmoInstance, Orientation, solve_mmo
from .solver import DEFAULT_BUDGET, BudgetExceededError, SolveRequest, solve
from .treewidth import make_nice, postorder_ordering, transform_td


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


@dataclass(frozen=True)
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
    """The vertex names of a stage result, laid out in Blocks so that
    every id follows by arithmetic.

    A block is one input vertex, one singleton gadget, or one gadget
    family: the names with the same base, decoration and partner and
    indices 1..m, made only when asked for. place() sorts the blocks by
    their first names and checks that each block's last name sorts
    strictly below the next block's first. That proves the concatenated
    order sorted, and it rejects an input name that equals a gadget
    name, which Graph would otherwise merge into one vertex. The
    VertexTable over the blocks then gives the name at position t of a
    block the id block.start + t.
    """

    def __init__(self, tag):
        self.tag = tag
        self.blocks = []
        self.order = None

    def _add(self, block):
        self.blocks.append(block)
        return block

    def vertex(self, name):
        return self._add(Block((name,)))

    def inputs(self, graph):
        """One block per vertex of graph, in its id order."""
        return [self._add(Block((u,))) for u in graph.order]

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


def _name(blocks):
    return {key: block[0] for key, block in blocks.items()}


def _id_set(table, blocks):
    """The VertexSet of the names of blocks of table, which must not
    overlap."""
    ids = array("i")
    for block in sorted(blocks, key=attrgetter("start")):
        ids.extend(block.ids)
    return VertexSet(table, ids)


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
    length = chain.count
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
    """Layout of the orientation stage, not yet placed: the input
    blocks, and blocks of helpers, edge copies and their twins, with
    the gadget tables. The orientation converters read only names, so
    only mmo_to_alliance places it."""
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
    gadgets = MmoGadgets(helper, copies, twins)
    return layout, inputs, helper, copies, twins, gadgets


def mmo_to_alliance(instance, mode="at-most"):
    """Encode an orientation problem as a pair-constrained alliance
    instance. Every solution of the result has size exactly k, so both
    modes accept the same solution sets."""
    layout, inputs, helper, copies, twins, gadgets = _mmo_layout(instance)
    graph = instance.graph
    n = layout.place()
    table = layout.order
    keys = []
    for u, block in zip(graph.order, inputs):
        helpers = helper[u]
        keys += _fan(n, block.start, helpers.start, helpers.count)
    for edge, block in copies.items():
        owner = inputs[graph.index[edge[0]]].start
        weight = block.count
        keys += _fan(n, owner, block.start, weight)
        keys += _fan(n, owner, twins[edge].start, weight)
    pairs = []
    for u, w in graph.edges:
        mine = gadgets.edge_copy[(u, w)]
        theirs = gadgets.edge_copy[(w, u)]
        pairs.extend(zip(mine, theirs))
        pairs.extend(zip(theirs, mine[1:]))
    necessary = _id_set(table, inputs + list(helper.values()))
    k = len(necessary) + sum(instance.weights.values())
    result = AllianceInstance(
        graph=Graph._from_keys(table, keys),
        k=k,
        forbidden=_id_set(table, twins.values()),
        necessary=necessary,
        pairs=pairs,
        mode=mode,
    )
    return ReductionStage(
        tag="mmo-to-fnc",
        source=instance,
        result=result,
        gadgets=gadgets,
        size_fn=Affine(1, 0),
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
        y_chain, y_twins, _name(z_hub), z_chain, z_twins, _name(triangle)
    )
    table = layout.order
    forbidden = [inputs[i] for i in instance.forbidden.ids]
    forbidden += [*y_twins.values(), *z_twins.values()]
    necessary = [inputs[i] for i in instance.necessary.ids] + list(triangle.values())
    size_fn = Affine(n + 1, len(pairs) * (m + 2))
    result = AllianceInstance(
        graph=Graph._from_keys(table, keys),
        k=size_fn(instance.k),
        forbidden=_id_set(table, forbidden),
        necessary=_id_set(table, necessary),
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
    ] + [(block[0], block) for block in primed.values()]
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
    table = layout.order
    forbidden = [inputs[i] for i in instance.forbidden.ids] + list(a_twins.values())
    forbidden += [*g_twin.values(), *h_twin.values()]
    size_fn = Affine(
        n + 3, (n + 3) * len(open_vertices) - len(instance.necessary)
    )
    result = AllianceInstance(
        graph=Graph._from_keys(table, keys),
        k=size_fn(instance.k),
        forbidden=_id_set(table, forbidden),
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
        gadgets=ForbiddenGadgets(_name(fan_hub), fan_leaves),
        size_fn=Affine(1, 0),
    )


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


def lift_solution(stage, solution):
    """Map a solution of the stage source to the matching solution of
    the stage result, a VertexSet over the result's table."""
    if stage.tag == "mmo-to-fnc":
        raise ValueError(
            "the first stage starts from an orientation; use "
            "orientation_to_solution"
        )
    if not isinstance(solution, VertexSet):
        solution = frozenset(solution)
    if not is_solution(stage.source, solution):
        raise ValueError("the given set is not a solution of the stage source")
    if stage.tag == "fnc-to-fn":
        names, blocks = _lift_pairs(stage, solution)
    elif stage.tag == "fn-to-f":
        names, blocks = _lift_necessary(stage, solution)
    elif stage.tag == "f-to-plain":
        names, blocks = list(solution), []
    else:
        raise ValueError("unknown reduction stage tag %r" % (stage.tag,))
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
    if stage.tag == "mmo-to-fnc":
        raise ValueError(
            "the first stage projects to an orientation; use "
            "solution_to_orientation"
        )
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


def _instance_stats(instance):
    return {
        "vertices": len(instance.graph.vertices),
        "edges": len(instance.graph.edges),
        "pairs": len(instance.pairs),
        "forbidden": len(instance.forbidden),
        "necessary": len(instance.necessary),
        "k": instance.k,
        "variant": instance.variant,
    }


def _mmo_projected_stats(instance):
    n = len(instance.graph.vertices)
    total = sum(instance.weights.values())
    return {
        "vertices": 2 * n * instance.r + 4 * total,
        "pairs": 2 * total - len(instance.graph.edges),
        "forbidden": 2 * total,
        "necessary": 2 * n * instance.r,
        "k": 2 * n * instance.r + total,
        "variant": "FNC",
    }


def _project_stats(stats, tag):
    """Statistics of a stage result from its source statistics alone,
    for stages too large to build. Mirrors the gadget counts."""
    n = stats["vertices"]
    if tag == "fnc-to-fn":
        m = n * n + n
        pairs = stats["pairs"]
        return {
            "vertices": n + 2 * n * n + pairs * (3 + 4 * m),
            "pairs": 0,
            "forbidden": stats["forbidden"] + n * n + pairs * 2 * m,
            "necessary": stats["necessary"] + pairs,
            "k": stats["k"] * (n + 1) + pairs * (m + 2),
            "variant": "FN",
        }
    if tag == "fn-to-f":
        open_count = n - stats["forbidden"] - stats["necessary"]
        members = stats["necessary"] + 2 * open_count
        forbidden = stats["forbidden"] + members * (n + 1) + 2 * open_count
        return {
            "vertices": n + 5 * open_count + 2 * members * (n + 1),
            "pairs": 0,
            "forbidden": forbidden,
            "necessary": 0,
            "k": (n + 3) * (stats["k"] + open_count) - stats["necessary"],
            "variant": "F" if forbidden else "plain",
        }
    if tag == "f-to-plain":
        return {
            "vertices": n + stats["forbidden"] * (2 * stats["k"] + 1),
            "pairs": 0,
            "forbidden": 0,
            "necessary": 0,
            "k": stats["k"],
            "variant": "plain",
        }
    raise ValueError("unknown reduction stage tag %r" % (tag,))


def _predict_vertices(source, tag):
    if tag == "mmo-to-fnc":
        return _mmo_projected_stats(source)["vertices"]
    return _project_stats(_instance_stats(source), tag)["vertices"]


def _build_stage(tag, instance, decomposition=None):
    if tag == "mmo-to-fnc":
        if not isinstance(instance, MmoInstance):
            raise ValueError("stage mmo-to-fnc starts from an orientation target")
        return mmo_to_alliance(instance)
    if isinstance(instance, MmoInstance):
        raise ValueError("stage %s starts from an alliance instance" % (tag,))
    if tag == "fnc-to-fn":
        return eliminate_pairs(instance)
    if tag == "fn-to-f":
        return eliminate_necessary_auto(instance, decomposition)
    if tag == "f-to-plain":
        return eliminate_forbidden(instance)
    raise ValueError("unknown reduction stage tag %r" % (tag,))


def run_pipeline(
    mmo,
    stages,
    decomposition=None,
    budget=DEFAULT_BUDGET,
    max_vertices=float("inf"),
):
    """Run a prefix of the reduction chain and report per-stage sizes.

    Stages past the materialization cap max_vertices (by default none)
    are only projected: their budgets and instance sizes come from the
    counting formulas, no graph is built. The decision is attempted on
    the final instance when every stage was materialized; a witness is
    projected back stage by stage and read out as an orientation.
    """
    stages = list(stages)
    if not stages or tuple(stages) != STAGE_TAGS[: len(stages)]:
        raise ValueError(
            "stages must be a nonempty prefix of %s" % (", ".join(STAGE_TAGS),)
        )
    if not isinstance(mmo, MmoInstance):
        raise ValueError("the chain starts from an orientation target")
    report_stages = []
    flags = []
    built = []
    current = mmo
    stats = None
    td = decomposition
    projected = False
    for tag in stages:
        if not projected and _predict_vertices(current, tag) > max_vertices:
            projected = True
            flags.append("size-cap")
            stats = (
                _mmo_projected_stats(current)
                if isinstance(current, MmoInstance)
                else _instance_stats(current)
            )
            stats = None if tag == "mmo-to-fnc" else stats
        if projected:
            stats = (
                _mmo_projected_stats(current) if stats is None else _project_stats(stats, tag)
            )
            entry = {"tag": tag, "projected": True, "width": None, "edges": None}
            entry.update(stats)
            report_stages.append(entry)
            continue
        if tag == "fn-to-f" and td is not None:
            td = make_nice(td)
        stage = _build_stage(tag, current, td)
        width = None
        if td is not None:
            td = transform_td(stage, td)
            width = td.width()
        built.append(stage)
        current = stage.result
        entry = {"tag": tag, "projected": False, "width": width}
        entry.update(_instance_stats(current))
        report_stages.append(entry)

    decision = None
    witness_size = None
    orientation_payload = None
    if not projected:
        try:
            outcome = solve(SolveRequest(built[-1].result, "decide", budget=budget))
        except BudgetExceededError as exc:
            flags.append("budget-exceeded")
            flags.append(str(exc))
        else:
            decision = outcome.feasible
            if outcome.feasible:
                witness_size = len(outcome.witness)
                witness = outcome.witness
                for stage in reversed(built[1:]):
                    witness = project_solution(stage, witness)
                orientation = solution_to_orientation(mmo, witness)
                orientation_payload = {
                    "%s--%s" % edge: [str(tail), str(head)]
                    for edge, (tail, head) in sorted(orientation.direction.items())
                }

    mmo_decision = None
    if len(mmo.graph.edges) <= 25:
        mmo_decision = solve_mmo(mmo) is not None
    return {
        "command": "reduce",
        "chain": True,
        "stages": report_stages,
        "flags": flags,
        "decision": decision,
        "witness_size": witness_size,
        "orientation": orientation_payload,
        "mmo_decision": mmo_decision,
    }
