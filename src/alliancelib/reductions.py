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
"""

from dataclasses import dataclass

from .alliance import AllianceInstance, is_solution
from .graph import Graph, VertexId, edge_key
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


def _oplus(u, u_forbidden, w, w_forbidden):
    """Couple two vertices that both own a forbidden twin."""
    return [
        (u, w),
        (u, u_forbidden),
        (w, w_forbidden),
        (u, w_forbidden),
        (w, u_forbidden),
    ]


def _mmo_gadgets(instance):
    helper = {}
    for u in instance.graph.sorted_vertices():
        name = str(u)
        helper[u] = tuple(
            VertexId(name, "helper-h", (i,)) for i in range(1, 2 * instance.r)
        )
    edge_copy = {}
    edge_copy_forbidden = {}
    for u, w in instance.graph.sorted_edges():
        weight = instance.weights[(u, w)]
        for owner, other in ((u, w), (w, u)):
            name, partner = str(owner), str(other)
            edge_copy[(owner, other)] = tuple(
                VertexId(name, "edge-copy", (i,), partner)
                for i in range(1, weight + 1)
            )
            edge_copy_forbidden[(owner, other)] = tuple(
                VertexId(name, "edge-copy-forbidden", (i,), partner)
                for i in range(1, weight + 1)
            )
    return MmoGadgets(helper, edge_copy, edge_copy_forbidden)


def mmo_to_alliance(instance, mode="at-most"):
    """Encode an orientation problem as a pair-constrained alliance
    instance. Every solution of the result has size exactly k, so both
    modes accept the same solution sets."""
    gadgets = _mmo_gadgets(instance)
    originals = instance.graph.sorted_vertices()
    vertices = list(originals)
    edges = []
    for u in originals:
        vertices.extend(gadgets.helper[u])
        edges.extend((u, h) for h in gadgets.helper[u])
    pairs = []
    for u, w in instance.graph.sorted_edges():
        for owner, other in ((u, w), (w, u)):
            copies = gadgets.edge_copy[(owner, other)]
            twins = gadgets.edge_copy_forbidden[(owner, other)]
            vertices.extend(copies)
            vertices.extend(twins)
            edges.extend((owner, x) for x in copies)
            edges.extend((owner, x) for x in twins)
        mine = gadgets.edge_copy[(u, w)]
        theirs = gadgets.edge_copy[(w, u)]
        pairs.extend(zip(mine, theirs))
        pairs.extend(zip(theirs, mine[1:]))
    necessary = list(originals)
    for u in originals:
        necessary.extend(gadgets.helper[u])
    forbidden = [x for group in gadgets.edge_copy_forbidden.values() for x in group]
    k = len(necessary) + sum(instance.weights.values())
    result = AllianceInstance(
        graph=Graph(vertices, edges),
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
    gadgets = _mmo_gadgets(instance)
    out = set(instance.graph.vertices)
    for u in instance.graph.sorted_vertices():
        out.update(gadgets.helper[u])
    for _edge, (tail, head) in orientation.direction.items():
        out.update(gadgets.edge_copy[(head, tail)])
    return frozenset(out)


def solution_to_orientation(instance, solution):
    """Read the edge directions back out of a reduced-instance solution."""
    gadgets = _mmo_gadgets(instance)
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
    originals = instance.graph.sorted_vertices()
    n = len(originals)
    m = n * n + n
    y_chain = {}
    y_chain_forbidden = {}
    for u in originals:
        name = str(u)
        y_chain[u] = tuple(
            VertexId(name, "chain-Y", (i,)) for i in range(1, n + 1)
        )
        y_chain_forbidden[u] = tuple(
            VertexId(name, "chain-Y-forbidden", (i,)) for i in range(1, n + 1)
        )
    pairs = sorted(instance.pairs)
    z_hub = {}
    z_chain = {}
    z_chain_forbidden = {}
    triangle = {}
    for a, b in pairs:
        triangle[(a, b)] = VertexId(str(a), "triangle", (), str(b))
        for x, other in ((a, b), (b, a)):
            key = ((a, b), x)
            name, partner = str(x), str(other)
            z_hub[key] = VertexId(name, "chain-Z", (), partner)
            z_chain[key] = tuple(
                VertexId(name, "chain-Z", (i,), partner)
                for i in range(1, m + 1)
            )
            z_chain_forbidden[key] = tuple(
                VertexId(name, "chain-Z-forbidden", (i,), partner)
                for i in range(1, m + 1)
            )
    gadgets = PairGadgets(
        y_chain, y_chain_forbidden, z_hub, z_chain, z_chain_forbidden, triangle
    )
    vertices = list(originals)
    edges = list(instance.graph.sorted_edges())
    for u in originals:
        ys = y_chain[u]
        yf = y_chain_forbidden[u]
        vertices.extend(ys)
        vertices.extend(yf)
        edges.extend((u, x) for x in ys)
        edges.extend((u, x) for x in yf)
        for i in range(n - 1):
            edges.extend(_oplus(ys[i], yf[i], ys[i + 1], yf[i + 1]))
    for a, b in pairs:
        tri = triangle[(a, b)]
        vertices.append(tri)
        for x in (a, b):
            key = ((a, b), x)
            hub = z_hub[key]
            zs = z_chain[key]
            zf = z_chain_forbidden[key]
            vertices.append(hub)
            vertices.extend(zs)
            vertices.extend(zf)
            edges.append((tri, hub))
            edges.extend((hub, z) for z in zs)
            edges.extend(
                _oplus(y_chain[x][n - 1], y_chain_forbidden[x][n - 1], zs[0], zf[0])
            )
            for i in range(m - 1):
                edges.extend(_oplus(zs[i], zf[i], zs[i + 1], zf[i + 1]))
    forbidden = list(instance.forbidden)
    for u in originals:
        forbidden.extend(y_chain_forbidden[u])
    forbidden.extend(x for group in z_chain_forbidden.values() for x in group)
    necessary = list(instance.necessary) + list(triangle.values())
    size_fn = _affine(n + 1, len(pairs) * (m + 2))
    result = AllianceInstance(
        graph=Graph(vertices, edges),
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
    originals = instance.graph.sorted_vertices()
    n = len(originals)
    open_vertices = sorted(
        u
        for u in originals
        if u not in instance.forbidden and u not in instance.necessary
    )
    primed = {u: VertexId(str(u), "primed") for u in open_vertices}
    members = sorted(instance.necessary) + open_vertices + [
        primed[u] for u in open_vertices
    ]
    a_chain = {}
    a_chain_forbidden = {}
    for x in members:
        name = str(x)
        a_chain[x] = tuple(
            VertexId(name, "A-chain", (i,)) for i in range(1, n + 2)
        )
        a_chain_forbidden[x] = tuple(
            VertexId(name, "A-chain-forbidden", (i,)) for i in range(1, n + 2)
        )
    g_vertex = {u: VertexId(str(u), "g") for u in open_vertices}
    h_vertex = {u: VertexId(str(u), "h") for u in open_vertices}
    g_forbidden = {u: VertexId(str(u), "g-forbidden") for u in open_vertices}
    h_forbidden = {u: VertexId(str(u), "h-forbidden") for u in open_vertices}
    gadgets = NecessaryGadgets(
        a_chain, a_chain_forbidden, primed,
        g_vertex, h_vertex, g_forbidden, h_forbidden,
    )
    vertices = list(originals)
    edges = list(instance.graph.sorted_edges())
    primed_vertices = set(primed.values())
    for x in members:
        chain = a_chain[x]
        twins = a_chain_forbidden[x]
        if x in primed_vertices:
            vertices.append(x)
        vertices.extend(chain)
        vertices.extend(twins)
        edges.extend((x, c) for c in chain)
        edges.extend((x, c) for c in twins)
        for i in range(n):
            edges.extend(_oplus(chain[i], twins[i], chain[i + 1], twins[i + 1]))
    for u in open_vertices:
        vertices.extend(
            [g_vertex[u], h_vertex[u], g_forbidden[u], h_forbidden[u]]
        )
        edges.extend(
            _oplus(
                a_chain[u][n], a_chain_forbidden[u][n], g_vertex[u], g_forbidden[u]
            )
        )
        edges.extend(
            [
                (primed[u], g_vertex[u]),
                (primed[u], h_vertex[u]),
                (g_vertex[u], h_vertex[u]),
                (g_vertex[u], h_forbidden[u]),
            ]
        )
    images = [u if u in instance.necessary else primed[u] for u in ordering]
    for left, right in zip(images, images[1:]):
        edges.extend(
            _oplus(
                a_chain[left][n],
                a_chain_forbidden[left][n],
                a_chain[right][0],
                a_chain_forbidden[right][0],
            )
        )
    forbidden = list(instance.forbidden)
    forbidden.extend(x for group in a_chain_forbidden.values() for x in group)
    for u in open_vertices:
        forbidden.extend([g_forbidden[u], h_forbidden[u]])
    size_fn = _affine(
        n + 3, (n + 3) * len(open_vertices) - len(instance.necessary)
    )
    result = AllianceInstance(
        graph=Graph(vertices, edges),
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
    fan_hub = {}
    fan_leaves = {}
    vertices = list(instance.graph.sorted_vertices())
    edges = list(instance.graph.sorted_edges())
    for f in sorted(instance.forbidden):
        name = str(f)
        hub = VertexId(name, "fan-hub")
        leaves = tuple(
            VertexId(name, "fan-leaf", (i,)) for i in range(1, 2 * instance.k + 1)
        )
        fan_hub[f] = hub
        fan_leaves[f] = leaves
        vertices.append(hub)
        vertices.extend(leaves)
        edges.extend((f, leaf) for leaf in leaves)
        edges.extend((hub, leaf) for leaf in leaves)
    result = AllianceInstance(
        graph=Graph(vertices, edges),
        k=instance.k,
        mode=instance.mode,
    )
    return ReductionStage(
        tag="f-to-plain",
        source=instance,
        result=result,
        gadgets=ForbiddenGadgets(fan_hub, fan_leaves),
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
