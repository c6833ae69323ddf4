"""Tree decompositions: validation, construction, nice form, and the
decomposition transformations that accompany each instance reduction.

A decomposition is a rooted tree of bags. Width is the largest bag
size minus one; a single empty bag therefore has width -1. Children
are always iterated in node id order, so every traversal here is
deterministic.
"""

import bisect
import itertools
from dataclasses import dataclass

from .alliance import primal_graph
from .graph import parse_vertex

NICE_KINDS = ("leaf", "introduce", "forget", "join")


@dataclass(frozen=True)
class TdVerdict:
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


class TreeDecomposition:
    """Mutable rooted tree of bags with integer node ids.

    Each node's children are kept in a list in id order, updated by
    the mutators, so no traversal rescans the parent map. Vertex
    occurrences are not indexed: the queries that need them build a
    local map in one pass over the bags.
    """

    def __init__(self):
        self._bags = {}
        self._parent = {}
        self._kids = {}
        self._next_id = 0

    def add_node(self, bag, parent=None):
        if parent is not None and parent not in self._bags:
            raise ValueError("unknown parent node %r" % (parent,))
        nid = self._next_id
        self._next_id += 1
        self._bags[nid] = set(bag)
        self._parent[nid] = parent
        if parent is not None:
            # nid is the largest id so far, so the list stays in id order
            self._kids.setdefault(parent, []).append(nid)
        return nid

    def nodes(self):
        return sorted(self._bags)

    def bag(self, n):
        return self._bags[n]

    def set_bag(self, n, bag):
        self._bags[n] = set(bag)

    def add_to_bag(self, n, vertices):
        self._bags[n].update(vertices)

    def parent(self, n):
        return self._parent[n]

    def set_parent(self, n, parent):
        old = self._parent.get(n)
        if old is not None:
            siblings = self._kids[old]
            siblings.remove(n)
            if not siblings:
                del self._kids[old]
        self._parent[n] = parent
        if parent is not None:
            bisect.insort(self._kids.setdefault(parent, []), n)

    def children(self, n):
        return list(self._kids.get(n, ()))

    def root(self):
        roots = [n for n, p in self._parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError("decomposition must have exactly one root, found %d" % len(roots))
        return roots[0]

    def width(self):
        if not self._bags:
            return -1
        return max(len(b) for b in self._bags.values()) - 1

    def copy(self, into=None):
        out = (into or type(self))()
        out._bags = {n: set(b) for n, b in self._bags.items()}
        out._parent = dict(self._parent)
        out._kids = {n: list(c) for n, c in self._kids.items()}
        out._next_id = self._next_id
        return out

    def postorder(self):
        """Node ids, children before parents, children in id order."""
        out = []
        stack = [(self.root(), False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
                continue
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(self._kids.get(node, ())))
        return out

    def splice_above(self, n, bags):
        """Insert a chain of new nodes between n and its parent.

        The first bag becomes the new parent of n, the last ends up
        adjacent to the old parent (or becomes the root). Returns the
        new ids bottom to top.
        """
        old_parent = self._parent[n]
        ids = []
        prev = n
        for bag in bags:
            nid = self.add_node(bag)
            self.set_parent(prev, nid)
            prev = nid
            ids.append(nid)
        self.set_parent(prev, old_parent)
        return ids

    def occurrences(self, v):
        return _occurrence_tops(self, (v,))[0][v]

    def topmost(self, v):
        """The unique occurrence of v whose parent bag lacks v."""
        tops = _occurrence_tops(self, (v,))[1][v]
        if len(tops) != 1:
            raise ValueError(
                "vertex %s occurs in %d occurrence components" % (v, len(tops))
            )
        return tops[0]

    def path_between(self, a, b):
        """Node ids on the tree path from a to b, both inclusive.

        Both ends climb in turn until one reaches a node the other has
        passed, which is their lowest common ancestor; the cost is the
        length of the path, not the depth of the tree.
        """
        up_a, up_b = [a], [b]
        seen_a, seen_b = {a: 0}, {b: 0}
        while True:
            if up_a[-1] in seen_b:
                meet = up_a[-1]
                break
            if up_b[-1] in seen_a:
                meet = up_b[-1]
                break
            moved = False
            for up, seen in ((up_a, seen_a), (up_b, seen_b)):
                p = self._parent[up[-1]]
                if p is not None:
                    seen[p] = len(up)
                    up.append(p)
                    moved = True
            if not moved:
                raise ValueError("nodes %r and %r are not in one tree" % (a, b))
        return up_a[: seen_a[meet] + 1] + up_b[: seen_b[meet]][::-1]

    def validate(self, graph):
        """Check the three decomposition conditions against graph."""
        problems = []
        if not self._bags:
            return TdVerdict(False, ("decomposition has no nodes",))
        roots = [n for n, p in self._parent.items() if p is None]
        if len(roots) != 1:
            problems.append("expected exactly one root, found %d" % (len(roots),))
        for n, p in self._parent.items():
            if p is not None and p not in self._bags:
                problems.append("node %d has unknown parent %d" % (n, p))
        # with one root and known parents, a node off the root's tree
        # lies on a cycle of parent links
        if not problems and len(self.postorder()) != len(self._bags):
            problems.append("some nodes are not reachable from the root")
        if problems:
            return TdVerdict(False, tuple(problems))
        for n in self.nodes():
            for u in self._bags[n]:
                if u not in graph.vertices:
                    problems.append("bag of node %d contains foreign vertex %s" % (n, u))
        occ, tops = _occurrence_tops(self, graph.vertices)
        # only the failures are sorted, so a valid decomposition costs
        # no sort of the graph
        for u in sorted(u for u, nodes in occ.items() if not nodes):
            problems.append("vertex %s is in no bag" % (u,))
        uncovered = []
        for u, w in graph.edges:
            short, other = (u, w) if len(occ[u]) <= len(occ[w]) else (w, u)
            if not any(other in self._bags[n] for n in occ[short]):
                uncovered.append((u, w))
        for u, w in sorted(uncovered):
            problems.append("edge %s--%s is in no bag" % (u, w))
        for u in sorted(u for u, nodes in tops.items() if len(nodes) > 1):
            problems.append("occurrences of %s are not connected" % (u,))
        return TdVerdict(not problems, tuple(problems))


def _occurrence_tops(td, vertices):
    """For each of vertices, the nodes whose bag holds it and the tops
    among them, whose parent bag lacks it; both in id order, from one
    pass over the bags. A vertex with one top has connected occurrences
    and that top is its topmost node."""
    occ = {u: [] for u in vertices}
    tops = {u: [] for u in vertices}
    bags, parent = td._bags, td._parent
    for n in td.nodes():
        p = parent[n]
        above = bags[p] if p is not None else ()
        for u in bags[n]:
            found = occ.get(u)
            if found is not None:
                found.append(n)
                if u not in above:
                    tops[u].append(n)
    return occ, tops


def _joint_tops(td, occ, pairs):
    """Topmost node whose bag holds both ends, for each pair, from the
    occurrence lists of _occurrence_tops."""
    bags, parent = td._bags, td._parent
    out = {}
    for u, w in pairs:
        short, other = (u, w) if len(occ[u]) <= len(occ[w]) else (w, u)
        joint = [n for n in occ[short] if other in bags[n]]
        if not joint:
            raise ValueError("no bag contains both %s and %s" % (u, w))
        tops = [
            n for n in joint
            if parent[n] is None or not (u in bags[parent[n]] and w in bags[parent[n]])
        ]
        if len(tops) != 1:
            raise ValueError("occurrences of %s and %s are not connected" % (u, w))
        out[(u, w)] = tops[0]
    return out


def _kind(td, n):
    ch = td._kids.get(n, ())
    if not ch:
        return "leaf"
    if len(ch) == 1:
        b, cb = td._bags[n], td._bags[ch[0]]
        if len(b) == len(cb) + 1 and cb <= b:
            return "introduce"
        if len(b) == len(cb) - 1 and b <= cb:
            return "forget"
        raise ValueError(
            "node %d must differ from its child by exactly one vertex" % (n,)
        )
    if len(ch) == 2:
        if all(td._bags[c] == td._bags[n] for c in ch):
            return "join"
        raise ValueError("join node %d must repeat its children's bag" % (n,))
    raise ValueError("node %d has %d children" % (n, len(ch)))


def _shape_problems(td):
    """Why a rooted decomposition is not nice, in node order; empty
    when it is."""
    if td.bag(td.root()):
        yield "root bag is not empty"
    for n in td.nodes():
        try:
            kind = _kind(td, n)
        except ValueError as exc:
            yield str(exc)
            continue
        if kind == "leaf" and td.bag(n):
            yield "leaf node %d has a nonempty bag" % (n,)


class NiceTreeDecomposition(TreeDecomposition):
    """Decomposition whose nodes are leaf, introduce, forget or join
    nodes, with empty root and leaf bags. Joins have exactly two
    children, so fan-out is at most two everywhere."""

    def kind(self, n):
        return _kind(self, n)

    def validate_nice(self, graph):
        base = self.validate(graph)
        if not base:
            return base
        problems = tuple(_shape_problems(self))
        return TdVerdict(not problems, problems)


def validate_td(graph, td):
    return td.validate(graph)


def _has_nice_shape(td):
    try:
        td.root()
    except ValueError:
        return False
    return next(_shape_problems(td), None) is None


def make_nice(td):
    """Nice decomposition with the same bags and width.

    An input that already has nice shape is returned unchanged (as a
    copy); anything else is rebuilt with forget/introduce transitions
    between the original bags and left-folded binary joins. The input
    tree is walked depth first with an explicit stack, children in id
    order, so depth is not limited by the interpreter's recursion.
    """
    if _has_nice_shape(td):
        return td.copy(into=NiceTreeDecomposition)
    out = NiceTreeDecomposition()

    def transition(top, frm, to):
        cur = set(frm)
        for x in sorted(frm - to):
            cur.discard(x)
            nid = out.add_node(cur)
            out.set_parent(top, nid)
            top = nid
        for x in sorted(to - frm):
            cur.add(x)
            nid = out.add_node(cur)
            out.set_parent(top, nid)
            top = nid
        return top

    def finish(node, tops):
        """Top of node's rebuilt subtree, given its children's tops."""
        target = td.bag(node)
        if not tops:
            leaf = out.add_node(set())
            return transition(leaf, set(), target)
        top = tops[0]
        for other in tops[1:]:
            join = out.add_node(target)
            out.set_parent(top, join)
            out.set_parent(other, join)
            top = join
        return top

    # frames: (node, its children not yet built, tops of those built)
    root = td.root()
    stack = [(root, iter(td.children(root)), [])]
    while True:
        node, pending, tops = stack[-1]
        child = next(pending, None)
        if child is not None:
            stack.append((child, iter(td.children(child)), []))
            continue
        top = finish(node, tops)
        stack.pop()
        if not stack:
            break
        above = stack[-1][0]
        stack[-1][2].append(transition(top, td.bag(node), td.bag(above)))
    transition(top, td.bag(root), set())
    return out


def treewidth_exact_small(graph):
    """Exact treewidth by dynamic programming over vertex subsets.

    f(S) is the best width achievable when S is eliminated first;
    eliminating v after X costs the number of vertices outside X
    reachable from v through X. Exponential in the vertex count,
    hence the hard cap.
    """
    verts = graph.sorted_vertices()
    n = len(verts)
    if n > 12:
        raise ValueError("exact treewidth is limited to 12 vertices, got %d" % (n,))
    if n == 0:
        return -1
    index = {u: i for i, u in enumerate(verts)}
    nb = [0] * n
    for u, w in graph.edges:
        nb[index[u]] |= 1 << index[w]
        nb[index[w]] |= 1 << index[u]
    full = (1 << n) - 1
    f = [0] * (1 << n)
    f[0] = -1
    for mask in range(1, full + 1):
        best = n
        rest_bits = mask
        while rest_bits:
            bit = rest_bits & -rest_bits
            rest_bits ^= bit
            v = bit.bit_length() - 1
            rest = mask ^ bit
            # closure of v's neighborhood through vertices in rest
            reach = nb[v]
            inside_seen = 0
            inside = reach & rest
            while inside & ~inside_seen:
                ubit = (inside & ~inside_seen) & -(inside & ~inside_seen)
                inside_seen |= ubit
                unb = nb[ubit.bit_length() - 1]
                reach |= unb
                inside |= unb & rest
            cost = (reach & ~mask).bit_count()
            cand = max(f[rest], cost)
            if cand < best:
                best = cand
        f[mask] = best
    return f[full]


def heuristic_td(graph):
    """Min-fill elimination ordering turned into a decomposition.

    No optimality promise; pair with treewidth_exact_small when a
    certificate is needed and the graph is small enough.
    """
    td = TreeDecomposition()
    verts = graph.sorted_vertices()
    if not verts:
        td.add_node(set())
        return td
    cur = {u: set(graph.neighbors(u)) for u in verts}
    order = []
    bags = []
    elim_neighbors = []
    while cur:
        best = None
        best_fill = None
        for u in sorted(cur):
            ns = sorted(cur[u])
            fill = sum(
                1 for a, b in itertools.combinations(ns, 2) if b not in cur[a]
            )
            if best_fill is None or fill < best_fill:
                best, best_fill = u, fill
        ns = sorted(cur[best])
        order.append(best)
        bags.append({best} | set(ns))
        elim_neighbors.append(ns)
        for a, b in itertools.combinations(ns, 2):
            cur[a].add(b)
            cur[b].add(a)
        for a in ns:
            cur[a].discard(best)
        del cur[best]
    position = {u: i for i, u in enumerate(order)}
    ids = [td.add_node(b) for b in bags]
    for i in range(len(order) - 1):
        ns = elim_neighbors[i]
        if ns:
            td.set_parent(ids[i], ids[min(position[u] for u in ns)])
        else:
            # adjacent bags need not share vertices, so chaining an
            # exhausted component onto the next bag is harmless
            td.set_parent(ids[i], ids[i + 1])
    return td


def postorder_ordering(td, eligible):
    """Eligible vertices in the order their topmost bags close during a
    post-order traversal; ties inside one bag break sorted."""
    eligible = sorted(frozenset(eligible))
    _occ, tops = _occurrence_tops(td, eligible)
    for u in eligible:
        if len(tops[u]) > 1:
            raise ValueError("occurrences of %s are not connected" % (u,))
    closing = {}
    for u in eligible:
        if not tops[u]:
            raise ValueError("vertex %s is in no bag" % (u,))
        closing.setdefault(tops[u][0], []).append(u)
    out = []
    for n in td.postorder():
        out.extend(closing.get(n, ()))
    return tuple(out)


def transform_td(stage, td):
    """Decomposition of the stage output built from one of its input.

    Dispatches on the stage tag; each branch mirrors the corresponding
    gadget construction and keeps the width within the documented
    additive or multiplicative bound.
    """
    handlers = {
        "mmo-to-fnc": _transform_mmo,
        "fnc-to-fn": _transform_pairs,
        "fn-to-f": _transform_necessary,
        "f-to-plain": _transform_forbidden,
    }
    if stage.tag not in handlers:
        raise ValueError("unknown reduction stage tag %r" % (stage.tag,))
    return handlers[stage.tag](stage, td)


def _transform_mmo(stage, td):
    source = stage.source
    verdict = td.validate(source.graph)
    if not verdict:
        raise ValueError(
            "decomposition does not fit the source graph: %s" % (verdict.problems[0],)
        )
    gadgets = stage.gadgets
    occ, tops = _occurrence_tops(td, source.graph.vertices)
    top_single = {u: t[0] for u, t in tops.items()}
    top_joint = _joint_tops(td, occ, source.graph.sorted_edges())
    out = td.copy(into=TreeDecomposition)
    for u, w in source.graph.sorted_edges():
        cu = gadgets.edge_copy[(u, w)]
        cw = gadgets.edge_copy[(w, u)]
        weight = len(cu)
        t = top_joint[(u, w)]
        base = frozenset(out.bag(t))
        if weight == 1:
            out.add_node(base | {cu[0], cw[0]}, parent=t)
        else:
            prev = t
            for i in range(1, weight):
                prev = out.add_node(
                    base | {cu[i - 1], cu[i], cw[i - 1], cw[i]}, parent=prev
                )
        for side, owner in ((gadgets.edge_copy_forbidden[(u, w)], u),
                            (gadgets.edge_copy_forbidden[(w, u)], w)):
            anchor = top_single[owner]
            anchor_bag = frozenset(out.bag(anchor))
            prev = anchor
            for x in side:
                prev = out.add_node(anchor_bag | {x}, parent=prev)
    for u in source.graph.sorted_vertices():
        anchor = top_single[u]
        anchor_bag = frozenset(out.bag(anchor))
        prev = anchor
        for x in gadgets.helper[u]:
            prev = out.add_node(anchor_bag | {x}, parent=prev)
    return out


def _transform_pairs(stage, td):
    source = stage.source
    primal = primal_graph(source)
    verdict = td.validate(primal)
    if not verdict:
        raise ValueError(
            "decomposition does not fit the primal graph: %s" % (verdict.problems[0],)
        )
    gadgets = stage.gadgets
    verts = source.graph.sorted_vertices()
    n = len(verts)
    occurrences, tops = _occurrence_tops(td, verts)
    top_single = {u: t[0] for u, t in tops.items()}
    sorted_pairs = sorted(source.pairs)
    top_pair = _joint_tops(td, occurrences, sorted_pairs)
    out = td.copy(into=TreeDecomposition)
    # every bag containing v also gets v_n and its forbidden twin
    for u in verts:
        last = gadgets.y_chain[u][n - 1]
        last_f = gadgets.y_chain_forbidden[u][n - 1]
        for node in occurrences[u]:
            out.add_to_bag(node, (last, last_f))
    # descending chain below the topmost bag of v keeps v_n adjacent
    for u in verts:
        ys = gadgets.y_chain[u]
        yf = gadgets.y_chain_forbidden[u]
        prev = top_single[u]
        for i in range(n - 1, 0, -1):
            prev = out.add_node(
                {u, ys[i - 1], yf[i - 1], ys[i], yf[i]}, parent=prev
            )
    for a, b in sorted_pairs:
        t = top_pair[(a, b)]
        m = n * n + n
        carry = {gadgets.y_chain[b][n - 1], gadgets.y_chain_forbidden[b][n - 1]}
        hub_a = gadgets.z_hub[((a, b), a)]
        hub_b = gadgets.z_hub[((a, b), b)]
        za = gadgets.z_chain[((a, b), a)]
        zfa = gadgets.z_chain_forbidden[((a, b), a)]
        zb = gadgets.z_chain[((a, b), b)]
        zfb = gadgets.z_chain_forbidden[((a, b), b)]
        prev = out.add_node(
            {gadgets.y_chain[a][n - 1], gadgets.y_chain_forbidden[a][n - 1],
             hub_a, za[0], zfa[0]} | carry,
            parent=t,
        )
        for i in range(1, m):
            prev = out.add_node(
                {hub_a, za[i - 1], zfa[i - 1], za[i], zfa[i]} | carry, parent=prev
            )
        prev = out.add_node({hub_a, hub_b, gadgets.triangle[(a, b)]} | carry, parent=prev)
        for i in range(m - 1, 0, -1):
            prev = out.add_node(
                {hub_b, zb[i - 1], zfb[i - 1], zb[i], zfb[i]} | carry, parent=prev
            )
        out.add_node(
            {gadgets.y_chain[b][n - 1], gadgets.y_chain_forbidden[b][n - 1],
             hub_b, zb[0], zfb[0]},
            parent=prev,
        )
    return out


def _transform_necessary(stage, td):
    source = stage.source
    if not isinstance(td, NiceTreeDecomposition):
        raise ValueError("this stage transformation needs a nice decomposition")
    verdict = td.validate_nice(source.graph)
    if not verdict:
        raise ValueError(
            "decomposition does not fit the source graph: %s" % (verdict.problems[0],)
        )
    eligible = frozenset(stage.ordering)
    if postorder_ordering(td, eligible) != tuple(stage.ordering):
        raise ValueError(
            "stage ordering is not the post-order ordering of this decomposition"
        )
    gadgets = stage.gadgets
    out = td.copy(into=TreeDecomposition)
    verts = source.graph.sorted_vertices()
    n = len(verts)
    necessary = source.necessary
    open_set = sorted(u for u in verts if u not in necessary and u not in source.forbidden)
    _occ, tops = _occurrence_tops(td, eligible)
    top_single = {u: t[0] for u, t in tops.items()}
    chain_top = {}
    chain_bottom = {}

    def grow_chain(anchor, base, member):
        """Replace anchor with the member's chain; bags stack above it."""
        ac = gadgets.a_chain[member]
        af = gadgets.a_chain_forbidden[member]
        out.set_bag(anchor, base | {ac[0], af[0], ac[1], af[1]})
        chain_bottom[member] = anchor
        top = anchor
        extra = [base | {ac[i - 1], af[i - 1], ac[i], af[i]} for i in range(2, n + 1)]
        if extra:
            top = out.splice_above(anchor, extra)[-1]
        chain_top[member] = top
        return top

    for u in sorted(eligible):
        anchor = top_single[u]
        if u in necessary:
            base = frozenset(out.bag(anchor))
            grow_chain(anchor, base, u)
        else:
            club = {
                gadgets.primed[u],
                gadgets.g_vertex[u],
                gadgets.h_vertex[u],
                gadgets.g_forbidden[u],
                gadgets.h_forbidden[u],
            }
            out.add_to_bag(anchor, club)
            base = frozenset(out.bag(anchor))
            top = grow_chain(anchor, base, u)
            primed = gadgets.primed[u]
            pc = gadgets.a_chain[primed]
            pf = gadgets.a_chain_forbidden[primed]
            mbags = [base | {pc[i - 1], pf[i - 1], pc[i], pf[i]} for i in range(1, n + 1)]
            ids = out.splice_above(top, mbags)
            chain_bottom[primed] = ids[0]
            chain_top[primed] = ids[-1]
    images = [u if u in necessary else gadgets.primed[u] for u in stage.ordering]
    for left, right in zip(images, images[1:]):
        first = gadgets.a_chain[right][0]
        first_f = gadgets.a_chain_forbidden[right][0]
        for node in out.path_between(chain_top[left], chain_bottom[right]):
            out.add_to_bag(node, (first, first_f))
    return out


def _transform_forbidden(stage, td):
    source = stage.source
    verdict = td.validate(source.graph)
    if not verdict:
        raise ValueError(
            "decomposition does not fit the source graph: %s" % (verdict.problems[0],)
        )
    gadgets = stage.gadgets
    _occ, tops = _occurrence_tops(td, source.forbidden)
    out = td.copy(into=TreeDecomposition)
    for f in sorted(source.forbidden):
        t = tops[f][0]
        base = frozenset(out.bag(t))
        hub = gadgets.fan_hub[f]
        leaves = gadgets.fan_leaves[f]
        if leaves:
            out.splice_above(t, [base | {hub, leaf} for leaf in leaves])
        else:
            out.splice_above(t, [base | {hub}])
    return out


def td_to_lines(td):
    """One node per line: id, parent id or '-', kind for nice inputs,
    then the sorted bag."""
    is_nice = isinstance(td, NiceTreeDecomposition)
    lines = []
    for n in td.nodes():
        parts = [str(n), "-" if td.parent(n) is None else str(td.parent(n))]
        if is_nice:
            parts.append(td.kind(n))
        parts.extend(str(u) for u in sorted(td.bag(n)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def td_from_lines(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ValueError("line %d: expected 'id parent ...'" % (lineno,))
        try:
            nid = int(fields[0])
            parent = None if fields[1] == "-" else int(fields[1])
        except ValueError:
            raise ValueError("line %d: bad node or parent id" % (lineno,)) from None
        rows.append((lineno, nid, parent, fields[2:]))
    if not rows:
        raise ValueError("empty decomposition document")
    nice = all(rest and rest[0] in NICE_KINDS for _, _, _, rest in rows)
    td = NiceTreeDecomposition() if nice else TreeDecomposition()
    seen = set()
    for lineno, nid, parent, rest in rows:
        if nid in seen:
            raise ValueError("line %d: duplicate node id %d" % (lineno, nid))
        seen.add(nid)
        bag_fields = rest[1:] if nice else rest
        try:
            bag = {parse_vertex(x) for x in bag_fields}
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
        td._bags[nid] = bag
        td._parent[nid] = parent
    td._next_id = max(seen) + 1
    for lineno, nid, parent, _ in rows:
        if parent is not None and parent not in seen:
            raise ValueError("line %d: unknown parent %d" % (lineno, parent))
    for nid in td.nodes():
        if td._parent[nid] is not None:
            td._kids.setdefault(td._parent[nid], []).append(nid)
    return td


def td_to_dot(td, name="T"):
    out = ["graph %s {" % name]
    for n in td.nodes():
        label = ", ".join(str(u) for u in sorted(td.bag(n)))
        out.append('  n%d [label="%d: {%s}"];' % (n, n, label))
    for n in td.nodes():
        p = td.parent(n)
        if p is not None:
            out.append("  n%d -- n%d;" % (p, n))
    out.append("}")
    return "\n".join(out) + "\n"
