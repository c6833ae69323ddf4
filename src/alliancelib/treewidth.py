"""Tree decompositions: validation, construction, nice form, and the
decomposition transformations that accompany each instance reduction.

A decomposition is a rooted tree of bags. Width is the largest bag
size minus one; a single empty bag therefore has width -1. Children
are always iterated in node id order, so every traversal here is
deterministic.
"""

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .alliance import primal_graph
from .graph import VertexTable, parse_vertex

NICE_KINDS = ("leaf", "introduce", "forget", "join")


@dataclass(frozen=True)
class TdVerdict:
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


class TreeDecomposition:
    """Mutable rooted tree of bags with integer node ids.

    Bags hold the ids of a vertex table: order, a sequence of names in
    which order[i] has id i, and index, the mapping from name to id.
    TreeDecomposition(graph), as heuristic_td and transform_td build
    it, shares the graph's order and index (a VertexTable, whose ids
    follow name order, and its mapping) as its table and never writes
    to them, so its ids are the graph's. A decomposition read by
    td_from_lines or built by hand owns a private table, a list and a
    dict, which the mutators extend with the new names they are given;
    a name missing from a shared table first gives the decomposition a
    private copy.

    Each bag is a sorted tuple of the table's own int objects, and each
    node's children are a tuple of node ids in id order that the
    mutators keep up to date, so no traversal rescans the parent map.
    Tuples that hold only ints are untracked by the cyclic garbage
    collector at its first pass over them, so a large decomposition
    adds no work to later collections. Names appear only at the edge:
    add_node, set_bag, add_to_bag and splice_above take names, bag()
    returns a read-only frozenset of names, and any order visible
    outside (written bags, make_nice numbering, messages) is the name
    order.
    """

    def __init__(self, graph=None):
        if graph is None:
            self._order, self._index, self._owns_table = [], {}, True
        else:
            self._order, self._index, self._owns_table = graph.order, graph.index, False
        self._bags = {}
        self._parent = {}
        self._kids = {}
        self._next_id = 0

    @classmethod
    def _over(cls, td):
        """Empty decomposition sharing td's table."""
        out = cls()
        out._order, out._index, out._owns_table = td._order, td._index, False
        return out

    def _vertex_ids(self, names):
        """Sorted tuple of the ids of names, adding new names to the table."""
        index = self._index
        ids = set()
        for name in names:
            i = index.get(name)
            if i is None:
                if not self._owns_table:
                    self._order, self._index = list(self._order), dict(index)
                    self._owns_table = True
                    index = self._index
                i = len(self._order)
                self._order.append(name)
                index[name] = i
            ids.add(i)
        return tuple(sorted(ids))

    def _name_order(self, ids):
        """ids sorted by their names, the order callers see: their own
        order over a graph's table."""
        if isinstance(self._order, VertexTable):
            return sorted(ids)
        return sorted(ids, key=self._order.__getitem__)

    def _check_node(self, n):
        if n not in self._bags:
            raise ValueError("unknown node %r" % (n,))

    def _add(self, bag, parent=None):
        """New node with bag, a sorted id tuple, under a known parent."""
        nid = self._next_id
        self._next_id = nid + 1
        self._bags[nid] = bag
        self._parent[nid] = parent
        if parent is not None:
            # nid is the largest id so far, so the tuple stays in id order
            self._kids[parent] = self._kids.get(parent, ()) + (nid,)
        return nid

    def add_node(self, bag, parent=None):
        if parent is not None and parent not in self._bags:
            raise ValueError("unknown parent node %r" % (parent,))
        return self._add(self._vertex_ids(bag), parent)

    def nodes(self):
        return sorted(self._bags)

    def bag(self, n):
        return frozenset(map(self._order.__getitem__, self._bags[n]))

    def set_bag(self, n, bag):
        self._check_node(n)
        self._bags[n] = self._vertex_ids(bag)

    def add_to_bag(self, n, vertices):
        self._check_node(n)
        self._merge(n, self._vertex_ids(vertices))

    def _merge(self, n, ids):
        bag = self._bags[n]
        new = set(ids).difference(bag)
        if new:
            self._bags[n] = tuple(sorted(bag + tuple(new)))

    def parent(self, n):
        return self._parent[n]

    def set_parent(self, n, parent):
        self._check_node(n)
        if parent == n:
            raise ValueError("node %r cannot be its own parent" % (n,))
        if parent is not None and parent not in self._bags:
            raise ValueError("unknown parent node %r" % (parent,))
        self._relink(n, parent)

    def _relink(self, n, parent):
        kids = self._kids
        old = self._parent[n]
        if old is not None:
            rest = tuple(c for c in kids[old] if c != n)
            if rest:
                kids[old] = rest
            else:
                del kids[old]
        self._parent[n] = parent
        if parent is not None:
            siblings = kids.get(parent, ())
            at = bisect_left(siblings, n)
            kids[parent] = siblings[:at] + (n,) + siblings[at:]

    def _index_children(self):
        """Child tuples rebuilt from the parent map in one pass."""
        kids = {}
        for n in self.nodes():
            p = self._parent[n]
            if p is not None:
                kids.setdefault(p, []).append(n)
        self._kids = {p: tuple(c) for p, c in kids.items()}

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
        return max(map(len, self._bags.values())) - 1

    def copy(self, into=None):
        """Copy over the same table; bags and child tuples are shared,
        being immutable."""
        out = (into or type(self))._over(self)
        out._bags = dict(self._bags)
        out._parent = dict(self._parent)
        out._kids = dict(self._kids)
        out._next_id = self._next_id
        return out

    def postorder(self):
        """Node ids, children before parents, children in id order:
        the reverse of a preorder that takes children last to first."""
        kids = self._kids
        out = []
        stack = [self.root()]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(kids.get(node, ()))
        out.reverse()
        return out

    def splice_above(self, n, bags):
        """Insert a chain of new nodes between n and its parent.

        The first bag becomes the new parent of n, the last ends up
        adjacent to the old parent (or becomes the root). Returns the
        new ids bottom to top.
        """
        return self._splice(n, [self._vertex_ids(b) for b in bags])

    def _splice(self, n, bags):
        """splice_above for bags that are sorted id tuples."""
        parent, kids = self._parent, self._kids
        old_parent = parent[n]
        ids = []
        prev = n
        for bag in bags:
            nid = self._next_id
            self._next_id = nid + 1
            self._bags[nid] = bag
            parent[prev] = nid
            kids[nid] = (prev,)
            ids.append(nid)
            prev = nid
        if not ids:
            return ids
        parent[prev] = old_parent
        if old_parent is not None:
            # prev is the largest id so far, so it goes last
            kids[old_parent] = tuple(c for c in kids[old_parent] if c != n) + (prev,)
        return ids

    def occurrences(self, v):
        i = self._index.get(v)
        return [n for n in self.nodes() if i in self._bags[n]]

    def topmost(self, v):
        """The unique occurrence of v whose parent bag lacks v."""
        i = self._index.get(v)
        tops = [] if i is None else _tops_of(_tops(self), i)
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
        parent = self._parent
        up_a, up_b = [a], [b]
        seen_a, seen_b = {a: 0}, {b: 0}
        x, y = a, b
        while x not in seen_b and y not in seen_a:
            px, py = parent[x], parent[y]
            if px is None and py is None:
                raise ValueError("nodes %r and %r are not in one tree" % (a, b))
            # td_from_lines accepts parent links that close a cycle,
            # which a climb would otherwise follow forever
            if px in seen_a or py in seen_b:
                raise ValueError("nodes %r and %r are not in one tree" % (a, b))
            if px is not None:
                seen_a[px] = len(up_a)
                up_a.append(px)
                x = px
            if py is not None:
                seen_b[py] = len(up_b)
                up_b.append(py)
                y = py
        meet = x if x in seen_b else y
        return up_a[: seen_a[meet] + 1] + up_b[: seen_b[meet]][::-1]

    def validate(self, graph):
        """Check the three decomposition conditions against graph.

        Edges are checked from the occurrence tops alone: the nodes
        holding both ends of an edge form subtrees, and each of them
        is topped by a top of one end, so an edge is covered exactly
        when a top of one end holds the other.
        """
        problems = []
        bags, parent = self._bags, self._parent
        if not bags:
            return TdVerdict(False, ("decomposition has no nodes",))
        roots = [n for n, p in parent.items() if p is None]
        if len(roots) != 1:
            problems.append("expected exactly one root, found %d" % (len(roots),))
        for n, p in parent.items():
            if p is not None and p not in bags:
                problems.append("node %d has unknown parent %d" % (n, p))
        # with one root and known parents, a node off the root's tree
        # lies on a cycle of parent links
        if not problems and len(self.postorder()) != len(bags):
            problems.append("some nodes are not reachable from the root")
        if problems:
            return TdVerdict(False, tuple(problems))
        order, known, names = self._order, graph.index, graph.order
        # a shared table holds no foreign vertex and gives each graph
        # vertex its own id: then no name is looked up or made
        shared = order is names
        foreign = () if shared else {u for u, name in enumerate(order) if name not in known}
        if foreign:
            for n in self.nodes():
                for u in self._name_order(u for u in bags[n] if u in foreign):
                    problems.append(
                        "bag of node %d contains foreign vertex %s" % (n, order[u])
                    )
        tops = first, more = _tops(self)
        # the table id of each graph vertex, in the graph's (name) order
        index = self._index
        local = range(len(names)) if shared else [index.get(name) for name in names]
        uncovered = []
        start, adjacent = graph.first, graph.adjacent
        for i, u in enumerate(local):
            top = None if u is None else first[u]
            if top is None:
                problems.append("vertex %s is in no bag" % (names[i],))
            bag, end = bags.get(top, ()), start[i + 1]
            # the neighbours j > i, so that each edge is seen once
            for j in adjacent[bisect_right(adjacent, i, start[i], end):end]:
                w = local[j]
                top_w = None if w is None else first[w]
                covered = top is not None and top_w is not None and (
                    w in bag
                    or u in bags[top_w]
                    or ((u in more or w in more) and bool(_joint(self, tops, u, w)))
                )
                if not covered:
                    uncovered.append("edge %s--%s is in no bag" % (names[i], names[j]))
        problems += uncovered
        for name in sorted(order[u] for u in more if shared or order[u] in known):
            problems.append("occurrences of %s are not connected" % (name,))
        return TdVerdict(not problems, tuple(problems))


def _tops(td):
    """The occurrence tops of every table id, from one pass over the
    bags: the nodes whose bag holds the vertex while their parent's
    bag does not. first[u] is the first in node order, or None; more
    maps a vertex with several tops to all of them, in node order. A
    vertex with one top has connected occurrences, and that top is its
    topmost node."""
    bags, parent = td._bags, td._parent
    first = [None] * len(td._order)
    more = {}
    for n in td.nodes():
        p = parent[n]
        bag = bags[n]
        for u in bag if p is None else set(bag).difference(bags[p]):
            if first[u] is None:
                first[u] = n
            else:
                more.setdefault(u, [first[u]]).append(n)
    return first, more


def _tops_of(tops, u):
    first, more = tops
    return more.get(u) or ([] if first[u] is None else [first[u]])


def _joint(td, tops, u, w):
    """Tops of the subtrees whose bags hold both u and w: each such
    subtree lies in one occurrence component of each end, so its top
    is the top of one of those components."""
    bags = td._bags
    out = [t for t in _tops_of(tops, u) if w in bags[t]]
    out += [t for t in _tops_of(tops, w) if u in bags[t] and t not in out]
    return out


def _joint_top(td, tops, u, w):
    """Topmost node whose bag holds both u and w."""
    joint = _joint(td, tops, u, w)
    if not joint:
        raise ValueError("no bag contains both %s and %s" % (td._order[u], td._order[w]))
    if len(joint) != 1:
        raise ValueError(
            "occurrences of %s and %s are not connected" % (td._order[u], td._order[w])
        )
    return joint[0]


def _kind(td, n):
    ch = td._kids.get(n, ())
    if not ch:
        return "leaf"
    bags = td._bags
    if len(ch) == 1:
        b, cb = bags[n], bags[ch[0]]
        if len(b) == len(cb) + 1 and set(cb).issubset(b):
            return "introduce"
        if len(b) == len(cb) - 1 and set(b).issubset(cb):
            return "forget"
        raise ValueError(
            "node %d must differ from its child by exactly one vertex" % (n,)
        )
    if len(ch) == 2:
        if all(bags[c] == bags[n] for c in ch):
            return "join"
        raise ValueError("join node %d must repeat its children's bag" % (n,))
    raise ValueError("node %d has %d children" % (n, len(ch)))


def _shape_problems(td):
    """Why a rooted decomposition is not nice, in node order; empty
    when it is."""
    if td._bags[td.root()]:
        yield "root bag is not empty"
    for n in td.nodes():
        try:
            kind = _kind(td, n)
        except ValueError as exc:
            yield str(exc)
            continue
        if kind == "leaf" and td._bags[n]:
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
    """Nice decomposition with the same bags and width, over the same
    vertex table.

    An input that already has nice shape is returned unchanged (as a
    copy); anything else is rebuilt with forget/introduce transitions
    between the original bags, one vertex at a time in name order, and
    left-folded binary joins. The input tree is walked depth first with
    an explicit stack, children in id order, so depth is not limited by
    the interpreter's recursion.
    """
    if _has_nice_shape(td):
        return td.copy(into=NiceTreeDecomposition)
    out = NiceTreeDecomposition._over(td)

    def transition(top, frm, to):
        """New root above top, one vertex forgotten, then introduced,
        at a time, from bag frm to bag to."""
        cur = set(frm)
        bags = []
        for x in td._name_order(cur.difference(to)):
            cur.discard(x)
            bags.append(tuple(sorted(cur)))
        for x in td._name_order(set(to).difference(frm)):
            cur.add(x)
            bags.append(tuple(sorted(cur)))
        return out._splice(top, bags)[-1] if bags else top

    def finish(node, tops):
        """Top of node's rebuilt subtree, given its children's tops."""
        target = td._bags[node]
        if not tops:
            return transition(out._add(()), (), target)
        top = tops[0]
        for other in tops[1:]:
            join = out._add(target)
            out._relink(top, join)
            out._relink(other, join)
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
        stack[-1][2].append(transition(top, td._bags[node], td._bags[above]))
    transition(top, td._bags[root], ())
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
    """Min-fill elimination ordering turned into a decomposition over
    the graph's vertex table.

    No optimality promise; pair with treewidth_exact_small when a
    certificate is needed and the graph is small enough.
    """
    td = TreeDecomposition(graph)
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
        # adjacent bags need not share vertices, so chaining an
        # exhausted component onto the next bag is harmless
        above = ids[min(position[u] for u in ns)] if ns else ids[i + 1]
        td._parent[ids[i]] = above
    td._index_children()
    return td


def postorder_ordering(td, eligible):
    """Eligible vertices in the order their topmost bags close during a
    post-order traversal; ties inside one bag break sorted."""
    eligible = sorted(frozenset(eligible))
    index = td._index
    ids = [index.get(u) for u in eligible]
    first, more = _tops(td)
    for u, i in zip(eligible, ids):
        if i in more:
            raise ValueError("occurrences of %s are not connected" % (u,))
    closing = {}
    for u, i in zip(eligible, ids):
        if i is None or first[i] is None:
            raise ValueError("vertex %s is in no bag" % (u,))
        closing.setdefault(first[i], []).append(u)
    out = []
    for n in td.postorder():
        out.extend(closing.get(n, ()))
    return tuple(out)


def transform_td(stage, td):
    """Decomposition of the stage output built from one of its input,
    over the vertex table of the output graph.

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


def _carry(td, graph):
    """Copy of td over graph's vertex table, for a td validated against
    a graph whose vertices are all in graph."""
    out = TreeDecomposition(graph)
    local = list(map(graph.index.get, td._order))
    out._bags = {
        n: tuple(sorted(map(local.__getitem__, bag))) for n, bag in td._bags.items()
    }
    out._parent, out._kids, out._next_id = dict(td._parent), dict(td._kids), td._next_id
    return out


def _ids(table, block):
    """The ids of a block of table, as the table's own ints."""
    return table.ids[block.start:block.start + block.count]


def _with(base, *ids):
    """Bag base with ids added; none of them may be in base already."""
    return tuple(sorted(base + ids))


def _transform_mmo(stage, td):
    source = stage.source
    verdict = td.validate(source.graph)
    if not verdict:
        raise ValueError(
            "decomposition does not fit the source graph: %s" % (verdict.problems[0],)
        )
    gadgets = stage.gadgets
    table, index = stage.result.graph.order, stage.result.graph.index
    out = _carry(td, stage.result.graph)
    bags = out._bags
    tops = first, _more = _tops(out)
    for u, w in source.graph.sorted_edges():
        cu = _ids(table, gadgets.edge_copy[(u, w)])
        cw = _ids(table, gadgets.edge_copy[(w, u)])
        weight = len(cu)
        t = _joint_top(out, tops, index[u], index[w])
        base = bags[t]
        if weight == 1:
            out._add(_with(base, cu[0], cw[0]), t)
        else:
            prev = t
            for i in range(1, weight):
                prev = out._add(_with(base, cu[i - 1], cu[i], cw[i - 1], cw[i]), prev)
        for side, owner in ((gadgets.edge_copy_forbidden[(u, w)], u),
                            (gadgets.edge_copy_forbidden[(w, u)], w)):
            anchor = first[index[owner]]
            anchor_bag = bags[anchor]
            prev = anchor
            for x in _ids(table, side):
                prev = out._add(_with(anchor_bag, x), prev)
    for u in source.graph.sorted_vertices():
        anchor = first[index[u]]
        anchor_bag = bags[anchor]
        prev = anchor
        for x in _ids(table, gadgets.helper[u]):
            prev = out._add(_with(anchor_bag, x), prev)
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
    table, index = stage.result.graph.order, stage.result.graph.index
    verts = source.graph.sorted_vertices()
    n = len(verts)
    out = _carry(td, stage.result.graph)
    bags = out._bags
    tops = first, _more = _tops(out)
    sorted_pairs = sorted(source.pairs)
    top_pair = {(a, b): _joint_top(out, tops, index[a], index[b]) for a, b in sorted_pairs}
    ys = {u: _ids(table, gadgets.y_chain[u]) for u in verts}
    yfs = {u: _ids(table, gadgets.y_chain_forbidden[u]) for u in verts}
    # every bag containing v also gets v_n and its forbidden twin
    last = {index[u]: (ys[u][n - 1], yfs[u][n - 1]) for u in verts}
    for node, bag in list(bags.items()):
        extra = ()
        for u in bag:
            extra += last[u]
        bags[node] = _with(bag, *extra)
    # descending chain below the topmost bag of v keeps v_n adjacent
    for u in verts:
        y, yf = ys[u], yfs[u]
        prev = first[index[u]]
        for i in range(n - 1, 0, -1):
            prev = out._add(_with((index[u],), y[i - 1], yf[i - 1], y[i], yf[i]), prev)
    m = n * n + n
    for a, b in sorted_pairs:
        t = top_pair[(a, b)]
        carry = last[index[b]]
        hub_a = index[gadgets.z_hub[((a, b), a)]]
        hub_b = index[gadgets.z_hub[((a, b), b)]]
        za = _ids(table, gadgets.z_chain[((a, b), a)])
        zfa = _ids(table, gadgets.z_chain_forbidden[((a, b), a)])
        zb = _ids(table, gadgets.z_chain[((a, b), b)])
        zfb = _ids(table, gadgets.z_chain_forbidden[((a, b), b)])
        prev = out._add(_with(carry, *last[index[a]], hub_a, za[0], zfa[0]), t)
        for i in range(1, m):
            prev = out._add(_with(carry, hub_a, za[i - 1], zfa[i - 1], za[i], zfa[i]), prev)
        prev = out._add(_with(carry, hub_a, hub_b, index[gadgets.triangle[(a, b)]]), prev)
        for i in range(m - 1, 0, -1):
            prev = out._add(_with(carry, hub_b, zb[i - 1], zfb[i - 1], zb[i], zfb[i]), prev)
        out._add(_with(carry, hub_b, zb[0], zfb[0]), prev)
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
    table, index = stage.result.graph.order, stage.result.graph.index
    out = _carry(td, stage.result.graph)
    bags = out._bags
    n = len(source.graph.vertices)
    necessary = source.necessary
    first, _more = _tops(out)
    chain_top = {}
    chain_bottom = {}

    def grow_chain(anchor, base, member):
        """Replace anchor with the member's chain; bags stack above it."""
        ac = _ids(table, gadgets.a_chain[member])
        af = _ids(table, gadgets.a_chain_forbidden[member])
        bags[anchor] = _with(base, ac[0], af[0], ac[1], af[1])
        chain_bottom[member] = anchor
        top = anchor
        extra = [_with(base, ac[i - 1], af[i - 1], ac[i], af[i]) for i in range(2, n + 1)]
        if extra:
            top = out._splice(anchor, extra)[-1]
        chain_top[member] = top
        return top

    for u in sorted(eligible):
        anchor = first[index[u]]
        if u in necessary:
            grow_chain(anchor, bags[anchor], u)
        else:
            base = _with(
                bags[anchor],
                index[gadgets.primed[u]],
                index[gadgets.g_vertex[u]],
                index[gadgets.h_vertex[u]],
                index[gadgets.g_forbidden[u]],
                index[gadgets.h_forbidden[u]],
            )
            top = grow_chain(anchor, base, u)
            primed = gadgets.primed[u]
            pc = _ids(table, gadgets.a_chain[primed])
            pf = _ids(table, gadgets.a_chain_forbidden[primed])
            mbags = [_with(base, pc[i - 1], pf[i - 1], pc[i], pf[i]) for i in range(1, n + 1)]
            spliced = out._splice(top, mbags)
            chain_bottom[primed] = spliced[0]
            chain_top[primed] = spliced[-1]
    # each bag on a thread's path gets the thread's pair; collected
    # first, so that a bag on several paths is rebuilt once
    threads = {}
    images = [u if u in necessary else gadgets.primed[u] for u in stage.ordering]
    ids = table.ids
    for left, right in zip(images, images[1:]):
        thread = (ids[gadgets.a_chain[right].start], ids[gadgets.a_chain_forbidden[right].start])
        for node in out.path_between(chain_top[left], chain_bottom[right]):
            threads[node] = threads.get(node, ()) + thread
    for node, thread in threads.items():
        out._merge(node, thread)
    return out


def _transform_forbidden(stage, td):
    source = stage.source
    verdict = td.validate(source.graph)
    if not verdict:
        raise ValueError(
            "decomposition does not fit the source graph: %s" % (verdict.problems[0],)
        )
    gadgets = stage.gadgets
    table, index = stage.result.graph.order, stage.result.graph.index
    out = _carry(td, stage.result.graph)
    bags = out._bags
    first, _more = _tops(out)
    for f in sorted(source.forbidden):
        t = first[index[f]]
        base = bags[t]
        hub = index[gadgets.fan_hub[f]]
        leaves = _ids(table, gadgets.fan_leaves[f])
        if leaves:
            out._splice(t, [_with(base, hub, leaf) for leaf in leaves])
        else:
            out._splice(t, [_with(base, hub)])
    return out


def _bag_labels(td):
    """Node ids in order, each with its bag's names rendered in name
    order; a name is rendered once however many bags hold it."""
    order, bags = td._order, td._bags
    labels = {u: str(order[u]) for u in set().union(*bags.values())}
    for n in td.nodes():
        yield n, map(labels.__getitem__, td._name_order(bags[n]))


def td_to_lines(td):
    """One node per line: id, parent id or '-', kind for nice inputs,
    then the sorted bag."""
    is_nice = isinstance(td, NiceTreeDecomposition)
    lines = []
    for n, labels in _bag_labels(td):
        p = td._parent[n]
        parts = [str(n), "-" if p is None else str(p)]
        if is_nice:
            parts.append(_kind(td, n))
        parts.extend(labels)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def td_from_lines(text):
    """Decomposition from td_to_lines text, over a private table in name
    order. The text is read as nice only when every line declares a
    node kind and each declared kind is the one its node has; plain
    bags whose first vertex is named like a kind stay plain."""
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
    if all(rest and rest[0] in NICE_KINDS for _, _, _, rest in rows):
        nice = _td_from_rows(NiceTreeDecomposition(), rows, 1)
        if all(_declared_kind_holds(nice, nid, rest[0]) for _, nid, _, rest in rows):
            return nice
    return _td_from_rows(TreeDecomposition(), rows, 0)


def _declared_kind_holds(td, n, kind):
    try:
        return _kind(td, n) == kind
    except ValueError:
        return False


def _td_from_rows(td, rows, skip):
    """td filled from parsed rows, each bag from its fields after the
    first skip."""
    parsed = {}
    seen = set()
    named = []
    for lineno, nid, _parent, rest in rows:
        if nid in seen:
            raise ValueError("line %d: duplicate node id %d" % (lineno, nid))
        seen.add(nid)
        bag = set()
        for field in rest[skip:]:
            vertex = parsed.get(field)
            if vertex is None:
                try:
                    vertex = parsed[field] = parse_vertex(field)
                except ValueError as exc:
                    raise ValueError("line %d: %s" % (lineno, exc)) from None
            bag.add(vertex)
        named.append(bag)
    td._order = sorted(set().union(*named))
    td._index = index = {v: i for i, v in enumerate(td._order)}
    for (_, nid, parent, _), bag in zip(rows, named):
        td._bags[nid] = tuple(sorted(map(index.__getitem__, bag)))
        td._parent[nid] = parent
    td._next_id = max(seen) + 1
    for lineno, _nid, parent, _ in rows:
        if parent is not None and parent not in seen:
            raise ValueError("line %d: unknown parent %d" % (lineno, parent))
    td._index_children()
    return td


def td_to_dot(td, name="T"):
    out = ["graph %s {" % name]
    for n, labels in _bag_labels(td):
        label = ", ".join(labels)
        out.append('  n%d [label="%d: {%s}"];' % (n, n, label))
    for n in td.nodes():
        p = td.parent(n)
        if p is not None:
            out.append("  n%d -- n%d;" % (p, n))
    out.append("}")
    return "\n".join(out) + "\n"
