"""Tree decompositions: validation, construction, nice form, and
transform_td, which carries one along a reduction stage by the
transform in the stage's record, beside its builder in reductions.

A decomposition is a rooted tree of bags. Width is the largest bag
size minus one; a single empty bag therefore has width -1. Children
are always iterated in node id order, so every traversal here is
deterministic.
"""

import heapq
import itertools
from array import array
from bisect import bisect_left, bisect_right

from ._record import record
from .graph import Block, VertexTable, _Index, parse_vertex

NICE_KINDS = ("leaf", "introduce", "forget", "join")


@record
class TdVerdict:
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


class TreeDecomposition:
    """Rooted tree of bags with integer node ids.

    Bags hold the ids of a vertex table: _order, a VertexTable whose
    ids follow name order, and _index, its mapping from name to id.
    TreeDecomposition(graph), as heuristic_td and transform_td build
    it, shares the graph's table, so its ids are the graph's;
    td_from_lines places the names it reads in a table of their own,
    and TreeDecomposition() starts with an empty one. No table is ever
    written to, and named bags come in through td_from_lines only.

    Node ids are 0..N-1 in creation order, and every per-node table is
    indexed by them: _bags is a list of bags, each a sorted tuple of
    ids, and the tree is one array("i"), _parent,
    with -1 for none. Beside its bag a node costs one list slot and one
    4-byte entry, about 12 B with the tables' spare room, where dicts of
    bags, parents and child tuples keyed by node cost about 237 B. Child
    lists are derived from _parent when a traversal first reads them
    (see _child_index) and dropped by every later parent write, so
    reads between writes share one O(N) index; a loop that alternates
    writes with child reads would rebuild it each time. Tuples that hold
    only ints are untracked by the cyclic garbage collector at its first
    pass over them, and arrays are never tracked, so a large
    decomposition adds no work to later collections. Names appear only
    at the edge: bag() returns a read-only frozenset of names, and since
    ids sort as their names, any order visible outside (written bags,
    make_nice numbering, messages) is the name order.
    """

    def __init__(self, graph=None):
        if graph is None:
            self._order = VertexTable([])
            self._index = _Index(self._order)
        else:
            self._order, self._index = graph.order, graph.index
        self._bags = []
        self._parent = array("i")
        self._kids = None

    @classmethod
    def _over(cls, td):
        """Empty decomposition sharing td's table."""
        out = cls()
        out._order, out._index = td._order, td._index
        return out

    def _is_node(self, n):
        return isinstance(n, int) and 0 <= n < len(self._bags)

    def _check_node(self, n):
        if not self._is_node(n):
            raise ValueError("unknown node %r" % (n,))

    def _add(self, bag, parent=-1):
        """New node with bag, a sorted id tuple, under a known parent."""
        return self._hang(parent, [bag])

    def _hang(self, parent, bags):
        """A chain of new nodes with bags, sorted id tuples, below a known
        parent (-1 makes the first a root): each is the only child of the
        one before. Returns the last new id, or parent for no bags."""
        start = len(self._bags)
        last = start + len(bags) - 1
        if last < start:
            return parent
        self._bags += bags
        # node start + i sits under start + i - 1
        self._parent.append(parent)
        self._parent.extend(range(start, last))
        self._kids = None
        return last

    def nodes(self):
        return list(range(len(self._bags)))

    def bag(self, n):
        self._check_node(n)
        return frozenset(self._order.names(self._bags[n]))

    def parent(self, n):
        self._check_node(n)
        p = self._parent[n]
        return None if p < 0 else p

    def _child_index(self):
        """(first, kids), the children of every node n in id order as
        kids[first[n]:first[n + 1]], derived from _parent on the first
        read after a write. _hang and _splice drop it; heuristic_td,
        _td_from_rows and make_nice write _parent directly only before
        anything reads it. The roots, whose parent -1 sorts first, fill
        kids[:first[0]]."""
        if self._kids is None:
            parent = self._parent
            count = [0] * (len(parent) + 1)
            for p in parent:
                count[p + 1] += 1
            self._kids = (
                array("i", itertools.accumulate(count)),
                array("i", sorted(range(len(parent)), key=parent.__getitem__)),
            )
        return self._kids

    def children(self, n):
        if not self._is_node(n):
            return []
        first, kids = self._child_index()
        return kids[first[n]:first[n + 1]].tolist()

    def root(self):
        roots = self._parent.count(-1)
        if roots != 1:
            raise ValueError("decomposition must have exactly one root, found %d" % roots)
        return self._parent.index(-1)

    def width(self):
        if not self._bags:
            return -1
        return max(map(len, self._bags)) - 1

    def copy(self, into=None):
        """Copy over the same table; bags are shared, being immutable."""
        out = (into or type(self))._over(self)
        out._bags = self._bags[:]
        out._parent = self._parent[:]
        return out

    def postorder(self):
        """Node ids, children before parents, children in id order:
        the reverse of a preorder that takes children last to first."""
        first, kids = self._child_index()
        out = []
        stack = [self.root()]
        while stack:
            node = stack.pop()
            out.append(node)
            stack += kids[first[node]:first[node + 1]]
        out.reverse()
        return out

    def _splice(self, n, bags):
        """A chain of new nodes with bags, sorted id tuples, between n and
        its parent: the first bag becomes the new parent of n, the last
        sits under n's old parent (or becomes the root). The new ids,
        bottom to top, as a range."""
        start = len(self._bags)
        if not bags:
            return range(start, start)
        top = start + len(bags) - 1
        self._bags += bags
        # node start + i sits under start + i + 1, n under start, and top
        # under n's old parent
        self._parent.extend(range(start + 1, top + 1))
        self._parent.append(self._parent[n])
        self._parent[n] = start
        self._kids = None
        return range(start, top + 1)

    def path_between(self, a, b):
        """Node ids on the tree path from a to b, both inclusive.

        Both ends climb in turn until one reaches a node the other has
        passed, which is their lowest common ancestor; the cost is the
        length of the path, not the depth of the tree.
        """
        self._check_node(a)
        self._check_node(b)
        parent = self._parent
        up_a, up_b = [a], [b]
        seen_a, seen_b = {a: 0}, {b: 0}
        x, y = a, b
        while x not in seen_b and y not in seen_a:
            px, py = parent[x], parent[y]
            if px < 0 and py < 0:
                raise ValueError("nodes %r and %r are not in one tree" % (a, b))
            # td_from_lines accepts parent links that close a cycle,
            # which a climb would otherwise follow forever
            if px in seen_a or py in seen_b:
                raise ValueError("nodes %r and %r are not in one tree" % (a, b))
            if px >= 0:
                seen_a[px] = len(up_a)
                up_a.append(px)
                x = px
            if py >= 0:
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
        roots = parent.count(-1)
        if roots != 1:
            problems.append("expected exactly one root, found %d" % (roots,))
        size = len(bags)
        if min(parent) < -1 or max(parent) >= size:
            problems += [
                "node %d has unknown parent %d" % (n, p)
                for n, p in enumerate(parent)
                if not -1 <= p < size
            ]
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
            problems += [
                "bag of node %d contains foreign vertex %s" % (n, order[u])
                for n, bag in enumerate(bags)
                for u in bag
                if u in foreign
            ]
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
            bag, end = () if top is None else bags[top], start[i + 1]
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
    bags = td._bags
    first = [None] * len(td._order)
    more = {}
    for n, p in enumerate(td._parent):
        bag = bags[n]
        for u in bag if p < 0 else set(bag).difference(bags[p]):
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
    first, kids = td._child_index()
    below = kids[first[n]:first[n + 1]]
    if not below:
        return "leaf"
    bags = td._bags
    if len(below) == 1:
        b, cb = bags[n], bags[below[0]]
        if len(b) == len(cb) + 1 and set(cb).issubset(b):
            return "introduce"
        if len(b) == len(cb) - 1 and set(b).issubset(cb):
            return "forget"
        raise ValueError(
            "node %d must differ from its child by exactly one vertex" % (n,)
        )
    if len(below) == 2:
        if bags[below[0]] == bags[n] == bags[below[1]]:
            return "join"
        raise ValueError("join node %d must repeat its children's bag" % (n,))
    raise ValueError("node %d has %d children" % (n, len(below)))


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
        self._check_node(n)
        return _kind(self, n)

    def validate_nice(self, graph):
        base = self.validate(graph)
        if not base:
            return base
        problems = tuple(_shape_problems(self))
        return TdVerdict(not problems, problems)


def validate_td(graph, td):
    return td.validate(graph)


def make_nice(td):
    """Nice decomposition with the same bags and width, over the same
    vertex table.

    An input that already has nice shape is returned unchanged (as a
    copy); anything else is rebuilt with forget/introduce transitions
    between the original bags, one vertex at a time in name order, and
    left-folded binary joins, in one pass over the input's post-order,
    so depth is not limited by the interpreter's recursion.
    """
    order = td.postorder()
    if len(order) != len(td._bags):
        raise ValueError("some nodes are not reachable from the root")
    if next(_shape_problems(td), None) is None:
        return td.copy(into=NiceTreeDecomposition)
    src, up = td._bags, td._parent
    bags, parent = [], array("i")

    def make(bag, child):
        """New node with bag above child, the top of its subtree or -1."""
        n = len(bags)
        bags.append(bag)
        parent.append(-1)
        if child >= 0:
            parent[child] = n
        return n

    def transition(top, cur, to):
        """Nodes above top, one vertex forgotten, then introduced, at a
        time, from bag cur to bag to; their top."""
        for x in sorted(set(cur).difference(to)):
            i = cur.index(x)
            top = make(cur := cur[:i] + cur[i + 1:], top)
        for x in sorted(set(to).difference(cur)):
            i = bisect_left(cur, x)
            top = make(cur := cur[:i] + (x,) + cur[i:], top)
        return top

    tops = {}
    for node in order:
        target = src[node]
        below = tops.pop(node, None)
        if below is None:
            top = transition(make((), -1), (), target)
        else:
            top = below[0]
            for other in below[1:]:
                # the first join takes two subtree tops, each later one
                # the join below it
                top = make(target, top)
                parent[other] = top
        p = up[node]
        top = transition(top, target, () if p < 0 else src[p])
        if p >= 0:
            tops.setdefault(p, []).append(top)
    out = NiceTreeDecomposition._over(td)
    out._bags, out._parent = bags, parent
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


def _fill(neighbours, u):
    """How many pairs of u's neighbours are not adjacent."""
    ns = neighbours[u]
    degree = len(ns)
    # each edge among them is counted from both its ends
    inside = sum(len(ns & neighbours[a]) for a in ns)
    return degree * (degree - 1) // 2 - inside // 2


def heuristic_td(graph):
    """Min-fill elimination ordering turned into a decomposition over
    the graph's vertex table: each step eliminates the vertex of least
    fill, the least id, which is the least name, on a tie.

    Eliminating a vertex changes the fill of its neighbours and of
    theirs only, so only those are scored again. A heap holds the
    scores, and it passes over an entry that no longer matches its
    vertex's score.

    No optimality promise; pair with treewidth_exact_small when a
    certificate is needed and the graph is small enough.
    """
    td = TreeDecomposition(graph)
    ids = graph.order.ids
    if not ids:
        td._add(())
        return td
    first, adjacent = graph.first, graph.adjacent
    neighbours = [set(adjacent[first[u]:first[u + 1]]) for u in ids]
    score = [_fill(neighbours, u) for u in ids]
    heap = list(zip(score, ids))
    heapq.heapify(heap)
    position = [-1] * len(ids)
    bags = []
    while heap:
        fill, u = heapq.heappop(heap)
        if position[u] >= 0 or fill != score[u]:
            continue
        position[u] = len(bags)
        ns = neighbours[u]
        bags.append(tuple(sorted(ns | {u})))
        touched = set(ns)
        for a in ns:
            na = neighbours[a]
            na |= ns
            na.discard(a)
            na.discard(u)
            touched |= na
        for w in touched:
            fill = _fill(neighbours, w)
            if fill != score[w]:
                score[w] = fill
                heapq.heappush(heap, (fill, w))
    parent = array("i", [-1]) * len(bags)
    for i, bag in enumerate(bags[:-1]):
        # adjacent bags need not share vertices, so chaining an
        # exhausted component onto the next bag is harmless
        parent[i] = min((position[a] for a in bag if position[a] > i), default=i + 1)
    td._bags, td._parent = bags, parent
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
    order = td.postorder()
    if len(order) != len(td._bags):
        raise ValueError("some nodes are not reachable from the root")
    out = []
    for n in order:
        out.extend(closing.get(n, ()))
    return tuple(out)


def transform_td(stage, td):
    """Decomposition of the stage output built from one of its input,
    over the vertex table of the output graph. The stage's own record
    holds the transform, which mirrors its gadget construction and keeps
    the width within the documented additive or multiplicative bound."""
    return stage.kind.transform(stage, td)


def _with(base, *ids):
    """Bag base with ids added; none of them may be in base already."""
    return tuple(sorted(base + ids))


def _bag_labels(td):
    """Node ids in order, each with its bag's names rendered in name
    order; a name is rendered once however many bags hold it."""
    order, bags = td._order, td._bags
    labels = {u: str(order[u]) for u in set().union(*bags)}
    for n in td.nodes():
        yield n, map(labels.__getitem__, bags[n])


def td_to_lines(td):
    """One node per line: id, parent id or '-', kind for nice inputs,
    then the sorted bag."""
    is_nice = isinstance(td, NiceTreeDecomposition)
    lines = []
    for n, labels in _bag_labels(td):
        p = td._parent[n]
        parts = [str(n), "-" if p < 0 else str(p)]
        if is_nice:
            parts.append(_kind(td, n))
        parts.extend(labels)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def td_from_lines(text):
    """Decomposition from td_to_lines text, over a VertexTable of the
    names it reads, whose ids follow name order: the one way named bags
    come in. The text is read as nice only when every line declares a
    node kind and each declared kind is the one its node has; plain bags
    whose first vertex is named like a kind stay plain."""
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
    first skip. The node ids of n rows must be 0..n-1, so that they
    index the node tables."""
    parsed = {}
    seen = set()
    named = []
    size = len(rows)
    for lineno, nid, _parent, rest in rows:
        if not 0 <= nid < size:
            raise ValueError(
                "line %d: node id %d is not in 0..%d (one id per node, counted from 0)"
                % (lineno, nid, size - 1)
            )
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
    for lineno, _nid, parent, _ in rows:
        if parent is not None and not 0 <= parent < size:
            raise ValueError("line %d: unknown parent %d" % (lineno, parent))
    td._order = table = VertexTable([Block(tuple(sorted(set().union(*named))))])
    td._index = _Index(table)
    td._bags = [None] * size
    td._parent = array("i", [-1]) * size
    for (_, nid, parent, _), bag in zip(rows, named):
        td._bags[nid] = tuple(sorted(map(table.find, bag)))
        if parent is not None:
            td._parent[nid] = parent
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
