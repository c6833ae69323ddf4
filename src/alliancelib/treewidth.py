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
from bisect import bisect_right, insort
from operator import sub

from ._record import record
from .graph import Block, VertexTable, parse_vertex

NICE_KINDS = ("leaf", "introduce", "forget", "join")


@record
class TdVerdict:
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


class TreeDecomposition:
    """Rooted tree of bags with node ids 0..N-1 in creation order.

    TreeDecomposition(table, bags, parent) builds every one: table is a
    VertexTable whose ids follow name order (an empty one by default),
    bags are sorted id lists or arrays and parent gives each node's
    parent, -1 for none; bags and parent are copied, so no caller's
    array is shared. heuristic_td and the stage transforms pass a
    graph's table, read only; td_from_lines, the one way named bags
    come in, reads the names into a table of its own.

    All bags are runs of sorted ids in one array("i"), _ids: node n's is
    _ids[_start[n]:_end[n]] (_bag); the tree is the array _parent, -1
    for none. An entry costs 4 B and a node 12 B, untracked by the
    cyclic collector (a tuple per bag: 56 B, and 8 B an entry).
    _rebag leaves the old bag unread. Child lists are derived from
    _parent on the first read after a write. Names appear only at the
    edge: bag() returns a frozenset of names, and as ids sort as their
    names, every order visible outside is name order.
    """

    def __init__(self, table=None, bags=(), parent=()):
        self._order = VertexTable([]) if table is None else table
        self._ids, self._start, self._end = array("i"), array("i"), array("i")
        self._write(bags)
        self._parent = array("i", parent)
        self._kids = None

    def _is_node(self, n):
        return isinstance(n, int) and 0 <= n < len(self._parent)

    def _check_node(self, n):
        if not self._is_node(n):
            raise ValueError("unknown node %r" % (n,))

    def _bag(self, n):
        """The bag of node n, its sorted ids, as an array."""
        return self._ids[self._start[n]:self._end[n]]

    def _write(self, bags):
        """Append bags, sorted id lists or arrays, each copied as it comes:
        the new node ids, whose parents the caller adds, as a range."""
        ids, start, end = self._ids, self._start, self._end
        m, at = len(end), len(ids)
        for bag in bags:
            if type(bag) is array:
                ids += bag
            else:
                ids.fromlist(bag)
            end.append(len(ids))
        new = range(m, len(end))
        if new:
            # each new bag starts where the one before it ends
            start.append(at)
            start += end[m:-1]
        return new

    def _rebag(self, n, bag):
        """Rewrite node n's bag as bag, a sorted id list, at the end."""
        self._start[n] = len(self._ids)
        self._ids.fromlist(bag)
        self._end[n] = len(self._ids)

    def _onto(self, graph, local):
        """The tree over graph's table, id u becoming local[u] or, if that
        is None, left out: both tables follow name order, so bags stay sorted."""
        bags = ([v for u in self._bag(n) if (v := local[u]) is not None] for n in self.nodes())
        return TreeDecomposition(graph.order, bags, self._parent)

    def _hang(self, parent, bags):
        """A chain of new nodes with bags, sorted id lists, below a known
        parent (-1 makes the first a root): each is the only child of the
        one before. Returns the last new id, or parent for none."""
        new = self._write(bags)
        if not new:
            return parent
        self._parent.append(parent)
        self._parent.extend(new[:-1])
        self._kids = None
        return new[-1]

    def nodes(self):
        return list(range(len(self._parent)))

    def bag(self, n):
        self._check_node(n)
        return frozenset(self._order.names(self._bag(n)))

    def parent(self, n):
        self._check_node(n)
        p = self._parent[n]
        return None if p < 0 else p

    def _child_index(self):
        """(first, kids): node n's children in id order are
        kids[first[n]:first[n + 1]], the roots kids[:first[0]]. Derived
        from _parent on the first read after a write; the constructor
        and make_nice write _parent before any read."""
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
        return max(map(sub, self._end, self._start), default=0) - 1

    def copy(self, into=None):
        """Copy over the same table, with copies of every array."""
        out = (into or type(self))(self._order)
        for name in ("_ids", "_start", "_end", "_parent"):
            setattr(out, name, getattr(self, name)[:])
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
        """A chain of new nodes with bags, sorted id lists, between n and
        its parent: the first bag becomes the new parent of n, the
        last sits under n's old parent (or becomes the root). The new
        ids, bottom to top, as a range."""
        new = self._write(bags)
        if new:
            self._parent.extend(new[1:])
            self._parent.append(self._parent[n])
            self._parent[n] = new[0]
            self._kids = None
        return new

    def path_between(self, a, b):
        """Node ids on the tree path from a to b, both inclusive. Both
        ends climb in turn until one reaches a node the other passed,
        their lowest common ancestor: the cost is the path's length."""
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
            # a climb would follow a cycle of parent links forever
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
        when a top of one end holds the other. _tops counts those
        edges; they are checked one by one, at every top of both ends,
        only to name the uncovered.
        """
        problems = []
        parent = self._parent
        if not parent:
            return TdVerdict(False, ("decomposition has no nodes",))
        roots = parent.count(-1)
        if roots != 1:
            problems.append("expected exactly one root, found %d" % (roots,))
        size = len(parent)
        if min(parent) < -1 or max(parent) >= size:
            problems += [
                "node %d has unknown parent %d" % (n, p)
                for n, p in enumerate(parent)
                if not -1 <= p < size
            ]
        # with one root and known parents, a node off the root's tree
        # lies on a cycle of parent links
        if not problems and len(self.postorder()) != size:
            problems.append("some nodes are not reachable from the root")
        if problems:
            return TdVerdict(False, tuple(problems))
        order, names = self._order, graph.order
        td = self
        # over the graph's table no name is looked up or made: a table
        # of its own is mapped onto it once its foreign vertices are named
        if order is not names:
            local = list(map(names.find, order))
            if None in local:
                problems += [
                    "bag of node %d contains foreign vertex %s" % (n, order[u])
                    for n in range(size)
                    for u in self._bag(n)
                    if local[u] is None
                ]
            td = self._onto(graph, local)
        first, more, held = _tops(td, graph)
        start, adjacent, bag = graph.first, graph.adjacent, td._bag
        if held == len(adjacent) // 2 and not more and None not in first:
            return TdVerdict(not problems, tuple(problems))
        uncovered = []
        for i, top in enumerate(first):
            if top is None:
                problems.append("vertex %s is in no bag" % (names[i],))
            end = start[i + 1]
            # the neighbours j > i, so that each edge is seen once
            for j in adjacent[bisect_right(adjacent, i, start[i], end):end]:
                if not any(w in bag(t) for u, w in ((i, j), (j, i))
                           for t in more.get(u, (first[u],)) if t is not None):
                    uncovered.append("edge %s--%s is in no bag" % (names[i], names[j]))
        problems += uncovered
        for name in sorted(names[u] for u in more):
            problems.append("occurrences of %s are not connected" % (name,))
        return TdVerdict(not problems, tuple(problems))


def _tops(td, graph=None):
    """(first, more, held) from one pass over the bags. An id's tops
    are the nodes whose bag holds it and whose parent's does not:
    first[u] is the first, or None; more maps an id with several to all
    of them, in node order. One top means connected occurrences. held
    counts the edges of graph, which shares td's table, with an end
    whose top holds the other: each once if occurrences are connected."""
    ids, start, end = td._ids, td._start, td._end
    first = [None] * len(td._order)
    more = {}
    twice = 0
    offsets, adjacent = (graph.first, graph.adjacent) if graph else ((), ())
    bag = ()
    for n, p in enumerate(td._parent):
        # _hang puts each node under the one before
        up = bag if p == n - 1 else ids[start[p]:end[p]] if p >= 0 else ()
        bag = set(ids[start[n]:end[n]])
        new = bag.difference(up)
        for u in new:
            if first[u] is None:
                first[u] = n
            else:
                more.setdefault(u, [first[u]]).append(n)
            if offsets:
                # an edge whose ends share a top is held there from both
                near = adjacent[offsets[u]:offsets[u + 1]]
                twice += 2 * len(bag.intersection(near)) - len(new.intersection(near))
    return first, more, twice // 2


def _joint_top(td, first, u, w):
    """Topmost node whose bag holds both u and w, given first from _tops
    of td, which is valid for a graph with the edge u--w: both ends
    have one top, and the lower of the two holds the other end."""
    top = first[u]
    return top if w in td._bag(top) else first[w]


def _kind(td, n):
    first, kids = td._child_index()
    below = kids[first[n]:first[n + 1]]
    if not below:
        return "leaf"
    bag = td._bag
    if len(below) == 1:
        b, cb = bag(n), bag(below[0])
        if len(b) == len(cb) + 1 and set(cb).issubset(b):
            return "introduce"
        if len(b) == len(cb) - 1 and set(b).issubset(cb):
            return "forget"
        raise ValueError("node %d must differ from its child by exactly one vertex" % (n,))
    if len(below) == 2:
        if bag(below[0]) == bag(n) == bag(below[1]):
            return "join"
        raise ValueError("join node %d must repeat its children's bag" % (n,))
    raise ValueError("node %d has %d children" % (n, len(below)))


def _shape_problems(td):
    """Why a rooted decomposition is not nice, in node order; empty
    when it is."""
    if td._bag(td.root()):
        yield "root bag is not empty"
    for n in td.nodes():
        try:
            kind = _kind(td, n)
        except ValueError as exc:
            yield str(exc)
            continue
        if kind == "leaf" and td._bag(n):
            yield "leaf node %d has a nonempty bag" % (n,)


class NiceTreeDecomposition(TreeDecomposition):
    """Decomposition whose nodes are leaf, introduce, forget or join
    nodes: make_nice builds one with empty root and leaf bags, whose
    joins have exactly two children. Read from text, the type follows
    the declared kinds alone; validate_nice checks the shape."""

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
    vertex table: a copy of an input of nice shape, else a rebuild with
    forget/introduce transitions between the original bags, one vertex
    at a time in name order, and left-folded binary joins, in one pass
    over the post-order, so no recursion limit applies.
    """
    order = td.postorder()
    if len(order) != len(td._parent):
        raise ValueError("some nodes are not reachable from the root")
    if next(_shape_problems(td), None) is None:
        return td.copy(into=NiceTreeDecomposition)
    bag, up = td._bag, td._parent
    out = NiceTreeDecomposition(td._order)
    ids, end, parent = out._ids, out._end, out._parent

    def make(cur, child):
        """New node with bag cur above child, a subtree's top or -1."""
        n = len(parent)
        ids.fromlist(cur)
        end.append(len(ids))
        parent.append(-1)
        if child >= 0:
            parent[child] = n
        return n

    def transition(top, cur, to):
        """Nodes above top from bag cur to bag to, both lists, one
        vertex forgotten, then introduced, at a time; their top."""
        have, want = set(cur), set(to)
        cur = cur[:]
        for x in sorted(have - want):
            cur.remove(x)
            top = make(cur, top)
        for x in sorted(want - have):
            insort(cur, x)
            top = make(cur, top)
        return top

    # node -> its bag as a list, then the tops below it
    tops = {}
    for node in order:
        target, *below = tops.pop(node, None) or [bag(node).tolist()]
        if below:
            top = below[0]
            for other in below[1:]:
                # the first join takes two subtree tops, each later one
                # the join below it
                top = make(target, top)
                parent[other] = top
        else:
            top = transition(make([], -1), [], target)
        p = up[node]
        above = [[]] if p < 0 else tops.get(p) or tops.setdefault(p, [bag(p).tolist()])
        above.append(transition(top, target, above[0]))
    # each bag is written where the one before it ends
    out._start = array("i", [0]) + end[:-1]
    return out


def treewidth_exact_small(graph):
    """Exact treewidth by dynamic programming over vertex subsets.

    f(S) is the best width achievable when S is eliminated first;
    eliminating v after X costs the number of vertices outside X
    reachable from v through X: exponential in the vertex count.
    """
    n = len(graph.order)
    if n > 12:
        raise ValueError("exact treewidth is limited to 12 vertices, got %d" % (n,))
    if n == 0:
        return -1
    # bit j of nb[i] is set when ids i and j are adjacent
    first, adjacent = graph.first, graph.adjacent
    nb = [sum(1 << j for j in adjacent[first[i]:first[i + 1]]) for i in range(n)]
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
            reach, seen = nb[v], 0
            while todo := reach & rest & ~seen:
                ubit = todo & -todo
                seen |= ubit
                reach |= nb[ubit.bit_length() - 1]
            best = min(best, max(f[rest], (reach & ~mask).bit_count()))
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
    fill, the least id (and name) on a tie. An elimination changes the
    fill of the vertices within two steps only, so only those are
    scored again; a heap of scores skips entries that are out of date.
    No optimality promise: treewidth_exact_small certifies small graphs.
    """
    ids = graph.order.ids
    if not ids:
        return TreeDecomposition(graph.order, [[]], [-1])
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
        bags.append(sorted(ns | {u}))
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
    return TreeDecomposition(graph.order, bags, parent)


def postorder_ordering(td, eligible):
    """Eligible vertices in the order their topmost bags close during a
    post-order traversal; ties inside one bag break sorted."""
    eligible = sorted(frozenset(eligible))
    ids = list(map(td._order.find, eligible))
    first, more, _held = _tops(td)
    for u, i in zip(eligible, ids):
        if i in more:
            raise ValueError("occurrences of %s are not connected" % (u,))
    closing = {}
    for u, i in zip(eligible, ids):
        if i is None or first[i] is None:
            raise ValueError("vertex %s is in no bag" % (u,))
        closing.setdefault(first[i], []).append(u)
    order = td.postorder()
    if len(order) != len(td._parent):
        raise ValueError("some nodes are not reachable from the root")
    out = []
    for n in order:
        out.extend(closing.get(n, ()))
    return tuple(out)


def transform_td(stage, td):
    """Decomposition of the stage output from one of its input, over
    the output graph's table, by the transform in the stage's record:
    it mirrors the gadget construction and keeps the documented width
    bound."""
    return stage.kind.transform(stage, td)


def _with(base, *ids):
    """Bag base with ids added; none of them may be in base already."""
    return sorted((*base, *ids))


def _bag_labels(td):
    """Node ids in order, each with its bag's names rendered in name
    order; a name is rendered once however many bags hold it."""
    order, bag = td._order, td._bag
    labels = {u: str(order[u]) for u in set(td._ids)}
    for n in td.nodes():
        yield n, map(labels.__getitem__, bag(n))


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
    names it reads. The text is read as nice only when every line
    declares a node kind and each declared kind is the one its node
    has; plain bags whose first vertex is named like a kind stay plain."""
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
        nice = _td_from_rows(NiceTreeDecomposition, rows, 1)
        if all(_declared_kind_holds(nice, nid, rest[0]) for _, nid, _, rest in rows):
            return nice
    return _td_from_rows(TreeDecomposition, rows, 0)


def _declared_kind_holds(td, n, kind):
    try:
        return _kind(td, n) == kind
    except ValueError:
        return False


def _td_from_rows(cls, rows, skip):
    """A cls decomposition from parsed rows, over a table of the names
    they read, each bag from its fields after the first skip. The node
    ids of n rows must be 0..n-1, so that they index the node tables."""
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
    table = VertexTable([Block(tuple(sorted(set().union(*named))))])
    bags, parents = [None] * size, [-1] * size
    for (_, nid, parent, _), bag in zip(rows, named):
        bags[nid] = sorted(map(table.find, bag))
        if parent is not None:
            parents[nid] = parent
    return cls(table, bags, parents)


def td_to_dot(td):
    out = ["graph T {"]
    for n, labels in _bag_labels(td):
        label = ", ".join(labels)
        out.append('  n%d [label="%d: {%s}"];' % (n, n, label))
    for n in td.nodes():
        p = td.parent(n)
        if p is not None:
            out.append("  n%d -- n%d;" % (p, n))
    out.append("}")
    return "\n".join(out) + "\n"
