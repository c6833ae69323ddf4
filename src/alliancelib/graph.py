"""Undirected simple graphs over structured vertex identifiers.

The reductions in this package build gadget vertices on top of other
gadget vertices, so a vertex name has to say which role it plays and
which vertex, edge or pair it was derived from. A flat string cannot
carry that reliably once constructions are stacked, hence VertexId.
"""

import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Set
from itertools import accumulate, groupby
from operator import itemgetter


# role -> short tag used in the canonical string rendering
_TAGS = {
    "helper-h": "h",
    "edge-copy": "ec",
    "edge-copy-forbidden": "ecf",
    "chain-Y": "y",
    "chain-Y-forbidden": "yf",
    "chain-Z": "z",
    "chain-Z-forbidden": "zf",
    "triangle": "tri",
    "primed": "p",
    "fan-hub": "fh",
    "fan-leaf": "fl",
    "A-chain": "a",
    "A-chain-forbidden": "af",
    "g": "gv",
    "h": "hv",
    "g-forbidden": "gvf",
    "h-forbidden": "hvf",
}
_TAG_TO_DECORATION = {tag: dec for dec, tag in _TAGS.items()}

# decorations whose identity includes a second vertex name
_WITH_PARTNER = frozenset(
    ["edge-copy", "edge-copy-forbidden", "chain-Z", "chain-Z-forbidden", "triangle"]
)
# decorations carrying exactly one index
_ONE_INDEX = frozenset(
    [
        "helper-h",
        "edge-copy",
        "edge-copy-forbidden",
        "chain-Y",
        "chain-Y-forbidden",
        "chain-Z-forbidden",
        "fan-leaf",
        "A-chain",
        "A-chain-forbidden",
    ]
)
# decorations carrying no index ("chain-Z" may carry zero or one: the
# hub vertex of a chain has none, its elements have one)
_NO_INDEX = frozenset(
    ["original", "triangle", "primed", "fan-hub", "g", "h", "g-forbidden", "h-forbidden"]
)

_DECORATIONS = ["original"] + sorted(_TAGS)
_DECORATION_RANK = {dec: i for i, dec in enumerate(_DECORATIONS)}
_RANK_TAGS = [None] + [_TAGS[dec] for dec in _DECORATIONS[1:]]

# keys are reoriented a slice of this many at a time
_CHUNK = 1 << 16

_PLAIN_NAME = re.compile(r"[^\s./{}#]+\Z")
_SPACE = re.compile(r"\s")
_TAIL = re.compile(r"([a-z]+)(\d+(?:_\d+)?)?\Z")


def _is_plain(name):
    return bool(_PLAIN_NAME.match(name))


def _atom(name):
    return name if _is_plain(name) else "{" + name + "}"


class VertexId(tuple):
    """Structured vertex name: base vertex, gadget role, indices, partner.

    base names the vertex this one was derived from; for stacked
    constructions it holds the full rendering of the inner identifier.
    partner is the second vertex of an edge or pair gadget. The
    canonical rendering is base[.partner]/TAGindex, with non-plain
    atoms wrapped in braces, e.g. a.b/ec1 or {b/y3}/a1.

    A VertexId is an immutable tuple (base, decoration rank, partner or
    "", indices), which is also its sort key, so hashing, equality and
    ordering run as tuple operations. It therefore compares equal to a
    plain tuple with the same contents; no code mixes the two. Format
    one with "%s" % (v,), since "%s" % v reads it as an argument tuple.
    """

    __slots__ = ()

    def __new__(cls, base, decoration="original", indices=(), partner=None):
        indices = tuple(indices)
        if decoration != "original" and decoration not in _TAGS:
            raise ValueError("unknown vertex decoration: %r" % (decoration,))
        if not base or _SPACE.search(base):
            raise ValueError("bad vertex base name: %r" % (base,))
        if base.count("{") != base.count("}"):
            raise ValueError("unbalanced braces in vertex base: %r" % (base,))
        if decoration == "original" and not _is_plain(base):
            raise ValueError(
                "plain vertex name %r may not contain '.', '/', braces or '#'" % (base,)
            )
        if (partner is not None) != (decoration in _WITH_PARTNER):
            raise ValueError(
                "decoration %r %s a partner vertex"
                % (decoration, "requires" if partner is None else "forbids")
            )
        if partner is not None and (not partner or _SPACE.search(partner)):
            raise ValueError("bad partner name: %r" % (partner,))
        if len(indices) > 2 or not all(isinstance(i, int) and i >= 0 for i in indices):
            raise ValueError("indices must be at most two non-negative ints")
        if decoration in _ONE_INDEX and len(indices) != 1:
            raise ValueError("decoration %r takes exactly one index" % (decoration,))
        if decoration in _NO_INDEX and indices:
            raise ValueError("decoration %r takes no index" % (decoration,))
        return tuple.__new__(cls, (base, _DECORATION_RANK[decoration], partner or "", indices))

    base = property(itemgetter(0))
    indices = property(itemgetter(3))

    @property
    def decoration(self):
        return _DECORATIONS[self[1]]

    @property
    def partner(self):
        return self[2] or None

    def __getnewargs__(self):
        return (self.base, self.decoration, self.indices, self.partner)

    def __repr__(self):
        return "VertexId(base=%r, decoration=%r, indices=%r, partner=%r)" % (
            self.__getnewargs__()
        )

    def render(self):
        base, rank, partner, indices = self
        if not rank:
            return base
        left = _atom(base)
        if partner:
            left += "." + _atom(partner)
        return left + "/" + _RANK_TAGS[rank] + "_".join(map(str, indices))

    __str__ = render

    def sort_key(self):
        """(base, decoration rank, partner or "", indices) as a plain tuple."""
        return tuple(self)


def _family(base, decoration, indices, partner=None):
    """The VertexIds base[.partner]/TAGi, one per index tuple (i,) in
    indices, which must count up from (1,) by one.

    The first goes through the full constructor. The others differ
    from it only by a positive int index, so every check it passed
    holds for them too, and they are minted as bare tuples.
    """
    if not indices:
        return ()
    head = VertexId(base, decoration, indices[0], partner)
    base, rank, partner, _ = head
    new = tuple.__new__
    return (head,) + tuple([new(VertexId, (base, rank, partner, i)) for i in indices[1:]])


def _split_top_level(text, sep):
    """Split at sep occurrences that are not inside braces."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced braces in vertex name: %r" % (text,))
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced braces in vertex name: %r" % (text,))
    parts.append("".join(cur))
    return parts


def _parse_atom(text):
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1]
        if not inner:
            raise ValueError("empty braced atom")
        return inner
    if not _is_plain(text):
        raise ValueError("bad vertex atom: %r" % (text,))
    return text


def is_integer(value):
    """True for an int that is not a bool: JSON true and false load as
    bools, which isinstance(value, int) would let through as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_vertex(text):
    """Parse a canonical rendering back into a VertexId."""
    if not text or _SPACE.search(text):
        raise ValueError("bad vertex name: %r" % (text,))
    pieces = _split_top_level(text, "/")
    if len(pieces) == 1:
        return VertexId(_parse_atom_plain_only(text))
    left, tail = "/".join(pieces[:-1]), pieces[-1]
    m = _TAIL.match(tail)
    if not m or m.group(1) not in _TAG_TO_DECORATION:
        raise ValueError("bad vertex role tag in %r" % (text,))
    decoration = _TAG_TO_DECORATION[m.group(1)]
    indices = tuple(int(p) for p in m.group(2).split("_")) if m.group(2) else ()
    atoms = _split_top_level(left, ".")
    if len(atoms) == 1:
        base, partner = _parse_atom(atoms[0]), None
    elif len(atoms) == 2:
        base, partner = _parse_atom(atoms[0]), _parse_atom(atoms[1])
    else:
        raise ValueError("too many '.' separators in %r" % (text,))
    return VertexId(base, decoration, indices, partner)


def _parse_atom_plain_only(text):
    if not _is_plain(text):
        raise ValueError("bad vertex name: %r" % (text,))
    return text


def edge_key(u, v):
    """Canonical unordered representation of an edge."""
    if u == v:
        raise ValueError("self loop at %s" % (u,))
    return (u, v) if u < v else (v, u)


def _linked(first, adjacent, i, j):
    """Whether id j is in the neighbourhood of id i."""
    lo, hi = first[i], first[i + 1]
    k = bisect_left(adjacent, j, lo, hi)
    return k < hi and adjacent[k] == j


class _Edges(Set):
    """Read-only set of the canonical (u, v) pairs, u < v, of a graph.

    It reads the graph's arrays and yields the pairs in sorted order.
    It compares and hashes like the frozenset of the same pairs, and
    set algebra with it returns frozensets. It holds the arrays rather
    than the graph, so the two form no reference cycle.
    """

    def __init__(self, order, index, first, adjacent):
        self._order, self._index = order, index
        self._first, self._adjacent = first, adjacent

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    __hash__ = Set._hash

    def __len__(self):
        return len(self._adjacent) // 2

    def __contains__(self, pair):
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        i = self._index.get(pair[0])
        j = self._index.get(pair[1])
        return i is not None and j is not None and i < j and _linked(
            self._first, self._adjacent, i, j
        )

    def __iter__(self):
        order, first, adjacent = self._order, self._first, self._adjacent
        for i, u in enumerate(order):
            hi = first[i + 1]
            for j in adjacent[bisect_right(adjacent, i, first[i], hi):hi]:
                yield (u, order[j])


class Graph:
    """Immutable undirected simple graph with deterministic iteration.

    Every vertex has an int id, and ids follow the sorted vertex order.
    Read-only attributes:

    - vertices: the frozenset of vertices;
    - order: the sorted vertex list, so order[i] has id i;
    - index: a dict from vertex to id;
    - first, adjacent: array("i")s; the open neighbourhood of id i is
      adjacent[first[i]:first[i + 1]], in id order.

    edges is a read-only set view of the canonical (u, v) pairs with
    u < v; it equals the frozenset of those pairs and iterates them in
    sorted order.

    Graph(vertices, edges) sorts the names and turns each edge into an
    int key i * n + j over the ids. The reduction stages lay their
    names out in sorted order themselves and emit such keys directly;
    both reach the arrays through the same core. At its peak the core
    holds the list of keys, turned in place to i < j a slice at a
    time, the two arrays and one write position per vertex: it never
    holds both orientations of the edges as ints, nor a list of arcs.
    """

    def __init__(self, vertices, edges=()):
        # sorting the vertices as given gains from the runs in which
        # callers list them, which a frozenset would scatter
        order = [v for v, _ in groupby(sorted(vertices))]
        index = {v: i for i, v in enumerate(order)}
        n = len(order)
        keys = []
        add = keys.append
        for u, v in edges:
            i = index.get(u)
            if i is None:
                raise ValueError("edge endpoint %s is not a vertex" % (u,))
            j = index.get(v)
            if j is None:
                raise ValueError("edge endpoint %s is not a vertex" % (v,))
            if i == j:
                raise ValueError("self loop at %s" % (u,))
            add(i * n + j)
        self._build_arrays(order, index, keys)

    @classmethod
    def _from_keys(cls, order, keys):
        """Graph on names already in strictly increasing order, with
        each edge an int key i * len(order) + j over their ids, i != j.

        Either orientation of an edge may appear, and more than once.
        The list of keys is consumed. The caller vouches for the order
        and the keys; nothing here checks them.
        """
        graph = cls.__new__(cls)
        graph._build_arrays(order, {v: i for i, v in enumerate(order)}, keys)
        return graph

    def _build_arrays(self, order, index, keys):
        self.order, self.index = order, index
        self.vertices = frozenset(order)
        n = len(order)
        # each key turned to i * n + j with i < j a slice at a time, so
        # the list never holds both orientations; sorted, each edge's
        # repeats are adjacent and the edges come by i, then j
        for lo in range(0, len(keys), _CHUNK):
            keys[lo:lo + _CHUNK] = [
                key if key % n > key // n else (key % n) * n + key // n
                for key in keys[lo:lo + _CHUNK]
            ]
        keys.sort()
        # a row's first key finds i by a division, the rest by comparison
        degree = [0] * n
        last = end = -1
        for key in keys:
            if key != last:
                last = key
                if key >= end:
                    i = key // n
                    start = i * n
                    end = start + n
                degree[i] += 1
                degree[key - start] += 1
        first = array("i", accumulate(degree, initial=0))
        del degree
        # in that order, row j gets each i < j while the rows before it
        # are walked, then its own j's as it is: each row comes out sorted
        adjacent = array("i", [0]) * first[n]
        free = first.tolist()
        last = end = -1
        for key in keys:
            if key != last:
                last = key
                if key >= end:
                    i = key // n
                    start = i * n
                    end = start + n
                    at = free[i]
                j = key - start
                adjacent[at] = j
                at += 1
                adjacent[free[j]] = i
                free[j] += 1
        del keys[:]
        self.first, self.adjacent = first, adjacent
        self.edges = _Edges(order, index, first, adjacent)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.first == other.first
            and self.adjacent == other.adjacent
        )

    def __hash__(self):
        return hash((self.vertices, self.adjacent.tobytes()))

    def __contains__(self, v):
        return v in self.vertices

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    def _id(self, v):
        i = self.index.get(v)
        if i is None:
            raise ValueError("unknown vertex: %s" % (v,))
        return i

    def sorted_vertices(self):
        return list(self.order)

    def sorted_edges(self):
        return list(self.edges)

    def neighbors(self, v):
        i = self._id(v)
        ids = self.adjacent[self.first[i]:self.first[i + 1]]
        return tuple(map(self.order.__getitem__, ids))

    def degree(self, v):
        i = self._id(v)
        return self.first[i + 1] - self.first[i]

    def open_neighborhood(self, v):
        return frozenset(self.neighbors(v))

    def closed_neighborhood(self, v):
        return frozenset(self.neighbors(v)) | {v}

    def has_edge(self, u, v):
        i, j = self._id(u), self._id(v)
        if i == j:
            raise ValueError("self loop at %s" % (u,))
        return _linked(self.first, self.adjacent, i, j)

    def connected_components(self):
        """Partition of the vertices, ordered by least contained vertex."""
        first, adjacent = self.first, self.adjacent
        seen = bytearray(len(self.order))
        comps = []
        for start in range(len(self.order)):
            if seen[start]:
                continue
            seen[start] = 1
            comp = [start]
            for i in comp:
                for j in adjacent[first[i]:first[i + 1]]:
                    if not seen[j]:
                        seen[j] = 1
                        comp.append(j)
            comps.append(frozenset(map(self.order.__getitem__, comp)))
        return comps

    def induced(self, subset):
        subset = frozenset(subset)
        ids = sorted(self._id(v) for v in subset)
        inside = bytearray(len(self.order))
        for i in ids:
            inside[i] = 1
        order, first, adjacent = self.order, self.first, self.adjacent
        edges = [
            (order[i], order[j])
            for i in ids
            for j in adjacent[first[i]:first[i + 1]]
            if j > i and inside[j]
        ]
        return Graph(subset, edges)


def graph_to_edgelist(g):
    """One edge per line as 'u v'; isolated vertices on their own line."""
    lines = ["%s %s" % (u, v) for u, v in g.edges]
    first = g.first
    lines.extend(str(v) for i, v in enumerate(g.order) if first[i] == first[i + 1])
    return "\n".join(lines) + ("\n" if lines else "")


def graph_from_edgelist(text):
    vertices = set()
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if len(fields) == 1:
                vertices.add(parse_vertex(fields[0]))
            elif len(fields) == 2:
                u, v = parse_vertex(fields[0]), parse_vertex(fields[1])
                vertices.update((u, v))
                edges.append((u, v))
            else:
                raise ValueError("expected 'u v' or a single vertex")
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return Graph(vertices, edges)


def graph_to_dot(g, name="G"):
    out = ["graph %s {" % name]
    for v in g.sorted_vertices():
        out.append('  "%s";' % (v,))
    for u, v in g.sorted_edges():
        out.append('  "%s" -- "%s";' % (u, v))
    out.append("}")
    return "\n".join(out) + "\n"
