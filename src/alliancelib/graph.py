"""Undirected simple graphs over structured vertex identifiers.

The reductions in this package build gadget vertices on top of other
gadget vertices, so a vertex name has to say which role it plays and
which vertex, edge or pair it was derived from. A flat string cannot
carry that reliably once constructions are stacked, hence VertexId.
"""

import json
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence, Set
from functools import partial
from itertools import accumulate, chain, groupby, islice, repeat
from operator import eq, floordiv, itemgetter, mod


# every vertex role in rank order, "original" first and then by name:
# (role, tag of its rendering, whether it names a partner vertex, the
# index counts it takes). A chain-Z hub has no index and its elements
# one; a nested chain-Z element may carry two
_ROLES = (
    ("original", None, False, (0,)),
    ("A-chain", "a", False, (1,)),
    ("A-chain-forbidden", "af", False, (1,)),
    ("chain-Y", "y", False, (1,)),
    ("chain-Y-forbidden", "yf", False, (1,)),
    ("chain-Z", "z", True, (0, 1, 2)),
    ("chain-Z-forbidden", "zf", True, (1,)),
    ("edge-copy", "ec", True, (1,)),
    ("edge-copy-forbidden", "ecf", True, (1,)),
    ("fan-hub", "fh", False, (0,)),
    ("fan-leaf", "fl", False, (1,)),
    ("g", "gv", False, (0,)),
    ("g-forbidden", "gvf", False, (0,)),
    ("h", "hv", False, (0,)),
    ("h-forbidden", "hvf", False, (0,)),
    ("helper-h", "h", False, (1,)),
    ("primed", "p", False, (0,)),
    ("triangle", "tri", True, (0,)),
)
_RANK = {row[0]: rank for rank, row in enumerate(_ROLES)}
_TAG_ROLE = {row[1]: row[0] for row in _ROLES}

_PLAIN_NAME = re.compile(r"[^\s./{}#]+\Z")
_SPACE = re.compile(r"\s")
_TAIL = re.compile(r"([a-z]+)(\d+(?:_\d+)?)?\Z")


def _is_plain(name):
    return _PLAIN_NAME.match(name)


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
        rank = _RANK.get(decoration)
        if rank is None:
            raise ValueError("unknown vertex decoration: %r" % (decoration,))
        with_partner, counts = _ROLES[rank][2:]
        if not base or _SPACE.search(base):
            raise ValueError("bad vertex base name: %r" % (base,))
        if base.count("{") != base.count("}"):
            raise ValueError("unbalanced braces in vertex base: %r" % (base,))
        if not rank and not _is_plain(base):
            raise ValueError(
                "plain vertex name %r may not contain '.', '/', braces or '#'" % (base,)
            )
        if (partner is not None) != with_partner:
            raise ValueError(
                "decoration %r %s a partner vertex"
                % (decoration, "requires" if partner is None else "forbids")
            )
        if with_partner and (not partner or _SPACE.search(partner)):
            raise ValueError("bad partner name: %r" % (partner,))
        if len(indices) > 2 or not all(is_integer(i) and i >= 0 for i in indices):
            raise ValueError("indices must be at most two non-negative ints")
        if len(indices) not in counts:
            raise ValueError("decoration %r takes %s" % (
                decoration, "exactly one index" if counts[0] else "no index"
            ))
        return tuple.__new__(cls, (base, rank, partner or "", indices))

    base = property(itemgetter(0))
    indices = property(itemgetter(3))

    @property
    def decoration(self):
        return _ROLES[self[1]][0]

    @property
    def partner(self):
        return self[2] or None

    def __getnewargs__(self):
        return (self.base, self.decoration, self.indices, self.partner)

    def __repr__(self):
        return "VertexId(base=%r, decoration=%r, indices=%r, partner=%r)" % self.__getnewargs__()

    def render(self):
        base, rank, partner, indices = self
        if not rank:
            return base
        left = _atom(base)
        if partner:
            left += "." + _atom(partner)
        return left + "/" + _ROLES[rank][1] + "_".join(map(str, indices))

    __str__ = render

    def sort_key(self):
        """(base, decoration rank, partner or "", indices) as a plain tuple."""
        return tuple(self)


def _split_top_level(text, sep):
    """Split at sep occurrences that are not inside braces."""
    parts, depth, start = [], 0, 0
    for at, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                break
        elif ch == sep and not depth:
            parts.append(text[start:at])
            start = at + 1
    if depth:
        raise ValueError("unbalanced braces in vertex name: %r" % (text,))
    parts.append(text[start:])
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
    *left, tail = _split_top_level(text, "/")
    if not left:
        if not _is_plain(text):
            raise ValueError("bad vertex name: %r" % (text,))
        return VertexId(text)
    m = _TAIL.match(tail)
    decoration = _TAG_ROLE.get(m.group(1)) if m else None
    if decoration is None:
        raise ValueError("bad vertex role tag in %r" % (text,))
    indices = tuple(map(int, m.group(2).split("_"))) if m.group(2) else ()
    atoms = _split_top_level("/".join(left), ".")
    if len(atoms) > 2:
        raise ValueError("too many '.' separators in %r" % (text,))
    base, *partner = map(_parse_atom, atoms)
    return VertexId(base, decoration, indices, *partner)


def _vertex_name(raw, context):
    if not isinstance(raw, str):
        raise ValueError("%s: expected a vertex name, got %r" % (context, raw))
    try:
        return parse_vertex(raw)
    except ValueError as exc:
        raise ValueError("%s: %s" % (context, exc)) from None


class _Document(dict):
    """The object of a JSON instance document, an alliance instance or
    an orientation target, with the readers of its fields."""

    def __init__(self, document):
        """The document of JSON text, or of the object it decodes to."""
        if not isinstance(document, dict):
            try:
                document = json.loads(document)
            # nesting too deep for the decoder is no valid document
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError("invalid JSON: %s" % (exc,)) from None
            if not isinstance(document, dict):
                raise ValueError("instance document must be a JSON object")
        super().__init__(document)

    def expect(self, required, optional=()):
        """Refuse the document unless every required field is present
        and every other field is an optional one."""
        for field in required:
            if field not in self:
                raise ValueError("missing field: %s" % (field,))
        unknown = self.keys() - {*required, *optional}
        if unknown:
            raise ValueError("unknown field: %s" % (min(unknown),))

    def integer(self, field):
        value = self[field]
        if not is_integer(value):
            raise ValueError("field %r must be an integer" % (field,))
        return value

    def _list(self, field):
        raw = self.get(field, [])
        if not isinstance(raw, list):
            raise ValueError("field %r must be a list" % (field,))
        return raw

    def vertices(self, field, item):
        """The vertices a list field names; an absent field names none."""
        return [_vertex_name(x, "%s %d" % (item, i)) for i, x in enumerate(self._list(field))]

    def rows(self, field, item, width=2):
        """The rows of a list field as tuples of two vertices and the
        rest of the row, left for the builder to check."""
        shape = "a [u, v] pair" if width == 2 else "a [u, v, weight] triple"
        rows = []
        for i, row in enumerate(self._list(field)):
            context = "%s %d" % (item, i)
            if not isinstance(row, list) or len(row) != width:
                raise ValueError("%s must be %s" % (context, shape))
            rows.append((_vertex_name(row[0], context), _vertex_name(row[1], context), *row[2:]))
        return rows


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


def _holds(ids, i):
    """Whether i is in ids, a sorted sequence of ints."""
    k = bisect_left(ids, i)
    return k < len(ids) and ids[k] == i


def _tally(graph, ids, counts, step):
    """Add step to counts[u], a list over graph's ids, once for each
    neighbour of u among ids, a sorted sequence of distinct ids, and
    return the runs of consecutive ids in ids as (start, stop) pairs.
    The rows of a run lie side by side in adjacent, so each run is
    walked in one slice, however many ids it holds; the stage builders
    give each gadget family consecutive ids, so a set of stage vertices
    comes in few, long runs."""
    runs, start, stop = [], None, None
    for i in ids:
        if i != stop:
            runs.append((start, stop))
            start = i
        stop = i + 1
    # the first pair, (None, None), only stands before the first run
    runs.append((start, stop))
    del runs[0]
    first, adjacent = graph.first, graph.adjacent
    for start, stop in runs:
        for u in adjacent[first[start]:first[stop]]:
            counts[u] += step
    return runs


def _edge_keys(graph, ids, n):
    """The keys i * n + j of graph's edges in a graph of n vertices in
    which graph's id u is ids[u]; ids increase, so each key has i < j."""
    first, adjacent = graph.first, graph.adjacent
    keys = []
    for i, row in enumerate(ids):
        row *= n
        keys += [row + ids[j] for j in adjacent[first[i]:first[i + 1]] if j > i]
    return keys


class Block(Sequence):
    """A run of vertex names that take consecutive ids from start on.

    A block holds explicit names, or stands for the family
    base[.partner]/TAG1 .. TAGcount: key is then the (base, decoration
    rank, partner or "") that its names share, and a name is made only
    when it is asked for. ids is the range of the block's ids once a
    VertexTable has placed it. A block equals the tuple of its names.
    """

    __slots__ = ("names", "key", "count", "start")

    def __init__(self, names=None, key=None, count=0):
        self.names, self.key, self.start = names, key, 0
        self.count = count if names is None else len(names)

    @classmethod
    def family(cls, base, decoration, count, partner=None):
        # the first name goes through every VertexId check; the others
        # differ from it only by a positive int index
        return cls(key=VertexId(base, decoration, (1,), partner)[:3], count=count)

    @property
    def ids(self):
        return range(self.start, self.start + self.count)

    def __len__(self):
        return self.count

    def __getitem__(self, t):
        if self.names is not None:
            return self.names[t]
        if isinstance(t, slice):
            return tuple(map(self.__getitem__, range(*t.indices(self.count))))
        if t < 0:
            t += self.count
        if not 0 <= t < self.count:
            raise IndexError("block index out of range")
        return _mint(self.key + ((t + 1,),))

    def __iter__(self):
        if self.names is not None:
            return iter(self.names)
        # the (base, rank, partner, (t,)) tuples are zipped in C
        base, rank, partner = self.key
        count = self.count
        return map(_mint, zip(
            repeat(base, count), repeat(rank), repeat(partner), zip(range(1, count + 1))
        ))

    def __eq__(self, other):
        if isinstance(other, (tuple, Block)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return "Block(%s)" % ", ".join(map(str, self))

    def __reduce__(self):
        return (Block, (self.names, self.key, self.count))


# a VertexId from its four fields, which the caller vouches for
_mint = partial(tuple.__new__, VertexId)


class VertexTable(Sequence):
    """The vertex names of a graph in id order: a read-only sequence
    over Blocks, whose names increase strictly from block to block.

    table[i] finds the block of id i by bisection, so a family name is
    made only when it is asked for. find(name) gives the id of a name,
    or None: an explicit name by one dict lookup, a family name by one
    lookup of its (base, rank, partner) and its index. ids is the range
    of the table's ids, so a table keeps nothing per id beyond its
    explicit names. A table equals a list or a tuple of the same names.
    """

    __slots__ = ("blocks", "ids", "_starts", "_named", "_families")

    def __init__(self, blocks):
        """Table over blocks, which it places: each gets its start.
        Empty blocks are left out."""
        self.blocks = [block for block in blocks if block.count]
        self._starts = list(accumulate((b.count for b in self.blocks), initial=0))
        self.ids = range(self._starts.pop())
        self._named, self._families = {}, {}
        for block, start in zip(self.blocks, self._starts):
            block.start = start
            if block.names is None:
                self._families[block.key] = block
            else:
                self._named.update(zip(block.names, block.ids))

    def find(self, name):
        """The id of name, or None when the table lacks it."""
        i = self._named.get(name)
        if i is not None:
            return i
        if self._families and isinstance(name, tuple) and len(name) == 4:
            block = self._families.get(name[:3])
            # a family name has one index t, 1 <= t <= count
            t = name[3]
            if (
                block is not None and isinstance(t, tuple) and len(t) == 1
                and isinstance(t[0], int) and 0 < t[0] <= block.count
            ):
                i = block.start + t[0] - 1
        return i

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        # the range of ids resolves negative indices and slices
        if isinstance(i, slice):
            return [self[j] for j in self.ids[i]]
        i = self.ids[i]
        b = bisect_right(self._starts, i) - 1
        return self.blocks[b][i - self._starts[b]]

    def __iter__(self):
        return chain.from_iterable(self.blocks)

    def names(self, ids):
        """The names of ids, a sorted sequence of ids of the table, in
        id order; each block is found once, not once per id."""
        starts, blocks = self._starts, self.blocks
        end = 0
        for i in ids:
            if i >= end:
                b = bisect_right(starts, i) - 1
                block, start = blocks[b], starts[b]
                end = start + block.count
            yield block[i - start]

    def __contains__(self, name):
        return self.find(name) is not None

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, (list, tuple, VertexTable)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "VertexTable(%d names in %d blocks)" % (len(self), len(self.blocks))

    def __reduce__(self):
        return (VertexTable, (self.blocks,))


class VertexSet(Set):
    """Read-only set of the names of a table with the given ids, a
    sorted sequence of distinct ints (a range or an array).

    Membership is a lookup in the table and a bisection of ids, and
    iteration makes the names in id order, which is name order. It
    compares and hashes like the frozenset of the same names, and set
    algebra with it returns frozensets; two sets over one table compare
    by their ids, without making names.
    """

    __slots__ = ("table", "ids")

    def __init__(self, table, ids):
        self.table, self.ids = table, ids

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    __hash__ = Set._hash

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        if len(self.ids) == len(self.table):
            return iter(self.table)
        return self.table.names(self.ids)

    def __contains__(self, name):
        i = self.table.find(name)
        return i is not None and _holds(self.ids, i)

    def __eq__(self, other):
        if isinstance(other, VertexSet) and other.table is self.table:
            return len(self.ids) == len(other.ids) and all(map(eq, self.ids, other.ids))
        return Set.__eq__(self, other)

    def __repr__(self):
        return "VertexSet(%d of %d vertices)" % (len(self.ids), len(self.table))

    def __reduce__(self):
        return (VertexSet, (self.table, self.ids))


class _Edges(Set):
    """Read-only set of the canonical (u, v) pairs, u < v, of a graph.

    It reads the graph's arrays and yields the pairs in sorted order.
    It compares and hashes like the frozenset of the same pairs, and
    set algebra with it returns frozensets. It holds the arrays rather
    than the graph, so the two form no reference cycle.
    """

    def __init__(self, order, first, adjacent):
        self._order, self._first, self._adjacent = order, first, adjacent

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    __hash__ = Set._hash

    def __len__(self):
        return len(self._adjacent) // 2

    def __contains__(self, pair):
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        i = self._order.find(pair[0])
        j = self._order.find(pair[1])
        return i is not None and j is not None and i < j and _linked(
            self._first, self._adjacent, i, j
        )

    def __iter__(self):
        # each name is made once, in id order when a row first reaches
        # it, and let go once its own row has passed, as later rows reach
        # only higher ids
        first, adjacent = self._first, self._adjacent
        unmade = iter(self._order)
        names = []
        for i in range(len(first) - 1):
            hi = first[i + 1]
            lo = bisect_right(adjacent, i, first[i], hi)
            end = adjacent[hi - 1] + 1 if lo < hi else i + 1
            if end > len(names):
                names += islice(unmade, end - len(names))
            u = names[i]
            names[i] = None
            for j in adjacent[lo:hi]:
                yield (u, names[j])


# the fewest vertices of a graph whose edge families _fill writes;
# below, the key loops write their keys as fast or faster
_FILL_VERTICES = 1024


class Graph:
    """Immutable undirected simple graph with deterministic iteration.

    Every vertex has an int id, and ids follow the sorted vertex order.
    Read-only attributes:

    - order: the VertexTable of the names in id order, so order[i] has
      id i and order.find(v) is the id of v, or None; a stage output's
      table is laid out in gadget families, whose names are made only
      when asked for;
    - vertices: the VertexSet of all of them, which equals and hashes
      like the frozenset of the vertices;
    - first, adjacent: array("i")s; the open neighbourhood of id i is
      adjacent[first[i]:first[i + 1]], in id order.

    edges is a read-only set view of the canonical (u, v) pairs with
    u < v; it equals the frozenset of those pairs and iterates them in
    sorted order.

    Graph(vertices, edges) sorts the names into a table of one explicit
    block and turns each edge into an int key i * n + j over the ids,
    with i < j. The reduction stages lay their tables out in blocks
    themselves and emit such keys directly, each fan and each run of a
    gadget as a family: one range of keys. _build_arrays is the one
    writer of int keys: it sorts them in place and writes them by two
    loops, which at their peak hold the list of keys, the two arrays
    and one write position per vertex, never both orientations of the
    edges as ints nor a list of arcs. _from_keys picks the writer once
    per build: a graph of fewer than _FILL_VERTICES vertices has its
    families expanded into int keys; in a larger one the loops write
    only the int keys, and the families are added without a loop over
    their members, by slices of the arrays over the rows they reach
    (see _fill).
    """

    def __init__(self, vertices, edges=()):
        # sorting the vertices as given gains from the runs in which
        # callers list them, which a frozenset would scatter
        order = VertexTable([Block(tuple(v for v, _ in groupby(sorted(vertices))))])
        find = order.find
        n = len(order)
        keys = []
        add = keys.append
        for u, v in edges:
            i = find(u)
            if i is None:
                raise ValueError("edge endpoint %s is not a vertex" % (u,))
            j = find(v)
            if j is None:
                raise ValueError("edge endpoint %s is not a vertex" % (v,))
            if i == j:
                raise ValueError("self loop at %s" % (u,))
            add(i * n + j if i < j else j * n + i)
        self._build_arrays(order, keys)

    @classmethod
    def _from_keys(cls, order, keys):
        """Graph on a VertexTable, or on names already in strictly
        increasing order, with each edge an int key i * len(order) + j
        over their ids, i < j, or a member of a family: a range of such
        keys with step 1 (a fan from one id), step len(order) (a fan
        into one id) or step len(order) + 1 (a run of parallel edges).

        An edge may appear more than once, but only in that orientation.
        The list of keys is consumed. The caller vouches for the order
        and the keys; only a graph past 32-bit ids or arc offsets is
        refused, before any array is written.
        """
        if not isinstance(order, VertexTable):
            order = VertexTable([Block(tuple(order))])
        graph = cls.__new__(cls)
        families = []
        # only the stage builders emit families
        if range in map(type, keys):
            if len(order) < _FILL_VERTICES:
                # the families of a small graph go in as int keys
                keys[:] = chain.from_iterable(key if type(key) is range else (key,) for key in keys)
            else:
                families = [key for key in keys if type(key) is range]
                keys[:] = [key for key in keys if type(key) is not range]
        # ids and arc offsets are array("i") entries
        arcs = 2 * (len(keys) + sum(map(len, families)))
        if max(len(order), arcs) >= 1 << 31:
            raise ValueError(
                "graph of %d vertices and %d arcs exceeds 32-bit ids" % (len(order), arcs)
            )
        graph._build_arrays(order, keys, families)
        return graph

    def _build_arrays(self, order, keys, families=None):
        """Set the graph over order with the arrays of the int keys,
        which are consumed, and of families, ranges of keys, if any."""
        n = len(order)
        self.order = order
        self.vertices = VertexSet(order, range(n))
        # sorted, each edge's repeats are adjacent and the edges come
        # by i, then j
        keys.sort()
        # a row's first key finds i by a division, the rest by
        # comparison
        degree = array("i", [0]) * n if families else [0] * n
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
        if families:
            # the fill writes every row: here only the rows the int keys
            # reach are laid out, in order
            rows = sorted({*map(floordiv, keys, repeat(n)), *map(mod, keys, repeat(n))})
            first = array("i", accumulate(map(degree.__getitem__, rows), initial=0))
            free = dict(zip(rows, first))
        else:
            first = array("i", accumulate(degree, initial=0))
            free = first.tolist()
        del degree
        # in that order, row j gets each i < j while the rows before
        # it are walked, then its own j's as it is: each row comes
        # out sorted
        adjacent = array("i", [0]) * first[-1]
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
        del keys[:], free
        if families:
            from ._fill import family_arrays
            first, adjacent = family_arrays(n, families, rows, first, adjacent)
        self.first, self.adjacent = first, adjacent
        self.edges = _Edges(order, first, adjacent)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        # two graphs over one table compare no names
        return (
            self.first == other.first
            and self.adjacent == other.adjacent
            and (self.order is other.order or self.vertices == other.vertices)
        )

    def __hash__(self):
        # equal graphs have equal arrays; the names are left out, so
        # that hashing makes none
        return hash((self.first.tobytes(), self.adjacent.tobytes()))

    def __contains__(self, v):
        return v in self.vertices

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.order), len(self.edges))

    def _id(self, v):
        i = self.order.find(v)
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


def graph_to_dot(g):
    out = ["graph G {"]
    for v in g.sorted_vertices():
        out.append('  "%s";' % (v,))
    for u, v in g.sorted_edges():
        out.append('  "%s" -- "%s";' % (u, v))
    out.append("}")
    return "\n".join(out) + "\n"
