"""The adjacency arrays of a graph whose edges come as families.

A stage builder emits the fans and runs of its gadgets as ranges of
keys i * n + j, i < j, in three shapes, which Graph._build_arrays
passes here, with the arrays it wrote for the builder's int keys over
the rows they reach, when Graph._from_keys found the graph to have
_FILL_VERTICES vertices or more:

- step 1, a fan from i to j .. j + L - 1: row i holds those L ids, and
  each of rows j .. j + L - 1 holds i;
- step n, a fan from i .. i + L - 1 to j: each of those rows holds j,
  and row j holds the L ids;
- step n + 1, a run joining i + t and j + t: row i + t holds j + t and
  row j + t holds i + t.

So a family gives one block of consecutive ids in one row, and one
column over a block of consecutive rows, whose neighbour is a constant
c or the row plus an offset d. The rows the columns reach fall into
segments on which the same columns are active and no constant meets a
row-plus-offset column: each row of a segment has the same degree and
its neighbours in the same rank order, so the segment's degrees take
one slice write and each column one extended-slice assignment. A row
that holds a block or an int key's neighbour is assembled on its own as
a union of id intervals, and the rows that no family reaches copy
their int keys' neighbours in one slice per segment.
"""

from array import array
from bisect import bisect_left
from itertools import accumulate


def _union(spans):
    """The disjoint intervals, in order, that cover spans, a list of
    (lo, hi) pairs."""
    out = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def family_arrays(n, families, rows, first, adjacent):
    """first and adjacent of the graph on ids 0 .. n - 1 whose edges
    are families, ranges of keys as Graph._from_keys takes them, and
    the int keys that Graph._build_arrays wrote over rows, the ids they
    reach in order: rows[k] holds adjacent[first[k]:first[k + 1]]."""
    # columns (lo, hi, slope, offset): row r in lo .. hi - 1 holds
    # slope * r + offset; spans: row -> the (lo, hi) id intervals it holds
    columns, spans = [], {}
    for key in families:
        count, step = len(key), key.step
        if not count:
            continue
        i, j = divmod(key.start, n)
        if step == 1:
            spans.setdefault(i, []).append((j, j + count))
            columns.append((j, j + count, 0, i))
        elif step == n:
            columns.append((i, i + count, 0, j))
            spans.setdefault(j, []).append((i, i + count))
        else:
            columns += [(i, i + count, 1, j - i), (j, j + count, 1, i - j)]
    degree = array("i", [0]) * n
    plan = _plan(n, columns, spans, (rows, first, adjacent), degree)
    start = array("i", accumulate(degree, initial=0))
    del degree
    out = array("i", [0]) * start[n]
    ids = array("i", range(n))
    for lo, hi, ranked, union in plan:
        at = start[lo]
        if union is not None:
            for a, b in union:
                out[at:at + b - a] = ids[a:b]
                at += b - a
        elif not ranked:
            out[at:start[hi]] = adjacent[first[bisect_left(rows, lo)]:first[bisect_left(rows, hi)]]
        else:
            width, stop = len(ranked), start[hi]
            for rank, (slope, offset) in enumerate(ranked):
                out[at + rank:stop:width] = (
                    ids[lo + offset:hi + offset] if slope else array("i", [offset]) * (hi - lo)
                )
    return start, out


def _plan(n, columns, spans, ints, degree):
    """The rows the families reach, in runs of rows that the same
    columns give their neighbours in the same rank order, (lo, hi,
    ranked columns, None), rows assembled on their own, (row, row + 1,
    None, id intervals), and runs of rows that only int keys reach,
    (lo, hi, (), None); their degrees go into degree. ints is rows,
    first and adjacent as family_arrays takes them."""
    rows, first, adjacent = ints
    opens, closes = {}, {}
    for lo, hi, *column in columns:
        opens.setdefault(lo, []).append(tuple(column))
        closes.setdefault(hi, []).append(tuple(column))
    # the int-key rows that a family reaches, each with its index in
    # rows, from one merge of rows with the bounds of the columns and
    # the spans: each is cut out and assembled on its own
    keyed = {}
    for lo, hi in _union([column[:2] for column in columns] + [(r, r + 1) for r in spans]):
        k, end = bisect_left(rows, lo), bisect_left(rows, hi)
        keyed.update(zip(rows[k:end], range(k, end)))
    alone = {*spans, *keyed}
    cuts = sorted({0, n, *opens, *closes, *alone, *(r + 1 for r in alone)})
    # active: (slope, offset) -> how many columns give it, so that a
    # column given twice is written once
    active = {}
    plan = []
    for lo, hi in zip(cuts, cuts[1:]):
        for column in closes.get(lo, ()):
            active[column] -= 1
            if not active[column]:
                del active[column]
        for column in opens.get(lo, ()):
            active[column] = active.get(column, 0) + 1
        if lo in alone:
            own = [lo]
        elif active:
            # where a constant c meets the column of offset d, at row
            # c - d, the two give one neighbour and swap ranks
            constants = [c for slope, c in active if not slope]
            own = sorted({
                c - d for slope, d in active if slope for c in constants if lo <= c - d < hi
            })
        else:
            unreached = range(bisect_left(rows, lo), bisect_left(rows, hi))
            for k in unreached:
                degree[rows[k]] = first[k + 1] - first[k]
            if unreached:
                plan.append((lo, hi, (), None))
            continue
        at = lo
        for row in own + [hi]:
            if at < row and active:
                ranked = sorted(active, key=lambda column: column[0] * at + column[1])
                degree[at:row] = array("i", [len(ranked)]) * (row - at)
                plan.append((at, row, ranked, None))
            if row < hi:
                values = [(s * row + d, s * row + d + 1) for s, d in active]
                k = keyed.get(row)
                if k is not None:
                    values += [(j, j + 1) for j in adjacent[first[k]:first[k + 1]]]
                union = _union(spans.get(row, []) + values)
                degree[row] = sum(b - a for a, b in union)
                plan.append((row, row + 1, None, union))
            at = row + 1
    return plan
