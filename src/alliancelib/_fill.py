"""The adjacency arrays of a graph whose edges come as families.

A stage builder emits the fans and runs of its gadgets as ranges of
keys i * n + j, i < j, in three shapes, which Graph._from_keys passes
here with the builder's int keys:

- step 1, a fan from i to j .. j + L - 1: row i holds those L ids, and
  each of rows j .. j + L - 1 holds i;
- step n, a fan from i .. i + L - 1 to j: each of those rows holds j,
  and row j holds the L ids;
- step n + 1, a run joining i + t and j + t: row i + t holds j + t and
  row j + t holds i + t.

So a family gives one block of consecutive ids in one row, and one
column over a block of consecutive rows, whose neighbour is a constant
c or the row plus an offset d. The rows the families reach fall into
segments on which the same columns are active and no constant meets a
row-plus-offset column: each row of a segment has the same degree and
its neighbours in the same rank order, so the segment's degrees take
one slice write and each column one extended-slice assignment. A row
that holds a block, or that an int key reaches too, is assembled on
its own as a union of id intervals. The int keys between rows no
family reaches go through the two key loops of Graph._build_arrays.
"""

from array import array
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


def family_arrays(n, keys):
    """first and adjacent of the graph on ids 0 .. n - 1 whose edges
    are keys, ints and ranges of ints as Graph._from_keys takes them.
    The list of keys is consumed."""
    ints = [key for key in keys if type(key) is not range]
    # columns (lo, hi, slope, offset): row r in lo .. hi - 1 holds
    # slope * r + offset; spans: row -> the (lo, hi) id intervals it holds
    columns, spans = [], {}
    for family in [key for key in keys if type(key) is range and key]:
        count, step = len(family), family.step
        i, j = divmod(family.start, n)
        if step == 1:
            spans.setdefault(i, []).append((j, j + count))
            columns.append((j, j + count, 0, i))
        elif step == n:
            columns.append((i, i + count, 0, j))
            spans.setdefault(j, []).append((i, i + count))
        else:
            columns += [(i, i + count, 1, j - i), (j, j + count, 1, i - j)]
    del keys[:]
    reached = bytearray(n)
    for lo, hi, _slope, _offset in columns:
        reached[lo:hi] = b"\1" * (hi - lo)
    for row in spans:
        reached[row] = 1
    # the int keys as the key loops take them, sorted with each edge's
    # repeats adjacent; an end in a row the families reach goes to
    # that row's spans, and the loops count and write the others
    ints.sort()
    degree = array("i", [0]) * n
    last = end = -1
    for key in ints:
        if key != last:
            last = key
            if key >= end:
                i = key // n
                start = i * n
                end = start + n
            j = key - start
            if reached[i]:
                spans.setdefault(i, []).append((j, j + 1))
            else:
                degree[i] += 1
            if reached[j]:
                spans.setdefault(j, []).append((i, i + 1))
            else:
                degree[j] += 1
    plan = _plan(n, columns, spans, degree)
    first = array("i", accumulate(degree, initial=0))
    del degree
    adjacent = array("i", [0]) * first[n]
    ids = array("i", range(n))
    for lo, hi, ranked, union in plan:
        at = first[lo]
        if union is not None:
            for a, b in union:
                adjacent[at:at + b - a] = ids[a:b]
                at += b - a
            continue
        width, stop = len(ranked), first[hi]
        for rank, (slope, offset) in enumerate(ranked):
            adjacent[at + rank:stop:width] = (
                ids[lo + offset:hi + offset] if slope else array("i", [offset]) * (hi - lo)
            )
    # free: row -> where its next int-key neighbour goes
    free = {}
    last = end = -1
    for key in ints:
        if key != last:
            last = key
            if key >= end:
                i = key // n
                start = i * n
                end = start + n
                own = not reached[i]
                at = free.get(i, first[i])
            j = key - start
            if own:
                adjacent[at] = j
                at += 1
            if not reached[j]:
                other = free.get(j, first[j])
                adjacent[other] = i
                free[j] = other + 1
    return first, adjacent


def _plan(n, columns, spans, degree):
    """The rows the families reach, in runs of rows that the same
    columns give their neighbours in the same rank order, (lo, hi,
    ranked columns, None), and rows assembled on their own, (row,
    row + 1, None, id intervals); their degrees go into degree."""
    opens, closes = {}, {}
    for lo, hi, *column in columns:
        opens.setdefault(lo, []).append(tuple(column))
        closes.setdefault(hi, []).append(tuple(column))
    cuts = sorted({0, n, *opens, *closes, *spans, *(r + 1 for r in spans)})
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
        if lo in spans:
            alone = [lo]
        elif active:
            # where a constant c meets the column of offset d, at row
            # c - d, the two give one neighbour and swap ranks
            constants = [c for slope, c in active if not slope]
            alone = sorted({
                c - d for slope, d in active if slope for c in constants if lo <= c - d < hi
            })
        else:
            continue
        at = lo
        for row in alone + [hi]:
            if at < row and active:
                ranked = sorted(active, key=lambda column: column[0] * at + column[1])
                degree[at:row] = array("i", [len(ranked)]) * (row - at)
                plan.append((at, row, ranked, None))
            if row < hi:
                values = [(s * row + d, s * row + d + 1) for s, d in active]
                union = _union(spans.get(row, []) + values)
                degree[row] = sum(b - a for a, b in union)
                plan.append((row, row + 1, None, union))
            at = row + 1
    return plan
