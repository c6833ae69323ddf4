"""Spans the benchmark records around its own calls into the library.

Every call the benchmark makes into a public function of alliancelib
runs inside a span: name, start, end, the span it was opened in, and
the item it belongs to. Spans stay in memory and are written out once,
when the run ends. A span's self time is its duration minus the time
its direct children cover; an item span's self time is the part of the
item no layer span accounts for.

Tracing off uses NullTracer, which keeps nothing. Both tracers are
entered through the same `call` helper, so the library sees the same
call depth either way.
"""

import contextlib
import json
import time


class Span:
    __slots__ = ("name", "item", "parent", "start", "end")

    def __init__(self, name, item, parent, start):
        self.name = name
        self.item = item
        self.parent = parent
        self.start = start
        self.end = None

    def to_json(self):
        return {
            "name": self.name,
            "item": self.item,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = []

    @contextlib.contextmanager
    def _record(self, name, item, parent):
        index = len(self.spans)
        span = Span(name, item, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def item(self, item_id):
        """Span of one workload item; spans opened inside belong to it."""
        if self._open:
            raise RuntimeError("items do not nest")
        return self._record("item", item_id, None)

    def span(self, name):
        """Span of one layer call, inside the item that is open."""
        if not self._open:
            raise RuntimeError("layer span %r opened outside an item" % (name,))
        parent = self._open[-1]
        return self._record(name, self.spans[parent].item, parent)

    def add(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


class NullTracer:
    """Tracing off: the same interface, nothing recorded."""

    enabled = False
    _none = contextlib.nullcontext()

    def item(self, item_id):
        return self._none

    def span(self, name):
        return self._none

    def add(self, name, value=1):
        pass

    def peak(self, name, value):
        pass


def call(tracer, name, fn, *args, **kwargs):
    """Call into the library inside a span named after the layer call."""
    with tracer.span(name):
        return fn(*args, **kwargs)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def layer_totals(spans, skip_items=()):
    """Self seconds and call count per span name.

    Item spans are summed under "item"; items whose id is in skip_items
    (set-up, which is not item time) are left out of that sum, but the
    layer spans inside them still count.
    """
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        if span.name == "item" and span.item in skip_items:
            continue
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + own, calls + 1)
    return totals
