"""Spans around calls into the ingleton layers, recorded from outside the package.

The tracer replaces a module-level name that a caller looks up (for example
``ingleton.search.all_subgroups``, which ``search_offenders`` calls) with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  Spans stay in memory until the run ends; the
package itself is not modified and runs unwrapped when tracing is off.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# A span is a list [name, start, end, parent index, nested, items]: ``nested``
# is true when an enclosing span has the same name (so its time is not added
# twice), and ``items`` is the size of the call's result where that is counted.
NAME, START, END, PARENT, NESTED, ITEMS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, span: str, count_items: bool = False, optional: bool = False):
        """Replace ``module.attr`` with a recording wrapper until ``unwrap``."""
        if isinstance(module, str):
            module = importlib.import_module(module)
        original = getattr(module, attr, None)
        if original is None:
            if optional:
                print(f"warning: {module.__name__}.{attr} not found; span {span} skipped", file=sys.stderr)
                return
            raise AttributeError(f"{module.__name__} has no attribute {attr!r} to trace")
        spans, stack, open_ = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, open_.get(span, 0) > 0, 0]
            stack.append(len(spans))
            spans.append(record)
            open_[span] = open_.get(span, 0) + 1
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
                if count_items:
                    record[ITEMS] = len(result)
                return result
            finally:
                record[END] = perf_counter()
                open_[span] -= 1
                stack.pop()

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin(self, span: str) -> int:
        """Open a span that is not a wrapped call (one timed operation)."""
        index = len(self.spans)
        self.spans.append([span, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False, 0])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record[:PARENT + 1]) + "\n")


class SpanTotals:
    """Per-name totals over the spans of one operation (indices lo..hi-1)."""

    def __init__(self, spans, lo: int, hi: int):
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.child_calls: dict[tuple[str, str], int] = {}
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            name, start, end, parent, nested, items = spans[i]
            duration = end - start
            if parent >= lo:
                child_time[parent - lo] += duration
                pair = (spans[parent][NAME], name)
                self.child_calls[pair] = self.child_calls.get(pair, 0) + 1
            if nested:
                continue
            self.seconds[name] = self.seconds.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.items[name] = self.items.get(name, 0) + items
        for i in range(lo, hi):
            name, start, end = spans[i][NAME], spans[i][START], spans[i][END]
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + (end - start) - child_time[i - lo]
        self.span_count = hi - lo
