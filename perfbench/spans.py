"""In-memory span tracer for the benchmark's traced run.

The tracer wraps library functions by rebinding them in the module namespace
where their callers look them up, so no library source changes. Each wrapped
call records one span: name, start, end, parent span, the unit of work it
belongs to (one train step or one eval call) and whether it raised. Spans stay
in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "failed")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into Tracer.spans, or None
        self.unit = unit  # (unit name, ordinal), or None outside any unit
        self.failed = False

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; names in `unit_names` start a new unit of work."""

    def __init__(self, unit_names=(), clock=time.perf_counter):
        self.spans = []
        self.unit_names = frozenset(unit_names)
        self.unit_counts = {}
        self._stack = []  # indices of open spans
        self._clock = clock

    def parent_name(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        unit = self.spans[parent].unit if parent is not None else None
        if name in self.unit_names:
            ordinal = self.unit_counts.get(name, 0)
            self.unit_counts[name] = ordinal + 1
            unit = (name, ordinal)
        self.spans.append(Span(name, self._clock(), parent, unit))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            self.close(s)

    def wrap(self, fn, name):
        """Traced stand-in for `fn`; `name` is a string or a function of
        (parent span name, args, kwargs) that returns one."""

        # open/close inline rather than `with self.span(...)`: this runs ~40
        # times per train step, and the generator-based context manager costs
        # several microseconds per call
        def traced(*args, **kwargs):
            s = self.open(name if isinstance(name, str) else name(self.parent_name(), args, kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                s.failed = True
                raise
            finally:
                self.close(s)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, fn, name):
        """Traced stand-in for a generator function: one span per `next`;
        `name` is as for `wrap`, resolved at the first `next`."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(self.parent_name(), args, kwargs)
            while True:
                with self.span(span_name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, bindings):
        """Rebind each (module, attribute, name, kind) for the duration of the block.

        kind is "call" for plain functions and "iter" for generator functions.
        """
        saved = []
        try:
            for module, attr, name, kind in bindings:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                wrapper = self.wrap_iter if kind == "iter" else self.wrap
                setattr(module, attr, wrapper(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "unit": None if s.unit is None else f"{s.unit[0]}#{s.unit[1]}",
                    "failed": s.failed,
                }) + "\n")


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span, in order: duration minus what its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_length(kids, s.start, s.end) for s, kids in zip(spans, children)]


def summarize(spans, unit_counts):
    """Aggregate spans by (name, scope) into rows.

    The scope is the kind of unit a span ran in, or "-" outside every unit.
    Inside a unit kind, times and calls are per unit of that kind (summed
    over the calls in one unit); outside, they are per call.
    """
    selfs = self_times(spans)
    acc = {}
    for s, own in zip(spans, selfs):
        key = (s.name, s.unit[0] if s.unit is not None else "-")
        row = acc.setdefault(key, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += s.duration
        row[2] += own
        row[3] += s.failed
    rows = {}
    for (name, scope), (calls, total, own, failures) in acc.items():
        count = calls if scope == "-" else unit_counts[scope]
        rows[name, scope] = {
            "calls": calls,
            "calls_per_basis": calls / count,
            "ms": 1000.0 * total / count,
            "self_ms": 1000.0 * own / count,
            "failures": failures,
        }
    return rows
