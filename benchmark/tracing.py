"""Outside-in span tracer for the cedr benchmark.

A `Tracer` wraps public cedr functions by rebinding the attribute that their
callers look up (a module global such as ``cedr.train.backward`` or a class
attribute such as ``PointEncoder.encode``). Each call records one span
(name, start, end, parent) in memory, timed in CPU time of this process,
and a target may also count something from the call's arguments before it
runs or from its result after it returns. Leaving the
``with`` block restores every attribute, so the program's own files are
never edited and untraced code runs unwrapped.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span


@dataclass
class Target:
    owner: object        # module or class whose attribute is rebound
    attr: str
    name: str           # span name, "<cedr module>.<function>"
    count: Callable | None = None  # count(counts, args, result), after the span
    count_before: Callable | None = None  # count_before(counts, args), before it


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count, clock = target.name, target.count, time.process_time
        count_before = target.count_before

        def traced(*args, **kwargs):
            if count_before is not None:
                count_before(counts, args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for t in self.targets:
            original = getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def self_times(self, first: int = 0) -> list[tuple[Span, float]]:
        """(span, self time) for spans[first:]: each span's duration minus
        the durations of its direct children."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= first:
                child[s.parent - first] += s.end - s.start
        return [(s, s.end - s.start - c) for s, c in zip(spans, child)]

    def under(self, first: int, roots: set[str]) -> list[bool]:
        """For spans[first:], whether the span or one of its ancestors is
        named in `roots`. Parents are appended before their children."""
        flags: list[bool] = []
        for s in self.spans[first:]:
            inherited = s.parent >= first and flags[s.parent - first]
            flags.append(inherited or s.name in roots)
        return flags
