"""In-memory span tracing around calls into the package's public functions.

A ``Tracer`` replaces module attributes with timing wrappers, so every call
that looks the name up on its module at call time is recorded: the
benchmark's own calls and the package's internal calls alike. Each span
holds its name, the index of the span that was open when it started, and its
start and end times. A span's self time is its duration minus the durations
of its direct children, so the self times of all spans under a root span sum
to the root's duration.

The benchmark traces in one process only (the sweep runs at ``jobs=1`` when
traced), so no span is lost in a worker.
"""

from __future__ import annotations

import collections
import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = collections.Counter()
        self._stack = []
        self._patched = []

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr`` with a wrapper that records a span named
        ``name``; ``count(counts, args, kwargs, result)`` may add counters."""
        original = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name):
        span = [name, self._stack[-1] if self._stack else None, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Total self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = collections.defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def inclusive_times(self) -> dict:
        """Total seconds per span name, children included."""
        totals = collections.defaultdict(float)
        for name, _, start, end in self.spans:
            totals[name] += end - start
        return dict(totals)
