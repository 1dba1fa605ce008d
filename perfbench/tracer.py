"""In-memory span tracer that wraps library functions at module boundaries.

A span records (name, start, end, parent). Wrapping replaces a function in
the namespace its caller looks it up in (for example ``raster.decode_anchors``,
the name ``raster.render`` calls), so nothing in the library changes.
Counts are attached to the span of the call that produced them.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = []  # (span index, key, value)
        self._stack = []
        self._patches = []  # (namespace, attribute, original, wrapper)

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def count(self, idx, key, value):
        self.counts.append((idx, key, value))

    def wrap(self, original, span_name, counter=None):
        """A traced stand-in for original.

        counter(args, kwargs, result) yields (key, value) pairs recorded on
        the call's span.
        """

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    self.count(idx, key, value)
            return result

        return traced

    def plan(self, rows):
        """Prepare wrappers for (namespace, attribute, span name, counter) rows.

        A missing attribute is an error, so a refactor that moves a function
        cannot silently drop its span.
        """
        self._patches = [(ns, attr, getattr(ns, attr),
                          self.wrap(getattr(ns, attr), name, counter))
                         for ns, attr, name, counter in rows]

    def enable(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def disable(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def _roots(self):
        roots = []
        for name, _, _, parent in self.spans:
            roots.append(roots[parent] if parent >= 0 else len(roots))
        return roots

    def summary(self, root_name):
        """Aggregate spans under the root spans called root_name.

        Returns (n_roots, stats, counts): stats maps span name to
        {"calls", "total_s", "self_s"}, where self time is the span's
        duration minus that of its direct children; counts maps a key to
        its sum. Spans outside any root_name span are left out.
        """
        roots = self._roots()
        keep = [self.spans[r][0] == root_name for r in roots]
        n_roots = sum(1 for i, (name, _, _, parent) in enumerate(self.spans)
                      if parent < 0 and name == root_name)
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not keep[i]:
                continue
            duration = end - start
            stats[name]["calls"] += 1
            stats[name]["total_s"] += duration
            stats[name]["self_s"] += duration
            if parent >= 0:
                stats[self.spans[parent][0]]["self_s"] -= duration
        counts = defaultdict(float)
        for idx, key, value in self.counts:
            if keep[idx]:
                counts[key] += value
        return n_roots, dict(stats), dict(counts)
