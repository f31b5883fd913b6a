"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, iteration)``: wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (or ``None``) and the
workload-iteration id it belongs to.  Spans are only recorded from the
benchmark's own code, around calls into the package's public functions; the
package itself is not instrumented.  Counts (work done, bytes computed) are
recorded next to the spans, per iteration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# spans the benchmark opens only to group calls; they are not package layers
GROUP_PREFIX = "bench."


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, iteration]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.iteration = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float) -> None:
        self.counts[self.iteration][name] += amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def totals(self, iteration: int) -> dict[str, float]:
        """Summed duration per span name within one iteration."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, it in self.spans:
            if it == iteration:
                out[name] += end - start
        return out

    def direct_children(self, idx: int) -> list[int]:
        return [i for i, sp in enumerate(self.spans) if sp[3] == idx]

    def write(self, path) -> None:
        """One JSON object per span, with its self time, in start order."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, it) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "iteration": it, "self": selfs[i],
                }) + "\n")
