"""Span recording for the benchmark's traced run.

Spans are recorded from outside the package: `patch` swaps functions on the
package's module objects for timing wrappers for the length of a with-block
and puts the originals back afterwards, so untraced samples run the package
exactly as shipped.  Spans stay in memory until `Tracer.write`.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (span id, parent span id or -1, name, start, end, sample id)
Span = Tuple[int, int, str, float, float, int]


class Tracer:
    """Collects one span per wrapped call and counters, both keyed by sample."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[Tuple[int, str], int] = defaultdict(int)
        self.sample = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id so children can name it
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.sample)

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.sample, name] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self, sample: int) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Inclusive time, self time and call count per span name in one sample.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a tree add up to its root's duration.
        """
        mine = [s for s in self.spans if s is not None and s[5] == sample]
        child_time: Dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _ in mine:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for sid, _, name, start, end, _ in mine:
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[sid]
            calls[name] += 1
        return inclusive, self_time, calls

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV; times are seconds from the first span."""
        done = [s for s in self.spans if s is not None]
        origin = min((s[3] for s in done), default=0.0)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "name", "start_s", "end_s", "sample"])
            for sid, parent, name, start, end, sample in done:
                writer.writerow([sid, parent, name, f"{start - origin:.9f}", f"{end - origin:.9f}", sample])


@contextmanager
def patch(replacements: Iterable[Tuple[object, str, Callable]]):
    """Set module attributes to new values inside the block, then restore them."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
