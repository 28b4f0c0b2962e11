"""Span recording, self-time arithmetic and nearest-rank percentiles.

A :class:`Tracer` keeps spans in memory as parallel lists (name, start,
end, parent index) so that opening and closing a span costs two clock
reads and a few list operations.  :func:`self_times` turns a finished
span list into per-name self time: a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    """One finished span; times are integer nanoseconds."""

    name: str
    start: int
    end: int
    #: index of the enclosing span in the same list, None for a root.
    parent: int | None = None


class Tracer:
    """In-memory span recorder for one thread of serial calls."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int | None] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else None)
        self._ends.append(0)
        self._stack.append(index)
        self._starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the innermost open span (``index`` is what open returned)."""
        self._ends[index] = self.clock()
        self._stack.pop()

    def spans(self) -> list[Span]:
        """Every recorded span, in opening order."""
        return [Span(*fields) for fields in zip(
            self._names, self._starts, self._ends, self._parents)]


def covered(start: int, end: int,
            intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
        reach = max(reach, hi)
    return total


def self_times(spans: Sequence[Span]) -> dict[str, int]:
    """Total self time per span name, in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        inner = covered(span.start, span.end, children.get(index, ()))
        totals[span.name] += span.end - span.start - inner
    return dict(totals)


def inclusive_times(spans: Sequence[Span]) -> dict[str, int]:
    """Total time per span name, counting only its outermost spans.

    A recursive or re-entrant span nested in one of the same name is not
    counted twice.
    """
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            totals[span.name] += span.end - span.start
    return dict(totals)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank method."""
    if not values:
        raise ValueError("nearest_rank needs at least one value")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1]
