"""Pareto dominance over lower-is-better objective vectors.

:func:`pareto_indices` finds the frontier of two objectives with one sort
and one sweep, O(n log n); the pairwise dominance definition it must
agree with lives in ``tests/oracles.py``.  The determinism rules the
frontier report relies on: the frontier preserves input order (stable,
first-seen), and a candidate whose objectives *tie* another's is not
dominated by it (dominance needs a strict improvement somewhere), so
exact duplicates all survive to the frontier rather than racing on
enumeration order.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Sequence

Point = Sequence[float]


def pareto_indices(points: Sequence[Point]) -> list[int]:
    """Indices of the non-dominated points, in input order.

    Every point has exactly two objectives ``(x, y)``, neither NaN.
    Sorted by ``(x, y)``, the points are swept in groups of equal ``x``,
    carrying the least ``y`` of all earlier groups (strictly smaller
    ``x``).  A point is dominated when that carried minimum is at most
    its ``y``, or when its own group's least ``y`` is strictly below it;
    a tie dominates nothing.
    """
    xy: list[tuple[float, float]] = []
    for point in points:
        if len(point) != 2:
            raise ValueError(
                f"pareto_indices takes two objectives per point, "
                f"got {len(point)}")
        x, y = point
        if math.isnan(x) or math.isnan(y):
            raise ValueError("objectives must not be NaN")
        xy.append((x, y))
    order = sorted(range(len(xy)), key=lambda i: xy[i])
    frontier: list[int] = []
    carried: float | None = None
    for _, group in groupby(order, key=lambda i: xy[i][0]):
        members = list(group)
        least = xy[members[0]][1]
        if carried is None or least < carried:
            frontier.extend(i for i in members if xy[i][1] == least)
            carried = least
    return sorted(frontier)
