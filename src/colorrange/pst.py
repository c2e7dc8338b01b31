"""Leaf store of the dynamic index: color reporting over a few sorted rows.

`ColorPst` keeps (value, prev(value), color) rows in three parallel lists
sorted by value and answers one-dimensional color reporting with the classic
prev-link reduction: the colors in [a, b] are exactly the colors of the rows
of [a, b] whose prev is < a, one row per color. A query bisects [a, b] and
scans its rows, so it costs O(log m + points in [a, b]); an update is one
bisect plus a list insert or delete.

The module and class keep their priority-search-tree names because the
benchmark's trace hooks resolve them by name.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

from .core import DuplicateX, NotFound


class ColorPst:
    """Color reporting over (value, prev, color) rows sorted by value."""

    __slots__ = ("vals", "prevs", "cols")

    def __init__(self, triples: Iterable[tuple] = ()):
        rows = sorted(triples)
        self.vals = [v for v, _, _ in rows]
        for v, nv in zip(self.vals, self.vals[1:]):
            if v == nv:
                raise DuplicateX(v)
        self.prevs = [p for _, p, _ in rows]
        self.cols = [c for _, _, c in rows]

    def __len__(self):
        return len(self.vals)

    def _index(self, value) -> int:
        i = bisect_left(self.vals, value)
        if i == len(self.vals) or self.vals[i] != value:
            raise NotFound(value)
        return i

    def query(self, a, b, meter=None) -> list:
        """Distinct colors in [a, b], exactly one hit per color (prev < a).

        Metering: every reported color is a touch; the bisection and the rows
        of [a, b] the prev filter drops count as locate navigation.
        """
        i = bisect_left(self.vals, a)
        j = bisect_right(self.vals, b, i)
        out = [c for p, c in zip(self.prevs[i:j], self.cols[i:j]) if p < a]
        if meter is not None:
            meter.touches += len(out)
            meter.locate_ops += 1 + (j - i) - len(out)
        return out

    def insert(self, value, prev, color) -> None:
        i = bisect_left(self.vals, value)
        if i < len(self.vals) and self.vals[i] == value:
            raise DuplicateX(value)
        self.vals.insert(i, value)
        self.prevs.insert(i, prev)
        self.cols.insert(i, color)

    def delete(self, value) -> None:
        i = self._index(value)
        del self.vals[i]
        del self.prevs[i]
        del self.cols[i]

    def update_prev(self, value, prev) -> None:
        self.prevs[self._index(value)] = prev

    def check_invariants(self) -> None:
        """Strictly increasing values, equal lengths, prev < value per row."""
        assert len(self.vals) == len(self.prevs) == len(self.cols), \
            "row lists differ in length"
        assert all(v < nv for v, nv in zip(self.vals, self.vals[1:])), \
            "values not strictly increasing"
        assert all(p < v for v, p in zip(self.vals, self.prevs)), \
            "a prev is not below its value"
