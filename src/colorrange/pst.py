"""Leaf store of the dynamic index: color reporting over a few sorted rows.

`ColorPst` keeps one row per value in parallel columns sorted by value: the
value, prev(value), its color and its two height tags, hmin and hmax (see
`dynamic_index`), as `array("b")` columns. It answers one-dimensional color
reporting with the classic prev-link reduction: the colors in [a, b] are
exactly the colors of the rows of [a, b] whose prev is < a, one row per
color. A query bisects [a, b] and scans its rows, so it costs O(log m +
points in [a, b]); an update is one bisect plus a list insert or delete.
The tags are only stored here; the dynamic index computes and writes them.

The module and class keep their priority-search-tree names because the
benchmark's trace hooks resolve them by name.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable

from .core import DuplicateX, NotFound


class ColorPst:
    """Color reporting over (value, prev, color) rows sorted by value, each
    with its hmin and hmax tag (-1, no tag, until one is written)."""

    __slots__ = ("vals", "prevs", "cols", "hmins", "hmaxs")

    def __init__(self, triples: Iterable[tuple] = ()):
        rows = sorted(triples)
        self.vals = [v for v, _, _ in rows]
        for v, nv in zip(self.vals, self.vals[1:]):
            if v == nv:
                raise DuplicateX(v)
        self.prevs = [p for _, p, _ in rows]
        self.cols = [c for _, _, c in rows]
        self.hmins = array("b", [-1]) * len(rows)
        self.hmaxs = array("b", [-1]) * len(rows)

    def __len__(self):
        return len(self.vals)

    def index(self, value) -> int:
        """The row of `value`, or NotFound."""
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

    def insert(self, value, prev, color, hmin=-1, hmax=-1) -> None:
        i = bisect_left(self.vals, value)
        if i < len(self.vals) and self.vals[i] == value:
            raise DuplicateX(value)
        self.vals.insert(i, value)
        self.prevs.insert(i, prev)
        self.cols.insert(i, color)
        self.hmins.insert(i, hmin)
        self.hmaxs.insert(i, hmax)

    def delete(self, value) -> int:
        """Remove value's row; returns its color."""
        i = self.index(value)
        color = self.cols[i]
        del self.vals[i], self.prevs[i], self.cols[i]
        del self.hmins[i], self.hmaxs[i]
        return color

    def update_prev(self, value, prev, hmin=-1) -> None:
        """Give value a new prev and the hmin that goes with it."""
        i = self.index(value)
        self.prevs[i] = prev
        self.hmins[i] = hmin

    def set_hmin(self, value, tag) -> None:
        self.hmins[self.index(value)] = tag

    def set_hmax(self, value, tag) -> None:
        self.hmaxs[self.index(value)] = tag

    def split_off(self, i) -> "ColorPst":
        """Move the rows from row i on into a new store and return it."""
        right = ColorPst()
        for name in self.__slots__:
            col = getattr(self, name)
            setattr(right, name, col[i:])
            del col[i:]
        return right

    def check_invariants(self) -> None:
        """Columns of one length, strictly increasing values, prev < value
        per row and tags in [-1, 127]; AssertionError otherwise."""
        n = len(self.vals)
        if any(len(col) != n for col in
               (self.prevs, self.cols, self.hmins, self.hmaxs)):
            raise AssertionError("row columns differ in length")
        if any(v >= nv for v, nv in zip(self.vals, self.vals[1:])):
            raise AssertionError("values not strictly increasing")
        if any(p >= v for v, p in zip(self.vals, self.prevs)):
            raise AssertionError("a prev is not below its value")
        if any(not -1 <= t <= 127 for col in (self.hmins, self.hmaxs)
               for t in col):
            raise AssertionError("a height tag outside [-1, 127]")
