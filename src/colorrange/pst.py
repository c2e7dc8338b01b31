"""Leaf store of the dynamic index: color reporting over a few sorted rows.

`ColorPst` keeps the rows of one base-tree leaf. Their values are the
leaf's own sorted list, which the store borrows and never copies; beside it
the store keeps per row prev(value), its color and its two height tags,
hmin and hmax (see `dynamic_index`), the tags as `array("b")` columns. It
answers one-dimensional color reporting with the classic prev-link
reduction: the colors in [a, b] are exactly the colors of the rows of
[a, b] whose prev is < a, one row per color. A query bisects [a, b] and
scans its rows, so it costs O(log m + points in [a, b]). The owner changes
the values first, and checks for duplicates and missing values in doing
so; the store then inserts or deletes the row at the value's index. The
tags are only stored here; the dynamic index computes and writes them.

The module and class keep their priority-search-tree names because the
benchmark's trace hooks resolve them by name.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from .core import NotFound


class ColorPst:
    """Color reporting over the rows of `vals`, the owner's sorted list:
    `prevs`, `cols` and the hmin and hmax tags (-1, no tag, until written)."""

    __slots__ = ("vals", "prevs", "cols", "hmins", "hmaxs")

    def __init__(self, vals: list, prevs: list, cols: list):
        self.vals, self.prevs, self.cols = vals, prevs, cols
        self.hmins = array("b", [-1]) * len(vals)
        self.hmaxs = array("b", [-1]) * len(vals)

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
        """Add the row of `value`, which `vals` already holds."""
        i = bisect_left(self.vals, value)
        self.prevs.insert(i, prev)
        self.cols.insert(i, color)
        self.hmins.insert(i, hmin)
        self.hmaxs.insert(i, hmax)

    def delete(self, value) -> int:
        """Drop the row of `value`, gone from `vals`; returns its color."""
        i = bisect_left(self.vals, value)
        color = self.cols[i]
        del self.prevs[i], self.cols[i], self.hmins[i], self.hmaxs[i]
        return color

    def update_prev(self, value, prev, hmin=-1) -> None:
        """Give value a new prev and the hmin that goes with it."""
        i = self.index(value)
        self.prevs[i] = prev
        self.hmins[i] = hmin

    def set_hmax(self, value, tag) -> None:
        self.hmaxs[self.index(value)] = tag

    def split_off(self, i, vals) -> "ColorPst":
        """Move rows i.. into a new store over `vals`, the moved values."""
        right = ColorPst(vals, self.prevs[i:], self.cols[i:])
        right.hmins, right.hmaxs = self.hmins[i:], self.hmaxs[i:]
        del self.prevs[i:], self.cols[i:], self.hmins[i:], self.hmaxs[i:]
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
