"""Flat baseline and reference: the prev-link reduction with no index.

Among the points e in [a, b], exactly one per color has prev(e) < a
(Gupta, Janardan & Smid 1995), so `colors[lo:hi][prevs[lo:hi] < a]` over
sorted numpy arrays lists each distinct color of [a, b] once. The benchmark
times it beside every index as the same-run baseline, and uses its output
to check every answer. It is itself checked against the library's
brute-force scan `oracle_report`.
"""

from __future__ import annotations

import bisect

import numpy as np

from colorrange.core import ColoredPoint, Range, oracle_report


class FlatIndex:
    """Sorted values, colors and prev-links, updated in place per op."""

    def __init__(self, points):
        self.values = np.array([p.value for p in points], dtype=np.int64)
        self.colors = np.array([p.color for p in points], dtype=np.int64)
        self.by_color: dict = {}
        prevs = []
        for v, c in points:
            same = self.by_color.setdefault(c, [])
            prevs.append(same[-1] if same else 0)
            same.append(v)
        self.prevs = np.array(prevs, dtype=np.int64)

    def query(self, a: int, b: int, meter=None) -> np.ndarray:
        """Distinct colors of [a, b]; `meter` is accepted for the call
        shape of the indexes and ignored."""
        lo = self.values.searchsorted(a, "left")
        hi = self.values.searchsorted(b, "right")
        return self.colors[lo:hi][self.prevs[lo:hi] < a]

    def _set_prev(self, value: int, prev: int) -> None:
        self.prevs[self.values.searchsorted(value)] = prev

    def insert(self, value: int, color: int) -> None:
        same = self.by_color.setdefault(color, [])
        i = bisect.bisect_left(same, value)
        prev = same[i - 1] if i else 0
        if i < len(same):
            self._set_prev(same[i], value)
        same.insert(i, value)
        pos = self.values.searchsorted(value)
        self.values = np.insert(self.values, pos, value)
        self.colors = np.insert(self.colors, pos, color)
        self.prevs = np.insert(self.prevs, pos, prev)

    def delete(self, value: int) -> None:
        pos = int(self.values.searchsorted(value))
        color, prev = int(self.colors[pos]), int(self.prevs[pos])
        self.values = np.delete(self.values, pos)
        self.colors = np.delete(self.colors, pos)
        self.prevs = np.delete(self.prevs, pos)
        same = self.by_color[color]
        i = bisect.bisect_left(same, value)
        del same[i]
        if i < len(same):
            self._set_prev(same[i], prev)

    def points(self) -> list:
        return [ColoredPoint(v, c) for v, c in
                zip(self.values.tolist(), self.colors.tolist())]

    def matches_oracle(self, a: int, b: int) -> bool:
        want = oracle_report(self.points(), Range(a, b))
        got = self.query(a, b).tolist()
        return len(got) == len(want) and set(got) == want


def answer_ok(got, want: np.ndarray) -> bool:
    """Exactly the reference's colors, each once."""
    return isinstance(got, list) and sorted(got) == sorted(want.tolist())
