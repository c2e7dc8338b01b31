"""Static optimal color reporting index, and the static layout it shares.

Layout (`TreeLayout`): a balanced binary tree whose leaves hold `cap`
consecutive points. Each non-root node that is a left child carries R(u) (the
capped list of largest per-color maxima, descending); each right child
carries L(u) (the capped smallest per-color minima, ascending). Each internal
node stores its middle value m(u) = min of the right subtree, and each leaf
its highest-range-ancestor arrays K1/K2. `StaticIndex` uses the layout with
cap = ceil(log2 N) and keeps it in memory; `EmIndex` uses it with
cap = B * ceil(log_B N) and pages it into blocks.

A query locates succ(a) with one binary search, asks its leaf for the
highest range ancestor u with a < m(u) <= b via two monotone searches
(Facts 2-3), then reads answers off R(u_l) and L(u_r). A traversal that
exhausts a full-length list means the range holds at least log N colors, and
the query falls back to a global O(log N + k) color PST.

The answer stream is duplicate-free by construction, so there is no dedup
pass. L entries carry prev(e), and an L entry is emitted only when
prev(e) < a: a color with an element in [a, m(u)) was already reported from
R(u_l). The leaf PSTs and the fallback PST store (e, prev(e)) and report the
points of [a, b] with prev(e) < a, one per color (the prev-link reduction of
Gupta, Janardan & Smid, 1995). A query reads only immutable state, so
concurrent readers need no lock, given one `CostMeter` each.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

from .core import (ColoredPoint, DuplicateX, InvalidColor, InvalidCoordinate,
                   InvalidRange, compute_prev)
from .pst import ColorPst


class _TreeNode:
    __slots__ = ("left", "right", "parent", "m", "height", "lst",
                 "leaf_lo", "leaf_hi", "leaf_idx")

    def __init__(self):
        self.left = None
        self.right = None
        self.parent = None
        self.m = None          # min value of the right subtree (internal only)
        self.height = 0
        self.lst = None        # R(u) on left children, L(u) on right children
        self.leaf_lo = 0       # covered leaf range [leaf_lo, leaf_hi)
        self.leaf_hi = 0
        self.leaf_idx = None   # set on leaves


class TreeLayout:
    """The static tree over `points` (strictly ascending values >= 1, color
    ids >= 0) with leaves of `cap` consecutive points, R/L lists and K1/K2."""

    def __init__(self, points: Sequence[ColoredPoint], cap: int):
        self.values = [p.value for p in points]
        self.colors = [p.color for p in points]
        if min(self.colors, default=0) < 0:
            raise InvalidColor(min(self.colors))
        for u, v in zip(self.values, self.values[1:]):
            if u >= v:
                raise DuplicateX(v) if u == v else ValueError(
                    f"points must ascend by value: {v} after {u}")
        if self.values and self.values[0] < 1:
            raise InvalidCoordinate(self.values[0])  # 0 is the prev-sentinel
        self.prevs = compute_prev(points)
        self.n = len(self.values)
        self.cap = cap
        # leaves are consecutive chunks of `cap` points (last one may be short)
        self.nleaves = math.ceil(self.n / cap)
        self.leaves: list[_TreeNode] = [None] * self.nleaves
        self.root = self._build_tree(0, self.nleaves) if self.nleaves else None
        # per-leaf highest-range-ancestor arrays (Fact 3 monotone), entries
        # (m, node): K1 the left parents bottom-up (m ascending), K2 the
        # right parents (m descending)
        self.k1: list[list] = []
        self.k2: list[list] = []
        for node in self.leaves:
            k1, k2 = [], []
            while node.parent is not None:
                parent = node.parent
                (k1 if parent.left is node else k2).append((parent.m, parent))
                node = parent
            self.k1.append(k1)
            self.k2.append(k2)

    def _build_tree(self, lo: int, hi: int) -> _TreeNode:
        node = _TreeNode()
        node.leaf_lo, node.leaf_hi = lo, hi
        if hi - lo == 1:
            node.leaf_idx = lo
            self.leaves[lo] = node
            return node
        mid = (lo + hi) // 2
        node.left = self._build_tree(lo, mid)
        node.right = self._build_tree(mid, hi)
        node.left.parent = node
        node.right.parent = node
        node.height = 1 + max(node.left.height, node.right.height)
        node.m = self.values[mid * self.cap]
        node.left.lst = self._rlist(node.left)
        node.right.lst = self._llist(node.right)
        return node

    def _point_span(self, node) -> range:
        return range(node.leaf_lo * self.cap, min(node.leaf_hi * self.cap, self.n))

    def _llist(self, node) -> list:
        """L(u): up to `cap` smallest per-color minima, ascending
        (value, prev, color)."""
        first: dict = {}
        for j in self._point_span(node):
            c = self.colors[j]
            if c not in first:
                first[c] = (self.values[j], self.prevs[j], c)
        return sorted(first.values())[:self.cap]

    def _rlist(self, node) -> list:
        """R(u): up to `cap` largest per-color maxima, descending (value, color)."""
        last: dict = {}
        for j in self._point_span(node):
            last[self.colors[j]] = self.values[j]
        ent = sorted(((v, c) for c, v in last.items()), reverse=True)
        return ent[:self.cap]


class StaticIndex(TreeLayout):
    def __init__(self, points: Sequence[ColoredPoint]):
        points = list(points)
        # floor of 2 so that N = 2 stays a single leaf
        super().__init__(points, max(2, math.ceil(math.log2(max(len(points), 2)))))
        self.leaf_psts = [
            ColorPst(zip(self.values[lo:lo + self.cap], self.prevs[lo:lo + self.cap],
                         self.colors[lo:lo + self.cap]))
            for lo in range(0, self.n, self.cap)]
        self.fallback = ColorPst(zip(self.values, self.prevs, self.colors))

    # -- queries -----------------------------------------------------------

    def one_report(self, a: int, b: int, meter=None) -> Optional[ColoredPoint]:
        """Some element of S within [a, b], or None."""
        if meter is not None:
            meter.locate_ops += 1
        j = bisect.bisect_left(self.values, a)
        if j == self.n or self.values[j] > b:
            return None
        return ColoredPoint(self.values[j], self.colors[j])

    def leaf_of(self, value: int) -> int:
        j = bisect.bisect_right(self.values, value) - 1
        return j // self.cap

    def hra_query(self, leaf_idx: int, a: int, b: int, meter=None) -> Optional[_TreeNode]:
        """Highest ancestor u of the leaf with a < m(u) <= b, else None.

        Requires a nonempty S(leaf) intersection with [a, b]. Two monotone searches: the highest
        left parent with m <= b (K1 ascends) and the highest right parent with
        m > a (K2 descends); the higher of the two is the answer.
        """
        k1 = self.k1[leaf_idx]
        k2 = self.k2[leaf_idx]
        u1 = u2 = None
        lo, hi = 0, len(k1)
        while lo < hi:
            mid = (lo + hi) // 2
            if k1[mid][0] <= b:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0:
            u1 = k1[lo - 1][1]
        lo, hi = 0, len(k2)
        while lo < hi:
            mid = (lo + hi) // 2
            if k2[mid][0] > a:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0:
            u2 = k2[lo - 1][1]
        if meter is not None:
            meter.locate_ops += 1
        if u1 is None:
            return u2
        if u2 is None:
            return u1
        return u1 if u1.height >= u2.height else u2

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of S within [a, b], each exactly once."""
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        # one_report inlined (no call, no ColoredPoint per query): succ(a), its leaf
        if meter is not None:
            meter.locate_ops += 1
        j = bisect.bisect_left(self.values, a)
        if j == self.n or self.values[j] > b:
            return []
        leaf_idx = j // self.cap
        u = self.hra_query(leaf_idx, a, b, meter)
        if u is None:
            return self.leaf_psts[leaf_idx].query(a, b, meter)

        out = []
        fallback = False
        rl = u.left.lst
        n_seen = 0
        for v, c in rl:
            n_seen += 1
            if v < a:
                break
            out.append(c)
        else:
            if len(rl) == self.cap:
                fallback = True
        ll = u.right.lst
        m_seen = 0
        if not fallback:
            for v, p, c in ll:
                m_seen += 1
                if v > b:
                    break
                if p < a:
                    out.append(c)
            else:
                if len(ll) == self.cap:
                    fallback = True
        if meter is not None:
            meter.touches += n_seen + m_seen
        if fallback:
            return self.fallback.query(a, b, meter)
        return out
