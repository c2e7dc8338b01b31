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
the query falls back to `ArrayFallback`, which answers any range in
O(log N + k): the two edge leaves and at most two single interior leaves go
through their leaf PSTs, and the other interior leaves split into at most two
aligned blocks per level, each of which keeps the first point of every color
it holds sorted by the position of that point's predecessor, so one
`searchsorted` finds every block's reported prefix.

The answer stream is duplicate-free by construction, so there is no dedup
pass. L entries carry prev(e), and an L entry is emitted only when
prev(e) < a: a color with an element in [a, m(u)) was already reported from
R(u_l). The leaf PSTs store (e, prev(e)) and report the points of [a, b] with
prev(e) < a, one per color (the prev-link reduction of Gupta, Janardan &
Smid, 1995); a fallback block lies inside [a, b] and reports its first
points whose predecessor lies before succ(a), the same filter. A query reads
only immutable state, so concurrent readers need no lock, given one
`CostMeter` each.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

import numpy as np

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


def fallback_levels(n: int, cap: int, nleaves: int) -> tuple:
    """(level_base, block count) of the aligned blocks over `n` points in
    leaves of `cap`: level l >= 1 cuts the points into blocks of cap * 2^l
    for each l that a range of interior leaves, at most nleaves - 2 of them,
    can fill; level_base holds the global id of each level's block 0."""
    level_base, nblocks, size = [], 0, 2 * cap
    while size <= (nleaves - 2) * cap:
        level_base.append(nblocks)
        nblocks += -(-n // size)
        size *= 2
    return level_base, nblocks


def first_points(layout: TreeLayout) -> tuple:
    """The aligned blocks' first points: (level_base, block_start, keys,
    pos). A block keeps the first point of each color it holds, the points
    whose predecessor lies before the block, ordered by the predecessor's
    position prevpos (-1 for none). Block g's entries are [block_start[g],
    block_start[g + 1]) of the int64 arrays `keys`, which holds
    g * (n + 1) + prevpos + 1 and so ascends, and `pos`, the points' own
    positions."""
    n, cap = layout.n, layout.cap
    level_base, nblocks = fallback_levels(n, cap, layout.nleaves)
    values = np.asarray(layout.values, dtype=np.int64)
    prevs = np.asarray(layout.prevs, dtype=np.int64)
    prevpos = np.where(prevs == 0, -1, np.searchsorted(values, prevs))
    pos = np.arange(n, dtype=np.int64)
    keys, firsts = [pos[:0]], [pos[:0]]
    size = 2 * cap
    for base in level_base:
        block = pos // size
        first = prevpos < block * size
        key = (base + block[first]) * (n + 1) + prevpos[first] + 1
        order = np.argsort(key, kind="stable")
        keys.append(key[order])
        firsts.append(pos[first][order])
        size *= 2
    keys = np.concatenate(keys)
    block_start = keys.searchsorted(
        np.arange(nblocks + 1, dtype=np.int64) * (n + 1)).tolist()
    return level_base, block_start, keys, np.concatenate(firsts)


def leaf_cover(lo: int, hi: int, level_base: Sequence[int]) -> tuple:
    """Leaves [lo, hi] as (single leaves, aligned blocks): the edge leaves
    lo and hi and at most two single interior leaves, then the other
    interior leaves as at most two aligned blocks per level."""
    if lo == hi:
        return [lo], []
    leaves = [lo, hi]
    lo += 1
    if lo & 1 and lo < hi:
        leaves.append(lo)
        lo += 1
    if hi & 1 and lo < hi:
        hi -= 1
        leaves.append(hi)
    lo >>= 1
    hi >>= 1
    blocks = []
    for base in level_base:
        if lo >= hi:
            break
        if lo & 1:
            blocks.append(base + lo)
            lo += 1
        if hi & 1:
            hi -= 1
            blocks.append(base + hi)
        lo >>= 1
        hi >>= 1
    return leaves, blocks


class ArrayFallback:
    """Color reporting over any range of a `TreeLayout` in O(log N + k).

    The interior leaves of a range that `leaf_cover` does not list one by
    one fill aligned blocks of `first_points`, whose `keys` are kept with
    the entries' colors at the same index of `firsts`, so the entries of
    block g with prevpos < j end at `keys.searchsorted(g * (n + 1) + j + 1)`.
    That makes sum over l of min(N, C * N / (cap * 2^l)) entries for C
    colors.

    A block strictly after succ(a) = point j lies inside the range, and each of
    its entries with prevpos < j is the first point of its color in the whole
    range, so the reported stream holds each color once. Metering: the leaf
    PSTs meter as they do on their own; the locate of [a, b] and each block
    searched count one locate op, each reported entry one touch.
    """

    def __init__(self, layout: TreeLayout, leaf_psts: list):
        self.values = layout.values
        self.cap = layout.cap
        self.leaf_psts = leaf_psts
        self.stride = layout.n + 1
        self.level_base, self.block_start, self.keys, pos = first_points(layout)
        # the colors by reference, so an entry costs one list slot
        colors = layout.colors
        self.firsts = [colors[i] for i in pos.tolist()]

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of [a, b], each exactly once."""
        values = self.values
        j = bisect.bisect_left(values, a)
        r = bisect.bisect_right(values, b)
        if meter is not None:
            meter.locate_ops += 1
        if j >= r:
            return []
        leaves, blocks = leaf_cover(j // self.cap, (r - 1) // self.cap,
                                    self.level_base)
        out = []
        for leaf in leaves:
            out += self.leaf_psts[leaf].query(a, b, meter)
        if not blocks:
            return out
        stride, bound = self.stride, j + 1
        ends = self.keys.searchsorted([g * stride + bound for g in blocks]).tolist()
        start, firsts = self.block_start, self.firsts
        k = len(out)
        for g, e in zip(blocks, ends):
            out += firsts[start[g]:e]
        if meter is not None:
            meter.locate_ops += len(blocks)
            meter.touches += len(out) - k
        return out


class StaticIndex(TreeLayout):
    def __init__(self, points: Sequence[ColoredPoint]):
        points = list(points)
        # floor of 2 so that N = 2 stays a single leaf
        super().__init__(points, max(2, math.ceil(math.log2(max(len(points), 2)))))
        self.leaf_psts = [
            ColorPst(zip(self.values[lo:lo + self.cap], self.prevs[lo:lo + self.cap],
                         self.colors[lo:lo + self.cap]))
            for lo in range(0, self.n, self.cap)]
        self.fallback = ArrayFallback(self, self.leaf_psts)

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
