"""Fully dynamic color reporting index.

Per element e the index maintains approximate height tags: hmin(e) is the
height of the highest base-tree ancestor in which e is its color's leftmost
element (-1 if none, including the leaf), and hmax(e) mirrors it for
rightmost. Because subtree spans are contiguous, hmin(e) is simply the height
of the highest ancestor whose live subtree minimum exceeds prev(e), so a tag
recomputation is one upward walk.

Queries find the highest range ancestor u, split [a, b] across u's children,
and ask two narrow-stripe structures (x = value, y = tag + 1) for elements
with tag at least the child height: the leftmost child by hmax, the others by
hmin. Each subquery is capped at ceil(sqrt(child subtree size)); hitting a
cap proves the answer is large and the query is re-run on the slow index,
whose cost O(sqrt(n_ab) + k) is then O(k).

Tag maintenance: tags are recomputed exactly for the inserted/deleted element
and its same-color neighbors; all other events can only raise true tags,
which keeps stored tags <= true tags. Splits refresh the raised extremes of
the new nodes (below the loglog level, all elements of both halves are simply
rescanned); a global rebuild recomputes everything.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import ColoredPoint, InvalidRange, NotFound, PREV_SENTINEL
from .pst import ColorPst
from .slow_index import SlowIndex
from .stripe import StripeIndex
from .wbtree import WbTree

_INF = 1 << 62


class DynamicIndex:
    def __init__(self, points: Iterable[ColoredPoint] = ()):
        self.slow = SlowIndex(points)
        # the slow tree's value -> color map and per-color sorted value lists
        # are the only copy; the slow index keeps them up to date
        fwd = self.slow.fwd
        self.colors: dict = fwd.colors
        self.by_color: dict = fwd.by_color
        self._prev = fwd.prev_of
        self._next = fwd.next_of  # None past the color's last element
        self.ncolors = 1 + max(self.by_color, default=-1)
        self.tree = WbTree(self.colors)
        self.last_fallback_cap = None  # set per query when a cap fires
        self._attach_all()

    # -- bulk (re)construction ------------------------------------------------

    def _attach_all(self) -> None:
        """Rebuild leaf structures, tags, and stripes from the current tree."""
        n0 = self.tree.n0
        height_room = max(4, int(math.log2(2 * n0 + 4)) + 2)
        self._stripe_maxy = height_room + 2
        group_cap = max(4, math.ceil(math.log2(max(n0, 4))))
        self.stripe_min = StripeIndex(self._stripe_maxy, group_cap=group_cap)
        self.stripe_max = StripeIndex(self._stripe_maxy, group_cap=group_cap)
        self.hmin: dict = {}
        self.hmax: dict = {}
        # leaves in order give the tagged values sorted, for the bulk loads
        mins: list = []
        maxs: list = []
        leaf = self.tree.first_leaf
        while leaf is not None:
            leaf.dstruct = self._leaf_store(leaf)
            for v in leaf.values:
                h = self.hmin[v] = self._tag_min(v, leaf)
                if h >= 0:
                    mins.append((v, h + 1))
                h = self.hmax[v] = self._tag_max(v, leaf)
                if h >= 0:
                    maxs.append((v, h + 1))
            leaf = leaf.next_leaf
        self.stripe_min.load(mins)
        self.stripe_max.load(maxs)

    def _leaf_store(self, leaf) -> ColorPst:
        return ColorPst((v, self._prev(v), self.colors[v]) for v in leaf.values)

    # -- exact tags --------------------------------------------------------------

    def _tag_min(self, value, leaf=None) -> int:
        """Height of the highest ancestor whose live min exceeds prev(value)."""
        prev = self._prev(value)
        node = self.tree.leaf_for(value) if leaf is None else leaf
        if node.submin is None or node.submin <= prev:
            return -1
        h = 0
        p = node.parent
        while p is not None and p.submin > prev:
            h = p.height
            p = p.parent
        return h

    def _tag_max(self, value, leaf=None) -> int:
        nxt = self._next(value)
        if nxt is None:
            nxt = _INF
        node = self.tree.leaf_for(value) if leaf is None else leaf
        if node.submax is None or node.submax >= nxt:
            return -1
        h = 0
        p = node.parent
        while p is not None and p.submax < nxt:
            h = p.height
            p = p.parent
        return h

    def _retag_min(self, value, leaf=None) -> None:
        new = self._tag_min(value, leaf)
        old = self.hmin.get(value)
        if old == new:
            return
        if old is not None and old >= 0:
            self.stripe_min.delete(value)
        self.hmin[value] = new
        if new >= 0:
            self.stripe_min.insert(value, new + 1)

    def _retag_max(self, value) -> None:
        new = self._tag_max(value)
        old = self.hmax.get(value)
        if old == new:
            return
        if old is not None and old >= 0:
            self.stripe_max.delete(value)
        self.hmax[value] = new
        if new >= 0:
            self.stripe_max.insert(value, new + 1)

    def _drop_tags(self, value) -> None:
        if self.hmin.pop(value) >= 0:
            self.stripe_min.delete(value)
        if self.hmax.pop(value) >= 0:
            self.stripe_max.delete(value)

    # -- updates ----------------------------------------------------------------

    def __len__(self):
        return len(self.colors)

    def insert(self, value: int, color: int) -> None:
        # the slow index validates the point, then adds it to the shared
        # color maps, so a rebuild's _attach_all already sees it
        self.slow.insert(value, color)
        ev = self.tree.insert(value)
        self.ncolors = max(self.ncolors, color + 1)
        if ev["rebuilt"]:
            self._attach_all()
            return

        e_p = self._prev(value)
        e_n = self._next(value)

        rebuilt_leaves = set()
        for _, left, right, h in ev["splits"]:
            if h == 0:
                left.dstruct = self._leaf_store(left)
                right.dstruct = self._leaf_store(right)
                rebuilt_leaves.add(id(left))
                rebuilt_leaves.add(id(right))
        leaf = self.tree.leaf_for(value)
        if not rebuilt_leaves:
            leaf.dstruct.insert(value, e_p, color)
        if e_n is not None:
            # prev(e_n) changed from e_p to value
            nleaf = self.tree.leaf_for(e_n)
            if id(nleaf) not in rebuilt_leaves:
                nleaf.dstruct.update_prev(e_n, value)

        h = self.hmin[value] = self._tag_min(value, leaf)
        if h >= 0:
            self.stripe_min.insert(value, h + 1)
        h = self.hmax[value] = self._tag_max(value, leaf)
        if h >= 0:
            self.stripe_max.insert(value, h + 1)
        if e_n is not None:
            self._retag_min(e_n, nleaf)
        if e_p != PREV_SENTINEL:
            self._retag_max(e_p)

        for parent, left, right, h in ev["splits"]:
            self._split_refresh(parent, left, right, h)

    def delete(self, value: int) -> None:
        if value not in self.colors:
            raise NotFound(value)
        e_p = self._prev(value)
        e_n = self._next(value)
        old_leaf = self.tree.leaf_for(value)
        self.slow.delete(value)
        ev = self.tree.delete(value)
        if ev["rebuilt"]:
            self.hmin.pop(value)
            self.hmax.pop(value)
            self._attach_all()
            return
        self._drop_tags(value)
        old_leaf.dstruct.delete(value)
        if e_n is not None:
            nleaf = self.tree.leaf_for(e_n)
            nleaf.dstruct.update_prev(e_n, e_p)
            self._retag_min(e_n, nleaf)
        if e_p != PREV_SENTINEL:
            self._retag_max(e_p)

    def _split_refresh(self, parent, left, right, height) -> None:
        """Repair tags after a node split.

        True tags only rise at a split: hmin for elements of the right half
        whose prev crossed the new boundary, hmax symmetrically in the left
        half, and (for a root split) the extremes of the whole tree. Below the
        loglog level both halves are rescanned outright; above it, only the
        color extremes of the affected nodes are refreshed: the leftmost
        element per color from the slow index's k-leftmost selection, the
        rightmost from its k-rightmost selection on the same tree.
        """
        if height <= self.tree.loglog:
            for node in (left, right):
                for lf in self.tree.leaves_under(node):
                    for v in lf.values:
                        self._retag_min(v)
                        self._retag_max(v)
        else:
            self._refresh_extremes(right, min_side=True)
            self._refresh_extremes(left, min_side=False)
        if parent is self.tree.root and parent.height == height + 1 and \
                len(parent.children) == 2:
            # fresh root: every global color extreme gained a level
            self._refresh_extremes(parent, min_side=True)
            self._refresh_extremes(parent, min_side=False)

    def _refresh_extremes(self, node, min_side: bool) -> None:
        lo, hi = node.submin, node.submax
        if lo is None:
            return
        if min_side:
            hits = self.slow.k_leftmost_elements(lo, hi, self.ncolors)
            for v, _ in hits:
                self._retag_min(v)
        else:
            hits = self.slow.k_rightmost_elements(lo, hi, self.ncolors)
            for v, _ in hits:
                self._retag_max(v)

    # -- queries -----------------------------------------------------------------

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of the live set within [a, b]."""
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        a = max(a, 1)  # no point lies below 1, and prev 0 must stay below a
        self.last_fallback_cap = None
        if meter is not None:
            meter.locate_ops += 1
        e = self.tree.succ(a)
        if e is None or e > b:
            return []
        leaf = self.tree.leaf_for(e)
        u = self.tree.dyn_hra(leaf, a, b)
        if u is None:
            return leaf.dstruct.query(a, b, meter)
        subs = WbTree.child_subranges(u, a, b)
        c = u.height  # tag >= height(child) means y = tag + 1 >= u.height
        out: list = []
        first_child = subs[0][0]
        for i, ai, bi in subs:
            child = u.children[i]
            cap = max(1, math.isqrt(max(child.size, 1)))
            if child.size and cap * cap < child.size:
                cap += 1
            stripe = self.stripe_max if i == first_child else self.stripe_min
            pts, over = stripe.query(ai, bi, c, meter=meter, cap=cap)
            if over or len(pts) >= cap:
                self.last_fallback_cap = cap
                return self.slow.query(a, b, meter=meter)
            # the first child's hits are its colors' rightmost points, one
            # per color; a later child's hit is new only if its prev is < a
            if i == first_child:
                out.extend(self.colors[x] for x, _ in pts)
            else:
                out.extend(self.colors[x] for x, _ in pts if self._prev(x) < a)
        return out

    # -- test hooks ----------------------------------------------------------------

    def brute_tag_min(self, value) -> int:
        return self._tag_min(value)

    def brute_tag_max(self, value) -> int:
        return self._tag_max(value)

    def left_set(self, node) -> list:
        """Left(u): the ceil(sqrt(n(u))) smallest color-minima under node."""
        mins: dict = {}
        for lf in self.tree.leaves_under(node):
            for v in lf.values:
                c = self.colors[v]
                if c not in mins or v < mins[c]:
                    mins[c] = v
        k = max(1, math.isqrt(max(node.size, 1)))
        if node.size and k * k < node.size:
            k += 1
        return sorted(mins.values())[:k]

    def right_set(self, node) -> list:
        maxs: dict = {}
        for lf in self.tree.leaves_under(node):
            for v in lf.values:
                c = self.colors[v]
                if c not in maxs or v > maxs[c]:
                    maxs[c] = v
        k = max(1, math.isqrt(max(node.size, 1)))
        if node.size and k * k < node.size:
            k += 1
        return sorted(maxs.values(), reverse=True)[:k]
