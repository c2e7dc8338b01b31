"""Fully dynamic color reporting index.

Per element e the index maintains approximate height tags: hmin(e) is the
height of the highest base-tree ancestor in which e is its color's leftmost
element (-1 if none, including the leaf), and hmax(e) mirrors it for
rightmost. Because subtree spans are contiguous, hmin(e) is simply the height
of the highest ancestor whose live subtree minimum exceeds prev(e), so a tag
recomputation is one upward walk. The paper's narrow stripes over these tags
answer no query here; the tags are kept, and checked, as the paper defines
them.

Every node v below the root also keeps its color extremes (`ColorExtremes`):
F(v), the first point of each color in v (prev below v), and Λ(v), the last
point of each color in v (next above v). These are exactly the elements whose
exact tags reach v's height.

A range inside one leaf is answered by the leaf store. Any other query finds
the highest range ancestor u and splits [a, b] across u's children f..g; the
lists answer it in O(1 + k + g - f): Λ(f) above a, the prefix of F(v) by
prev below a for each middle child, and F(g) up to b with prev below a.

Tag maintenance: tags are recomputed exactly for the inserted/deleted element
and its same-color neighbors; all other events can only raise true tags,
which keeps stored tags <= true tags. A split, at any height, rescans both
halves, which retags exactly every element whose true tag it raised: hmin in
the right half, hmax in the left half, and at a root split each color's first
and last value. The paper retags only the halves' color extremes above height
loglog N; with leaves of log^2 N points no node that high splits before the
tree holds over 4 * 10^8 points (README, "Notes on fidelity"). A global
rebuild recomputes everything.

Construction (`_attach`) runs in whole-array passes over the live values and
colors in value order. `core.color_links`, one stable argsort of the colors,
gives every value's prev and next and, cut where the color changes
(`core.color_lists`), `by_color`, keyed in order of first appearance. Each
leaf's store is made with its slices of the rows, whose entries are the
input's own int objects, and of the tags. The tags come from a table of each
leaf's path, the live min and max of every node from the leaf up to the
root: an ancestor's min only falls going up, so hmin is the number of path
nodes whose min exceeds prev, less one, which is -1 where the leaf's min is
at most prev; hmax mirrors it with the maxes and next, and is the root's
height where there is no next (a mask, as no int64 lies above every
coordinate). F(v) and Λ(v) are the rows under v whose prev lies below v's
min, or whose next lies above v's max or is missing: one mask over the rows
per height. A global rebuild (`_attach_all`) runs the same pass, with each
value's color read from `by_color`, which it keeps. A split
(`_refresh_halves`) runs its store, tag and list part (`_fill`) on the rows
of its two halves, where a color's last row there finds its next by one
`by_color` bisect.

List maintenance: an update changes the lists only for the element itself on
its own path, for next(x), whose F entries leave the nodes that hold both and
change their prev below them, and for prev(x), whose Λ entries leave the
nodes that hold both. A split rebuilds the lists of both halves from their
rows; a global rebuild rebuilds all of them.

State: each live value has one row in its leaf's store (`ColorPst`): the
value, its prev, its color and its two tags, where the value column is the
tree leaf's own list. Besides the rows, the index keeps only the tree, the
color extremes and `by_color`, each color's live values in sorted order.
`colors`, `hmin` and `hmax` are read-only views of the rows, one descent and
one row bisect per lookup; no query reads them.

Work per update: the tree's own insert or delete is the duplicate or
membership check and finds x's leaf, whose row gives a deleted x's color.
One bisect into the color's `by_color` list (`core.color_neighbours`) then
places or removes x and names its neighbours prev(x) and next(x). Each
neighbour's leaf is found among x's leaf and the two beside it, with one
more descent only when an emptied leaf lies between. The three exact tags
(x's own, hmin of next(x), hmax of prev(x)) are one upward walk each from
those leaves with the prev and next already known, written into the rows
with x's insert, with next(x)'s new prev, and by one bisect in prev(x)'s
leaf. The lists are one walk up x's path plus next(x)'s path below the
lowest common ancestor. A leaf split cuts the old leaf's rows in two. Each
split, leaf or internal, remakes both halves' stores with fresh tags and
rebuilds their lists in one array pass over their rows, bisecting `by_color`
once per color rather than once per value. A split node's halves hold about
2 * 8^h * L rows at height h, and a half splits again only after more than
8^h * L / 2 inserts into it, so that is O(1) rows per insert and level,
amortized. A query is one descent to the leaf of succ(a).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping
from itertools import accumulate, chain
from typing import Iterable

import numpy as np

from .core import (ColoredPoint, InvalidRange, PREV_SENTINEL, check_color,
                   check_coordinate, check_integer, color_links, color_lists,
                   color_neighbours, sorted_pairs)
from .pst import ColorPst
from .wbtree import WbTree


def _ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for n >= 1, and 1 for n = 0."""
    return math.isqrt(max(n, 1) - 1) + 1


class ColorExtremes:
    """F(v) and Λ(v) of one base-tree node v, as parallel sorted lists.

    F(v), the first point of each color in v (its prev lies below
    v.submin), is kept by value as `fvals`/`fprevs`/`fcols` and by
    (prev, color) as `pprevs`/`pcols`. Λ(v), the last point of each color in
    v (its next lies above v.submax, or is missing), is kept by value as
    `lvals`/`lcols`. Each list holds one entry per color of v.
    """

    __slots__ = ("fvals", "fprevs", "fcols", "pprevs", "pcols", "lvals",
                 "lcols")

    def __init__(self, fvals: list, fprevs: list, fcols: list, pprevs: list,
                 pcols: list, lvals: list, lcols: list):
        self.fvals, self.fprevs, self.fcols = fvals, fprevs, fcols
        self.pprevs, self.pcols = pprevs, pcols
        self.lvals, self.lcols = lvals, lcols

    def _prev_slot(self, prev, color) -> int:
        # (prev, color) is unique: a prev above the sentinel names its color
        lo = bisect_left(self.pprevs, prev)
        hi = bisect_right(self.pprevs, prev, lo)
        return bisect_left(self.pcols, color, lo, hi)

    def add_first(self, value, prev, color) -> None:
        i = bisect_left(self.fvals, value)
        self.fvals.insert(i, value)
        self.fprevs.insert(i, prev)
        self.fcols.insert(i, color)
        j = self._prev_slot(prev, color)
        self.pprevs.insert(j, prev)
        self.pcols.insert(j, color)

    def drop_first(self, value) -> None:
        """Remove value from F if it is there."""
        i = bisect_left(self.fvals, value)
        if i == len(self.fvals) or self.fvals[i] != value:
            return
        j = self._prev_slot(self.fprevs[i], self.fcols[i])
        del self.fvals[i], self.fprevs[i], self.fcols[i]
        del self.pprevs[j], self.pcols[j]

    def set_first_prev(self, value, prev) -> None:
        """Change the prev of value, which is in F."""
        i = bisect_left(self.fvals, value)
        color = self.fcols[i]
        j = self._prev_slot(self.fprevs[i], color)
        del self.pprevs[j], self.pcols[j]
        self.fprevs[i] = prev
        j = self._prev_slot(prev, color)
        self.pprevs.insert(j, prev)
        self.pcols.insert(j, color)

    def add_last(self, value, color) -> None:
        i = bisect_left(self.lvals, value)
        self.lvals.insert(i, value)
        self.lcols.insert(i, color)

    def drop_last(self, value) -> None:
        """Remove value from Λ if it is there."""
        i = bisect_left(self.lvals, value)
        if i < len(self.lvals) and self.lvals[i] == value:
            del self.lvals[i], self.lcols[i]


class _RowView(Mapping):
    """A read-only value -> column mapping over the leaf rows of a
    DynamicIndex: one descent, then a row bisect."""

    __slots__ = ("_index", "_column")

    def __init__(self, index: "DynamicIndex", column: str):
        self._index, self._column = index, column

    def __getitem__(self, value):
        store = self._index.tree.leaf_for(value).dstruct
        return getattr(store, self._column)[store.index(value)]

    def __iter__(self):
        return self._index.tree.iter_values()

    def __len__(self):
        return len(self._index)

    def items(self):
        return _RowItems(self)


class _RowItems(ItemsView):
    """The (value, column entry) pairs of a `_RowView`, in one walk over
    the leaf rows instead of one descent per value."""

    def __iter__(self):
        view = self._mapping
        leaf = view._index.tree.first_leaf
        while leaf is not None:
            d = leaf.dstruct
            yield from zip(d.vals, getattr(d, view._column))
            leaf = leaf.next_leaf


class DynamicIndex:
    def __init__(self, points: Iterable[ColoredPoint] = ()):
        values, cols = sorted_pairs(points)
        self.tree = WbTree(values)
        self.by_color = color_lists(values, cols, *self._attach(values, cols))

    # value -> color, hmin and hmax, read from the leaf rows
    colors = property(lambda self: _RowView(self, "cols"))
    hmin = property(lambda self: _RowView(self, "hmins"))
    hmax = property(lambda self: _RowView(self, "hmaxs"))

    def _prev(self, value) -> int:
        return color_neighbours(self.by_color[self.colors[value]], value)[1]

    def _next(self, value, color=None):
        """The next value of value's color, or None past its last."""
        return color_neighbours(self.by_color[
            self.colors[value] if color is None else color], value)[2]

    # -- bulk (re)construction ------------------------------------------------

    def _attach(self, values: list, cols: list) -> tuple:
        """Fresh leaf stores, exact tags and every node's lists over the
        whole tree, which holds `values`, ascending, of colors `cols`;
        returns (order, new) of `color_links`. A row's prev and the list
        entries are the int objects of `values` and `cols`."""
        vals = np.array(values, dtype=np.int64)
        order, new, prevpos, nextpos, rank = color_links(cols)
        prevs = list(map([*values, PREV_SENTINEL].__getitem__,
                         prevpos.tolist()))
        leaves = self.tree.leaves_under(self.tree.root)
        # every height below the root, each node in value order
        levels, level = [], leaves
        while level[0].parent is not None:
            levels.append(level)
            level = list(dict.fromkeys(nd.parent for nd in level))
        self._fill(leaves, levels, values, prevs, cols,
                   np.where(prevpos >= 0, vals[prevpos], PREV_SENTINEL),
                   np.where(nextpos >= 0, vals[nextpos], 0), rank)
        return order, new

    def _attach_all(self) -> None:
        """`_attach` after a global rebuild, with each value's color read
        from `by_color` by one argsort; `by_color` stays as it is."""
        keys, lists = list(self.by_color), list(self.by_color.values())
        values = list(self.tree.iter_values())
        flat = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                           count=len(values))
        which = np.repeat(np.arange(len(keys)), list(map(len, lists)))
        self._attach(values, list(map(keys.__getitem__,
                                      which[np.argsort(flat)].tolist())))

    def _refresh_halves(self, left, right) -> None:
        """Fresh stores, with exact tags, for the rows under a split's two
        halves, and both halves' lists, by `_fill`: a row's next is the next
        row of its color under them, or, for a color's last row there, one
        `by_color` bisect."""
        leaves = self.tree.leaves_under(left) + self.tree.leaves_under(right)
        vals, prevs, cols = (list(chain.from_iterable(
            getattr(lf.dstruct, col) for lf in leaves))
            for col in ("vals", "prevs", "cols"))
        _, _, _, nextpos, rank = color_links(cols)
        nexts = np.where(nextpos >= 0, np.array(vals, dtype=np.int64)[nextpos],
                         0)
        for k in np.flatnonzero(nextpos < 0).tolist():
            nexts[k] = self._next(vals[k], cols[k]) or 0
        self._fill(leaves, [[left, right]], vals, prevs, cols,
                   np.array(prevs, dtype=np.int64), nexts, rank)

    @staticmethod
    def _fill(leaves, levels, vals, prevs, cols, pv, nv, rank) -> None:
        """Fresh stores, made with their exact tags, for the rows of
        consecutive `leaves`, and the lists of every node in `levels`, runs
        of nodes of one height that hold the same rows. The rows' values,
        prevs and colors are `vals`, `prevs` and `cols`; `pv` and `nv` are
        their prev and next values as int64, 0 for none, and `rank` their
        colors' ranks."""
        has_next = nv > 0
        paths = []
        for leaf in leaves:
            node, path = leaf, []
            while node is not None:
                path.append(node)
                node = node.parent
            paths.append(path)
        # a path's mins fall and its maxes rise going up: a tag counts the
        # path nodes past prev (next), less one; no next reaches the root
        mins, maxs = (np.array([[getattr(nd, end) or 0 for nd in path]
                                for path in paths], dtype=np.int64)
                      for end in ("submin", "submax"))
        sizes = [len(lf.values) for lf in leaves]
        at = np.repeat(np.arange(len(leaves)), sizes)
        hmin = (mins[at] > pv[:, None]).sum(1) - 1
        hmax = np.where(has_next, (maxs[at] < nv[:, None]).sum(1) - 1,
                        mins.shape[1] - 1)
        hmins, hmaxs = (array("b", t.astype(np.int8).tobytes())
                        for t in (hmin, hmax))
        bounds = [0, *accumulate(sizes)]
        for leaf, lo, hi in zip(leaves, bounds, bounds[1:]):
            leaf.dstruct = ColorPst(leaf.values, prevs[lo:hi], cols[lo:hi],
                                    hmins[lo:hi], hmaxs[lo:hi])
        # F by (prev, color): a prev above 0 names its color
        key = np.where(pv > 0, pv, rank - len(vals))
        for level in levels:
            at = np.repeat(np.arange(len(level)),
                           [nd.size for nd in level])
            lo, hi = (np.array([getattr(nd, end) or 0 for nd in level],
                               dtype=np.int64)[at]
                      for end in ("submin", "submax"))
            first = np.flatnonzero(pv < lo)
            last = np.flatnonzero(~has_next | (nv > hi))
            by_prev = first[np.lexsort((key[first], at[first]))]
            f, p, la = first.tolist(), by_prev.tolist(), last.tolist()
            fvals, fprevs, fcols = (list(map(col.__getitem__, f))
                                    for col in (vals, prevs, cols))
            pprevs, pcols = (list(map(col.__getitem__, p))
                             for col in (prevs, cols))
            lvals, lcols = (list(map(col.__getitem__, la))
                            for col in (vals, cols))
            fcut, lcut = ([0, *accumulate(np.bincount(
                at[x], minlength=len(level)).tolist())] for x in (first, last))
            for nd, a, b, c, d in zip(level, fcut, fcut[1:], lcut, lcut[1:]):
                nd.extremes = ColorExtremes(
                    fvals[a:b], fprevs[a:b], fcols[a:b], pprevs[a:b],
                    pcols[a:b], lvals[c:d], lcols[c:d])

    # -- exact tags --------------------------------------------------------------

    @staticmethod
    def _tag_min(prev, leaf) -> int:
        """hmin of a value in `leaf` whose prev is `prev`: the height of its
        highest ancestor whose live min exceeds prev."""
        if leaf.submin is None or leaf.submin <= prev:
            return -1
        h = 0
        p = leaf.parent
        while p is not None and p.submin > prev:
            h = p.height
            p = p.parent
        return h

    @staticmethod
    def _tag_max(nxt, leaf) -> int:
        """hmax of a value in `leaf` whose next is `nxt` (None past its
        color's last, above every node)."""
        if leaf.submax is None or nxt is not None and leaf.submax >= nxt:
            return -1
        h = 0
        p = leaf.parent
        while p is not None and (nxt is None or p.submax < nxt):
            h = p.height
            p = p.parent
        return h

    def brute_tag_min(self, value) -> int:
        """hmin(value) from scratch: a `by_color` bisect and a descent."""
        return self._tag_min(self._prev(value), self.tree.leaf_for(value))

    def brute_tag_max(self, value) -> int:
        return self._tag_max(self._next(value), self.tree.leaf_for(value))

    # -- updates ----------------------------------------------------------------

    def __len__(self):
        return self.tree.size

    def insert(self, value: int, color: int) -> None:
        color, value = check_color(color), check_coordinate(value)
        # the tree insert is the duplicate check, and changes nothing when it
        # fails; the color lists follow it, before a rebuild reads them; the
        # bisect that places value also finds its same-color neighbours
        ev = self.tree.insert(value)
        same = self.by_color.setdefault(color, [])
        i, e_p, e_n = color_neighbours(same, value)
        same.insert(i, value)
        if ev["rebuilt"]:
            self._attach_all()
            return

        splits = ev["splits"]
        for _, left, right, h in splits:
            # both halves get fresh lists from their rows below, once the
            # rows hold value; until then the list updates pass them by
            left.extremes = right.extremes = None
            if h == 0:
                # the rows lack value, which the tree already holds: the left
                # half keeps the old rows below the right half's first value
                right.dstruct = left.dstruct.split_off(
                    len(left.values) - (value < right.values[0]),
                    right.values)
        leaf = ev["leaf"]
        leaf.dstruct.insert(value, e_p, color, self._tag_min(e_p, leaf),
                            self._tag_max(e_n, leaf))
        nleaf = None
        if e_n is not None:
            # prev(e_n) changed from e_p to value
            nleaf = self.tree.leaf_near(e_n, leaf)
            nleaf.dstruct.update_prev(e_n, value, self._tag_min(value, nleaf))
        if e_p != PREV_SENTINEL:
            pleaf = self.tree.leaf_near(e_p, leaf)
            pleaf.dstruct.set_hmax(e_p, self._tag_max(value, pleaf))

        self._extremes_insert(value, color, e_p, e_n, leaf, nleaf)
        # true tags rise at a split only in its halves, so a rescan of both
        # retags them exactly
        for _, left, right, _ in splits:
            self._refresh_halves(left, right)

    def delete(self, value: int) -> None:
        value = check_integer(value)
        # the tree delete is the membership check, and hands back the leaf
        # even when it rebuilds, so value's old row gives its color
        ev = self.tree.delete(value)
        leaf = ev["leaf"]
        color = leaf.dstruct.delete(value)
        same = self.by_color[color]
        i, e_p, e_n = color_neighbours(same, value)
        del same[i]
        if not same:
            del self.by_color[color]
        if ev["rebuilt"]:
            # the lists keep the capacity of their longest length; copies
            # drop it
            self.by_color = {c: lst[:] for c, lst in self.by_color.items()}
            self._attach_all()
            return
        nleaf = None
        if e_n is not None:
            nleaf = self.tree.leaf_near(e_n, leaf)
            nleaf.dstruct.update_prev(e_n, e_p, self._tag_min(e_p, nleaf))
        if e_p != PREV_SENTINEL:
            pleaf = self.tree.leaf_near(e_p, leaf)
            pleaf.dstruct.set_hmax(e_p, self._tag_max(e_n, pleaf))
        self._extremes_delete(value, color, e_p, e_n, leaf, nleaf)

    # -- color extremes ------------------------------------------------------------

    @staticmethod
    def _extremes_insert(value, color, e_p, e_n, leaf, nleaf) -> None:
        """Lists after inserting value, with prev e_p and next e_n (or None),
        into `leaf`; e_n lies in `nleaf`. Nodes without lists (the root, the
        halves of this insert's splits) are passed by."""
        node = leaf
        while node is not None:
            e = node.extremes
            if e is not None:
                lo, hi = node.submin, node.submax
                if e_p < lo:
                    e.add_first(value, e_p, color)
                if e_n is None or e_n > hi:
                    e.add_last(value, color)
                    if e_p >= lo:
                        e.drop_last(e_p)  # value now follows e_p in node
                elif e_p < lo:
                    e.drop_first(e_n)  # value now precedes e_n in node
            node = node.parent
        if e_n is not None:
            DynamicIndex._move_first_prev(e_n, value, nleaf, leaf)

    @staticmethod
    def _extremes_delete(value, color, e_p, e_n, leaf, nleaf) -> None:
        """Lists after deleting value, which had prev e_p and next e_n (or
        None), from `leaf`; e_n lies in `nleaf`. A node emptied by the
        delete has submin and submax None. Value was in F(node) iff e_p
        lies below node, and in Λ(node) iff e_n lies above it."""
        node = leaf
        while node is not None:
            e = node.extremes
            if e is not None:
                lo, hi = node.submin, node.submax
                if lo is None or e_p < lo:
                    e.drop_first(value)
                if e_n is None or hi is None or e_n > hi:
                    e.drop_last(value)
                # e_n now follows e_p in node, or is first there
                if e_n is not None and hi is not None and e_n <= hi \
                        and e_p < lo:
                    e.add_first(e_n, e_p, color)
                # e_p is now followed by e_n outside node, or is last
                if lo is not None and e_p >= lo and \
                        (e_n is None or e_n > hi):
                    e.add_last(e_p, color)
            node = node.parent
        if e_n is not None:
            DynamicIndex._move_first_prev(e_n, e_p, nleaf, leaf)

    @staticmethod
    def _move_first_prev(succ, prev, succ_leaf, leaf) -> None:
        """Give succ the prev `prev` in F of the nodes that hold succ but not
        the updated value, whose leaf is `leaf`: the ancestors of succ_leaf
        below the lowest common one (all leaves lie at height 0)."""
        a, b = leaf, succ_leaf
        while a is not b:
            if b.extremes is not None:
                b.extremes.set_first_prev(succ, prev)
            a, b = a.parent, b.parent

    # -- queries -----------------------------------------------------------------

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of the live set within [a, b]."""
        if type(a) is not int or type(b) is not int:
            a, b = check_integer(a), check_integer(b)
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        a = max(a, 1)  # no point lies below 1, and prev 0 must stay below a
        if meter is not None:
            meter.locate_ops += 1
        leaf, i = self.tree.succ_slot(a)
        if leaf is None or leaf.values[i] > b:
            return []
        u = self.tree.dyn_hra(leaf, a, b)
        if u is None:
            return leaf.dstruct.query(a, b, meter)
        # a separator of u lies in (a, b], so f < g
        f, g = u.route(a), u.route(b)
        kids = u.children
        i = bisect_left(kids[f].extremes.lvals, a)   # Λ(f) from a on
        j = bisect_right(kids[g].extremes.fvals, b)  # F(g) up to b
        if meter is not None:
            meter.locate_ops += 2
        return self._query_lists(kids, f, g, i, j, a, meter)

    @staticmethod
    def _query_lists(kids, f, g, i, j, a, meter) -> list:
        """Colors of [a, b] from the lists of children f..g of the range
        ancestor, given i = first index of Λ(f) >= a and j = number of
        entries of F(g) <= b. Every entry read but F(g)'s is reported."""
        first, last = kids[f].extremes, kids[g].extremes
        out = first.lcols[i:]
        for k in range(f + 1, g):
            e = kids[k].extremes
            out += e.pcols[:bisect_left(e.pprevs, a)]
        reported = len(out)
        out += [col for p, col in zip(last.fprevs[:j], last.fcols[:j]) if p < a]
        if meter is not None:
            meter.locate_ops += g - f - 1
            meter.touches += reported + j
        return out

    # -- test hooks ----------------------------------------------------------------

    def left_set(self, node) -> list:
        """Left(u): the ceil(sqrt(n(u))) smallest color-minima under node."""
        mins: dict = {}
        for lf in self.tree.leaves_under(node):
            for v, c in zip(lf.dstruct.vals, lf.dstruct.cols):
                if c not in mins or v < mins[c]:
                    mins[c] = v
        return sorted(mins.values())[:_ceil_sqrt(node.size)]

    def right_set(self, node) -> list:
        maxs: dict = {}
        for lf in self.tree.leaves_under(node):
            for v, c in zip(lf.dstruct.vals, lf.dstruct.cols):
                if c not in maxs or v > maxs[c]:
                    maxs[c] = v
        return sorted(maxs.values(), reverse=True)[:_ceil_sqrt(node.size)]
