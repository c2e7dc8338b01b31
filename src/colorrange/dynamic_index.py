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

List maintenance: an update changes the lists only for the element itself on
its own path, for next(x), whose F entries leave the nodes that hold both and
change their prev below them, and for prev(x), whose Λ entries leave the
nodes that hold both. A split rebuilds the lists of both halves from their
children; a global rebuild rebuilds all of them.

State: each live value has one row in its leaf's store (`ColorPst`): the
value, its prev, its color and its two tags, where the value column is the
tree leaf's own list. Besides the rows, the index keeps only the tree, the
color extremes and `by_color`, each color's live values in sorted order.
`colors`, `hmin` and `hmax` are read-only views of the rows, one descent and
one row bisect per lookup; no query reads them.

Work per update: the tree's own insert or delete is the duplicate or
membership check and finds x's leaf, whose row gives a deleted x's color.
One bisect into the color's `by_color` list then places or removes x and
names its neighbours prev(x) and next(x). Each neighbour's leaf is found
among x's leaf and the two beside it, with one more descent only when an
emptied leaf lies between. The three exact tags (x's own, hmin of next(x),
hmax of prev(x)) are one upward walk each from those leaves with the prev
and next already known, written into the rows with x's insert, with next(x)'s
new prev, and by one bisect in prev(x)'s leaf. The lists are one walk up
x's path plus next(x)'s path below the lowest common ancestor. A leaf split
cuts the old leaf's rows in two. Each split, leaf or internal, retags both
halves in one pass over their rows, an upward walk per row, bisecting
`by_color` once per color rather than once per value. A split node's halves
hold about 2 * 8^h * L rows at height h, and a half splits again only after
more than 8^h * L / 2 inserts into it, so that is O(1) rows per insert and
level, amortized. A global rebuild makes fresh rows from `by_color` and
retags all leaves the same way. A query is one descent to the leaf of
succ(a).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping
from typing import Iterable

from .core import (ColoredPoint, InvalidRange, PREV_SENTINEL, check_color,
                   check_coordinate, check_integer, color_maps)
from .pst import ColorPst
from .wbtree import WbTree

_INF = 1 << 62


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

    def __init__(self, firsts: list, lasts: list):
        """`firsts`: (value, prev, color) rows and `lasts`: (value, color)
        rows, each sorted by value."""
        self.fvals = [v for v, _, _ in firsts]
        self.fprevs = [p for _, p, _ in firsts]
        self.fcols = [c for _, _, c in firsts]
        by_prev = sorted((p, c) for _, p, c in firsts)
        self.pprevs = [p for p, _ in by_prev]
        self.pcols = [c for _, c in by_prev]
        self.lvals = [v for v, _ in lasts]
        self.lcols = [c for _, c in lasts]

    @classmethod
    def of_leaf(cls, store: ColorPst) -> "ColorExtremes":
        """From a leaf's (value, prev, color) rows."""
        rows = list(zip(store.vals, store.prevs, store.cols))
        lo = store.vals[0] if rows else None
        seen: set = set()
        lasts = []
        for v, _, c in reversed(rows):
            if c not in seen:
                seen.add(c)
                lasts.append((v, c))
        lasts.reverse()
        return cls([r for r in rows if r[1] < lo], lasts)

    @classmethod
    def of_children(cls, node) -> "ColorExtremes":
        """From the children's lists: F(v) is the children's F entries with
        prev below v, Λ(v) their Λ entries of colors no later child holds."""
        lo = node.submin
        firsts = [r for ch in node.children
                  for r in zip(ch.extremes.fvals, ch.extremes.fprevs,
                               ch.extremes.fcols) if r[1] < lo]
        seen: set = set()
        chunks = []
        for ch in reversed(node.children):
            e = ch.extremes
            chunks.append([(v, c) for v, c in zip(e.lvals, e.lcols)
                           if c not in seen])
            seen.update(e.lcols)
        return cls(firsts, [r for chunk in reversed(chunks) for r in chunk])

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
        colors, self.by_color = color_maps(points)
        self.tree = WbTree(colors)
        self._attach_all(colors)

    # value -> color, hmin and hmax, read from the leaf rows
    colors = property(lambda self: _RowView(self, "cols"))
    hmin = property(lambda self: _RowView(self, "hmins"))
    hmax = property(lambda self: _RowView(self, "hmaxs"))

    def _prev(self, value) -> int:
        lst = self.by_color[self.colors[value]]
        i = bisect_left(lst, value)
        return lst[i - 1] if i > 0 else PREV_SENTINEL

    def _next(self, value, color=None):
        """The next value of value's color, or None past its last."""
        lst = self.by_color[self.colors[value] if color is None else color]
        i = bisect_right(lst, value)
        return lst[i] if i < len(lst) else None

    # -- bulk (re)construction ------------------------------------------------

    def _attach_all(self, colors=None) -> None:
        """Rebuild leaf structures, color extremes and tags from the current
        tree; `colors` maps each value to its color, and defaults to one
        read from `by_color`."""
        if colors is None:
            colors = {v: c for c, lst in self.by_color.items() for v in lst}
        leaves = self.tree.leaves_under(self.tree.root)
        self._leaf_stores(leaves, colors)
        self._retag_leaves(leaves)
        # preorder puts every parent before its children, so its reverse
        # builds each node's lists after its children's
        for node in reversed(list(self.tree.iter_nodes())):
            if node is not self.tree.root:
                self._build_extremes(node)

    @staticmethod
    def _leaf_stores(leaves, colors) -> None:
        """Fresh stores over all leaves' values, in order: a prev is the
        previous value of its color, PREV_SENTINEL for the first."""
        last: dict = {}
        for leaf in leaves:
            cols = [colors[v] for v in leaf.values]
            prevs = []
            for v, c in zip(leaf.values, cols):
                prevs.append(last.get(c, PREV_SENTINEL))
                last[c] = v
            leaf.dstruct = ColorPst(leaf.values, prevs, cols)

    def _retag_leaves(self, leaves) -> None:
        """Exact tags for every row of consecutive leaves, in order: prev
        from the row, next from one backward pass, and only each color's
        last value in the run bisects `by_color`."""
        following: dict = {}
        for leaf in reversed(leaves):
            d = leaf.dstruct
            vals, prevs, cols = d.vals, d.prevs, d.cols
            for k in range(len(vals) - 1, -1, -1):
                v, c = vals[k], cols[k]
                d.hmins[k] = self._tag_min(prevs[k], leaf)
                d.hmaxs[k] = self._tag_max(
                    following[c] if c in following else self._next(v, c),
                    leaf)
                following[c] = v

    @staticmethod
    def _build_extremes(node) -> None:
        node.extremes = (ColorExtremes.of_leaf(node.dstruct) if node.is_leaf()
                         else ColorExtremes.of_children(node))

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
        color's last)."""
        if nxt is None:
            nxt = _INF
        if leaf.submax is None or leaf.submax >= nxt:
            return -1
        h = 0
        p = leaf.parent
        while p is not None and p.submax < nxt:
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
        i = bisect_left(same, value)
        e_p = same[i - 1] if i else PREV_SENTINEL
        e_n = same[i] if i < len(same) else None
        same.insert(i, value)
        if ev["rebuilt"]:
            self._attach_all()
            return

        splits = ev["splits"]
        for _, left, right, h in splits:
            # both halves get fresh lists below, once their children have
            # theirs; until then the list updates pass them by
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
            self._build_extremes(left)
            self._build_extremes(right)
            self._retag_leaves(self.tree.leaves_under(left)
                               + self.tree.leaves_under(right))

    def delete(self, value: int) -> None:
        value = check_integer(value)
        # the tree delete is the membership check, and hands back the leaf
        # even when it rebuilds, so value's old row gives its color
        ev = self.tree.delete(value)
        leaf = ev["leaf"]
        color = leaf.dstruct.delete(value)
        same = self.by_color[color]
        i = bisect_left(same, value)
        e_p = same[i - 1] if i else PREV_SENTINEL
        e_n = same[i + 1] if i + 1 < len(same) else None
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
