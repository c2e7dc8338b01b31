"""Static optimal color reporting index, and the static layout it shares.

Layout (`TreeLayout`): a balanced binary tree whose leaves hold `cap`
consecutive points. Each internal node stores its middle value m(u) = min of
the right subtree. One list store holds R(u): the last point of each color
in u, the `cap` largest kept, and L(u): the first point of each color in u,
the `cap` smallest kept, both by value ascending, only where they are read:
R and L on every leaf, R on left internal children, L on right internal
children, none on the root. A leaf holds at most `cap` points, so its R and
L list every color it holds. `StaticIndex` uses the layout with cap =
ceil(log2 N) and keeps it in memory; `EmIndex` uses it with cap = B *
ceil(log_B N) and pages it into blocks, each leaf's K run as its K records.

The layout is columns, not objects: the values, the prevs, the list store's
values and prevs, and the K store are `array("q")` columns, so a search
compares machine words in one block of memory. The colors stay lists,
because every answer is a slice of them or gathers their entries. Nodes
are ids: the K store holds node ids, and a node's height, children and
cuts of the list store are columns indexed by id, so a query reads no node
object. The `_TreeNode`s stay for walks over the tree (`nodes[id]`,
`root`, `leaves`, and the pairs of `k1`/`k2`), and read their height and
cuts from the columns.

A query locates succ(a) with one binary search and asks its leaf for the
highest range ancestor u with a < m(u) <= b (Facts 2-3). The leaf's K run
lists its ancestors by middle value ascending, right parents (K2) top-down
and then left parents (K1) bottom-up, so two `bisect` calls cut out those
with a < m <= b, and u is the higher end of that stretch. The query then
reads answers off R(u_l) and L(u_r). A range with no such ancestor lies in
one leaf and is answered by that leaf's Cartesian tree (`LeafArrays`). A
full-length R(u_l) whose smallest value exceeds a, or L(u_r) whose largest
value is below b, may leave colors out, and the range then holds at least
log N colors; that O(1) test sends the query to `ArrayFallback` before
either list is walked. The fallback answers any range in O(log N + k): the
edge leaves from their R and L, and the interior leaves as at most two
aligned blocks per level, from blocks of one leaf up, each of which keeps
the first point of every color it holds sorted by the position of that
point's predecessor, so one `bisect` per block finds its reported prefix.

The answer stream is duplicate-free by construction, so there is no dedup
pass. Every route reports a point e of [a, b] only if prev(e) < a, which
holds for exactly one point per color: the prev-link reduction of Gupta,
Janardan & Smid (1995). An L entry is emitted only when prev(e) < a (a
color with an element in [a, m(u)) was already reported from R(u_l)); a
Cartesian tree on prev answers it by descent, pruning each subtree whose
root has prev >= a, as in Muthukrishnan's document listing (2002). The
fallback's left edge leaf reports the colors whose last point in it is
>= a, and every other part reports first points with predecessor before
succ(a), the same filter. No static structure stores a pointer node per
point. A query reads only immutable state, so concurrent readers need no
lock, given one `CostMeter` each.
"""

from __future__ import annotations

import bisect
import math
from array import array
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .core import (MAX_COORDINATE, ColoredPoint, DuplicateX, InvalidRange,
                   check_colors, check_coordinate, compute_prev)


class _TreeNode:
    """A node of a `TreeLayout`, kept for walks over the tree. Its height
    and its cuts of the list store are the layout's columns at its id."""

    __slots__ = ("layout", "left", "right", "parent", "m", "leaf_lo", "leaf_hi")

    def __init__(self, layout: "TreeLayout", lo: int, hi: int):
        self.layout = layout
        self.left = self.right = self.parent = None
        self.m = None          # min value of the right subtree (internal only)
        self.leaf_lo = lo      # covered leaf range [leaf_lo, leaf_hi)
        self.leaf_hi = hi

    @property
    def id(self) -> int:
        """The node's id in its layout (see `TreeLayout`)."""
        if self.left is None:
            return self.leaf_lo
        return self.layout.nleaves - 1 + self.right.leaf_lo

    height = property(lambda self: self.layout.height[self.id])
    # R(u) is [r_lo, r_hi) of the list store, L(u) is [l_lo, l_hi)
    r_lo = property(lambda self: self.layout.roff[self.id])
    r_hi = property(lambda self: self.layout.roff[self.id + 1])
    l_lo = property(lambda self: self.layout.loff[self.id])
    l_hi = property(lambda self: self.layout.loff[self.id + 1])


def _column(x) -> array:
    """An integer numpy array as array("q"), allocated at its exact size
    (`array("q", x.tobytes())` would add a sixteenth)."""
    col = array("q", [0]) * len(x)
    np.frombuffer(col, dtype=np.int64)[:] = x
    return col


class TreeLayout:
    """The static tree over `points` (integer values strictly ascending in
    [1, MAX_COORDINATE], integer colors >= 0) with leaves of `cap`
    consecutive points, the list store and the K store, all in integer
    arrays but for the colors, which answers are slices of.

    Node ids: leaf i is id i, and an internal node whose right subtree
    starts at leaf j is id nleaves - 1 + j, so internal ids ascend with the
    middle values. `height`, `lchild` and `rchild` (-1 below a leaf) are
    columns by id. Node u's R entries are [roff[u], roff[u + 1]) of
    `last_v`/`last_c`, its L entries [loff[u], loff[u + 1]) of
    `first_v`/`first_p`/`first_c` (prev in `first_p`), by value ascending;
    a list the node does not keep is an empty cut. Leaf i's K run is
    [koff[i], koff[i + 1]) of the middle values `km` and their node ids
    `kn`. `nodes[u]` is node u as a `_TreeNode`, which only walks over the
    tree read. `prevpos` is the position of each point's predecessor, -1
    for none; only the builds read it, and `StaticIndex` drops it once
    built."""

    def __init__(self, points: Sequence[ColoredPoint], cap: int):
        values = [p.value for p in points]
        self.colors = colors = [p.color for p in points]
        check_colors(colors)
        # a check per value only if their types or ends fail a fast test
        if set(map(type, values)) - {int} or values and not (
                1 <= values[0] and values[-1] <= MAX_COORDINATE):
            for v in values:
                check_coordinate(v)  # 0 is the prev-sentinel
        vals = np.asarray(values, dtype=np.int64)
        for i in np.flatnonzero(vals[1:] <= vals[:-1])[:1].tolist():
            u, v = values[i], values[i + 1]
            raise DuplicateX(v) if u == v else ValueError(
                f"points must ascend by value: {v} after {u}")
        prevs = np.asarray(compute_prev(points), dtype=np.int64)
        self.prevpos = np.where(prevs == 0, -1, np.searchsorted(vals, prevs))
        self.values, self.prevs = _column(vals), _column(prevs)
        self.n = n = len(values)
        self.cap = cap
        # leaves are consecutive chunks of `cap` points (last one may be short)
        self.nleaves = nleaves = math.ceil(n / cap)
        self.root_id = nleaves - 1 + nleaves // 2  # -1 for no points
        nnodes = max(0, 2 * nleaves - 1)
        self.nodes: list[_TreeNode] = [None] * nnodes
        self.height = array("b", bytes(nnodes))
        self.lchild = array("q", [-1]) * nnodes
        self.rchild = array("q", [-1]) * nnodes
        runs: list = []
        if nleaves:
            self._build_tree(0, nleaves, values, [], runs)
        self._build_lists(vals, prevs)
        self.kn = array("q", chain.from_iterable(runs))
        self.koff = _column(np.cumsum([0, *map(len, runs)]))
        # node nleaves - 1 + j has m = the first value of leaf j
        kn = np.frombuffer(self.kn, dtype=np.int64)
        self.km = _column(vals[(kn - (nleaves - 1)) * cap])

    root = property(lambda self: self.nodes[self.root_id] if self.nodes else None)
    leaves = property(lambda self: self.nodes[:self.nleaves])

    def _build_tree(self, lo: int, hi: int, values: list, path: list,
                    runs: list) -> int:
        """The subtree over leaves [lo, hi) below the ancestors `path`; its
        root's id. A leaf's K run, appended to `runs`, is its ancestors by
        middle value ascending, which is by id: its right parents (K2)
        top-down, then its left parents (K1) bottom-up."""
        node = _TreeNode(self, lo, hi)
        if hi - lo == 1:
            self.nodes[lo] = node
            runs.append(sorted(path))
            return lo
        mid = (lo + hi) // 2
        uid = self.nleaves - 1 + mid
        self.nodes[uid] = node
        node.m = values[mid * self.cap]
        path.append(uid)
        left = self._build_tree(lo, mid, values, path, runs)
        right = self._build_tree(mid, hi, values, path, runs)
        path.pop()
        node.left, node.right = self.nodes[left], self.nodes[right]
        node.left.parent = node.right.parent = node
        self.lchild[uid], self.rchild[uid] = left, right
        self.height[uid] = 1 + max(self.height[left], self.height[right])
        return uid

    def _build_lists(self, vals: np.ndarray, prevs: np.ndarray) -> None:
        """R of the leaves and left children, L of the leaves and right
        children, cut in node id order. A point of a node's points [s, e)
        is its color's first there if its predecessor lies before s, its
        last if its successor lies at or after e."""
        n, cap, prevpos, nleaves = self.n, self.cap, self.prevpos, self.nleaves
        pos = np.arange(n, dtype=np.int64)
        nextpos = np.full(n, n, dtype=np.int64)
        has_prev = prevpos >= 0
        nextpos[prevpos[has_prev]] = pos[has_prev]
        # the leaves, all at once: a leaf holds at most `cap` points, so its
        # lists keep every color it holds
        start = pos - pos % cap
        lasts = [np.flatnonzero(nextpos >= np.minimum(start + cap, n))]
        firsts = [np.flatnonzero(prevpos < start)]
        rlen = np.bincount(lasts[0] // cap, minlength=nleaves).tolist()
        llen = np.bincount(firsts[0] // cap, minlength=nleaves).tolist()
        for node in self.nodes[nleaves:]:
            s, e = node.leaf_lo * cap, min(node.leaf_hi * cap, n)
            parent = node.parent
            r = l = pos[:0]  # the root keeps neither list
            if parent is not None and parent.left is node:
                r = s + np.flatnonzero(nextpos[s:e] >= e)[-cap:]
            elif parent is not None:
                l = s + np.flatnonzero(prevpos[s:e] < s)[:cap]
            lasts.append(r)
            firsts.append(l)
            rlen.append(len(r))
            llen.append(len(l))
        self.roff = _column(np.cumsum([0, *rlen]))
        self.loff = _column(np.cumsum([0, *llen]))
        lasts, firsts = np.concatenate(lasts), np.concatenate(firsts)
        colors = self.colors
        self.last_v = _column(vals[lasts])
        self.last_c = [colors[i] for i in lasts.tolist()]
        self.first_v = _column(vals[firsts])
        self.first_p = _column(prevs[firsts])
        self.first_c = [colors[i] for i in firsts.tolist()]

    def suffix(self, leaf: int, a: int, meter=None) -> list:
        """The colors with a point >= a in the leaf: its R entries >= a."""
        end = self.roff[leaf + 1]
        i = bisect.bisect_left(self.last_v, a, self.roff[leaf], end)
        if meter is not None:
            meter.touches += end - i
            meter.locate_ops += 1
        return self.last_c[i:end]

    def prefix(self, leaf: int, a: int, b: int, meter=None) -> list:
        """The colors whose first point in the leaf is <= b and has
        prev < a: its L entries <= b, filtered by prev."""
        i = self.loff[leaf]
        end = bisect.bisect_right(self.first_v, b, i, self.loff[leaf + 1])
        if meter is not None:
            meter.touches += end - i
            meter.locate_ops += 1
        return [c for p, c in zip(self.first_p[i:end], self.first_c[i:end])
                if p < a]


def fallback_levels(n: int, cap: int, nleaves: int, size: int) -> tuple:
    """(level_base, block count) of the aligned blocks over `n` points in
    leaves of `cap`: level l cuts the points into blocks of size * 2^l, from
    the smallest block `size` (a leaf or two) up, for each l that a range
    of interior leaves, at most nleaves - 2 of them, can fill; level_base
    holds the global id of each level's block 0."""
    level_base, nblocks = [], 0
    while size <= (nleaves - 2) * cap:
        level_base.append(nblocks)
        nblocks += -(-n // size)
        size *= 2
    return level_base, nblocks


def first_points(layout: TreeLayout, size: int) -> tuple:
    """The aligned blocks' first points, from blocks of `size` points up:
    (level_base, block_start, prevpos, pos). A block keeps the first point
    of each color it holds, the points whose predecessor lies before the
    block, ordered by the predecessor's position prevpos (-1 for none).
    Block g's entries are [block_start[g], block_start[g + 1]) of the
    `array("q")` `prevpos`, which ascends within each block, and of the
    int64 array `pos`, the points' own positions."""
    n = layout.n
    level_base, _ = fallback_levels(n, layout.cap, layout.nleaves, size)
    prevpos = layout.prevpos
    pos = np.arange(n, dtype=np.int64)
    counts, keys, firsts = [pos[:0]], [pos[:0]], [pos[:0]]
    for _ in level_base:
        block = pos // size
        first = prevpos < block * size
        order = np.lexsort((prevpos[first], block[first]))
        counts.append(np.bincount(block[first], minlength=-(-n // size)))
        keys.append(prevpos[first][order])
        firsts.append(pos[first][order])
        size *= 2
    block_start = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return (level_base, _column(block_start), _column(np.concatenate(keys)),
            np.concatenate(firsts))


def leaf_cover(lo: int, hi: int, level_base: list, size: int) -> tuple:
    """Leaves [lo, hi] as (single leaves, aligned blocks): the edge leaves
    lo and hi, then the interior leaves as at most two aligned blocks per
    level, from blocks of `size` leaves (1 or 2) up. With 2, the level of
    one leaf gives at most two single interior leaves."""
    if lo == hi:
        return [lo], []
    leaves, blocks = [lo, hi], []
    lo += 1
    for base in [None] * (size - 1) + level_base:
        if lo >= hi:
            break
        out, base = (leaves, 0) if base is None else (blocks, base)
        if lo & 1:
            out.append(base + lo)
            lo += 1
        if hi & 1:
            hi -= 1
            out.append(base + hi)
        lo >>= 1
        hi >>= 1
    return leaves, blocks


class LeafArrays:
    """The leaves of a `TreeLayout` with cap < 256 as flat arrays over its
    points, answering color reporting inside one leaf in O(1 + k) touches: a
    Cartesian tree per leaf, keyed on prev (a min-heap on prev, in-order by
    position). `lkid[p]` and `rkid[p]` hold 1 + the in-leaf position of
    point p's children (0 for none) and `root[leaf]` the in-leaf position of
    the leaf's root, all in `bytes`. `window` answers positions [j, r) by a
    descent that skips every subtree whose root has prev >= a. Metering:
    each reported point is one touch, each other tree visit one locate op.
    """

    def __init__(self, layout: TreeLayout):
        # the build reads each prev several times: from a list, not boxed
        n, cap, prevs = layout.n, layout.cap, layout.prevs.tolist()
        if cap > 255:
            raise ValueError(f"leaf size {cap} does not fit a byte")
        self.cap, self.prevs, self.colors = cap, layout.prevs, layout.colors
        lkid, rkid = bytearray(n), bytearray(n)
        root = bytearray(layout.nleaves)
        for leaf, lo in enumerate(range(0, n, cap)):
            stack: list = []
            for i in range(lo, min(lo + cap, n)):
                key, last = prevs[i], -1
                while stack and prevs[stack[-1]] > key:
                    last = stack.pop()
                if last >= 0:
                    lkid[i] = last - lo + 1
                if stack:
                    rkid[stack[-1]] = i - lo + 1
                stack.append(i)
            root[leaf] = stack[0] - lo
        self.lkid, self.rkid, self.root = bytes(lkid), bytes(rkid), bytes(root)

    def window(self, leaf: int, j: int, r: int, a: int, meter=None) -> list:
        """Colors of the points at positions [j, r) of the leaf with
        prev < a, one per color if [j, r) is the leaf's part of a range
        [a, b]."""
        prevs, colors, lkid, rkid = self.prevs, self.colors, self.lkid, self.rkid
        base = leaf * self.cap - 1  # position of in-leaf child id c: base + c
        stack = [base + 1 + self.root[leaf]]
        pop, push = stack.pop, stack.append
        last = r - 1
        out = []
        emit = out.append
        visits = 0
        while stack:
            p = pop()
            visits += 1
            if prevs[p] >= a:
                continue
            if p >= j:
                if p < r:
                    emit(colors[p])
                if p > j and lkid[p]:
                    push(base + lkid[p])
            if p < last and rkid[p]:
                push(base + rkid[p])
        if meter is not None:
            meter.touches += len(out)
            meter.locate_ops += visits - len(out)
        return out


class ArrayFallback:
    """Color reporting over any range of a `TreeLayout` in O(log N + k).

    A range inside one leaf is that leaf's `LeafArrays.window`. Otherwise
    its points split by `leaf_cover`: the leaf of succ(a) reports its
    colors with a point >= a (`TreeLayout.suffix`), the leaf of pred(b) its
    first points <= b with prev < a (`prefix`), and the interior leaves
    fill aligned blocks of `first_points`, from blocks of one leaf up. A
    list entry that `prefix` takes and drops belongs to a color reported
    earlier in the range, so the edge leaves touch at most 2k entries. The
    blocks' prevpos `keys` are kept with the entries' colors at the same
    index of `firsts`, so the entries of block g with prevpos < j end at
    `bisect_left(keys, j, block_start[g], block_start[g + 1])`. That makes
    sum over l >= 0 of min(N, C * N / (cap * 2^l)) entries for C colors.

    A block strictly after succ(a) = point j lies inside the range, and each of
    its entries with prevpos < j is the first point of its color in the whole
    range, so the reported stream holds each color once. Metering: the leaf
    lookups meter as `suffix`, `prefix` and `window` do; the locate of
    [a, b] and each block searched count one locate op, each reported entry
    one touch.
    """

    def __init__(self, layout: TreeLayout, leaves: LeafArrays):
        self.values = layout.values
        self.cap = layout.cap
        self.layout, self.leaves = layout, leaves
        self.level_base, self.block_start, self.keys, pos = first_points(
            layout, layout.cap)
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
        lo, hi = j // self.cap, (r - 1) // self.cap
        if lo == hi:
            return self.leaves.window(lo, j, r, a, meter)
        _, blocks = leaf_cover(lo, hi, self.level_base, 1)
        out = self.layout.suffix(lo, a, meter)
        k = len(out)
        keys, start, firsts = self.keys, self.block_start, self.firsts
        for g in blocks:
            s = start[g]
            out += firsts[s:bisect.bisect_left(keys, j, s, start[g + 1])]
        if meter is not None:
            meter.locate_ops += len(blocks)
            meter.touches += len(out) - k
        out += self.layout.prefix(hi, a, b, meter)
        return out


class StaticIndex(TreeLayout):
    def __init__(self, points: Sequence[ColoredPoint]):
        points = list(points)
        # floor of 2 so that N = 2 stays a single leaf
        super().__init__(points, max(2, math.ceil(math.log2(max(len(points), 2)))))
        self.leaf_arrays = LeafArrays(self)
        self.fallback = ArrayFallback(self, self.leaf_arrays)
        del self.prevpos  # read only by the builds above

    k1 = property(lambda self: _KPairs(self, True),
                  doc="Per leaf, its left parents bottom-up as (m, node).")
    k2 = property(lambda self: _KPairs(self, False),
                  doc="Per leaf, its right parents bottom-up as (m, node).")

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

    def _hra(self, leaf_idx: int, a: int, b: int, meter=None) -> int:
        """The id of the highest ancestor u of the leaf with a < m(u) <= b,
        else -1: the higher end of the K run's entries between two
        bisections."""
        koff, km = self.koff, self.km
        end = koff[leaf_idx + 1]
        i = bisect.bisect_right(km, a, koff[leaf_idx], end)
        e = bisect.bisect_right(km, b, i, end)
        if meter is not None:
            meter.locate_ops += 1
        if i == e:
            return -1
        kn, height = self.kn, self.height
        u1, u2 = kn[i], kn[e - 1]
        return u1 if height[u1] >= height[u2] else u2

    def hra_query(self, leaf_idx: int, a: int, b: int, meter=None) -> Optional[_TreeNode]:
        """Highest ancestor u of the leaf with a < m(u) <= b, else None."""
        u = self._hra(leaf_idx, a, b, meter)
        return self.nodes[u] if u >= 0 else None

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of S within [a, b], each exactly once."""
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        if a < 1:  # no point lies below 1, and prev 0 must stay below a
            a = 1
        # one_report inlined (no call, no ColoredPoint per query): succ(a), its leaf
        if meter is not None:
            meter.locate_ops += 1
        values, cap = self.values, self.cap
        j = bisect.bisect_left(values, a)
        if j == self.n or values[j] > b:
            return []
        leaf_idx = j // cap
        u = self._hra(leaf_idx, a, b, meter)
        if u < 0:
            r = bisect.bisect_right(values, b, j, min(j - j % cap + cap, self.n))
            return self.leaf_arrays.window(leaf_idx, j, r, a, meter)

        # a full list whose far end lies strictly inside the range may
        # leave colors out; one that ends at a (R) or b (L) holds every
        # color of its side
        left, right, roff, loff = (self.lchild[u], self.rchild[u], self.roff,
                                   self.loff)
        r0, r1, l0, l1 = roff[left], roff[left + 1], loff[right], loff[right + 1]
        last_v, first_v = self.last_v, self.first_v
        if (r1 - r0 == cap and last_v[r0] > a
                or l1 - l0 == cap and first_v[l1 - 1] < b):
            return self.fallback.query(a, b, meter)
        i = bisect.bisect_left(last_v, a, r0, r1)
        out = self.last_c[i:r1]
        cut = bisect.bisect_right(first_v, b, l0, l1)
        if meter is not None:
            # a walk along each list: the entries it takes, and the one
            # that would stop it
            meter.touches += r1 - i + (i > r0) + cut - l0 + (cut < l1)
        first_p, first_c = self.first_p, self.first_c
        for i in range(l0, cut):
            if first_p[i] < a:
                out.append(first_c[i])
        return out


class _KPairs:
    """`k1[leaf]`/`k2[leaf]` of a `StaticIndex`: the leaf's (m, node) pairs
    bottom-up, read off the flat K store, its ids mapped to `nodes`. The K2
    entries are those with m at most the leaf's first value."""

    def __init__(self, index: StaticIndex, left: bool):
        self.index, self.left = index, left

    def __getitem__(self, leaf: int) -> list:
        idx = self.index
        s, e = idx.koff[leaf], idx.koff[leaf + 1]
        cut = bisect.bisect_right(idx.km, idx.values[leaf * idx.cap], s, e)
        lo, hi = (cut, e) if self.left else (s, cut)
        pairs = [(idx.km[k], idx.nodes[idx.kn[k]]) for k in range(lo, hi)]
        return pairs if self.left else pairs[::-1]
