"""Static optimal color reporting index, and the static layout it shares.

Layout (`TreeLayout`): a balanced binary tree whose leaves hold `cap`
consecutive points. Each internal node stores its middle value m(u) = min of
the right subtree. One list store holds R(u): the last point of each color
in u, the `cap` largest kept, and L(u): the first point of each color in u,
the `cap` smallest kept, both by value ascending, only where they are read:
R and L on every leaf, R on left internal children, L on right internal
children, none on the root. A leaf holds at most `cap` points, so its R and
L list every color it holds. `StaticIndex` uses the layout with cap =
2 ceil(log2 N) and keeps it in memory; `EmIndex` uses it with cap = B *
ceil(log_B N) and pages it into blocks, each leaf's K run as its K records.
Any constant multiple of log N keeps the static index's O(N) space and its
O(1 + k) lists route; against leaves of ceil(log2 N), the factor 2 halves
the leaves, more than halves the K store and drops the fallback's
smallest blocks.

The layout is columns, not objects, so a search compares machine words in
one block of memory. What a query compares with a or b is a value and
stays 64-bit: the points' values, the L entries' values and the K store's
middle values, `array("q")`. Everything else is a position or a node id
and is 32-bit, `array("i")`: each point's predecessor, the R entries'
points, the L entries' predecessors, the K store's node ids, the cuts of
the lists and the K runs, the children, and the fallback's keys and cuts.
The positions stand in for the prev values by the prev-link reduction: with
j = bisect_left(values, a), the position of succ(a), prev(e) < a exactly
when the position of prev(e) is below j (-1 for no predecessor, below
every j as prev 0 is below every a >= 1), so every prev filter tests a
position against j. The colors stay lists, because every answer is a slice
of them or gathers their entries. Nodes are ids: a node's height, children
and cuts of the list store are columns indexed by id, so a query reads no
node object. The `_TreeNode`s, for walks over the tree (`nodes[id]`,
`root`, `leaves`, and the pairs of `k1`/`k2`), are built from the columns
only when first read.

A query locates succ(a), point j, with one binary search. If point j + cap
lies past b (or past the last point), the range holds at most `cap` =
O(log N) points: it locates pred(b) among them and scans them
(`TreeLayout.window`), where the paper answers a range with no range
ancestor in O(1 + k); the dynamic index's leaf store scans the same way.
Such a range may lie in one leaf or cross into the next. A range of more
than `cap` points spans two leaves, and the LCA of those leaves has a <
m <= b (Fact 2), so it has a highest range ancestor u. The query asks its
leaf for u (Facts 2-3): the leaf's K run lists its ancestors by middle
value ascending, right parents (K2) top-down and then left parents (K1)
bottom-up, so two `bisect` calls cut out those with a < m <= b, and u is
the higher end of that stretch. The query then reads answers off R(u_l)
and L(u_r). A full-length R(u_l) whose smallest value exceeds a, or L(u_r)
whose largest value is below b, may leave colors out, and the range then
holds at least `cap` colors; that O(1) test sends the query to
`ArrayFallback` before either list is walked.
The fallback answers any range in O(log N + k): the edge leaves from their
R and L, and the interior leaves as at most two aligned blocks per level,
from blocks of one leaf up, each of which keeps the first point of every
color it holds sorted by the position of that point's predecessor, so one
`bisect` per block finds its reported prefix.

The answer stream is duplicate-free by construction, so there is no dedup
pass. Every route reports a point e of [a, b] only if prev(e) < a, which
holds for exactly one point per color: the prev-link reduction of Gupta,
Janardan & Smid (1995), tested as prevpos(e) < j. An L entry is emitted
only when prev(e) < a (a color with an element in [a, m(u)) was already
reported from R(u_l)), and a scan of at most `cap` points keeps the points
with prevpos < j. The fallback's left edge leaf reports the colors whose last
point in it is >= a, and every other part reports first points with
predecessor before succ(a), the same filter. No static structure
stores a pointer node per point. A query reads only immutable state, so
concurrent readers need no lock, given one `CostMeter` each; the node
objects' first read stores one list for all of them.
"""

from __future__ import annotations

import bisect
import math
from array import array
from itertools import chain, compress
from typing import Optional, Sequence

import numpy as np

from .core import (ColoredPoint, DuplicateX, InvalidRange, NotFound,
                   check_colors, check_integer, color_links, split_pairs)


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


def _column(x, code: str) -> array:
    """An integer numpy array as `array(code)`, "q" (int64) or "i"
    (int32), allocated at its exact size (`array(code, x.tobytes())` would
    add a sixteenth). A value the typecode cannot hold raises ValueError,
    where numpy's assignment would wrap it."""
    x = np.asarray(x)
    col = array(code, [0]) * len(x)
    if len(x):
        lo, hi, bounds = int(x.min()), int(x.max()), np.iinfo(code)
        if lo < bounds.min or hi > bounds.max:
            raise ValueError(f"{hi if hi > bounds.max else lo} does not fit "
                             f"an array({code!r}) column")
    np.frombuffer(col, dtype=code)[:] = x
    return col


class TreeLayout:
    """The static tree over `points` (integer values strictly ascending in
    [1, MAX_COORDINATE], integer colors >= 0) with leaves of `cap`
    consecutive points, the list store and the K store, all in integer
    arrays but for the colors, which answers are slices of.

    `values` holds the points' values and `prevpos` the position of each
    point's predecessor, -1 for none, from `core.color_links`. Node ids:
    leaf i is id i, and an internal node whose right subtree starts at leaf
    j is id nleaves - 1 + j, so internal ids ascend with the middle values.
    `height`, `lchild` and `rchild` (-1 below a leaf) are columns by id.
    Node u's R entries are [roff[u], roff[u + 1]) of `last_pos`/`last_c`
    (the positions and colors of its colors' last points), its L entries
    [loff[u], loff[u + 1]) of `first_v`/`first_prevpos`/`first_c` (their
    first points' values, predecessors' positions and colors), both by value
    ascending; a list the node does not keep is an empty cut. Leaf i's K run
    is [koff[i], koff[i + 1]) of the middle values `km` and their node ids
    `kn`. `nodes[u]` is node u as a `_TreeNode`, which only walks over the
    tree read, built on first read."""

    def __init__(self, points: Sequence[ColoredPoint], cap: int):
        values, colors = split_pairs(points)  # 0 is the prev-sentinel
        self._build(values, check_colors(colors), cap)

    @classmethod
    def of_checked(cls, values: list, colors: list, cap: int) -> "TreeLayout":
        """The layout of columns that `split_pairs` and `check_colors` have
        passed, for a caller that reads them first."""
        layout = cls.__new__(cls)
        layout._build(values, colors, cap)
        return layout

    def _build(self, values: list, colors: list, cap: int) -> None:
        self.colors = colors
        vals = np.asarray(values, dtype=np.int64)
        for i in np.flatnonzero(vals[1:] <= vals[:-1])[:1].tolist():
            u, v = values[i], values[i + 1]
            raise DuplicateX(v) if u == v else ValueError(
                f"points must ascend by value: {v} after {u}")
        _, _, prevpos, nextpos, _ = color_links(colors)
        self.values, self.prevpos = _column(vals, "q"), _column(prevpos, "i")
        self.n = n = len(values)
        self.cap = cap
        # leaves are consecutive chunks of `cap` points (last one may be short)
        self.nleaves = nleaves = math.ceil(n / cap)
        self.root_id = nleaves - 1 + nleaves // 2  # -1 for no points
        nnodes = max(0, 2 * nleaves - 1)
        self.height = array("b", bytes(nnodes))
        self.lchild = array("i", [-1]) * nnodes
        self.rchild = array("i", [-1]) * nnodes
        runs: list = []
        inner: list = [None] * max(0, nleaves - 1)
        if nleaves:
            self._build_tree(0, nleaves, [], runs, inner, None)
        self._build_lists(vals, prevpos, nextpos, inner)
        self.kn = array("i", chain.from_iterable(runs))
        self.koff = _column(np.cumsum([0, *map(len, runs)]), "i")
        # node nleaves - 1 + j has m = the first value of leaf j
        kn = np.frombuffer(self.kn, dtype=np.int32)
        self.km = _column(vals[(kn - (nleaves - 1)) * cap], "q")

    @property
    def nodes(self) -> list:
        """`_TreeNode` u at index u, built from the columns on first read.
        Readers that race here all get the list stored first."""
        nodes = self.__dict__.get("nodes")
        if nodes is None:
            nodes = self.__dict__.setdefault("nodes", self._make_nodes())
        return nodes

    root = property(lambda self: self.nodes[self.root_id] if self.nleaves else None)
    leaves = property(lambda self: self.nodes[:self.nleaves])

    def _build_tree(self, lo: int, hi: int, path: list, runs: list,
                    inner: list, left: Optional[bool]) -> int:
        """The subtree over leaves [lo, hi) below the ancestors `path`; its
        root's id. A leaf's K run, appended to `runs`, is its ancestors by
        middle value ascending, which is by id: its right parents (K2)
        top-down, then its left parents (K1) bottom-up. An internal node
        over leaves [lo, hi), which starts its right subtree at leaf mid,
        puts (lo, hi, whether it is a left child, None for the root) at
        inner[mid - 1]."""
        if hi - lo == 1:
            runs.append(sorted(path))
            return lo
        mid = (lo + hi) // 2
        uid = self.nleaves - 1 + mid
        inner[mid - 1] = (lo, hi, left)
        path.append(uid)
        lid = self._build_tree(lo, mid, path, runs, inner, True)
        rid = self._build_tree(mid, hi, path, runs, inner, False)
        path.pop()
        self.lchild[uid], self.rchild[uid] = lid, rid
        self.height[uid] = 1 + max(self.height[lid], self.height[rid])
        return uid

    def _make_nodes(self) -> list:
        """The `_TreeNode`s by id, linked as the columns say."""
        nleaves, lchild, rchild = self.nleaves, self.lchild, self.rchild
        nodes = [_TreeNode(self, i, i + 1) for i in range(nleaves)]
        nodes += [None] * (nleaves - 1)

        def make(u: int) -> _TreeNode:
            if u < nleaves:
                return nodes[u]
            left, right = make(lchild[u]), make(rchild[u])
            node = nodes[u] = _TreeNode(self, left.leaf_lo, right.leaf_hi)
            node.left, node.right = left, right
            left.parent = right.parent = node
            node.m = self.values[right.leaf_lo * self.cap]
            return node

        if nleaves:
            make(self.root_id)
        return nodes

    def _build_lists(self, vals: np.ndarray, prevpos: np.ndarray,
                     nextpos: np.ndarray, inner: list) -> None:
        """R of the leaves and left children, L of the leaves and right
        children, cut in node id order. A point of a node's points [s, e)
        is its color's first there if its predecessor lies before s, its
        last if its successor lies at or after e (or is missing, -1)."""
        n, cap, nleaves = self.n, self.cap, self.nleaves
        pos = np.arange(n, dtype=np.int64)
        nextpos[nextpos < 0] = n  # no successor lies past every node
        # the leaves, all at once: a leaf holds at most `cap` points, so its
        # lists keep every color it holds
        start = pos - pos % cap
        lasts = [np.flatnonzero(nextpos >= np.minimum(start + cap, n))]
        firsts = [np.flatnonzero(prevpos < start)]
        rlen = np.bincount(lasts[0] // cap, minlength=nleaves).tolist()
        llen = np.bincount(firsts[0] // cap, minlength=nleaves).tolist()
        for lo, hi, left in inner:
            s, e = lo * cap, min(hi * cap, n)
            r = l = pos[:0]  # the root keeps neither list
            if left:
                r = s + np.flatnonzero(nextpos[s:e] >= e)[-cap:]
            elif left is not None:
                l = s + np.flatnonzero(prevpos[s:e] < s)[:cap]
            lasts.append(r)
            firsts.append(l)
            rlen.append(len(r))
            llen.append(len(l))
        self.roff = _column(np.cumsum([0, *rlen]), "i")
        self.loff = _column(np.cumsum([0, *llen]), "i")
        lasts, firsts = np.concatenate(lasts), np.concatenate(firsts)
        colors = self.colors
        self.last_pos = _column(lasts, "i")
        self.last_c = [colors[i] for i in lasts.tolist()]
        self.first_v = _column(vals[firsts], "q")
        self.first_prevpos = _column(prevpos[firsts], "i")
        self.first_c = [colors[i] for i in firsts.tolist()]

    def window(self, j: int, r: int, meter=None) -> list:
        """The colors of positions [j, r) whose predecessor lies before j,
        one per color: those of [values[j], values[r - 1]]. A scan of the
        points, each reported one a touch and each dropped one a locate op;
        the static index scans at most `cap` of them."""
        out = list(compress(self.colors[j:r], map(j.__gt__, self.prevpos[j:r])))
        if meter is not None:
            meter.touches += len(out)
            meter.locate_ops += r - j - len(out)
        return out

    def suffix(self, leaf: int, j: int, meter=None) -> list:
        """The colors with a point at position >= j in the leaf: its R
        entries from j on."""
        end = self.roff[leaf + 1]
        i = bisect.bisect_left(self.last_pos, j, self.roff[leaf], end)
        if meter is not None:
            meter.touches += end - i
            meter.locate_ops += 1
        return self.last_c[i:end]

    def prefix(self, leaf: int, j: int, b: int, meter=None) -> list:
        """The colors whose first point in the leaf is <= b and has its
        predecessor before position j: its L entries <= b, filtered by
        prevpos."""
        i = self.loff[leaf]
        end = bisect.bisect_right(self.first_v, b, i, self.loff[leaf + 1])
        if meter is not None:
            meter.touches += end - i
            meter.locate_ops += 1
        return [c for p, c in zip(self.first_prevpos[i:end],
                                  self.first_c[i:end]) if p < j]


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
    `array("i")` `prevpos`, which ascends within each block, and of the
    int64 array `pos`, the points' own positions."""
    n = layout.n
    level_base, _ = fallback_levels(n, layout.cap, layout.nleaves, size)
    prevpos = np.frombuffer(layout.prevpos, dtype=np.int32)
    pos = np.arange(n, dtype=np.int64)
    counts, firsts = [pos[:0]], [pos[:0]]
    for _ in level_base:
        # a block's first points are first in its halves: each level filters
        # the last one's, in their order, so ties (prevpos -1) stay by position
        block = pos // size
        first = prevpos[pos] < block * size
        pos, block = pos[first], block[first]
        pos = pos[np.argsort(block * (n + 1) + prevpos[pos], kind="stable")]
        counts.append(np.bincount(block, minlength=-(-n // size)))
        firsts.append(pos)
        size *= 2
    firsts = np.concatenate(firsts)
    block_start = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return (level_base, _column(block_start, "i"),
            _column(prevpos[firsts], "i"), firsts)


def leaf_cover(lo: int, hi: int, level_base: list, size: int) -> tuple:
    """Leaves [lo, hi] as (single leaves, aligned blocks): the edge leaves
    lo and hi, then the interior leaves as at most two aligned blocks per
    level, from blocks of `size` leaves (1 or 2) up. With 2, the level of
    one leaf gives at most two single interior leaves."""
    if lo == hi:
        return [lo], []
    leaves, blocks = [lo, hi], []
    lo += 1
    if size == 2 and lo < hi:
        if lo & 1:
            leaves.append(lo)
            lo += 1
        if hi & 1:
            hi -= 1
            leaves.append(hi)
        lo >>= 1
        hi >>= 1
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

    `StaticIndex` hands it only ranges of more than `cap` points, which span
    two leaves or more, but it answers any range: one inside one leaf by a
    scan of it, `TreeLayout.window`, and any other as its points split by
    `leaf_cover`: the leaf of succ(a) reports its colors with a point >= a
    (`TreeLayout.suffix`), the leaf of pred(b) its first points <= b with
    prev < a (`prefix`), and the interior leaves fill aligned blocks of
    `first_points`, from blocks of one leaf up. A list entry that `prefix`
    takes and drops belongs to a color reported earlier in the range, so
    the edge leaves touch at most 2k entries. The blocks' prevpos `keys`
    are kept with the entries' colors at the same index of `firsts`, so the
    entries of block g with prevpos < j end at `bisect_left(keys, j,
    block_start[g], block_start[g + 1])`. That makes
    sum over l >= 0 of min(N, C * N / (cap * 2^l)) entries for C colors,
    over about log2(N / cap) levels. The static index's leaves of cap =
    2 ceil(log2 N) points give the blocks of leaves of ceil(log2 N) but
    their level 0, the blocks of one such leaf.

    A block strictly after succ(a) = point j lies inside the range, and each of
    its entries with prevpos < j is the first point of its color in the whole
    range, so the reported stream holds each color once. Metering: the
    locate of [a, b] (pred(b), as succ(a) comes in as j) counts one locate
    op. A range inside one leaf then meters as `window`: each color one
    touch, each point scanned and dropped one locate op. Otherwise the edge
    leaves meter as `suffix` and `prefix` do, and each block searched counts
    one locate op, each entry it reports one touch.
    """

    def __init__(self, layout: TreeLayout):
        self.values = layout.values
        self.cap = layout.cap
        self.layout = layout
        self.level_base, self.block_start, self.keys, pos = first_points(
            layout, layout.cap)
        # the colors by reference, so an entry costs one list slot
        colors = layout.colors
        self.firsts = list(map(colors.__getitem__, pos.tolist()))

    def query(self, a: int, b: int, j: int, meter=None) -> list:
        """Distinct colors of [a, b], each exactly once, where j is the
        position of succ(a), `bisect_left(values, a)`."""
        r = bisect.bisect_right(self.values, b, j)
        if meter is not None:
            meter.locate_ops += 1
        if j >= r:
            return []
        lo, hi = j // self.cap, (r - 1) // self.cap
        if lo == hi:
            return self.layout.window(j, r, meter)
        _, blocks = leaf_cover(lo, hi, self.level_base, 1)
        out = self.layout.suffix(lo, j, meter)
        k = len(out)
        keys, start, firsts = self.keys, self.block_start, self.firsts
        for g in blocks:
            s = start[g]
            out += firsts[s:bisect.bisect_left(keys, j, s, start[g + 1])]
        if meter is not None:
            meter.locate_ops += len(blocks)
            meter.touches += len(out) - k
        out += self.layout.prefix(hi, j, b, meter)
        return out


class StaticIndex(TreeLayout):
    def __init__(self, points: Sequence[ColoredPoint]):
        points = list(points)
        # leaves of 2 ceil(log2 N) points, one leaf of 2 for N <= 2
        super().__init__(points, 2 * math.ceil(math.log2(max(len(points), 2))))
        self.fallback = ArrayFallback(self)

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
        """The leaf of the last point at or below `value`; NotFound if
        `value` lies below every point."""
        j = bisect.bisect_right(self.values, value) - 1
        if j < 0:
            raise NotFound(value)
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
        """Highest ancestor u of the leaf with a < m(u) <= b, else None;
        NotFound for a leaf outside [0, nleaves)."""
        if not 0 <= leaf_idx < self.nleaves:
            raise NotFound(leaf_idx)
        u = self._hra(leaf_idx, a, b, meter)
        return self.nodes[u] if u >= 0 else None

    def query(self, a: int, b: int, meter=None) -> list:
        """Distinct colors of S within [a, b], each exactly once."""
        if type(a) is not int or type(b) is not int:
            a, b = check_integer(a), check_integer(b)
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        if a < 1:  # no point lies below 1, and prev 0 must stay below a
            a = 1
        # one_report inlined (no call, no ColoredPoint per query): succ(a)
        if meter is not None:
            meter.locate_ops += 1
        values, cap, n = self.values, self.cap, self.n
        j = bisect.bisect_left(values, a)
        if j == n or values[j] > b:
            return []
        e = j + cap
        if e >= n or values[e] > b:
            # at most cap points: pred(b) among them, then a scan
            if meter is not None:
                meter.locate_ops += 1
            return self.window(
                j, bisect.bisect_right(values, b, j, e if e < n else n), meter)
        # more than cap points span two leaves, and the LCA of those leaves
        # has a < m <= b (Fact 2), so the K run holds an ancestor: u >= 0
        u = self._hra(j // cap, a, b, meter)

        # a full list whose far end lies strictly inside the range may
        # leave colors out; one that ends at a (R) or b (L) holds every
        # color of its side
        left, right, roff, loff = (self.lchild[u], self.rchild[u], self.roff,
                                   self.loff)
        r0, r1, l0, l1 = roff[left], roff[left + 1], loff[right], loff[right + 1]
        last_pos, first_v = self.last_pos, self.first_v
        if (r1 - r0 == cap and values[last_pos[r0]] > a
                or l1 - l0 == cap and first_v[l1 - 1] < b):
            return self.fallback.query(a, b, j, meter)
        i = bisect.bisect_left(last_pos, j, r0, r1)
        out = self.last_c[i:r1]
        cut = bisect.bisect_right(first_v, b, l0, l1)
        if meter is not None:
            # a walk along each list: the entries it takes, and the one
            # that would stop it
            meter.touches += r1 - i + (i > r0) + cut - l0 + (cut < l1)
        first_prevpos, first_c = self.first_prevpos, self.first_c
        for i in range(l0, cut):
            if first_prevpos[i] < j:
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
