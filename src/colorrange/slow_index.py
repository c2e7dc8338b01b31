"""Range tree with doubly-exponential fanout: slow queries, fast updates.

A node over s elements has ceil(sqrt(s)) children, so depth-d nodes hold
about n^((1/2)^d) elements and the height is O(loglog n). Leaves are small
buckets (at most LEAF_CUTOFF elements at build time); in order, the buckets
are the one sorted copy of the live values.

Each element e is stored in exactly one C-set: at the highest node u whose
subtree excludes prev(e) (nothing, if prev(e) shares e's leaf). Per node the
C-set is kept two ways: V as (value, prev) pairs sorted by value, and P as
(prev, value) pairs sorted by prev; colors come from the value -> color map.
Because subtree spans are contiguous, membership tests are single comparisons
against live subtree minima, and placements stay valid under updates: a
placement can only be invalidated by deleting prev(e) itself, which relocates
e explicitly.

A query [a, b] descends to succ(a) and to pred(b) by the live subtree bounds,
then walks the path to succ(a) below the LCA of the boundary leaves, scanning
C(u) above a by value, right siblings and covered children by prev < a, the
rightmost child by value <= b, and the LCA plus its proper ancestors with both
filters. Each scanned element is emitted only when its prev lies below a, so
the stream holds exactly the leftmost in-range element of every distinct
color, each once.

k-leftmost color selection binary-searches the right boundary using capped
counting queries, then reports the reduced range. k-rightmost selection is its
mirror image on the same tree: it binary-searches the left boundary, reports
the reduced range, and moves each reported color to its rightmost element
with one predecessor lookup in that color's sorted value list.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional

from .core import (DuplicateX, InvalidRange, NotFound, PREV_SENTINEL,
                   check_color, check_coordinate, check_integer, color_maps)

LEAF_CUTOFF = 4


class _Node:
    __slots__ = ("children", "seps", "parent", "size", "cap", "alive",
                 "minv", "maxv", "bucket", "cvals", "cprevs", "depth")

    def __init__(self):
        self.children: list = []
        self.seps: list = []       # static routing: seps[i] = build-min of children[i+1]
        self.parent = None
        self.size = 0
        self.cap = 0
        self.alive = True
        self.minv = None           # live subtree min/max
        self.maxv = None
        self.bucket: list = []     # leaf only: sorted live values
        self.cvals: list = []      # V(u): (value, prev), sorted
        self.cprevs: list = []     # P(u): (prev, value), sorted
        self.depth = 0

    @property
    def is_leaf(self):
        return not self.children

    def c_insert(self, value, prev):
        bisect.insort(self.cvals, (value, prev))
        bisect.insort(self.cprevs, (prev, value))

    def c_remove(self, value):
        i = bisect.bisect_left(self.cvals, (value, -1))
        prev = self.cvals[i][1]
        del self.cvals[i]
        del self.cprevs[bisect.bisect_left(self.cprevs, (prev, value))]


class SlowIndex:
    """Color reporting plus k-leftmost and k-rightmost color selection, all
    answered by one tree."""

    def __init__(self, points: Iterable[tuple] = ()):
        self.colors, self.by_color = color_maps(points)
        self.placed: dict = {}
        self._rebuild_tree()

    def __len__(self):
        return len(self.colors)

    # -- construction --------------------------------------------------------

    def _rebuild_tree(self) -> None:
        vals = sorted(self.colors)
        self.n0 = max(1, len(vals))
        self.deleted_total = 0
        self.root = self._build(vals, 0)
        self.placed.clear()
        for v in vals:
            self._place(v)

    def _build(self, values: list, depth: int) -> _Node:
        node = _Node()
        node.size = len(values)
        node.depth = depth
        node.minv = values[0] if values else None
        node.maxv = values[-1] if values else None
        if len(values) <= LEAF_CUTOFF:
            node.bucket = list(values)
            node.cap = max(2 * len(values), 2 * LEAF_CUTOFF)
            return node
        node.cap = 2 * len(values)
        nc = math.ceil(math.sqrt(len(values)))
        base, extra = divmod(len(values), nc)
        lo = 0
        for i in range(nc):
            sz = base + (1 if i < extra else 0)
            child = self._build(values[lo:lo + sz], depth + 1)
            child.parent = node
            node.children.append(child)
            lo += sz
        node.seps = [c.minv for c in node.children[1:]]
        return node

    # -- navigation ----------------------------------------------------------

    def leaf_of(self, value) -> _Node:
        node = self.root
        while not node.is_leaf:
            node = node.children[bisect.bisect_right(node.seps, value)]
        return node

    def path_of(self, value) -> list:
        out = []
        node = self.root
        while True:
            out.append(node)
            if node.is_leaf:
                return out
            node = node.children[bisect.bisect_right(node.seps, value)]

    def near_path(self, x, right: bool) -> Optional[list]:
        """path_of(succ(x)) if right, else path_of(pred(x)); None if there is
        no such value. Children on the far side of x's route cannot hold it,
        so each step moves from the route to the nearest child whose live
        bounds reach x: max >= x going right, min <= x going left."""
        reach = ((lambda n: n.maxv is not None and n.maxv >= x) if right else
                 (lambda n: n.minv is not None and n.minv <= x))
        node = self.root
        if not reach(node):
            return None
        out = [node]
        while not node.is_leaf:
            i = bisect.bisect_right(node.seps, x)
            while not reach(node.children[i]):
                i += 1 if right else -1
            node = node.children[i]
            out.append(node)
        return out

    def prev_of(self, value) -> int:
        lst = self.by_color[self.colors[value]]
        i = bisect.bisect_left(lst, value)
        return lst[i - 1] if i > 0 else PREV_SENTINEL

    def next_of(self, value) -> Optional[int]:
        lst = self.by_color[self.colors[value]]
        i = bisect.bisect_right(lst, value)
        return lst[i] if i < len(lst) else None

    # -- C-set placement -----------------------------------------------------

    def _placement_for(self, value, prev, path=None) -> Optional[_Node]:
        """Highest node on value's path whose live min exceeds prev."""
        path = path or self.path_of(value)
        best = None
        for node in reversed(path):  # leaf first
            if node.minv is not None and node.minv > prev:
                best = node
            else:
                break
        return best

    def _place(self, value, path=None) -> None:
        prev = self.prev_of(value)
        node = self._placement_for(value, prev, path)
        self.placed[value] = node
        if node is not None:
            node.c_insert(value, prev)

    def _unplace(self, value) -> None:
        node = self.placed.pop(value)
        if node is not None:
            node.c_remove(value)

    # -- updates --------------------------------------------------------------

    def insert(self, value, color) -> None:
        color, value = check_color(color), check_coordinate(value)
        if value in self.colors:
            raise DuplicateX(value)
        self.colors[value] = color
        lst = self.by_color.setdefault(color, [])
        bisect.insort(lst, value)

        path = self.path_of(value)
        leaf = path[-1]
        bisect.insort(leaf.bucket, value)
        for node in path:
            node.size += 1
            if node.minv is None or value < node.minv:
                node.minv = value
            if node.maxv is None or value > node.maxv:
                node.maxv = value

        self._place(value, path)
        nxt = self.next_of(value)
        if nxt is not None:
            self._unplace(nxt)
            self._place(nxt)

        # bottom-up splits; the root regrows the whole tree
        for node in reversed(path):
            if node.size >= node.cap:
                if node.parent is None:
                    self._rebuild_tree()
                    return
                self._split(node)

    def delete(self, value) -> None:
        value = check_integer(value)
        if value not in self.colors:
            raise NotFound(value)
        nxt = self.next_of(value)
        color = self.colors.pop(value)
        lst = self.by_color[color]
        del lst[bisect.bisect_left(lst, value)]
        if not lst:
            del self.by_color[color]

        path = self.path_of(value)
        bucket = path[-1].bucket
        del bucket[bisect.bisect_left(bucket, value)]
        for node in path:
            node.size -= 1
        # bottom-up, up to the first node whose bounds were not the value (so
        # no ancestor's were); children ascend: a bound is the nearest child's
        for node in reversed(path):
            if node.minv != value and node.maxv != value:
                break
            if node.is_leaf:
                node.minv = bucket[0] if bucket else None
                node.maxv = bucket[-1] if bucket else None
                continue
            if node.minv == value:
                node.minv = next((c.minv for c in node.children
                                  if c.minv is not None), None)
            if node.maxv == value:
                node.maxv = next((c.maxv for c in reversed(node.children)
                                  if c.maxv is not None), None)

        self._unplace(value)
        if nxt is not None:
            self._unplace(nxt)
            self._place(nxt)

        self.deleted_total += 1
        if self.deleted_total >= max(1, self.n0 // 2):
            self._rebuild_tree()

    def _split(self, node) -> None:
        """Replace an overfull node with two rebuilt halves; redo placements
        of elements whose placement node was destroyed."""
        parent = node.parent
        items = self._values_under(node)
        for n in self._nodes_under(node):
            n.alive = False
        mid = len(items) // 2
        left = self._build(items[:mid], node.depth)
        right = self._build(items[mid:], node.depth)
        idx = parent.children.index(node)
        left.parent = right.parent = parent
        parent.children[idx:idx + 1] = [left, right]
        # the old separator still bounds `left` from below; the split point
        # items[mid] is live and bounds `right`
        parent.seps.insert(idx, items[mid])
        for v in items:
            node_v = self.placed[v]
            if node_v is None or not node_v.alive:
                self.placed.pop(v)
                self._place(v)

    def _values_under(self, node) -> list:
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                out.extend(n.bucket)
            else:
                stack.extend(n.children)
        out.sort()
        return out

    def _nodes_under(self, node) -> list:
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(n.children)
        return out

    # -- queries ---------------------------------------------------------------

    def query(self, a, b, meter=None) -> list:
        """Distinct colors of [a, b] (leftmost-occurrence order)."""
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        a = max(a, 1)  # no point lies below 1, and prev 0 must stay below a
        ems, _ = self.emissions(a, b, meter=meter)
        colors = [c for _, c, _ in sorted(ems)]
        if len(set(colors)) != len(colors):
            raise RuntimeError(f"prev-filter missed a duplicate in [{a}, {b}]")
        return colors

    def emissions(self, a, b, meter=None, cap: Optional[int] = None):
        """Emissions [(value, color, prev)] for [a, b] plus overflow flag.

        Only elements with prev < a are emitted: the leftmost in-range
        element of each distinct color, once. With `cap`, returns
        (partial, True) once more than cap emissions accumulate.
        """
        out: list = []
        touches = 0
        if meter is not None:
            meter.locate_ops += 1
        pa = self.near_path(a, True)
        if pa is None:
            return out, False
        leaf_a = pa[-1]
        if leaf_a.bucket[bisect.bisect_left(leaf_a.bucket, a)] > b:
            return out, False
        pb = self.near_path(b, False)
        leaf_b = pb[-1]
        colors = self.colors

        def emit(value, prev):
            if prev < a:
                out.append((value, colors[value], prev))

        if leaf_a is leaf_b:
            touches += 1
            for v in leaf_a.bucket:
                if a <= v <= b:
                    touches += 1
                    emit(v, self.prev_of(v))
            if meter is not None:
                meter.touches += touches
            return out, False

        # lowest common ancestor: paths share a prefix from the root
        k = 0
        while k < min(len(pa), len(pb)) and pa[k] is pb[k]:
            k += 1
        vq = pa[k - 1]
        ca, cb = pa[k], pb[k]
        l_idx = vq.children.index(ca)
        r_idx = vq.children.index(cb)
        below = pa[k:]  # ca ... leaf_a

        def over():
            return cap is not None and len(out) > cap

        # (i) C(u) above a for path nodes below vq; additionally the boundary
        # bucket is scanned for elements stored in no C-set (their prev shares
        # the bucket), which still qualify when the bucket straddles a
        for u in below:
            touches += 1
            j = bisect.bisect_left(u.cvals, (a, -1))
            for v, p in u.cvals[j:]:
                touches += 1
                emit(v, p)
            if over():
                break
        if not over():
            touches += 1
            for v in leaf_a.bucket:
                if v >= a and self.placed[v] is None:
                    touches += 1
                    emit(v, self.prev_of(v))

        # (ii) right siblings below vq, and vq's covered children: prev < a
        if not over():
            sibs = []
            for u in below:
                p = u.parent
                if p is vq:
                    continue
                idx = p.children.index(u)
                sibs.extend(p.children[idx + 1:])
            sibs.extend(vq.children[l_idx + 1:r_idx])
            for s in sibs:
                touches += 1
                j = bisect.bisect_left(s.cprevs, (a, -1))
                for p, v in s.cprevs[:j]:
                    touches += 1
                    emit(v, p)
                if over():
                    break

        # (iii) C(v_r) up to b by value (may emit non-leftmost occurrences);
        # prev < value, so (b, b) sorts after every pair of value b
        if not over():
            touches += 1
            j = bisect.bisect_left(cb.cvals, (b, b))
            for v, p in cb.cvals[:j]:
                touches += 1
                emit(v, p)

        # (iv) vq and its proper ancestors: C(w) within [a, b]
        if not over():
            for w in reversed(pa[:k]):
                touches += 1
                j = bisect.bisect_left(w.cvals, (a, -1))
                jj = bisect.bisect_left(w.cvals, (b, b))
                for v, p in w.cvals[j:jj]:
                    touches += 1
                    emit(v, p)
                if over():
                    break

        if meter is not None:
            meter.touches += touches
        return out, over()

    def count_capped(self, a, b, k) -> int:
        """Distinct-color count, reported exactly up to k (k+1 means > k)."""
        ems, overflow = self.emissions(a, b, cap=k)
        return k + 1 if overflow else len(ems)

    def k_leftmost(self, a, b, k, meter=None) -> list:
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        return [c for _, c in self.k_leftmost_elements(a, b, k, meter=meter)]

    def k_rightmost(self, a, b, k, meter=None) -> list:
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        return [c for _, c in self.k_rightmost_elements(a, b, k, meter=meter)]

    def k_leftmost_elements(self, a, b, k, meter=None) -> list:
        """The k leftmost distinct colors of [a, b], as (value, color) pairs
        ordered by first occurrence."""
        if k <= 0 or a > b:
            return []
        a = max(a, 1)  # as in query
        if self.count_capped(a, b, k) < k:
            bprime = b
        else:
            lo, hi = a, b
            while lo < hi:
                mid = (lo + hi) // 2
                if self.count_capped(a, mid, k) >= k:
                    hi = mid
                else:
                    lo = mid + 1
            bprime = lo
        ems, _ = self.emissions(a, bprime, meter=meter)
        hits = sorted((v, c) for v, c, _ in ems)
        return hits[:k]

    def k_rightmost_elements(self, a, b, k, meter=None) -> list:
        """The k rightmost distinct colors of [a, b], as (value, color) pairs
        ordered by last occurrence, rightmost first."""
        if k <= 0 or a > b:
            return []
        a = max(a, 1)  # as in query
        if self.count_capped(a, b, k) < k:
            aprime = a
        else:
            lo, hi = a, b
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self.count_capped(mid, b, k) >= k:
                    lo = mid
                else:
                    hi = mid - 1
            aprime = lo
        ems, _ = self.emissions(aprime, b, meter=meter)
        hits = []
        for _, c, _ in ems:
            lst = self.by_color[c]
            hits.append((lst[bisect.bisect_right(lst, b) - 1], c))
        hits.sort(reverse=True)
        return hits[:k]

    # -- invariant checks ------------------------------------------------------

    def check_consistency(self) -> None:
        """Maintained placements/C-sets equal the from-scratch recomputation;
        AssertionError otherwise."""
        if self._values_under(self.root) != sorted(self.colors):
            raise AssertionError("buckets")
        for v in self.colors:
            if self.placed[v] is not self._placement_for(v, self.prev_of(v)):
                raise AssertionError(f"placement of {v}")
        for node in self._nodes_under(self.root):
            live = self._values_under(node)
            if node.minv != (live[0] if live else None):
                raise AssertionError("minv")
            if node.maxv != (live[-1] if live else None):
                raise AssertionError("maxv")
            if node.cvals != sorted(node.cvals):
                raise AssertionError("C-set values not sorted")
            if sorted((p, v) for v, p in node.cvals) != node.cprevs:
                raise AssertionError("C-set prevs differ from its values")
            for v, p in node.cvals:
                if self.placed[v] is not node or self.prev_of(v) != p:
                    raise AssertionError(f"C-set entry of {v}")
        # definitional chain form: nodes with prev(e) < live-min form a prefix
        # of the leaf-to-root path, topped by the placement node
        for v in self.colors:
            path = self.path_of(v)
            flags = [n.minv > self.prev_of(v) for n in reversed(path)]
            run = 0
            for f in flags:
                if f:
                    run += 1
                else:
                    break
            if any(flags[run:]):
                raise AssertionError(f"chain of {v} not a prefix")
            if self.placed[v] is not (list(reversed(path))[run - 1] if run else None):
                raise AssertionError(f"chain of {v} not topped by its placement")

    def check_fanout_law(self) -> None:
        """Every internal node at depth d has between ceil(f / 2) and 2f
        children, f = ceil(n^(2^-(d + 1))); AssertionError otherwise."""
        n = max(2, len(self.colors))
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            nominal = math.ceil(n ** (0.5 ** (node.depth + 1)))
            if not math.ceil(nominal / 2) <= len(node.children) <= 2 * nominal:
                raise AssertionError((node.depth, len(node.children), nominal))
            stack.extend(node.children)
