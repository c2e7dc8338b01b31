"""Priority search tree for three-sided queries [a, b] x [0, c).

The tree is a tournament PST: a balanced skeleton of x-split keys where each
node stores one point, min-heap ordered by (y, x). Updates keep the skeleton
weight-balanced by rebuilding the highest subtree whose heavier side exceeds
REBUILD_FRACTION of its weight.

`ColorPst` layers the classic reduction on top: store (value, prev(value))
per point and answer one-dimensional color reporting with the three-sided
query [a, b] x [0, a), which yields exactly one point per distinct color.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import DuplicateX, NotFound

REBUILD_FRACTION = 0.7
_REBUILD_MIN = 8  # below this size imbalance is structurally harmless


class _Node:
    __slots__ = ("x", "y", "tag", "split", "left", "right", "size")

    def __init__(self, x, y, tag, split):
        self.x = x
        self.y = y
        self.tag = tag
        self.split = split
        self.left = None
        self.right = None
        self.size = 1


def _build(pts):
    """Static build from points sorted by x; returns the subtree root."""
    if not pts:
        return None
    best = 0
    for i in range(1, len(pts)):
        if (pts[i][1], pts[i][0]) < (pts[best][1], pts[best][0]):
            best = i
    x, y, tag = pts[best]
    rest = pts[:best] + pts[best + 1:]
    if rest:
        h = (len(rest) + 1) // 2
        node = _Node(x, y, tag, rest[h - 1][0])
        node.left = _build(rest[:h])
        node.right = _build(rest[h:])
    else:
        node = _Node(x, y, tag, x)
    node.size = len(pts)
    return node


def _collect(node, out):
    if node is None:
        return
    out.append((node.x, node.y, node.tag))
    _collect(node.left, out)
    _collect(node.right, out)


class Pst:
    def __init__(self, points: Iterable[tuple] = ()):
        pts = [(p[0], p[1], p[2] if len(p) > 2 else None) for p in points]
        xs = set()
        for x, _, _ in pts:
            if x in xs:
                raise DuplicateX(x)
            xs.add(x)
        pts.sort()
        self._xs = xs
        self.root = _build(pts)

    def __len__(self):
        return len(self._xs)

    def __contains__(self, x):
        return x in self._xs

    def insert(self, x, y, tag=None) -> None:
        if x in self._xs:
            raise DuplicateX(x)
        self._xs.add(x)
        if self.root is None:
            self.root = _Node(x, y, tag, x)
            return
        carried = (x, y, tag)
        node = self.root
        path = []
        while True:
            path.append(node)
            node.size += 1
            if (carried[1], carried[0]) < (node.y, node.x):
                displaced = (node.x, node.y, node.tag)
                node.x, node.y, node.tag = carried
                carried = displaced
            if carried[0] <= node.split:
                if node.left is None:
                    node.left = _Node(*carried, split=carried[0])
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(*carried, split=carried[0])
                    break
                node = node.right
        self._rebalance(path)

    def delete(self, x) -> None:
        if x not in self._xs:
            raise NotFound(x)
        self._xs.discard(x)
        path = []
        node = self.root
        while node.x != x:
            path.append(node)
            node = node.left if x <= node.split else node.right
        # pull smaller-y child points up into the hole, then prune the tail
        hole = node
        path.append(hole)
        while True:
            l, r = hole.left, hole.right
            if l is not None and (r is None or (l.y, l.x) <= (r.y, r.x)):
                child = l
            elif r is not None:
                child = r
            else:
                break
            hole.x, hole.y, hole.tag = child.x, child.y, child.tag
            hole = child
            path.append(hole)
        for n in path:
            n.size -= 1
        leaf = path[-1]
        if len(path) == 1:
            self.root = None
        else:
            parent = path[-2]
            if parent.left is leaf:
                parent.left = None
            else:
                parent.right = None
        self._rebalance(path[:-1])

    def _rebalance(self, path) -> None:
        for i, node in enumerate(path):
            lsz = node.left.size if node.left else 0
            rsz = node.right.size if node.right else 0
            if node.size >= _REBUILD_MIN and max(lsz, rsz) > REBUILD_FRACTION * node.size:
                pts = []
                _collect(node, pts)
                pts.sort()
                fresh = _build(pts)
                if i == 0:
                    self.root = fresh
                else:
                    parent = path[i - 1]
                    if parent.left is node:
                        parent.left = fresh
                    else:
                        parent.right = fresh
                return

    def query(self, a, b, c, meter=None, cap: Optional[int] = None) -> list:
        """All points with a <= x <= b and y < c as (x, y, tag) tuples.

        With `cap`, collection stops once cap points are gathered (the caller
        treats a full result as overflow).

        Metering: visits that emit a point count as reporting touches; the
        structural descent (pruned or out-of-range nodes, O(log m) of them)
        counts as locate navigation.
        """
        out = []
        if self.root is None or a > b:
            return out
        stack = [self.root]
        visits = 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.y >= c:
                continue
            if a <= node.x <= b:
                out.append((node.x, node.y, node.tag))
                if cap is not None and len(out) >= cap:
                    break
            if node.left is not None and a <= node.split:
                stack.append(node.left)
            if node.right is not None and b > node.split:
                stack.append(node.right)
        if meter is not None:
            meter.touches += len(out)
            meter.locate_ops += visits - len(out)
        return out

    def points(self) -> list:
        out = []
        _collect(self.root, out)
        return sorted(out)

    def check_invariants(self) -> None:
        """Heap order on (y, x), split routing, and size consistency."""
        seen = []

        def rec(node, lo, hi):
            if node is None:
                return 0
            assert lo < node.x <= hi, f"x {node.x} outside ({lo}, {hi}]"
            assert lo < node.split <= hi or node.left is node.right is None
            for ch in (node.left, node.right):
                if ch is not None:
                    assert (node.y, node.x) <= (ch.y, ch.x), "heap violated"
            seen.append(node.x)
            n = 1 + rec(node.left, lo, min(node.split, hi)) + \
                rec(node.right, max(node.split, lo), hi)
            assert n == node.size, f"size {node.size} != {n}"
            return n

        rec(self.root, float("-inf"), float("inf"))
        assert sorted(seen) == sorted(self._xs)


class ColorPst:
    """Color reporting over (value, prev, color) triples in O(log m + k)."""

    def __init__(self, triples: Iterable[tuple] = ()):
        # triples: (value, prev, color)
        self.pst = Pst((v, p, c) for v, p, c in triples)

    def __len__(self):
        return len(self.pst)

    def query(self, a, b, meter=None) -> list:
        """Distinct colors in [a, b], exactly one hit per color (prev < a)."""
        return [tag for _, _, tag in self.pst.query(a, b, a, meter=meter)]

    def insert(self, value, prev, color) -> None:
        self.pst.insert(value, prev, color)

    def delete(self, value) -> None:
        self.pst.delete(value)

    def update_prev(self, value, old_prev, new_prev, color) -> None:
        self.pst.delete(value)
        self.pst.insert(value, new_prev, color)
