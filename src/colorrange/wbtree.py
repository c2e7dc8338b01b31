"""Weight-balanced B-tree base for the dynamic color index.

Branching parameter 8 (internal nodes keep 2..32 children), leaf parameter
log^2 N fixed at the last global rebuild. A node at height l splits once its
live subtree size exceeds 2 * 8^l * L; deletions are lazy (middle values m_i
are never changed, no downward rebalancing) and the whole tree is rebuilt
after n0/2 deletions, or when the size grows past 2 * n0.

Each node stores its routing separators seps[j] = m of child j+1 (assigned at
split/build time from a then-live minimum, never updated afterwards), plus
exact live submin/submax used by the dynamic index for height tags.

Per leaf, the highest-range-ancestor structure is two flat monotone arrays:
K1 holds all left values (m_j(u) for j <= i at an i-node u) bottom-up, which
never increase toward the root; K2 holds all right values, which never
decrease. Both searches are plain binary searches (Facts 4-5).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional

from .core import DuplicateX, NotFound

BRANCHING = 8
MAX_CHILDREN = 4 * BRANCHING


class WbLeaf:
    __slots__ = ("values", "parent", "height", "deleted", "exempt_lower",
                 "prev_leaf", "next_leaf", "k1", "k2", "dstruct")

    def __init__(self, values):
        self.values = values          # sorted live values
        self.parent = None
        self.height = 0
        self.deleted = 0              # lazy deletions since creation
        self.exempt_lower = False     # rightmost-at-level build artifact
        self.prev_leaf = None
        self.next_leaf = None
        self.k1 = []                  # [(m, node)] bottom-up, non-increasing
        self.k2 = []                  # [(m, node)] bottom-up, non-decreasing
        self.dstruct = None           # client payload (the leaf store)

    @property
    def size(self):
        return len(self.values)

    @property
    def submin(self):
        return self.values[0] if self.values else None

    @property
    def submax(self):
        return self.values[-1] if self.values else None

    def is_leaf(self):
        return True


class WbNode:
    __slots__ = ("children", "seps", "parent", "height", "size", "deleted",
                 "exempt_lower", "submin", "submax")

    def __init__(self, children, seps):
        self.children = children
        self.seps = seps              # seps[j] = m of children[j+1]
        self.parent = None
        self.height = children[0].height + 1
        self.size = sum(c.size for c in children)
        self.deleted = 0
        self.exempt_lower = False
        self.submin = None
        self.submax = None
        for c in children:
            c.parent = self
        self._refresh_extremes()

    def _refresh_extremes(self):
        mins = [c.submin for c in self.children if c.submin is not None]
        maxs = [c.submax for c in self.children if c.submax is not None]
        self.submin = min(mins) if mins else None
        self.submax = max(maxs) if maxs else None

    def route(self, value) -> int:
        return bisect.bisect_right(self.seps, value)

    def is_leaf(self):
        return False


class WbTree:
    def __init__(self, values: Iterable[int] = ()):
        self.rebuild(sorted(values))

    # -- construction --------------------------------------------------------

    def rebuild(self, sorted_values: list) -> None:
        n0 = max(len(sorted_values), 1)
        self.n0 = n0
        logn = max(2.0, math.log2(max(n0, 4)))
        self.leaf_param = max(2, math.ceil(logn) ** 2)
        self.loglog = max(1, math.ceil(math.log2(logn)))
        self.deleted_total = 0
        self.size = len(sorted_values)

        lp = self.leaf_param
        n = len(sorted_values)
        nleaves = max(1, math.ceil(n / lp))
        base, extra = divmod(n, nleaves)
        leaves = []
        lo = 0
        for i in range(nleaves):
            sz = base + (1 if i < extra else 0)
            leaves.append(WbLeaf(sorted_values[lo:lo + sz]))
            lo += sz
        for a, b in zip(leaves, leaves[1:]):
            a.next_leaf = b
            b.prev_leaf = a
        level: list = leaves
        while len(level) > 1:
            nxt = []
            i = 0
            while i < len(level):
                group = level[i:i + BRANCHING]
                if len(level) - i - len(group) == 0 and len(group) == 1 and nxt:
                    # never leave a single-child node: fold into the previous
                    prev = nxt.pop()
                    group = prev.children + group
                    seps = prev.seps + [group[-1].submin]
                    nxt.append(WbNode(group, seps))
                else:
                    seps = [c.submin for c in group[1:]]
                    nxt.append(WbNode(group, seps))
                i += len(group)
            nxt[-1].exempt_lower = True
            level = nxt
        self.root = level[0]
        self.root.exempt_lower = True
        node = self.root
        while not node.is_leaf():
            node.exempt_lower = True
            node = node.children[-1]
        node.exempt_lower = True
        self.first_leaf = leaves[0]
        for leaf in leaves:
            self._refresh_hra(leaf)

    # -- navigation ----------------------------------------------------------

    def leaf_for(self, value) -> WbLeaf:
        node = self.root
        while not node.is_leaf():
            node = node.children[node.route(value)]
        return node

    def succ(self, value) -> Optional[int]:
        """Smallest live value >= value."""
        leaf = self.leaf_for(value)
        i = bisect.bisect_left(leaf.values, value)
        while leaf is not None and i >= len(leaf.values):
            leaf = leaf.next_leaf
            i = 0
        return None if leaf is None else leaf.values[i]

    def pred(self, value) -> Optional[int]:
        leaf = self.leaf_for(value)
        i = bisect.bisect_right(leaf.values, value) - 1
        while leaf is not None and i < 0:
            leaf = leaf.prev_leaf
            i = len(leaf.values) - 1 if leaf is not None else -1
        return None if leaf is None else leaf.values[i]

    def __contains__(self, value):
        leaf = self.leaf_for(value)
        i = bisect.bisect_left(leaf.values, value)
        return i < len(leaf.values) and leaf.values[i] == value

    def iter_values(self):
        leaf = self.first_leaf
        while leaf is not None:
            yield from leaf.values
            leaf = leaf.next_leaf

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            if not n.is_leaf():
                stack.extend(n.children)

    def leaves_under(self, node) -> list:
        if node.is_leaf():
            return [node]
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf():
                out.append(n)
            else:
                stack.extend(n.children)
        return out

    # -- updates -------------------------------------------------------------

    def insert(self, value) -> dict:
        """Insert a value; returns {'splits': [(parent, left, right, height)],
        'rebuilt': bool}. Split events are ordered bottom-up."""
        leaf = self.leaf_for(value)
        i = bisect.bisect_left(leaf.values, value)
        if i < len(leaf.values) and leaf.values[i] == value:
            raise DuplicateX(value)
        leaf.values.insert(i, value)
        self.size += 1
        node = leaf.parent
        while node is not None:
            node.size += 1
            if node.submin is None or value < node.submin:
                node.submin = value
            if node.submax is None or value > node.submax:
                node.submax = value
            node = node.parent
        if self.size > 2 * self.n0:
            self.rebuild(list(self.iter_values()))
            return {"splits": [], "rebuilt": True}
        events = []
        cur = leaf
        while cur is not None:
            parent = cur.parent
            if cur.size > self._capacity(cur.height) or \
                    (not cur.is_leaf() and len(cur.children) > MAX_CHILDREN):
                left, right = self._split(cur)
                events.append((left.parent, left, right, left.height))
            cur = parent
        return {"splits": events, "rebuilt": False}

    def delete(self, value) -> dict:
        leaf = self.leaf_for(value)
        i = bisect.bisect_left(leaf.values, value)
        if i >= len(leaf.values) or leaf.values[i] != value:
            raise NotFound(value)
        del leaf.values[i]
        leaf.deleted += 1
        self.size -= 1
        self.deleted_total += 1
        node = leaf.parent
        while node is not None:
            node.size -= 1
            node.deleted += 1
            node._refresh_extremes()
            node = node.parent
        if self.deleted_total >= max(1, self.n0 // 2):
            self.rebuild(list(self.iter_values()))
            return {"rebuilt": True}
        return {"rebuilt": False}

    def _capacity(self, height: int) -> int:
        return 2 * (BRANCHING ** height) * self.leaf_param

    def _split(self, node):
        """Split an overfull node; returns (left, right). `node` keeps its
        identity as the left half. The new separator is the live median value
        (leaf) or an existing child separator nearest the weight midpoint."""
        if node.is_leaf():
            mid = len(node.values) // 2
            right = WbLeaf(node.values[mid:])
            node.values = node.values[:mid]
            sep = right.values[0]
            right.next_leaf = node.next_leaf
            if right.next_leaf is not None:
                right.next_leaf.prev_leaf = right
            node.next_leaf = right
            right.prev_leaf = node
            node.deleted = 0
        else:
            nchild = len(node.children)
            weights = [c.size for c in node.children]
            total = sum(weights)
            best_j, best_gap = 2, None
            acc = weights[0]
            for j in range(1, nchild):
                # both halves must keep >= 2 children
                if 2 <= j <= nchild - 2:
                    gap = abs(acc - total / 2)
                    if best_gap is None or gap < best_gap:
                        best_j, best_gap = j, gap
                acc += weights[j]
            j = best_j
            sep = node.seps[j - 1]
            right = WbNode(node.children[j:], node.seps[j:])
            node.children = node.children[:j]
            node.seps = node.seps[:j - 1]
            node.size = sum(c.size for c in node.children)
            node.deleted = 0
            node._refresh_extremes()
        node.exempt_lower = False
        right.exempt_lower = False

        parent = node.parent
        if parent is None:
            parent = WbNode([node, right], [sep])
            self.root = parent
            # a fresh root is exempt from lower bounds by definition
            parent.exempt_lower = True
        else:
            idx = parent.children.index(node)
            parent.children.insert(idx + 1, right)
            parent.seps.insert(idx, sep)
            right.parent = parent
            parent._refresh_extremes()
        for lf in self.leaves_under(parent):
            self._refresh_hra(lf)
        return node, right

    # -- highest range ancestor ----------------------------------------------

    def _refresh_hra(self, leaf: WbLeaf) -> None:
        k1, k2 = [], []
        node = leaf
        while node.parent is not None:
            parent = node.parent
            idx = parent.children.index(node)
            for m in reversed(parent.seps[:idx]):
                k1.append((m, parent))
            for m in parent.seps[idx:]:
                k2.append((m, parent))
            node = parent
        leaf.k1 = k1
        leaf.k2 = k2

    def dyn_hra(self, leaf: WbLeaf, a, b) -> Optional[WbNode]:
        """Highest ancestor u with a < m_i(u) <= b for some i >= 2, or None.

        Requires a nonempty S(leaf) intersection with [a, b]. K1 is non-increasing bottom-up and
        all its values are <= b (Fact 4), so the deepest prefix of entries > a
        ends at the highest node with a qualifying left value; symmetrically
        for K2 (values > a, non-decreasing, search <= b).
        """
        k1, k2 = leaf.k1, leaf.k2
        u1 = u2 = None
        lo, hi = 0, len(k1)
        while lo < hi:
            mid = (lo + hi) // 2
            if k1[mid][0] > a:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0:
            u1 = k1[lo - 1][1]
        lo, hi = 0, len(k2)
        while lo < hi:
            mid = (lo + hi) // 2
            if k2[mid][0] <= b:
                lo = mid + 1
            else:
                hi = mid
        if lo > 0:
            u2 = k2[lo - 1][1]
        if u1 is None:
            return u2
        if u2 is None:
            return u1
        return u1 if u1.height >= u2.height else u2

    @staticmethod
    def child_subranges(u: WbNode, a, b) -> list:
        """Partition [a, b] across u's children: [(child_index, a_i, b_i)]."""
        f = u.route(a)
        g = u.route(b)
        out = []
        for i in range(f, g + 1):
            ai = a if i == f else u.seps[i - 1]
            bi = b if i == g else u.seps[i] - 1
            out.append((i, ai, bi))
        return out

    # -- invariant checks (tests) ---------------------------------------------

    def check_weight_bounds(self) -> None:
        for node in self.iter_nodes():
            cap = self._capacity(node.height)
            assert node.size <= cap, f"overfull node at height {node.height}"
            if node is self.root:
                if not node.is_leaf():
                    assert 2 <= len(node.children) <= MAX_CHILDREN
                continue
            if not node.is_leaf():
                assert 2 <= len(node.children) <= MAX_CHILDREN
            if not node.exempt_lower:
                gross = node.size + node.deleted
                assert gross >= cap // 4, \
                    f"underfull node at height {node.height}: {gross} < {cap // 4}"

    def check_k_monotone(self) -> None:
        leaf = self.first_leaf
        while leaf is not None:
            v1 = [m for m, _ in leaf.k1]
            v2 = [m for m, _ in leaf.k2]
            assert all(x >= y for x, y in zip(v1, v1[1:])), "K1 not non-increasing"
            assert all(x <= y for x, y in zip(v2, v2[1:])), "K2 not non-decreasing"
            leaf = leaf.next_leaf
