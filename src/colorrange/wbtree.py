"""Weight-balanced B-tree base for the dynamic color index.

Branching parameter 8 (internal nodes keep 2..32 children), leaf parameter
log^2 N fixed at the last global rebuild. A node at height l splits once its
live subtree size exceeds 2 * 8^l * L; deletions are lazy (middle values m_i
are never changed, no downward rebalancing) and the whole tree is rebuilt
after n0/2 deletions, or when the size grows past 2 * n0.

Each node stores its routing separators seps[j] = m of child j+1 (assigned at
split/build time from a then-live minimum, never updated afterwards), plus
exact live submin/submax used by the dynamic index for height tags. An insert
widens them along its path. A delete recomputes a node's bounds from its
children only where the deleted value was the node's min or max: where it was
neither, every higher ancestor's min lies below it and max above it, so the
walk stops changing bounds there (sizes and deletion counts still go up the
whole path). A split leaves its parent's live set, and so its bounds, as they
were.

Per leaf, the highest-range-ancestor structure is one ascending run (Facts
4-5): the left values (m_j(u) for j <= i at an i-node u) top-down, then the
right values bottom-up, as a key list `kkeys` beside a parallel list of the
nodes `knodes`. The ancestors with a value in (a, b] are the entries between
two `bisect` calls, and the highest of them is at one end of that stretch,
the rule the static indexes apply to their K runs.
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
                 "prev_leaf", "next_leaf", "kkeys", "knodes", "dstruct",
                 "extremes")

    def __init__(self, values):
        self.values = values          # sorted live values
        self.parent = None
        self.height = 0
        self.deleted = 0              # lazy deletions since creation
        self.exempt_lower = False     # rightmost-at-level build artifact
        self.prev_leaf = None
        self.next_leaf = None
        self.kkeys = []               # the ancestors' m, ascending
        self.knodes = []              # the node of each entry
        self.dstruct = None           # client payload (the leaf store)
        self.extremes = None          # client payload (color extremes)

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
                 "exempt_lower", "submin", "submax", "extremes")

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
        self.extremes = None          # client payload (color extremes)
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
            leaf.kkeys, leaf.knodes = self._hra_run(leaf)

    # -- navigation ----------------------------------------------------------

    def leaf_for(self, value) -> WbLeaf:
        node = self.root
        while not node.is_leaf():
            node = node.children[node.route(value)]
        return node

    def leaf_near(self, value, leaf) -> WbLeaf:
        """The leaf holding the live `value`, looked for first in `leaf` and
        its two neighbours by their first and last values; one descent only
        when all three miss (an emptied leaf lies between)."""
        for lf in (leaf, leaf.next_leaf, leaf.prev_leaf):
            if lf is not None and lf.values and \
                    lf.values[0] <= value <= lf.values[-1]:
                return lf
        return self.leaf_for(value)

    def succ_slot(self, value) -> tuple:
        """(leaf, i) with leaf.values[i] the smallest live value >= value,
        or (None, 0) when there is none."""
        leaf = self.leaf_for(value)
        i = bisect.bisect_left(leaf.values, value)
        while leaf is not None and i >= len(leaf.values):
            leaf = leaf.next_leaf
            i = 0
        return leaf, i

    def succ(self, value) -> Optional[int]:
        """Smallest live value >= value."""
        leaf, i = self.succ_slot(value)
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
        """The leaves under node, in value order."""
        if node.is_leaf():
            return [node]
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf():
                out.append(n)
            else:
                stack.extend(reversed(n.children))
        return out

    # -- updates -------------------------------------------------------------

    def insert(self, value) -> dict:
        """Insert a value; returns {'splits': [(parent, left, right, height)],
        'rebuilt': bool, 'leaf': the leaf now holding the value} ('leaf' only
        when not rebuilt). Split events are ordered bottom-up."""
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
                if cur is leaf and value >= right.values[0]:
                    leaf = right
            cur = parent
        return {"splits": events, "rebuilt": False, "leaf": leaf}

    def delete(self, value) -> dict:
        """Delete a value; returns {'rebuilt': bool, 'leaf': the leaf that
        held the value}; after a rebuild that leaf is no longer in the
        tree, but its payload still is the one it had."""
        leaf = self.leaf_for(value)
        i = bisect.bisect_left(leaf.values, value)
        if i >= len(leaf.values) or leaf.values[i] != value:
            raise NotFound(value)
        del leaf.values[i]
        leaf.deleted += 1
        self.size -= 1
        self.deleted_total += 1
        node = leaf.parent
        stale = True  # value was the min or max of the node below
        while node is not None:
            node.size -= 1
            node.deleted += 1
            if stale:
                stale = value == node.submin or value == node.submax
                if stale:
                    node._refresh_extremes()
            node = node.parent
        rebuilt = self.deleted_total >= max(1, self.n0 // 2)
        if rebuilt:
            self.rebuild(list(self.iter_values()))
        return {"rebuilt": rebuilt, "leaf": leaf}

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
        for lf in self.leaves_under(parent):
            lf.kkeys, lf.knodes = self._hra_run(lf)
        return node, right

    # -- highest range ancestor ----------------------------------------------

    @staticmethod
    def _hra_run(leaf: WbLeaf) -> tuple:
        """(kkeys, knodes) of the leaf from its ancestors' separators: each
        parent's left ones go before the run so far, its right ones after."""
        keys, nodes, node = [], [], leaf
        while node.parent is not None:
            parent = node.parent
            i, k = parent.children.index(node), len(parent.seps)
            keys = parent.seps[:i] + keys + parent.seps[i:]
            nodes = [parent] * i + nodes + [parent] * (k - i)
            node = parent
        return keys, nodes

    def dyn_hra(self, leaf: WbLeaf, a, b) -> Optional[WbNode]:
        """Highest ancestor u with a < m_i(u) <= b for some i >= 2, or None.

        Requires a nonempty S(leaf) intersection with [a, b]. The entries
        with a < m <= b lie between two bisections of the ascending run;
        heights fall along the left values (top-down) and rise along the
        right ones (bottom-up), so u is the higher of the two ends.
        """
        keys = leaf.kkeys
        i = bisect.bisect_right(keys, a)
        e = bisect.bisect_right(keys, b, i)
        if i == e:
            return None
        u1, u2 = leaf.knodes[i], leaf.knodes[e - 1]
        return u1 if u1.height >= u2.height else u2

    # -- invariant checks (tests) ---------------------------------------------

    def check_weight_bounds(self) -> None:
        """Every node within its weight bounds and fan-out; AssertionError
        otherwise."""
        for node in self.iter_nodes():
            cap = self._capacity(node.height)
            if node.size > cap:
                raise AssertionError(f"overfull node at height {node.height}")
            if not node.is_leaf() and not 2 <= len(node.children) <= MAX_CHILDREN:
                raise AssertionError(f"fan-out {len(node.children)} at height "
                                     f"{node.height}")
            if node is not self.root and not node.exempt_lower:
                gross = node.size + node.deleted
                if gross < cap // 4:
                    raise AssertionError(f"underfull node at height "
                                         f"{node.height}: {gross} < {cap // 4}")

    def check_k_monotone(self) -> None:
        """Every leaf's run never decreases and is the one its ancestors'
        separators give now (a split that left it stale fails);
        AssertionError otherwise."""
        leaf = self.first_leaf
        while leaf is not None:
            keys = leaf.kkeys
            if any(x > y for x, y in zip(keys, keys[1:])):
                raise AssertionError("K run not non-decreasing")
            if (keys, leaf.knodes) != self._hra_run(leaf):
                raise AssertionError("stale K run")
            leaf = leaf.next_leaf

    def check_bounds(self) -> None:
        """Every node's submin/submax is the min/max of the live values under
        it, or None when it holds none; AssertionError otherwise."""
        for node in self.iter_nodes():
            vals = [v for lf in self.leaves_under(node) for v in lf.values]
            want = (min(vals), max(vals)) if vals else (None, None)
            if (node.submin, node.submax) != want:
                raise AssertionError(f"stale bounds at height {node.height}")
