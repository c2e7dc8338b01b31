"""Dynamic three-sided reporting on a narrow stripe: [a, b] x [c, H], y <= H.

Points are kept in consecutive-by-x groups of Theta(group_cap) members. Each
group lazily maintains threshold tables gmin(i, h) / gmax(i, h): inserting a
point with height h touches only the base-tau decomposition thresholds
h_{r,s} = sum_{j>r} a_j tau^j + s*tau^r, so an update writes O(tau * digits)
entries instead of H. A query for threshold c probes the O(digits) thresholds
f_0 = c, f_v = sum_{s>v} a_s tau^s + (a_v + 1) tau^v; for every group the
exact hmin/hmax over points with y >= c is recoverable from those probes
(selection fact), so no qualifying group is missed.

Per-threshold structures R_h hold the multiset of table values for
one-dimensional reporting, and Rbar holds all x-coordinates for one-reporting.
The groups' first x-coordinates sit in one sorted list, so finding the group
of a value is one bisect.

Each group also keeps its points as (-y, x) pairs sorted ascending: the
points with y >= c are a prefix, found by one bisect. A group that lies
inside [a, b] reports that prefix as it is; only the at most two boundary
groups filter it by x, scanning at most 2 * group_cap points each.

An empty stripe bulk-loads from points sorted by x: groups of group_cap points
(a short last chunk joins the group before) get their tables built and
registered once, and Rbar one pass, with no per-point insert or rebalance.

The paper's dynamic index answers its queries from two of these stripes over
its height tags. `DynamicIndex` answers them from its color-extreme lists
instead, so this structure stands alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Optional

from .backends import SortedArrayLocator
from .core import DuplicateX, NotFound


def _digits(h: int, tau: int, ndigits: int) -> list:
    out = []
    for _ in range(ndigits):
        out.append(h % tau)
        h //= tau
    return out  # least significant first


def update_thresholds(h: int, tau: int, ndigits: int) -> list:
    """All h_{r,s} for r = top..0, s = 1..a_r. Always contains h itself."""
    a = _digits(h, tau, ndigits)
    out = []
    upper = 0
    for r in range(ndigits - 1, -1, -1):
        base = upper
        step = tau ** r
        for s in range(1, a[r] + 1):
            out.append(base + s * step)
        upper = base + a[r] * step
    return out


def query_thresholds(c: int, tau: int, ndigits: int, cap_h: int) -> list:
    """f_0 = c plus one bumped threshold per digit position, capped at H."""
    a = _digits(c, tau, ndigits)
    out = [c]
    for v in range(1, ndigits):
        upper = 0
        for s in range(v + 1, ndigits):
            upper += a[s] * tau ** s
        f = upper + (a[v] + 1) * tau ** v
        if f <= cap_h:
            out.append(f)
    return out


class _Group:
    __slots__ = ("xs", "ymap", "gmin", "gmax", "byy")

    def __init__(self):
        self.xs: list = []       # sorted x coordinates
        self.ymap: dict = {}     # x -> y
        self.gmin: dict = {}     # threshold -> x
        self.gmax: dict = {}
        self.byy: list = []      # (-y, x) sorted: y >= c is a prefix

    def rebuild(self, decomp) -> None:
        self.gmin.clear()
        self.gmax.clear()
        for x in self.xs:
            for t in decomp(self.ymap[x]):
                g = self.gmin.get(t)
                if g is None or x < g:
                    self.gmin[t] = x
                g = self.gmax.get(t)
                if g is None or x > g:
                    self.gmax[t] = x
        self.byy = sorted((-self.ymap[x], x) for x in self.xs)

    def table_entries(self) -> list:
        """(threshold, value) pairs currently registered, min and max."""
        out = [(t, v) for t, v in self.gmin.items()]
        out += [(t, v) for t, v in self.gmax.items()]
        return out


class StripeIndex:
    def __init__(self, max_y: int, group_cap: Optional[int] = None):
        if max_y < 1:
            raise ValueError("max_y must be >= 1")
        self.max_y = max_y
        self.tau = max(2, math.ceil(math.sqrt(max_y)))
        # H = max_y padded up to a power of tau
        self.ndigits = 1
        h = self.tau
        while h < max_y:
            h *= self.tau
            self.ndigits += 1
        self.H = h if max_y > 1 else self.tau
        self.ndigits += 1  # room for the top digit of H itself
        self.group_cap = group_cap if group_cap is not None else max(4, max_y)
        self.groups: list[_Group] = []
        self.firsts: list = []  # groups[i].xs[0], for bisect
        self.rh: dict = {}  # threshold -> sorted value list (multiset)
        self.rbar = SortedArrayLocator()
        self._decomp_cache: dict = {}
        self.last_group_visits: dict = {}

    # -- helpers -----------------------------------------------------------

    def decomp(self, y: int) -> tuple:
        d = self._decomp_cache.get(y)
        if d is None:
            d = tuple(update_thresholds(y, self.tau, self.ndigits))
            self._decomp_cache[y] = d
        return d

    def _rh_add(self, t: int, v: int) -> None:
        lst = self.rh.get(t)
        if lst is None:
            lst = self.rh[t] = []
        insort(lst, v)

    def _rh_remove(self, t: int, v: int) -> None:
        lst = self.rh[t]
        i = bisect_left(lst, v)
        del lst[i]

    def _register(self, g: _Group) -> None:
        for t, v in g.table_entries():
            self._rh_add(t, v)

    def _unregister(self, g: _Group) -> None:
        for t, v in g.table_entries():
            self._rh_remove(t, v)

    def _group_index_for(self, x: int) -> int:
        return max(0, bisect_right(self.firsts, x) - 1)

    def __len__(self):
        return len(self.rbar)

    # -- updates -----------------------------------------------------------

    def _check_y(self, y: int) -> None:
        if not 1 <= y <= self.max_y:
            raise ValueError(f"y {y} outside [1, {self.max_y}]")

    def load(self, pairs: list) -> None:
        """Fill an empty stripe from (x, y) pairs sorted by x."""
        if self.groups:
            raise ValueError("load needs an empty stripe")
        for (x, _), (nx, _) in zip(pairs, pairs[1:]):
            if nx <= x:
                raise DuplicateX(x) if nx == x else ValueError("x not sorted")
        for _, y in pairs:
            self._check_y(y)
        cap = self.group_cap
        cuts = list(range(0, len(pairs), cap))
        if len(cuts) > 1 and len(pairs) - cuts[-1] < cap // 2:
            cuts.pop()
        for lo, hi in zip(cuts, cuts[1:] + [len(pairs)]):
            g = _Group()
            g.xs = [x for x, _ in pairs[lo:hi]]
            g.ymap = dict(pairs[lo:hi])
            g.rebuild(self.decomp)
            self._register(g)
            self.groups.append(g)
        self.firsts = [g.xs[0] for g in self.groups]
        self.rbar = SortedArrayLocator(x for x, _ in pairs)

    def insert(self, x: int, y: int) -> None:
        self._check_y(y)
        self.rbar.insert(x)  # raises DuplicateX on repeats
        if not self.groups:
            g = _Group()
            g.xs = [x]
            g.ymap = {x: y}
            g.rebuild(self.decomp)
            self._register(g)
            self.groups.append(g)
            self.firsts.append(x)
            return
        gi = self._group_index_for(x)
        g = self.groups[gi]
        insort(g.xs, x)
        self.firsts[gi] = g.xs[0]
        g.ymap[x] = y
        insort(g.byy, (-y, x))
        for t in self.decomp(y):
            cur = g.gmin.get(t)
            if cur is None or x < cur:
                if cur is not None:
                    self._rh_remove(t, cur)
                g.gmin[t] = x
                self._rh_add(t, x)
            cur = g.gmax.get(t)
            if cur is None or x > cur:
                if cur is not None:
                    self._rh_remove(t, cur)
                g.gmax[t] = x
                self._rh_add(t, x)
        if len(g.xs) > 2 * self.group_cap:
            self._split(gi)

    def delete(self, x: int) -> None:
        self.rbar.delete(x)  # raises NotFound
        gi = self._group_index_for(x)
        g = self.groups[gi]
        y = g.ymap.pop(x)
        del g.xs[bisect_left(g.xs, x)]
        del g.byy[bisect_left(g.byy, (-y, x))]
        for t in self.decomp(y):
            if g.gmin.get(t) == x:
                self._rh_remove(t, x)
                new = None
                for qx in g.xs:
                    if t in self.decomp(g.ymap[qx]):
                        new = qx if new is None else min(new, qx)
                if new is None:
                    del g.gmin[t]
                else:
                    g.gmin[t] = new
                    self._rh_add(t, new)
            if g.gmax.get(t) == x:
                self._rh_remove(t, x)
                new = None
                for qx in g.xs:
                    if t in self.decomp(g.ymap[qx]):
                        new = qx if new is None else max(new, qx)
                if new is None:
                    del g.gmax[t]
                else:
                    g.gmax[t] = new
                    self._rh_add(t, new)
        if not g.xs:
            self._unregister(g)
            del self.groups[gi]
            del self.firsts[gi]
            return
        self.firsts[gi] = g.xs[0]
        if len(g.xs) < max(1, self.group_cap // 2) and len(self.groups) > 1:
            self._merge(gi)

    def _split(self, gi: int) -> None:
        g = self.groups[gi]
        self._unregister(g)
        mid = len(g.xs) // 2
        right = _Group()
        right.xs = g.xs[mid:]
        g.xs = g.xs[:mid]
        right.ymap = {x: g.ymap.pop(x) for x in right.xs}
        g.rebuild(self.decomp)
        right.rebuild(self.decomp)
        self._register(g)
        self._register(right)
        self.groups.insert(gi + 1, right)
        self.firsts.insert(gi + 1, right.xs[0])

    def _merge(self, gi: int) -> None:
        other = gi + 1 if gi + 1 < len(self.groups) else gi - 1
        lo, hi = min(gi, other), max(gi, other)
        a, b = self.groups[lo], self.groups[hi]
        self._unregister(a)
        self._unregister(b)
        a.xs = a.xs + b.xs
        a.ymap.update(b.ymap)
        a.rebuild(self.decomp)
        self._register(a)
        del self.groups[hi]
        del self.firsts[hi]
        if len(a.xs) > 2 * self.group_cap:
            self._split(lo)

    # -- queries -----------------------------------------------------------

    def _group_query(self, g: _Group, a: int, b: int, c: int, meter, out,
                     cap: Optional[int]) -> bool:
        """Append g's points in [a,b] x [c,H] to out; True when cap is hit.

        Metering: every appended point is a touch; the bisection and the
        prefix points the x filter drops count as locate navigation.
        """
        j = bisect_left(g.byy, (1 - c,))  # entries with -y <= -c
        if a <= g.xs[0] and g.xs[-1] <= b:
            hits = g.byy[:j]
        else:
            hits = [p for p in g.byy[:j] if a <= p[1] <= b]
        full = cap is not None and len(out) + len(hits) >= cap
        kept = hits[:cap - len(out)] if full else hits
        if meter is not None:
            meter.locate_ops += 1 + j - len(hits)
            meter.touches += len(kept)
        out += [(x, -ny) for ny, x in kept]
        return full

    def query(self, a: int, b: int, c: int, meter=None,
              cap: Optional[int] = None) -> tuple[list, bool]:
        """Points with a <= x <= b and y >= c, plus an overflow flag.

        With `cap`, returns (partial, True) as soon as cap points are found.
        The visited groups go to last_group_visits only on return.
        """
        visits: dict = {}
        try:
            if a > b or c > self.max_y:
                return [], False
            c = max(1, c)
            if meter is not None:
                meter.locate_ops += 1
            x0 = self.rbar.any_in(a, b)
            if x0 is None:
                return [], False
            lo = self._group_index_for(a)
            if self.groups[lo].xs[-1] < a:
                lo += 1
            hi = self._group_index_for(b)
            out: list = []
            firsts = self.firsts
            if lo == hi:
                visits[lo] = 1
                over = self._group_query(self.groups[lo], a, b, c, meter, out,
                                         cap)
                return out, over
            for f in query_thresholds(c, self.tau, self.ndigits, self.H):
                lst = self.rh.get(f)
                if not lst:
                    continue
                i = bisect_left(lst, a)
                j = bisect_right(lst, b)
                # a table value is some group's x, so its bisect is >= 1
                for gi in {bisect_right(firsts, v) - 1 for v in lst[i:j]}:
                    visits[gi] = visits.get(gi, 0) + 1
            for gi in sorted(visits):
                if self._group_query(self.groups[gi], a, b, c, meter, out, cap):
                    return out, True
            return out, False
        finally:
            self.last_group_visits = visits

    # -- test hooks ----------------------------------------------------------

    def brute_hminmax(self, gi: int, c: int) -> tuple:
        """Exact (hmin, hmax) over y >= c in group gi, by scan."""
        g = self.groups[gi]
        xs = [x for x in g.xs if g.ymap[x] >= c]
        if not xs:
            return None, None
        return min(xs), max(xs)

    def recovered_hminmax(self, gi: int, c: int) -> tuple:
        """(hmin, hmax) recovered from the gmin/gmax probes alone."""
        g = self.groups[gi]
        lo = hi = None
        for f in query_thresholds(c, self.tau, self.ndigits, self.H):
            v = g.gmin.get(f)
            if v is not None and (lo is None or v < lo):
                lo = v
            v = g.gmax.get(f)
            if v is not None and (hi is None or v > hi):
                hi = v
        return lo, hi
