"""Threshold tables on a narrow stripe: points (x, y) with 1 <= y <= max_y.

Points are kept in consecutive-by-x groups of Theta(group_cap) members. Each
group lazily maintains threshold tables gmin(i, h) / gmax(i, h): inserting a
point with height h touches only the base-tau decomposition thresholds
h_{r,s} = sum_{j>r} a_j tau^j + s*tau^r, so an update writes O(tau * digits)
entries instead of H. A query for threshold c probes the O(digits) thresholds
f_0 = c, f_v = sum_{s>v} a_s tau^s + (a_v + 1) tau^v; for every group the
exact hmin/hmax over points with y >= c is recoverable from those probes
(selection fact, `recovered_hminmax`). The groups' first x-coordinates sit
in one sorted list, so finding the group of a value is one bisect.

The paper's narrow-stripe three-sided query, which reports from per-threshold
lists over these tables, is not built. `query` is a scan of the groups that
meet [a, b]. The paper's dynamic index answers its queries from two of these
stripes over its height tags; `DynamicIndex` answers them from its
color-extreme lists instead, so this structure stands alone.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from typing import Optional

from .core import (DuplicateX, InvalidRange, NotFound, check_coordinate,
                   check_integer)


def _positive(name: str, n) -> int:
    """`n` as an int >= 1, or ValueError; numpy integers pass, bools and
    other types do not."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 1:
        raise ValueError(f"{name} {n!r} is not an integer >= 1")
    return operator.index(n)


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
    __slots__ = ("xs", "ymap", "gmin", "gmax")

    def __init__(self):
        self.xs: list = []       # sorted x coordinates
        self.ymap: dict = {}     # x -> y
        self.gmin: dict = {}     # threshold -> x
        self.gmax: dict = {}

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


class StripeIndex:
    def __init__(self, max_y: int, group_cap: Optional[int] = None):
        self.max_y = max_y = _positive("max_y", max_y)
        self.group_cap = (max(4, max_y) if group_cap is None
                          else _positive("group_cap", group_cap))
        self.tau = max(2, math.ceil(math.sqrt(max_y)))
        # H = max_y padded up to a power of tau
        self.ndigits = 1
        h = self.tau
        while h < max_y:
            h *= self.tau
            self.ndigits += 1
        self.H = h if max_y > 1 else self.tau
        self.ndigits += 1  # room for the top digit of H itself
        self.groups: list[_Group] = []
        self.firsts: list = []  # groups[i].xs[0], for bisect
        self.size = 0
        self._decomp_cache: dict = {}

    # -- helpers -----------------------------------------------------------

    def decomp(self, y: int) -> tuple:
        d = self._decomp_cache.get(y)
        if d is None:
            d = tuple(update_thresholds(y, self.tau, self.ndigits))
            self._decomp_cache[y] = d
        return d

    def _group_index_for(self, x: int) -> int:
        return max(0, bisect_right(self.firsts, x) - 1)

    def __len__(self):
        return self.size

    # -- updates -----------------------------------------------------------

    def insert(self, x: int, y: int) -> None:
        """Add (x, y); a rejected point leaves the stripe unchanged."""
        x = check_coordinate(x)
        if isinstance(y, bool) or not hasattr(type(y), "__index__") \
                or not 1 <= y <= self.max_y:
            raise ValueError(f"y {y!r} is not an integer in [1, {self.max_y}]")
        y = operator.index(y)
        if not self.groups:
            self.groups.append(_Group())
            self.firsts.append(x)
        gi = self._group_index_for(x)
        g = self.groups[gi]
        i = bisect_left(g.xs, x)
        if i < len(g.xs) and g.xs[i] == x:
            raise DuplicateX(x)
        g.xs.insert(i, x)
        self.firsts[gi] = g.xs[0]
        g.ymap[x] = y
        self.size += 1
        for t in self.decomp(y):
            cur = g.gmin.get(t)
            if cur is None or x < cur:
                g.gmin[t] = x
            cur = g.gmax.get(t)
            if cur is None or x > cur:
                g.gmax[t] = x
        if len(g.xs) > 2 * self.group_cap:
            self._split(gi)

    def delete(self, x: int) -> None:
        x = check_integer(x)
        gi = self._group_index_for(x)
        if not self.groups or x not in self.groups[gi].ymap:
            raise NotFound(x)
        g = self.groups[gi]
        y = g.ymap.pop(x)
        del g.xs[bisect_left(g.xs, x)]
        self.size -= 1
        for t in self.decomp(y):
            if g.gmin[t] == x or g.gmax[t] == x:
                holders = [qx for qx in g.xs if t in self.decomp(g.ymap[qx])]
                if holders:
                    g.gmin[t], g.gmax[t] = holders[0], holders[-1]
                else:
                    del g.gmin[t], g.gmax[t]
        if not g.xs:
            del self.groups[gi]
            del self.firsts[gi]
            return
        self.firsts[gi] = g.xs[0]
        if len(g.xs) < max(1, self.group_cap // 2) and len(self.groups) > 1:
            self._merge(gi)

    def _split(self, gi: int) -> None:
        g = self.groups[gi]
        mid = len(g.xs) // 2
        right = _Group()
        right.xs = g.xs[mid:]
        g.xs = g.xs[:mid]
        right.ymap = {x: g.ymap.pop(x) for x in right.xs}
        g.rebuild(self.decomp)
        right.rebuild(self.decomp)
        self.groups.insert(gi + 1, right)
        self.firsts.insert(gi + 1, right.xs[0])

    def _merge(self, gi: int) -> None:
        other = gi + 1 if gi + 1 < len(self.groups) else gi - 1
        lo, hi = min(gi, other), max(gi, other)
        a, b = self.groups[lo], self.groups[hi]
        a.xs = a.xs + b.xs
        a.ymap.update(b.ymap)
        a.rebuild(self.decomp)
        del self.groups[hi]
        del self.firsts[hi]
        if len(a.xs) > 2 * self.group_cap:
            self._split(lo)

    # -- queries -----------------------------------------------------------

    def query(self, a: int, b: int, c: int, meter=None,
              cap: Optional[int] = None) -> tuple[list, bool]:
        """Points with a <= x <= b and y >= c in x order, plus an overflow
        flag: with `cap`, returns (the first cap points, True) as soon as
        cap points are found.

        Metering: every reported point is a touch; the group locate and
        every scanned point that y < c drops count as locate navigation.
        """
        a, b, c = check_integer(a), check_integer(b), check_integer(c)
        if a > b:
            raise InvalidRange(f"[{a}, {b}]")
        if c > self.max_y or not self.groups:
            return [], False
        lo, hi = self._group_index_for(a), self._group_index_for(b)
        rows = ((x, g.ymap[x]) for g in self.groups[lo:hi + 1]
                for x in g.xs[bisect_left(g.xs, a):bisect_right(g.xs, b)])
        out: list = []
        scanned = 0
        for x, y in rows:
            scanned += 1
            if y >= c:
                out.append((x, y))
                if len(out) == cap:
                    break
        if meter is not None:
            meter.locate_ops += 1 + scanned - len(out)
            meter.touches += len(out)
        return out, len(out) == cap

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
