"""Sorted one-dimensional locator used by `StripeIndex`.

Given integer keys, find one element of [a, b] (one-reporting), or a
successor/predecessor. SortedArrayLocator provides it with a sorted list and
bisect, and takes inserts and deletes.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from .core import DuplicateX, NotFound


class SortedArrayLocator:
    def __init__(self, keys: Iterable[int] = ()):
        self.keys = sorted(keys)

    def __len__(self):
        return len(self.keys)

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.keys, x)
        return i < len(self.keys) and self.keys[i] == x

    def insert(self, x: int) -> None:
        i = bisect.bisect_left(self.keys, x)
        if i < len(self.keys) and self.keys[i] == x:
            raise DuplicateX(x)
        self.keys.insert(i, x)

    def delete(self, x: int) -> None:
        i = bisect.bisect_left(self.keys, x)
        if i >= len(self.keys) or self.keys[i] != x:
            raise NotFound(x)
        del self.keys[i]

    def succ(self, x: int) -> Optional[int]:
        i = bisect.bisect_left(self.keys, x)
        return self.keys[i] if i < len(self.keys) else None

    def pred(self, x: int) -> Optional[int]:
        i = bisect.bisect_right(self.keys, x)
        return self.keys[i - 1] if i > 0 else None

    def any_in(self, a: int, b: int) -> Optional[int]:
        s = self.succ(a)
        return s if s is not None and s <= b else None

    def iter_range(self, a: int, b: int):
        lo = bisect.bisect_left(self.keys, a)
        hi = bisect.bisect_right(self.keys, b)
        return iter(self.keys[lo:hi])
