import random

import pytest

from colorrange.backends import SortedArrayLocator
from colorrange.core import DuplicateX, NotFound


@pytest.mark.parametrize("make", [SortedArrayLocator], ids=["sorted"])
def test_basic_protocol(make):
    loc = make([5, 1, 9])
    assert loc.succ(1) == 1
    assert loc.succ(2) == 5
    assert loc.succ(10) is None
    assert loc.pred(9) == 9
    assert loc.pred(8) == 5
    assert loc.pred(0) is None
    assert loc.any_in(2, 4) is None
    assert loc.any_in(2, 5) == 5
    assert list(loc.iter_range(1, 9)) == [1, 5, 9]
    with pytest.raises(DuplicateX):
        loc.insert(5)
    loc.delete(5)
    with pytest.raises(NotFound):
        loc.delete(5)
    assert loc.succ(2) == 9


def test_backends_agree_on_random_ops():
    # the locator against a plain sorted Python list scanned linearly
    rng = random.Random(2024)
    loc = SortedArrayLocator()
    keys: list = []
    for _ in range(4000):
        op = rng.random()
        if op < 0.45 or not keys:
            x = rng.randrange(1, 1 << 18)
            if x not in keys:
                keys.append(x)
                keys.sort()
                loc.insert(x)
        elif op < 0.7:
            x = rng.choice(keys)
            keys.remove(x)
            loc.delete(x)
        else:
            x = rng.randrange(0, 1 << 18)
            assert loc.succ(x) == next((k for k in keys if k >= x), None)
            assert loc.pred(x) == next((k for k in reversed(keys) if k <= x),
                                       None)
            a = rng.randrange(1, 1 << 18)
            b = rng.randrange(a, 1 << 18)
            assert loc.any_in(a, b) == next((k for k in keys if a <= k <= b),
                                            None)
            assert list(loc.iter_range(a, b)) == [k for k in keys
                                                  if a <= k <= b]
    assert len(loc) == len(keys)
    assert all(x in loc for x in keys)
