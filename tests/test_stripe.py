import random

import numpy as np
import pytest

from colorrange.core import DuplicateX, InvalidCoordinate, NotFound
from colorrange.stripe import (StripeIndex, _Group, query_thresholds,
                               update_thresholds)


def brute(points, a, b, c):
    return sorted((x, y) for x, y in points.items() if a <= x <= b and y >= c)


def test_update_thresholds_examples():
    # tau=4, three digits (H=16)
    assert sorted(update_thresholds(6, 4, 3)) == [4, 5, 6]
    assert sorted(update_thresholds(1, 4, 3)) == [1]
    assert sorted(update_thresholds(16, 4, 3)) == [16]


def test_update_thresholds_always_contains_h():
    for tau in (2, 3, 4, 5):
        for h in range(1, tau ** 3 + 1):
            assert h in update_thresholds(h, tau, 4)


def test_query_thresholds_examples():
    # Formula f_v = sum_{s>v} a_s tau^s + (a_v+1) tau^v, dropping values > H.
    # (The f=16 probe for c=6 is required: a point with y=16 registers only
    # at threshold 16, and it qualifies for any c <= 16.)
    assert sorted(query_thresholds(6, 4, 3, 16)) == [6, 8, 16]
    assert sorted(query_thresholds(1, 4, 3, 16)) == [1, 4, 16]
    assert sorted(query_thresholds(16, 4, 3, 16)) == [16]


def test_insert_examples():
    s = StripeIndex(max_y=16)
    s.insert(10, 6)
    g = s.groups[0]
    for t in (4, 5, 6):
        assert g.gmin[t] == 10 and g.gmax[t] == 10
    s.delete(10)
    assert not s.groups


def test_query_example():
    s = StripeIndex(max_y=8)
    for x, y in [(10, 6), (11, 2), (40, 6)]:
        s.insert(x, y)
    pts, over = s.query(5, 45, 3)
    assert sorted(pts) == [(10, 6), (40, 6)]
    assert not over
    pts, _ = s.query(5, 45, 1)
    assert sorted(pts) == [(10, 6), (11, 2), (40, 6)]
    assert s.query(12, 39, 1)[0] == []


def test_duplicate_and_missing():
    s = StripeIndex(max_y=4)
    s.insert(3, 2)
    with pytest.raises(DuplicateX):
        s.insert(3, 1)
    with pytest.raises(NotFound):
        s.delete(99)


def test_exactness_randomized_with_boundary_ranges():
    rng = random.Random(71)
    checked = 0
    for trial in range(30):
        max_y = rng.choice([3, 7, 11, 16])
        s = StripeIndex(max_y=max_y, group_cap=rng.choice([4, 6, 10]))
        live = {}
        universe = 3000
        for _ in range(rng.randrange(50, 500)):
            op = rng.random()
            if op < 0.62 or not live:
                x = rng.randrange(1, universe)
                if x not in live:
                    y = rng.randrange(1, max_y + 1)
                    live[x] = y
                    s.insert(x, y)
            else:
                x = rng.choice(list(live))
                del live[x]
                s.delete(x)
        starts = [g.xs[0] for g in s.groups]
        ends = [g.xs[-1] for g in s.groups]
        for _ in range(400):
            c = rng.randrange(1, max_y + 1)
            mode = rng.random()
            if mode < 0.5 and starts:
                # adversarial: ranges aligned with group boundaries
                a = rng.choice(starts + ends) + rng.randrange(-1, 2)
                b = a + rng.randrange(0, universe // 2)
            else:
                a = rng.randrange(1, universe)
                b = rng.randrange(a, universe)
            if a > b:
                a, b = b, a
            a = max(1, a)
            pts, over = s.query(a, b, c)
            assert not over
            assert sorted(pts) == brute(live, a, b, c)
            checked += 1
    assert checked >= 10_000


def test_fact_sel_exactness():
    rng = random.Random(73)
    for _ in range(60):
        max_y = rng.choice([5, 9, 16])
        s = StripeIndex(max_y=max_y, group_cap=5)
        live = {}
        for _ in range(rng.randrange(20, 250)):
            if rng.random() < 0.7 or not live:
                x = rng.randrange(1, 2000)
                if x not in live:
                    y = rng.randrange(1, max_y + 1)
                    live[x] = y
                    s.insert(x, y)
            else:
                x = rng.choice(list(live))
                del live[x]
                s.delete(x)
        for gi in range(len(s.groups)):
            for c in range(1, max_y + 1):
                assert s.recovered_hminmax(gi, c) == s.brute_hminmax(gi, c)


def test_cap_overflow():
    s = StripeIndex(max_y=4, group_cap=4)
    for x in range(1, 41):
        s.insert(x, 1 + (x % 4))
    pts, over = s.query(1, 40, 1, cap=5)
    assert over and len(pts) == 5
    pts, over = s.query(1, 40, 1, cap=1000)
    assert not over and len(pts) == 40


def _random_points(rng, n, universe, max_y):
    return {x: rng.randrange(1, max_y + 1)
            for x in rng.sample(range(1, universe), n)}


def test_group_lists_and_firsts_stay_in_step():
    """After inserts and deletes (with splits and merges) every group's
    gmin/gmax tables equal a rebuild, the stripe's first-x list and length
    match a recomputation, and capped queries agree with brute force."""
    rng = random.Random(97)
    splits = merges = 0
    for _ in range(12):
        max_y = rng.choice([3, 7, 16])
        group_cap = rng.choice([4, 5, 8])
        s = StripeIndex(max_y=max_y, group_cap=group_cap)
        live = _random_points(rng, rng.randrange(0, 120), 1500, max_y)
        for x, y in live.items():
            s.insert(x, y)
        for step in range(300):
            ngroups = len(s.groups)
            if rng.random() < 0.5 or not live:
                x = rng.randrange(1, 1500)
                if x in live:
                    continue
                live[x] = rng.randrange(1, max_y + 1)
                s.insert(x, live[x])
                splits += len(s.groups) > ngroups
            else:
                x = rng.choice(list(live))
                del live[x]
                s.delete(x)
                merges += len(s.groups) < ngroups
            for g in s.groups:
                fresh = _Group()
                fresh.xs, fresh.ymap = list(g.xs), dict(g.ymap)
                fresh.rebuild(s.decomp)
                assert (g.gmin, g.gmax) == (fresh.gmin, fresh.gmax), step
            assert len(s) == len(live), step
            assert s.firsts == [g.xs[0] for g in s.groups], step
            a = rng.randrange(1, 1500)
            b = rng.randrange(a, 1500)
            c = rng.randrange(1, max_y + 1)
            want = brute(live, a, b, c)
            pts, over = s.query(a, b, c)
            assert pts == want and not over  # in x order
            cap = rng.randrange(1, 10)
            pts, over = s.query(a, b, c, cap=cap)
            assert over == (len(want) >= cap)
            assert pts == want[:cap]
    assert splits >= 10 and merges >= 10


@pytest.mark.parametrize("x,y,error", [
    (1.5, 2, InvalidCoordinate),
    (True, 2, InvalidCoordinate),
    (0, 2, InvalidCoordinate),
    (2**70, 2, InvalidCoordinate),
    (5, 2.5, ValueError),
    (5, True, ValueError),
    (5, 0, ValueError),
    (5, 5, ValueError),  # max_y + 1
    (10, 2, DuplicateX),
])
def test_failed_insert_leaves_stripe_unchanged(x, y, error):
    s = StripeIndex(max_y=4, group_cap=4)
    for px, py in [(10, 3), (20, 1), (30, 4)]:
        s.insert(px, py)

    def state():
        return len(s), s.firsts[:], [(g.xs[:], dict(g.ymap), dict(g.gmin),
                                      dict(g.gmax)) for g in s.groups]

    before = state()
    with pytest.raises(error):
        s.insert(x, y)
    assert state() == before
    s.insert(5, np.int64(2))  # the stripe still takes a good point
    s.delete(5)
    assert state() == before


@pytest.mark.parametrize("max_y,group_cap", [
    (0, None), (True, None), (4.5, None), ("a", None), (None, None),
    (4, 0), (4, True), (4, 2.0), (4, "2"),
])
def test_bad_sizes_raise_value_error(max_y, group_cap):
    # both sizes are integers >= 1: a group_cap of 0 left an empty group
    # and a stale first x behind, and a max_y of 4.5 or True was taken
    with pytest.raises(ValueError):
        StripeIndex(max_y=max_y, group_cap=group_cap)
    s = StripeIndex(max_y=np.int64(1), group_cap=np.int64(1))
    for x in (9, 1, 5, 3, 7):
        s.insert(x, 1)
    assert all(g.xs for g in s.groups) and len(s.groups) > 1
    assert s.firsts == [g.xs[0] for g in s.groups]
