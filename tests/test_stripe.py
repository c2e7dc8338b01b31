import random

import pytest

from colorrange.core import DuplicateX, NotFound
from colorrange.stripe import StripeIndex, query_thresholds, update_thresholds


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


def test_group_visits_bounded():
    rng = random.Random(79)
    max_y = 16
    s = StripeIndex(max_y=max_y, group_cap=6)
    for x in rng.sample(range(1, 5000), 600):
        s.insert(x, rng.randrange(1, max_y + 1))
    gplus1 = s.ndigits  # number of probe thresholds is at most the digit count
    for _ in range(500):
        a = rng.randrange(1, 5000)
        b = rng.randrange(a, 5000)
        c = rng.randrange(1, max_y + 1)
        s.query(a, b, c)
        if s.last_group_visits:
            assert max(s.last_group_visits.values()) <= gplus1


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


def test_load_answers_like_inserts():
    rng = random.Random(83)
    for _ in range(25):
        max_y = rng.choice([3, 7, 16])
        group_cap = rng.choice([4, 5, 9])
        live = _random_points(rng, rng.randrange(0, 300), 3000, max_y)
        loaded = StripeIndex(max_y=max_y, group_cap=group_cap)
        loaded.load(sorted(live.items()))
        inserted = StripeIndex(max_y=max_y, group_cap=group_cap)
        for x, y in live.items():
            inserted.insert(x, y)
        assert len(loaded) == len(live)
        # every group but a lone one holds at least group_cap // 2 points
        if len(loaded.groups) > 1:
            assert min(len(g.xs) for g in loaded.groups) >= group_cap // 2
        assert max((len(g.xs) for g in loaded.groups), default=0) \
            <= 2 * group_cap
        for _ in range(200):
            a = rng.randrange(1, 3000)
            b = rng.randrange(a, 3000)
            c = rng.randrange(1, max_y + 1)
            want = brute(live, a, b, c)
            assert sorted(loaded.query(a, b, c)[0]) == want
            assert sorted(inserted.query(a, b, c)[0]) == want
            cap = rng.randrange(1, 12)
            pts, over = loaded.query(a, b, c, cap=cap)
            assert over == (len(want) >= cap)
            assert len(pts) == min(cap, len(want))
            assert set(pts) <= set(want)


def test_load_then_updates_keep_selection_fact():
    rng = random.Random(89)
    for _ in range(30):
        max_y = rng.choice([5, 9, 16])
        s = StripeIndex(max_y=max_y, group_cap=5)
        live = _random_points(rng, rng.randrange(1, 200), 2000, max_y)
        s.load(sorted(live.items()))

        def check():
            for gi in range(len(s.groups)):
                for c in range(1, max_y + 1):
                    assert s.recovered_hminmax(gi, c) == s.brute_hminmax(gi, c)

        check()
        for _ in range(rng.randrange(20, 150)):
            if rng.random() < 0.5 or not live:
                x = rng.randrange(1, 2000)
                if x not in live:
                    live[x] = rng.randrange(1, max_y + 1)
                    s.insert(x, live[x])
            else:
                x = rng.choice(list(live))
                del live[x]
                s.delete(x)
        check()
        a, b = 1, 2000
        assert sorted(s.query(a, b, 1)[0]) == brute(live, a, b, 1)


def test_load_rejects_bad_input():
    s = StripeIndex(max_y=4, group_cap=4)
    with pytest.raises(ValueError):
        s.load([(1, 2), (5, 0)])
    with pytest.raises(ValueError):
        s.load([(1, 2), (5, 5)])
    with pytest.raises(DuplicateX):
        s.load([(1, 2), (5, 3), (5, 1)])
    with pytest.raises(ValueError):
        s.load([(5, 2), (1, 3)])
    # a rejected load leaves the stripe empty
    assert len(s) == 0 and not s.groups
    s.load([(1, 2), (5, 3)])
    with pytest.raises(ValueError):
        s.load([(9, 1)])
    assert sorted(s.query(1, 10, 1)[0]) == [(1, 2), (5, 3)]
