import random

import pytest

from colorrange.core import (CostMeter, DuplicateX, NotFound, Range,
                             compute_prev, oracle_report)
from colorrange.pst import ColorPst
from conftest import random_instance


def brute_colors(rows, a, b):
    """Colors of the rows in [a, b] whose prev is < a, in value order."""
    return [c for v, (p, c) in sorted(rows.items()) if a <= v <= b and p < a]


def e1_store(pts, prevs):
    return ColorPst((p.value, pv, p.color) for p, pv in zip(pts, prevs))


def test_build_trivial():
    empty = ColorPst()
    assert len(empty) == 0 and empty.query(1, 10) == []
    empty.check_invariants()
    one = ColorPst([(5, 0, 3)])
    assert (one.vals, one.prevs, one.cols) == ([5], [0], [3])
    with pytest.raises(DuplicateX):
        ColorPst([(5, 0, 1), (5, 3, 1)])


def test_e1_reduction_query(e1_with_prev):
    pts, prevs = e1_with_prev
    cp = e1_store(pts, prevs)
    cp.check_invariants()
    # rows of [4, 13] with prev < 4: values 5, 7 and 9
    assert cp.query(4, 13) == [cp.cols[cp.vals.index(v)] for v in (5, 7, 9)]
    # point query and an empty range
    assert cp.query(9, 9) == [cp.cols[cp.vals.index(9)]]
    assert cp.query(8, 8) == []


def test_query_matches_filter_oracle_randomized():
    rng = random.Random(99)
    pairs = 0
    for _ in range(120):
        n = rng.randrange(0, 120)
        xs = rng.sample(range(1, 500), n)
        rows = {x: (rng.randrange(0, x), rng.randrange(0, 9)) for x in xs}
        cp = ColorPst((v, p, c) for v, (p, c) in rows.items())
        cp.check_invariants()
        for _ in range(90):
            a = rng.randrange(1, 520)
            b = rng.randrange(a, 520)
            assert cp.query(a, b) == brute_colors(rows, a, b)
            pairs += 1
    assert pairs >= 10_000


def test_updates_keep_invariants_and_answers():
    rng = random.Random(5)
    rows = {}
    cp = ColorPst()
    for step in range(3000):
        op = rng.random()
        if op < 0.45 or not rows:
            x = rng.randrange(1, 800)
            if x not in rows:
                rows[x] = (rng.randrange(0, x), rng.randrange(0, 9))
                cp.insert(x, *rows[x])
        elif op < 0.65:
            x = rng.choice(list(rows))
            del rows[x]
            cp.delete(x)
        elif op < 0.8:
            x = rng.choice(list(rows))
            rows[x] = (rng.randrange(0, x), rows[x][1])
            cp.update_prev(x, rows[x][0])
        else:
            a = rng.randrange(1, 820)
            b = rng.randrange(a, 820)
            assert cp.query(a, b) == brute_colors(rows, a, b)
        if step % 200 == 0:
            cp.check_invariants()
    cp.check_invariants()
    assert list(zip(cp.vals, cp.prevs, cp.cols)) == \
        [(v, p, c) for v, (p, c) in sorted(rows.items())]


def test_insert_delete_inverse(e1_with_prev):
    pts, prevs = e1_with_prev
    cp = e1_store(pts, prevs)
    ranges = [(1, 20), (4, 13), (6, 6)]
    before = [cp.query(a, b) for a, b in ranges]
    rows = (list(cp.vals), list(cp.prevs), list(cp.cols))
    cp.insert(6, 0, 99)
    assert 99 in cp.query(4, 13)
    cp.delete(6)
    assert [cp.query(a, b) for a, b in ranges] == before
    assert (cp.vals, cp.prevs, cp.cols) == rows


def test_duplicate_and_missing_errors():
    cp = ColorPst([(1, 0, 0)])
    with pytest.raises(DuplicateX):
        cp.insert(1, 0, 5)
    with pytest.raises(NotFound):
        cp.delete(9)
    with pytest.raises(NotFound):
        cp.update_prev(9, 1)
    assert (cp.vals, cp.prevs, cp.cols) == ([1], [0], [0])


def test_check_invariants_catches_bad_rows():
    cp = ColorPst([(1, 0, 0), (4, 1, 0)])
    cp.prevs[1] = 4  # a prev not below its value
    with pytest.raises(AssertionError):
        cp.check_invariants()
    cp = ColorPst([(1, 0, 0), (4, 1, 0)])
    cp.vals[1] = 1  # values no longer strictly increasing
    with pytest.raises(AssertionError):
        cp.check_invariants()


def test_check_invariants_catches_bad_tags():
    cp = ColorPst([(1, 0, 0), (4, 1, 0)])
    cp.hmins[1], cp.hmaxs[0] = 2, 5
    cp.check_invariants()
    cp.hmins[1] = -2  # below -1, the no-tag value
    with pytest.raises(AssertionError, match="tag outside"):
        cp.check_invariants()
    cp = ColorPst([(1, 0, 0), (4, 1, 0)])
    cp.hmaxs.pop()  # a tag column shorter than the values
    with pytest.raises(AssertionError, match="differ in length"):
        cp.check_invariants()
    cp = ColorPst([(1, 0, 0), (4, 1, 0)])
    cp.hmins = [0, 128]  # a column that no array("b") could hold
    with pytest.raises(AssertionError, match="tag outside"):
        cp.check_invariants()


def test_tags_travel_with_their_rows():
    cp = ColorPst([(2, 0, 0), (6, 2, 0)])
    cp.insert(4, 0, 1, hmin=3, hmax=1)
    cp.set_hmax(2, 2)
    cp.update_prev(6, 0, hmin=1)
    assert (list(cp.hmins), list(cp.hmaxs)) == ([-1, 3, 1], [2, 1, -1])
    right = cp.split_off(1)
    assert (cp.vals, list(cp.hmins), list(cp.hmaxs)) == ([2], [-1], [2])
    assert (right.vals, right.prevs, right.cols) == ([4, 6], [0, 0], [1, 0])
    assert (list(right.hmins), list(right.hmaxs)) == ([3, 1], [1, -1])
    assert right.delete(4) == 1 and list(right.hmins) == [1]
    cp.check_invariants()
    right.check_invariants()


def test_query_meter_contract():
    rng = random.Random(17)
    xs = rng.sample(range(1, 60_000), 4096)
    rows = {x: (rng.randrange(0, x), rng.randrange(0, 300)) for x in xs}
    cp = ColorPst((v, p, c) for v, (p, c) in rows.items())
    meter = CostMeter()
    for _ in range(300):
        a = rng.randrange(1, 60_000)
        b = rng.randrange(a, 60_000)
        meter.reset()
        out = cp.query(a, b, meter=meter)
        in_range = sum(1 for x in xs if a <= x <= b)
        # one touch per reported color; the bisection and the rows the prev
        # filter drops are locate navigation
        assert meter.touches == len(out)
        assert meter.locate_ops == 1 + in_range - len(out)


def test_color_query_slow(e1_with_prev):
    pts, prevs = e1_with_prev
    cp = e1_store(pts, prevs)
    assert sorted(cp.query(4, 13)) == [0, 1, 2]
    assert cp.query(12, 12) == [0]
    assert cp.query(8, 8) == []


def test_color_query_slow_reports_each_color_once():
    rng = random.Random(31)
    for _ in range(60):
        pts = random_instance(rng, rng.randrange(1, 150), 600, 7)
        prevs = compute_prev(pts)
        cp = e1_store(pts, prevs)
        for _ in range(40):
            a = rng.randrange(1, 620)
            b = rng.randrange(a, 620)
            got = cp.query(a, b)
            want = oracle_report(pts, Range(a, b))
            assert len(got) == len(want)  # no duplicates, no misses
            assert set(got) == want
