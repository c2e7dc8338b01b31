import random
from bisect import insort

import pytest

from colorrange.core import (CostMeter, NotFound, Range, compute_prev,
                             oracle_report)
from colorrange.pst import ColorPst
from conftest import random_instance


def brute_colors(rows, a, b):
    """Colors of the rows in [a, b] whose prev is < a, in value order."""
    return [c for v, (p, c) in sorted(rows.items()) if a <= v <= b and p < a]


def store(triples):
    """A store over a fresh list of the sorted values of (value, prev,
    color) rows, the way a leaf lends its values."""
    rows = sorted(triples)
    return ColorPst([v for v, _, _ in rows], [p for _, p, _ in rows],
                    [c for _, _, c in rows])


def e1_store(pts, prevs):
    return store((p.value, pv, p.color) for p, pv in zip(pts, prevs))


def test_build_trivial():
    empty = ColorPst([], [], [])
    assert empty.query(1, 10) == []
    empty.check_invariants()
    vals = [5]
    one = ColorPst(vals, [0], [3])
    assert (one.vals, one.prevs, one.cols) == ([5], [0], [3])
    assert one.vals is vals  # borrowed, not copied
    assert (list(one.hmins), list(one.hmaxs)) == ([-1], [-1])


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
        cp = store((v, p, c) for v, (p, c) in rows.items())
        cp.check_invariants()
        for _ in range(90):
            a = rng.randrange(1, 520)
            b = rng.randrange(a, 520)
            assert cp.query(a, b) == brute_colors(rows, a, b)
            pairs += 1
    assert pairs >= 10_000


def test_updates_keep_invariants_and_answers():
    rng = random.Random(5)
    # the owner changes the values first, the store then follows the row
    rows, vals = {}, []
    cp = ColorPst(vals, [], [])
    for step in range(3000):
        op = rng.random()
        if op < 0.45 or not rows:
            x = rng.randrange(1, 800)
            if x not in rows:
                rows[x] = (rng.randrange(0, x), rng.randrange(0, 9))
                insort(vals, x)
                cp.insert(x, *rows[x])
        elif op < 0.65:
            x = rng.choice(list(rows))
            vals.remove(x)
            assert cp.delete(x) == rows.pop(x)[1]
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
    assert cp.vals is vals
    assert list(zip(cp.vals, cp.prevs, cp.cols)) == \
        [(v, p, c) for v, (p, c) in sorted(rows.items())]


def test_insert_delete_inverse(e1_with_prev):
    pts, prevs = e1_with_prev
    cp = e1_store(pts, prevs)
    ranges = [(1, 20), (4, 13), (6, 6)]
    before = [cp.query(a, b) for a, b in ranges]
    rows = (list(cp.vals), list(cp.prevs), list(cp.cols))
    insort(cp.vals, 6)
    cp.insert(6, 0, 99)
    assert 99 in cp.query(4, 13)
    cp.vals.remove(6)
    assert cp.delete(6) == 99
    assert [cp.query(a, b) for a, b in ranges] == before
    assert (cp.vals, cp.prevs, cp.cols) == rows


def test_missing_value_lookups_raise():
    # a duplicate or missing insert or delete is the owner's to refuse; a
    # lookup by a value the owner does not hold is NotFound
    cp = store([(1, 0, 0)])
    for op in (lambda: cp.update_prev(9, 1), lambda: cp.set_hmax(0, 0),
               lambda: cp.index(9)):
        with pytest.raises(NotFound):
            op()
    assert (cp.vals, cp.prevs, cp.cols) == ([1], [0], [0])
    assert (list(cp.hmins), list(cp.hmaxs)) == ([-1], [-1])


def test_check_invariants_catches_bad_rows():
    cp = store([(1, 0, 0), (4, 1, 0)])
    cp.prevs[1] = 4  # a prev not below its value
    with pytest.raises(AssertionError):
        cp.check_invariants()
    cp = store([(1, 0, 0), (4, 1, 0)])
    cp.vals[1] = 1  # values no longer strictly increasing
    with pytest.raises(AssertionError):
        cp.check_invariants()
    cp = store([(1, 0, 0), (4, 1, 0)])
    cp.vals.append(6)  # the owner added a value, the store no row
    with pytest.raises(AssertionError, match="differ in length"):
        cp.check_invariants()


def test_check_invariants_catches_bad_tags():
    cp = store([(1, 0, 0), (4, 1, 0)])
    cp.hmins[1], cp.hmaxs[0] = 2, 5
    cp.check_invariants()
    cp.hmins[1] = -2  # below -1, the no-tag value
    with pytest.raises(AssertionError, match="tag outside"):
        cp.check_invariants()
    cp = store([(1, 0, 0), (4, 1, 0)])
    cp.hmaxs.pop()  # a tag column shorter than the values
    with pytest.raises(AssertionError, match="differ in length"):
        cp.check_invariants()
    cp = store([(1, 0, 0), (4, 1, 0)])
    cp.hmins = [0, 128]  # a column that no array("b") could hold
    with pytest.raises(AssertionError, match="tag outside"):
        cp.check_invariants()


def test_tags_travel_with_their_rows():
    cp = store([(2, 0, 0), (6, 2, 0)])
    vals = cp.vals
    insort(vals, 4)
    cp.insert(4, 0, 1, hmin=3, hmax=1)
    cp.set_hmax(2, 2)
    cp.update_prev(6, 0, hmin=1)
    assert (list(cp.hmins), list(cp.hmaxs)) == ([-1, 3, 1], [2, 1, -1])
    # the owner cuts its values in place and lends the moved ones
    right_vals = vals[1:]
    del vals[1:]
    right = cp.split_off(1, right_vals)
    assert cp.vals is vals and right.vals is right_vals
    assert (cp.vals, list(cp.hmins), list(cp.hmaxs)) == ([2], [-1], [2])
    assert (right.vals, right.prevs, right.cols) == ([4, 6], [0, 0], [1, 0])
    assert (list(right.hmins), list(right.hmaxs)) == ([3, 1], [1, -1])
    right_vals.remove(4)
    assert right.delete(4) == 1 and list(right.hmins) == [1]
    cp.check_invariants()
    right.check_invariants()


def test_query_meter_contract():
    rng = random.Random(17)
    xs = rng.sample(range(1, 60_000), 4096)
    rows = {x: (rng.randrange(0, x), rng.randrange(0, 300)) for x in xs}
    cp = store((v, p, c) for v, (p, c) in rows.items())
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
