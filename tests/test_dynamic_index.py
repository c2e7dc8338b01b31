import random

import pytest

from colorrange.core import (MAX_COORDINATE, ColoredPoint, DuplicateX,
                             InvalidColor, InvalidCoordinate, InvalidRange,
                             NotFound, Range, oracle_report)
from colorrange.dynamic_index import DynamicIndex
from colorrange.slow_index import SlowIndex
from conftest import random_instance


def test_build_and_query(e1):
    idx = DynamicIndex(e1)
    assert set(idx.query(4, 13)) == {0, 1, 2}
    assert idx.query(8, 8) == []
    assert set(idx.query(1, 20)) == {0, 1, 2}
    with pytest.raises(InvalidRange):
        idx.query(9, 2)


def test_insert_new_color_gets_root_height():
    idx = DynamicIndex([ColoredPoint(v, 0) for v in range(10, 500, 10)])
    idx.insert(123, 7)
    root_h = idx.tree.root.height
    assert idx.hmin[123] == root_h
    assert idx.hmax[123] == root_h


def test_insert_left_of_same_color_drops_neighbor_tag():
    pts = [ColoredPoint(v, v % 3) for v in range(10, 400, 10)]
    idx = DynamicIndex(pts)
    target = 210  # color 0
    before = idx.hmin[target]
    idx.insert(205, idx.colors[target])
    after = idx.hmin[target]
    assert after <= before
    assert after == idx.brute_tag_min(target)


def test_delete_then_reinsert_restores_tags():
    rng = random.Random(5)
    pts = random_instance(rng, 300, 3000, 6)
    idx = DynamicIndex(pts)
    snap_min = dict(idx.hmin)
    snap_max = dict(idx.hmax)
    victim = pts[137].value
    color = pts[137].color
    idx.delete(victim)
    idx.insert(victim, color)
    # tags must be exactly restored if no split intervened (sizes unchanged)
    assert idx.hmin == snap_min
    assert idx.hmax == snap_max


def test_errors():
    idx = DynamicIndex([ColoredPoint(5, 0)])
    with pytest.raises(DuplicateX):
        idx.insert(5, 1)
    with pytest.raises(NotFound):
        idx.delete(6)
    with pytest.raises(DuplicateX):
        DynamicIndex([ColoredPoint(5, 0), ColoredPoint(5, 1)])


def test_negative_color_rejected():
    idx = DynamicIndex([ColoredPoint(10, 0), ColoredPoint(20, 1),
                        ColoredPoint(30, 2)])
    with pytest.raises(InvalidColor):
        idx.insert(25, -1)
    assert len(idx) == 3
    assert sorted(idx.query(1, 40)) == [0, 1, 2]
    assert 25 not in idx.tree
    with pytest.raises(InvalidColor):
        DynamicIndex([ColoredPoint(10, 0), ColoredPoint(20, -1)])


@pytest.mark.parametrize("cls", [SlowIndex, DynamicIndex])
def test_coordinates_outside_file_range_rejected(cls):
    # the prev-sentinel 0 must lie below every coordinate: unchecked, these
    # instances on [-20, 20) answered 17762 ranges wrongly
    rng = random.Random(163)
    for _ in range(40):
        pts = [ColoredPoint(v, rng.randrange(3))
               for v in sorted(rng.sample(range(-20, 20), 12))]
        if pts[0].value < 1:
            with pytest.raises(InvalidCoordinate):
                cls(pts)
        shifted = [ColoredPoint(p.value + 21, p.color) for p in pts]
        idx = cls(shifted)
        for a in range(1, 42):
            for b in range(a, 42):
                assert set(idx.query(a, b)) == oracle_report(shifted,
                                                              Range(a, b))
    want = sorted(idx.query(1, MAX_COORDINATE))
    for bad in (0, -8, MAX_COORDINATE + 1, 2.5, True):
        with pytest.raises(InvalidCoordinate):
            idx.insert(bad, 1)
        assert len(idx) == 12
        assert sorted(idx.query(1, MAX_COORDINATE)) == want
    idx.insert(MAX_COORDINATE, 3)
    assert sorted(idx.query(MAX_COORDINATE, MAX_COORDINATE)) == [3]


def test_color_maps_shared_with_slow_tree():
    rng = random.Random(7)
    pts = random_instance(rng, 200, 2000, 6)
    idx = DynamicIndex(pts)
    assert idx.colors is idx.slow.fwd.colors
    assert idx.by_color is idx.slow.fwd.by_color
    for v in list(idx.colors)[::3]:
        idx.delete(v)
    idx.insert(2001, 9)
    assert idx.colors is idx.slow.fwd.colors
    assert idx.colors[2001] == 9 and idx.by_color[9] == [2001]
    assert len(idx) == len(idx.slow)


def test_oracle_equivalence_interleaved():
    rng = random.Random(91)
    pts = random_instance(rng, 400, 6000, 10)
    idx = DynamicIndex(pts)
    live = {p.value: p.color for p in pts}
    for step in range(4000):
        r = rng.random()
        if r < 0.34:
            v = rng.randrange(1, 6000)
            if v not in live:
                c = rng.randrange(12)
                live[v] = c
                idx.insert(v, c)
        elif r < 0.55 and live:
            v = rng.choice(list(live))
            del live[v]
            idx.delete(v)
        else:
            a = rng.randrange(1, 6000)
            b = rng.randrange(a, 6000)
            got = idx.query(a, b)
            want = {c for v, c in live.items() if a <= v <= b}
            assert set(got) == want, (a, b, step)
            assert len(got) == len(set(got))


def test_tag_soundness_and_left_set_exactness():
    rng = random.Random(93)
    pts = random_instance(rng, 500, 8000, 9)
    idx = DynamicIndex(pts)
    live = {p.value: p.color for p in pts}
    for step in range(1500):
        r = rng.random()
        if r < 0.5:
            v = rng.randrange(1, 8000)
            if v not in live:
                c = rng.randrange(9)
                live[v] = c
                idx.insert(v, c)
        elif live:
            v = rng.choice(list(live))
            del live[v]
            idx.delete(v)
        if step % 50 == 49:
            sample = rng.sample(sorted(live), min(64, len(live)))
            for v in sample:
                assert idx.hmin[v] <= idx.brute_tag_min(v)
                assert idx.hmax[v] <= idx.brute_tag_max(v)
            # elements in some Left(u)/Right(u) carry exact tags
            for node in idx.tree.iter_nodes():
                for v in idx.left_set(node):
                    assert idx.hmin[v] == idx.brute_tag_min(v), v
                for v in idx.right_set(node):
                    assert idx.hmax[v] == idx.brute_tag_max(v), v


def test_fallback_soundness():
    # many colors packed densely: subquery caps fire; whenever one does, the
    # final answer must be at least cap colors (the validity condition)
    rng = random.Random(97)
    pts = [ColoredPoint(v, rng.randrange(700)) for v in
           sorted(rng.sample(range(1, 60_000), 3000))]
    idx = DynamicIndex(pts)
    fired = 0
    for _ in range(400):
        a = rng.randrange(1, 60_000)
        b = rng.randrange(a, 60_000)
        got = idx.query(a, b)
        assert set(got) == oracle_report(pts, Range(a, b))
        if idx.last_fallback_cap is not None:
            fired += 1
            assert len(got) >= idx.last_fallback_cap
    assert fired > 0, "workload never exercised the fallback"


def test_query_single_leaf_range():
    rng = random.Random(101)
    pts = random_instance(rng, 120, 1000, 5)
    idx = DynamicIndex(pts)
    leaf = idx.tree.first_leaf
    vals = leaf.values
    a, b = vals[0], vals[min(3, len(vals) - 1)]
    assert set(idx.query(a, b)) == oracle_report(pts, Range(a, b))


def test_growth_and_shrink_rebuilds_stay_correct():
    rng = random.Random(103)
    idx = DynamicIndex([ColoredPoint(v, v % 4) for v in range(2, 120, 2)])
    live = {v: v % 4 for v in range(2, 120, 2)}
    # grow far past 2*n0 to force growth rebuilds
    for v in rng.sample(range(200, 20_000), 800):
        c = rng.randrange(6)
        idx.insert(v, c)
        live[v] = c
    # then delete most to force the deletion rebuild
    victims = rng.sample(sorted(live), 700)
    for v in victims:
        idx.delete(v)
        del live[v]
    for _ in range(300):
        a = rng.randrange(1, 21_000)
        b = rng.randrange(a, 21_000)
        want = {c for v, c in live.items() if a <= v <= b}
        assert set(idx.query(a, b)) == want


def test_high_level_split_refresh_path():
    """Exercise the k-leftmost/rightmost extreme refresh by lowering the
    rescan threshold to force the 'high level' branch."""
    rng = random.Random(107)
    pts = random_instance(rng, 600, 50_000, 8)
    idx = DynamicIndex(pts)
    idx.tree.loglog = -1  # force every split onto the extremes-refresh path
    live = {p.value: p.color for p in pts}
    for _ in range(2500):
        r = rng.random()
        if r < 0.6:
            v = rng.randrange(1, 50_000)
            if v not in live:
                c = rng.randrange(8)
                live[v] = c
                idx.insert(v, c)
        elif live:
            v = rng.choice(list(live))
            del live[v]
            idx.delete(v)
        if rng.random() < 0.2:
            a = rng.randrange(1, 50_000)
            b = rng.randrange(a, 50_000)
            want = {c for v, c in live.items() if a <= v <= b}
            assert set(idx.query(a, b)) == want
    # the operative invariant after forced high-level splits
    for node in idx.tree.iter_nodes():
        for v in idx.left_set(node):
            assert idx.hmin[v] >= node.height
        for v in idx.right_set(node):
            assert idx.hmax[v] >= node.height


def _leaves(idx):
    leaf = idx.tree.first_leaf
    while leaf is not None:
        yield leaf
        leaf = leaf.next_leaf


def test_leaf_rows_track_prev_links():
    """Every leaf store holds (v, prev(v), color(v)) for its leaf's values,
    through leaf splits and global rebuilds (a missed update_prev shows)."""
    rng = random.Random(109)
    pts = random_instance(rng, 200, 4000, 5)
    idx = DynamicIndex(pts)
    live = {p.value: p.color for p in pts}
    splits = rebuilds = 0
    for step in range(1500):
        n0, nleaves = idx.tree.n0, sum(1 for _ in _leaves(idx))
        if rng.random() < 0.75 or len(live) < 20:
            # most inserts append past the maximum, as a time series does
            v = (max(live) + rng.randrange(1, 4) if rng.random() < 0.7
                 else rng.randrange(1, 4000))
            if v in live:
                continue
            live[v] = rng.randrange(5)
            idx.insert(v, live[v])
        else:
            v = rng.choice(list(live))
            del live[v]
            idx.delete(v)
        if idx.tree.n0 != n0:
            rebuilds += 1
        elif sum(1 for _ in _leaves(idx)) > nleaves:
            splits += 1
        for leaf in _leaves(idx):
            d = leaf.dstruct
            d.check_invariants()
            assert list(zip(d.vals, d.prevs, d.cols)) == \
                [(v, idx._prev(v), idx.colors[v]) for v in leaf.values], step
    assert splits >= 5 and rebuilds >= 2
