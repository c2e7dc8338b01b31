import gc
import hashlib
import sys
import random
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import pytest

from colorrange.core import (MAX_COORDINATE, PREV_SENTINEL, ColoredPoint,
                             CostMeter, DuplicateX, FastOracle, InvalidColor,
                             InvalidCoordinate, InvalidRange, NotFound, Range,
                             normalize_input, oracle_report)
from colorrange.dynamic_index import DynamicIndex
from colorrange.slow_index import SlowIndex
from conftest import check_extremes, dynamic_route, random_instance
from dynamic_oracle import LISTS, OracleIndex, dynamic_state


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


def test_color_maps_track_live_set():
    rng = random.Random(7)
    pts = random_instance(rng, 200, 2000, 6)
    idx = DynamicIndex(pts)
    live = {p.value: p.color for p in pts}
    check_extremes(idx, live)
    for v in list(idx.colors)[::3]:
        idx.delete(v)
        del live[v]
    idx.insert(2001, 9)
    live[2001] = 9
    check_extremes(idx, live)  # also compares colors and by_color
    assert idx.colors[2001] == 9 and idx.by_color[9] == [2001]
    assert len(idx) == len(live)


def _state(idx) -> tuple:
    """Everything a failed update must leave as it was; and every leaf
    store still shares its leaf's value list."""
    tree = idx.tree
    assert all(lf.dstruct.vals is lf.values
               for lf in tree.leaves_under(tree.root))
    lists = [None if n.extremes is None else
             tuple(list(getattr(n.extremes, f)) for f in n.extremes.__slots__)
             for n in tree.iter_nodes()]
    rows = [tuple(list(getattr(lf.dstruct, f)) for f in lf.dstruct.__slots__)
            for lf in tree.leaves_under(tree.root)]
    answers = [sorted(idx.query(a, a + w)) for a in range(1, 4000, 97)
               for w in (0, 40, 900, 4000)]
    return (len(idx), (tree.n0, tree.size, tree.deleted_total),
            dict(idx.colors), {c: list(v) for c, v in idx.by_color.items()},
            dict(idx.hmin), dict(idx.hmax), lists, rows, answers)


def test_failed_updates_change_nothing():
    rng = random.Random(11)
    pts = random_instance(rng, 700, 4000, 9)
    idx = DynamicIndex(pts)
    live = {p.value: p.color for p in pts}
    tree = idx.tree

    def fails(exc, op):
        before = _state(idx)
        with pytest.raises(exc):
            op()
        assert _state(idx) == before

    held = pts[350].value
    free = next(v for v in range(1, 4000) if v not in idx.colors)
    bad_ops = [
        (InvalidColor, lambda: idx.insert(free, -1)),
        (InvalidCoordinate, lambda: idx.insert(0, 1)),
        (InvalidCoordinate, lambda: idx.insert(MAX_COORDINATE + 1, 1)),
        (InvalidCoordinate, lambda: idx.insert(2.5, 1)),
        (DuplicateX, lambda: idx.insert(held, 3)),
        (DuplicateX, lambda: idx.insert(held, idx.colors[held])),
        (NotFound, lambda: idx.delete(free)),
        (NotFound, lambda: idx.delete(0)),
    ]
    for exc, op in bad_ops:
        fails(exc, op)
    check_extremes(idx, live)

    def insert(v):
        live[v] = rng.randrange(9)
        idx.insert(v, live[v])

    # at the thresholds: the next insert splits a full leaf, ...
    leaf = tree.first_leaf
    room = [v for v in range(1, leaf.values[-1]) if v not in live]
    while leaf.size < tree._capacity(0):
        insert(room.pop(rng.randrange(len(room))))
    fails(DuplicateX, lambda: idx.insert(leaf.values[3], 0))
    nleaves = len(tree.leaves_under(tree.root))
    insert(room.pop())
    assert len(tree.leaves_under(tree.root)) == nleaves + 1
    # ... the next insert rebuilds the tree, having doubled it, ...
    room = [v for v in range(1, 4000) if v not in live]
    rng.shuffle(room)
    while len(idx) < 2 * tree.n0:
        insert(room.pop())
    n0 = tree.n0
    fails(DuplicateX, lambda: idx.insert(held, 3))
    insert(room.pop())
    assert tree.n0 != n0
    # ... and the next delete rebuilds it, n0 / 2 deleted since
    n0, victims = tree.n0, list(live)
    rng.shuffle(victims)
    while tree.deleted_total < n0 // 2 - 1:
        v = victims.pop()
        del live[v]
        idx.delete(v)
    fails(NotFound, lambda: idx.delete(room[0]))
    v = victims.pop()
    del live[v]
    idx.delete(v)
    assert tree.n0 != n0
    check_extremes(idx, live)


def test_dynamic_layout_rows_hold_the_tags():
    # what the dynamic index keeps per value: one row in its leaf's store,
    # tags included, and no map keyed by value; checked on a seeded build and
    # after a leaf split, an internal split and a global rebuild
    n = 1 << 13
    rng = random.Random(26)
    pts = random_instance(rng, n, 4 * n, 64)
    top = pts[-1].value
    appends = [top + 3 * i for i in range(1, 3001)]
    colors = [rng.randrange(64) for _ in appends]
    victims = [p.value for p in pts]
    rng.shuffle(victims)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        idx = DynamicIndex(pts)
        tree = idx.tree

        def check():
            assert sorted(vars(idx)) == ["by_color", "tree"]
            assert all(0 <= c < 64 for c in idx.by_color)
            for leaf in tree.leaves_under(tree.root):
                d = leaf.dstruct
                assert d.vals is leaf.values  # one value list per leaf
                assert len(d.hmins) == len(d.hmaxs) == len(d.vals)
                d.check_invariants()
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - base
            assert used / len(idx) <= 80, used / len(idx)

        def shape():
            nodes = list(tree.iter_nodes())
            return tree.n0, sum(nd.is_leaf() for nd in nodes), len(nodes)

        check()
        n0, leaves, nodes = shape()
        i = 0
        while shape()[1] == leaves:
            idx.insert(appends[i], colors[i])
            i += 1
        assert shape()[2] == nodes + 1  # a leaf split alone
        check()
        n0, leaves, nodes = shape()
        while shape()[2] - nodes == shape()[1] - leaves:
            idx.insert(appends[i], colors[i])
            i += 1
        check()
        while tree.n0 == n0:
            idx.delete(victims.pop())
        # the rebuild leaves every color list at its exact size
        assert all(sys.getsizeof(lst) == sys.getsizeof(lst[:])
                   for lst in idx.by_color.values())
        check()
    finally:
        tracemalloc.stop()


def test_extremes_through_splits_and_rebuilds():
    """F and Λ of every node match a recomputation after each update, through
    leaf splits, internal splits (many appends past the maximum) and global
    rebuilds (growth and deletions)."""
    rng = random.Random(13)
    pts = random_instance(rng, 1500, 6000, 7)
    idx = DynamicIndex(pts)
    live = {p.value: p.color for p in pts}
    seen = {"leaf": 0, "internal": 0, "rebuild": 0}

    def shape():
        nodes = list(idx.tree.iter_nodes())
        return (idx.tree.n0, sum(n.is_leaf() for n in nodes),
                sum(not n.is_leaf() for n in nodes))

    def step(op, v, c=None):
        n0, leaves, internal = shape()
        if op == "insert":
            idx.insert(v, c)
            live[v] = c
        else:
            idx.delete(v)
            del live[v]
        n0_after, leaves_after, internal_after = shape()
        if n0_after != n0:
            seen["rebuild"] += 1
        else:
            seen["leaf"] += leaves_after > leaves
            seen["internal"] += internal_after > internal
        check_extremes(idx, live)

    top = max(live)
    while not seen["internal"]:  # time-ordered appends split the right edge
        top += rng.randrange(1, 3)
        step("insert", top, rng.randrange(7))
        r = rng.random()
        if r < 0.2:
            step("delete", rng.choice(sorted(live)))
        elif r < 0.4:  # an insert with same-color points on both sides
            v = rng.randrange(1, top)
            if v not in live:
                step("insert", v, rng.randrange(7))
    while not seen["rebuild"]:  # deletions until the global rebuild
        step("delete", rng.choice(sorted(live)))
    assert seen["leaf"] >= 5 and seen["internal"] >= 1
    for _ in range(200):
        a = rng.randrange(1, top)
        b = rng.randrange(a, top + 1)
        assert set(idx.query(a, b)) == {c for v, c in live.items()
                                        if a <= v <= b}


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


def test_many_colors_range_ancestor_queries():
    # many colors packed densely: most ranges span several children of a
    # range ancestor, and the color-extreme lists answer them
    rng = random.Random(97)
    pts = [ColoredPoint(v, rng.randrange(700)) for v in
           sorted(rng.sample(range(1, 60_000), 3000))]
    idx = DynamicIndex(pts)
    spanning = 0
    for _ in range(400):
        a = rng.randrange(1, 60_000)
        b = rng.randrange(a, 60_000)
        got = idx.query(a, b)
        assert set(got) == oracle_report(pts, Range(a, b))
        assert len(got) == len(set(got))
        spanning += dynamic_route(idx, a, b) == "lists"
    assert spanning >= 300, "workload seldom reached the lists route"


@pytest.mark.parametrize("n", [500, 2000, 9000])
def test_query_touches_at_most_twice_its_colors(n):
    """Output sensitivity of every route: a query that reports k >= 1 colors
    touches at most 2k entries, after a stream of updates too."""
    rng = random.Random(n)
    u = 8 * n
    meter = CostMeter()
    for c in (3, 64, n // 4, n):
        pts = random_instance(rng, n, u, c)
        idx, fo = DynamicIndex(pts), FastOracle(pts)
        live = {p.value for p in pts}
        for _ in range(n // 10):
            v = rng.randrange(1, u + 1)
            if v in live:
                live.remove(v)
                idx.delete(v)
                fo.delete(v)
            else:
                live.add(v)
                color = rng.randrange(c)
                idx.insert(v, color)
                fo.insert(v, color)
        reported = 0
        for _ in range(600):
            a = rng.randrange(1, u + 1)
            b = min(u, a + rng.choice((8, 64, 512, u // 8, u)))
            meter.reset()
            got = idx.query(a, b, meter)
            assert set(got) == fo.report(a, b)
            k = len(got)
            reported += k > 0
            if k:
                assert meter.touches <= 2 * k, (c, a, b, k, meter.touches)
        assert reported >= 400


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


def test_leaf_internal_and_root_splits_keep_tags():
    """Every split rescans both halves. Two streams without a global
    rebuild: 900 points (leaves of L = 100, a height-1 root over 9 leaves)
    grow on the left past 1600, so that leaves and then the root split,
    which makes a fresh root; 2000 points (L = 121, a height-2 root over two
    height-1 nodes) grow on the right until leaves and the right height-1
    node split below the root. Then every stored tag is at most its true
    one, and each color's first and last value, whose tags a root split
    raises, and every element of some Left(u)/Right(u) carry exact ones."""
    rng = random.Random(107)
    for n, (lo, hi), steps, kinds in (
            (900, (1, 20_000), 1000, {"leaf", "root"}),
            (2000, (25_000, 50_000), 1200, {"leaf", "internal"})):
        pts = random_instance(rng, n, 50_000, 8)
        idx = DynamicIndex(pts)
        tree = idx.tree
        n0, tree_insert, seen = tree.n0, tree.insert, set()

        def insert(value):
            old_root = tree.root
            ev = tree_insert(value)
            for _, left, _, h in ev["splits"]:
                seen.add("leaf" if h == 0 else
                         "root" if left is old_root else "internal")
            return ev

        tree.insert = insert
        live = {p.value: p.color for p in pts}
        for _ in range(steps):
            if rng.random() < 0.9:
                v = rng.randrange(lo, hi)
                if v not in live:
                    live[v] = rng.randrange(8)
                    idx.insert(v, live[v])
            else:
                v = rng.choice(list(live))
                del live[v]
                idx.delete(v)
        assert tree.n0 == n0, "a global rebuild ran"
        assert seen == kinds, n
        tree.check_weight_bounds()
        check_extremes(idx, live)
        for v in live:
            assert idx.hmin[v] <= idx.brute_tag_min(v), v
            assert idx.hmax[v] <= idx.brute_tag_max(v), v
        for lst in idx.by_color.values():
            assert idx.hmin[lst[0]] == idx.brute_tag_min(lst[0])
            assert idx.hmax[lst[-1]] == idx.brute_tag_max(lst[-1])
        for node in tree.iter_nodes():
            for v in idx.left_set(node):
                assert idx.hmin[v] == idx.brute_tag_min(v), v
            for v in idx.right_set(node):
                assert idx.hmax[v] == idx.brute_tag_max(v), v
        for _ in range(200):
            a = rng.randrange(1, 50_000)
            b = rng.randrange(a, 50_000)
            want = {c for v, c in live.items() if a <= v <= b}
            assert set(idx.query(a, b)) == want


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
                [(v, idx._prev(v), live[v]) for v in leaf.values], step
    assert splits >= 5 and rebuilds >= 2


def test_neighbour_leaf_lookup():
    """An update finds the leaves of its same-color neighbours in its own
    leaf or the two beside it, and descends again only when an emptied leaf
    lies between: in the same leaf, the next, the previous, beyond an
    emptied leaf, and in the other half of a leaf split by the insert."""
    step = 10
    base = DynamicIndex([ColoredPoint(step * i, 0) for i in range(1, 2001)])
    leaves = base.tree.leaves_under(base.tree.root)
    assert len(leaves) >= 16
    live = {step * i: 0 for i in range(1, 2001)}
    # colors 1-3 each mark the neighbours of one case in the leaves it needs
    for lf, i, c in ((2, 10, 1), (2, 30, 1), (4, -3, 2), (6, 3, 2),
                     (8, 5, 3), (12, 5, 3)):
        live[leaves[lf].values[i]] = c
    idx = DynamicIndex([ColoredPoint(v, c) for v, c in sorted(live.items())])
    tree = idx.tree
    leaves = tree.leaves_under(tree.root)

    def update(op, value, color=None):
        """Apply op, check the lists and the exact tags of value and its
        same-color neighbours, and return the tree descents the op made."""
        color = live.get(value, color)
        descents = []
        descend = tree.leaf_for
        tree.leaf_for = lambda v: descents.append(v) or descend(v)
        try:
            if op == "insert":
                idx.insert(value, color)
                live[value] = color
            else:
                idx.delete(value)
                del live[value]
        finally:
            del tree.leaf_for
        check_extremes(idx, live)
        same = sorted(v for v, c in live.items() if c == color)
        i = bisect_left(same, value)
        for v in same[max(i - 1, 0):i + 2]:
            assert idx.hmin[v] == idx.brute_tag_min(v), (op, value, v)
            assert idx.hmax[v] == idx.brute_tag_max(v), (op, value, v)
        return len(descents)

    def marked(color):
        return [v for v, c in sorted(live.items()) if c == color]

    leaf_of = tree.leaf_for

    # same leaf: both neighbours in the value's own leaf
    p, n = marked(1)
    v = p + step * 10 + 1
    assert leaf_of(p) is leaf_of(v) is leaf_of(n)
    assert update("insert", v, 1) == 1
    assert update("delete", v) == 1

    # the previous and the next leaf
    p, n = marked(2)
    v = leaves[5].values[50] + 1
    assert leaf_of(p) is leaves[4] and leaf_of(n) is leaves[6]
    assert update("insert", v, 2) == 1
    assert update("delete", v) == 1

    # beyond an emptied leaf on either side: one more descent per neighbour
    for lf in (leaves[9], leaves[11]):
        for w in list(lf.values):
            update("delete", w)
        assert not lf.values
    p, n = marked(3)
    v = leaves[10].values[50] + 1
    assert leaf_of(p) is leaves[8] and leaf_of(n) is leaves[12]
    assert update("insert", v, 3) == 3
    assert update("delete", v) == 3

    # the other half of a leaf split by the insert: fill the leaf one short
    # of its split, place the neighbour, then insert the value that splits
    # it, in the left half with its next right of the middle (color 4) or in
    # the right half with its prev left of it (color 5)
    cap = tree._capacity(0)
    mid = (cap + 1) // 2  # the left half's size after the split
    for lf, color, (nb_slot, v_slot) in ((leaves[14], 4, (10, -10)),
                                         (leaves[15], 5, (-10, 10))):
        free = (w + d for w in list(lf.values) for d in (5, 3))
        while len(lf.values) < cap - 1:
            update("insert", next(free), 0)
        # +1 of any value is free: the fill used offsets 3 and 5 only
        nb, v = (lf.values[mid + s] + 1 for s in (nb_slot, v_slot))
        update("insert", nb, color)
        assert len(lf.values) == cap
        assert update("insert", v, color) == 1
        right = lf.next_leaf
        assert len(lf.values) == mid and right.prev_leaf is lf
        assert {leaf_of(nb), leaf_of(v)} == {lf, right}


def test_dynamic_answers_counts_and_tags_pinned():
    # the sorted answers, the CostMeter totals and the final tags of a fixed
    # update and query stream on a fixed instance, through leaf splits,
    # internal splits (half the inserts append past the maximum) and a
    # global rebuild
    rng = random.Random(131)
    n = 1 << 11
    pts = random_instance(rng, n, 4 * n, 64)
    idx = DynamicIndex(pts)
    live = {p.value for p in pts}
    top = pts[-1].value
    digest, meter = hashlib.sha256(), CostMeter()
    seen = {"leaf": 0, "internal": 0, "rebuild": 0}

    def shape():
        nodes = list(idx.tree.iter_nodes())
        leaves = sum(nd.is_leaf() for nd in nodes)
        return idx.tree.n0, leaves, len(nodes) - leaves

    for _ in range(6000):
        r = rng.random()
        if r < 0.2:
            a = rng.randrange(1, top + 1)
            b = a + rng.choice((0, 16, 256, 4096, top))
            digest.update(repr(sorted(idx.query(a, b, meter))).encode())
            continue
        n0, leaves, internal = shape()
        if r < 0.5:
            top += rng.randrange(1, 4)
            live.add(top)
            idx.insert(top, rng.randrange(64))
        elif r < 0.8:
            v = rng.randrange(1, top)
            if v in live:
                continue
            live.add(v)
            idx.insert(v, rng.randrange(64))
        else:
            v = rng.choice(sorted(live))
            live.remove(v)
            idx.delete(v)
        n0_after, leaves_after, internal_after = shape()
        if n0_after != n0:
            seen["rebuild"] += 1
        else:
            seen["leaf"] += leaves_after > leaves
            seen["internal"] += internal_after > internal
    assert min(seen.values()) >= 1, seen
    assert digest.hexdigest() == (
        "783a9d2e1fc0c2f7c9a8dc557ba4b48350912ec1f790a179fee6718b99a0d475")
    assert (meter.touches, meter.locate_ops) == (70507, 8118)
    tags = hashlib.sha256(repr((sorted(idx.hmin.items()),
                                sorted(idx.hmax.items()))).encode())
    assert tags.hexdigest() == (
        "ee696c612e3ccabeb338d3a921dfbccbcc3e2d39ea22e05c4bac7d1af09a24a9")


def _same_as_oracle(idx, oracle, points=None) -> None:
    """`idx` holds exactly the state of `oracle`, the per-row builder's
    (`dynamic_oracle`), each leaf store over its leaf's own value list. With
    `points`, the input of both builds, every row, list and `by_color`
    entry is one of the input's int objects."""
    assert dynamic_state(idx) == dynamic_state(oracle)
    tree = idx.tree
    leaves = tree.leaves_under(tree.root)
    assert all(lf.dstruct.vals is lf.values for lf in leaves)
    if points is None:
        return
    ids = {id(x) for p in points for x in p} | {id(PREV_SENTINEL)}
    lists = [getattr(nd.extremes, name) for nd in tree.iter_nodes()
             if nd.extremes is not None for name in LISTS]
    lists += [getattr(lf.dstruct, name) for lf in leaves
              for name in ("vals", "prevs", "cols")]
    lists += list(idx.by_color.values()) + [list(idx.by_color)]
    assert all(id(x) in ids for lst in lists for x in lst)


def _points(rng, n, colors, top=4):
    """n points over [1, top * n] (values past the small-int cache) with
    colors drawn from `colors`."""
    values = sorted(rng.sample(range(300, 300 + top * n), n))
    return [ColoredPoint(v, rng.choice(colors)) for v in values]


@pytest.mark.parametrize("case", ["n0", "n1", "n2", "one color", "C = N",
                                  "2**70", "unsorted"])
def test_array_build_equals_row_oracle(case):
    rng = random.Random(41)
    if case in ("n0", "n1", "n2"):
        pts = _points(rng, int(case[1]), [0, 1])
    elif case == "one color":
        pts = _points(rng, 900, [5])
    elif case == "C = N":
        pts = [ColoredPoint(p.value, 1000 + i)
               for i, p in enumerate(_points(rng, 900, [0]))]
    elif case == "2**70":
        pts = _points(rng, 900, [0, 3, 2**70, 2**70 + 1])
    else:
        pts = _points(rng, 900, list(range(9)))
        rng.shuffle(pts)
    idx, oracle = DynamicIndex(pts), OracleIndex(pts)
    _same_as_oracle(idx, oracle, pts)
    assert len(idx) == len(pts) and len(list(idx.tree.iter_nodes())) > (
        len(pts) > 800)


def test_errors_as_row_oracle():
    # the constructor's checks keep their type, value and order
    for pts in ([(5, 0), (0, 1)], [(5, -1), (0, 1)], [(5, -1), (5, 1)],
                [(9, 1), (5, 0), (5, 1)], [(4, 0), (4, 1)], [(3, 0), (2.5, 1)],
                [(3, "a"), (1, 0)], [(3, True)]):
        outcomes = []
        for cls in (DynamicIndex, OracleIndex):
            with pytest.raises(ValueError) as info:
                cls(pts)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1], pts


def test_array_rebuilds_and_splits_equal_row_oracle():
    # one stream of updates on both builds, compared after every update
    # that splits a node or rebuilds the tree: leaf and internal splits
    # (appends past the maximum), a rebuild by deletes, then one by growth;
    # one color lies past int64
    rng = random.Random(43)
    colors = [0, 1, 2, 3, 4, 5, 2**70]
    pts = _points(rng, 1500, colors)
    idx, oracle = DynamicIndex(pts), OracleIndex(pts)
    live = {p.value for p in pts}
    seen = {"leaf": 0, "internal": 0, "deletes": 0, "growth": 0}

    def shape():
        nodes = list(idx.tree.iter_nodes())
        leaves = sum(nd.is_leaf() for nd in nodes)
        return idx.tree.root, leaves, len(nodes) - leaves, idx.tree.n0

    def step(op, *args):
        root, leaves, internal, n0 = shape()
        deleted = idx.tree.deleted_total
        for index in (idx, oracle):
            getattr(index, op)(*args)
        after = shape()
        if op == "delete" and idx.tree.deleted_total < deleted:
            seen["deletes"] += 1
        elif op == "insert" and after[3] != n0:
            seen["growth"] += 1
        elif after[1:3] != (leaves, internal):
            seen["leaf"] += after[1] > leaves
            seen["internal"] += after[2] > internal
        else:
            return
        _same_as_oracle(idx, oracle)

    top = max(live)
    while not seen["internal"]:
        top += rng.randrange(1, 3)
        live.add(top)
        step("insert", top, rng.choice(colors))
        if rng.random() < 0.3:
            v = rng.choice(sorted(live))
            live.remove(v)
            step("delete", v)
    while not seen["deletes"]:
        v = rng.choice(sorted(live))
        live.remove(v)
        step("delete", v)
    while not seen["growth"]:
        v = rng.randrange(1, 40 * top)
        if v not in live:
            live.add(v)
            step("insert", v, rng.choice(colors))
    assert seen["leaf"] >= 5, seen
    _same_as_oracle(idx, oracle)


def _defined_tags(idx, value) -> tuple:
    """(hmin, hmax) of a live value by the definition: the heights of the
    highest nodes on its path in which it is its color's first (last) live
    value, read off every node's live values; -1 where there is none."""
    tree = idx.tree
    color = idx.colors[value]
    node, hmin, hmax = tree.leaf_for(value), -1, -1
    while node is not None:
        same = [v for lf in tree.leaves_under(node)
                for v, c in zip(lf.values, lf.dstruct.cols) if c == color]
        if same[0] == value:
            hmin = node.height
        if same[-1] == value:
            hmax = node.height
        node = node.parent
    return hmin, hmax


def test_tags_at_coordinates_past_2_62():
    assert dict(DynamicIndex([(1, 0), (2**62, 1)]).hmax.items()) == \
        {1: 0, 2**62: 0}
    rng = random.Random(47)
    tops = [2**62 - 1, 2**62, MAX_COORDINATE]
    values = sorted(rng.sample(range(1, 10_000), 1400)
                    + [t - d for t in tops for d in range(0, 600, 3)])
    pts = [ColoredPoint(v, rng.randrange(4)) for v in values]
    for index in (DynamicIndex(pts), OracleIndex(pts)):
        assert index.tree.root.height == 2
        for v in tops + values[::23]:
            assert (index.hmin[v], index.hmax[v]) == _defined_tags(index, v), v
        # an update's own tags, at a new color and beside the top value
        for v, c in ((2**62 + 1, 9), (MAX_COORDINATE - 1, 0)):
            index.insert(v, c)
            assert (index.hmin[v], index.hmax[v]) == _defined_tags(index, v)
        index.delete(MAX_COORDINATE)
        last = max(index.by_color[index.colors[2**62 - 1]])
        assert (index.hmin[last], index.hmax[last]) == \
            _defined_tags(index, last)


def test_built_state_pinned():
    # the full state (tree, by_color, leaf rows and tags, every node's
    # lists) built on the dynamic-churn benchmark's seed-7 data
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        from workloads import WORKLOADS, make_pairs
    finally:
        sys.path.remove(bench)
    points, _ = normalize_input(make_pairs(WORKLOADS["dynamic-churn"], 7))
    state = repr(dynamic_state(DynamicIndex(points))).encode()
    assert hashlib.sha256(state).hexdigest() == (
        "e2153ff2ed19a9b309e9e24debc925696b5a355554afc0d5e796cecd53d40760")
