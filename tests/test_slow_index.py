import bisect
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from colorrange.core import (ColoredPoint, CostMeter, FastOracle, InvalidColor,
                             InvalidCoordinate, InvalidRange, Range,
                             oracle_k_leftmost, oracle_k_rightmost,
                             oracle_report)
from colorrange.slow_index import SlowIndex
from conftest import random_instance


def test_fanout_law_fresh_builds():
    rng = random.Random(61)
    for n in (5, 17, 64, 300, 1000, 4096):
        pts = random_instance(rng, n, 8 * n, 9)
        t = SlowIndex((p.value, p.color) for p in pts)
        t.check_fanout_law()
        t.check_consistency()


def test_query_matches_oracle_static():
    rng = random.Random(63)
    for _ in range(40):
        pts = random_instance(rng, rng.randrange(1, 300), 1200, 9)
        idx = SlowIndex(pts)
        for _ in range(60):
            a = rng.randrange(1, 1220)
            b = rng.randrange(a, 1220)
            got = idx.query(a, b)
            assert set(got) == oracle_report(pts, Range(a, b))
            assert len(got) == len(set(got))


def test_emissions_once_per_color():
    rng = random.Random(67)
    for _ in range(30):
        pts = random_instance(rng, rng.randrange(2, 400), 1500, 6)
        tree = SlowIndex((p.value, p.color) for p in pts)
        for _ in range(80):
            a = rng.randrange(1, 1520)
            b = rng.randrange(a, 1520)
            ems, over = tree.emissions(a, b)
            assert not over
            # only leftmost in-range elements: prev below a, one per color
            assert all(a <= v <= b and p < a for v, _, p in ems)
            colors = [c for _, c, _ in ems]
            assert len(colors) == len(set(colors))
            assert set(colors) == oracle_report(pts, Range(a, b))


def test_updates_against_oracle_interleaved():
    rng = random.Random(69)
    pts = random_instance(rng, 200, 4000, 8)
    idx = SlowIndex(pts)
    live = {p.value: p.color for p in pts}
    for step in range(2500):
        r = rng.random()
        if r < 0.35:
            v = rng.randrange(1, 4000)
            if v not in live:
                c = rng.randrange(8)
                live[v] = c
                idx.insert(v, c)
        elif r < 0.6 and live:
            v = rng.choice(list(live))
            del live[v]
            idx.delete(v)
        else:
            a = rng.randrange(1, 4000)
            b = rng.randrange(a, 4000)
            want = {c for v, c in live.items() if a <= v <= b}
            assert set(idx.query(a, b)) == want
        if step % 100 == 99:
            idx.check_consistency()


def test_insert_placement_examples():
    # a globally new color lands in the root's C-set
    pts = [ColoredPoint(v, 0) for v in (10, 20, 30, 40, 50, 60, 70, 80, 90)]
    t = SlowIndex((p.value, p.color) for p in pts)
    t.insert(55, 7)
    assert t.placed[55] is t.root
    # inserting e just left of a same-color element in the same bucket
    # evicts that element from every C-set: its prev is now e, in its bucket
    neighbor = next(v for v in t.leaf_of(55).bucket if v > 55)
    t.insert(54, t.colors[neighbor])
    assert t.placed[neighbor] is None
    t.check_consistency()


def test_same_bucket_eviction():
    t = SlowIndex([(10, 0), (11, 1), (12, 0), (500, 2), (600, 2), (700, 2),
                   (800, 2), (900, 2)])
    # 12's prev is 10; they share a bucket iff bucket spans both
    t.check_consistency()
    leaf10 = t.leaf_of(10)
    if t.leaf_of(12) is leaf10:
        assert t.placed[12] is None
    t.delete(10)
    t.check_consistency()
    # 12 is now the leftmost of color 0 -> placed at the root
    assert t.placed[12] is t.root


def test_delete_sole_color_element():
    t = SlowIndex([(1, 0), (2, 1), (3, 0), (9, 2), (20, 1), (30, 0), (40, 2),
                   (50, 1)])
    t.delete(9)  # 40, color 2's next element, now has prev 0: root C-set
    t.check_consistency()
    assert t.placed[40] is t.root
    ems, _ = t.emissions(1, 50)
    assert {c for _, c, _ in ems} == {0, 1, 2}


def test_descents_and_queries_across_emptied_runs():
    rng = random.Random(71)
    pts = random_instance(rng, 400, 4000, 7)
    idx = SlowIndex(pts)
    root, kids = idx.root, idx.root.children
    # two adjacent internal nodes, two adjacent buckets and one lone bucket
    runs = [idx._values_under(kids[1]) + idx._values_under(kids[2]),
            kids[5].children[1].bucket + kids[5].children[2].bucket,
            list(kids[9].children[0].bucket)]
    doomed = [v for run in runs for v in run]
    assert len(doomed) < idx.n0 // 2  # no rebuild
    for v in doomed:
        idx.delete(v)
    assert idx.root is root and kids[1].minv is None and kids[2].maxv is None
    assert not kids[1].is_leaf and not kids[5].children[1].bucket
    idx.check_consistency()

    values = sorted(idx.colors)
    for x in range(0, 4002):
        i = bisect.bisect_left(values, x)
        want = idx.path_of(values[i]) if i < len(values) else None
        assert idx.near_path(x, True) == want, x
        j = bisect.bisect_right(values, x) - 1
        want = idx.path_of(values[j]) if j >= 0 else None
        assert idx.near_path(x, False) == want, x

    live = [ColoredPoint(v, idx.colors[v]) for v in values]
    ends = sorted({x for run in runs
                   for x in [min(run), max(run)] +
                   rng.sample(range(min(run), max(run) + 1), 4)})
    for a in ends:
        for b in ends:
            if a > b:
                continue
            want = oracle_report(live, Range(a, b))
            got = idx.query(a, b)
            assert set(got) == want and len(got) == len(want), (a, b)
            ems, over = idx.emissions(a, b)
            assert not over
            assert sorted(c for _, c, _ in ems) == sorted(want), (a, b)


def test_k_leftmost_exhaustive_small():
    rng = random.Random(73)
    for _ in range(8):
        n = rng.randrange(1, 64)
        u = rng.randrange(max(4, n), 80)
        pts = random_instance(rng, n, u, rng.randrange(1, 8))
        idx = SlowIndex(pts)
        for a in range(1, u + 1):
            for b in range(a, u + 1):
                for k in range(1, 11):
                    got = idx.k_leftmost(a, b, k)
                    assert got == oracle_k_leftmost(pts, Range(a, b), k), \
                        (pts, a, b, k)


def test_k_rightmost_matches_oracle():
    rng = random.Random(79)
    for _ in range(10):
        pts = random_instance(rng, rng.randrange(1, 200), 900, 7)
        idx = SlowIndex(pts)
        for _ in range(150):
            a = rng.randrange(1, 920)
            b = rng.randrange(a, 920)
            k = rng.randrange(1, 9)
            assert idx.k_rightmost(a, b, k) == \
                oracle_k_rightmost(pts, Range(a, b), k)
        # mixed inserts and deletes, each followed by a selection check
        live = {p.value: p.color for p in pts}
        for _ in range(150):
            if rng.random() < 0.5 or not live:
                v = rng.randrange(1, 900)
                if v not in live:
                    live[v] = rng.randrange(7)
                    idx.insert(v, live[v])
            else:
                v = rng.choice(list(live))
                del live[v]
                idx.delete(v)
            cur = sorted(ColoredPoint(v, c) for v, c in live.items())
            a = rng.randrange(1, 920)
            b = rng.randrange(a, 920)
            k = rng.randrange(1, 9)
            assert idx.k_rightmost(a, b, k) == \
                oracle_k_rightmost(cur, Range(a, b), k)
        idx.check_consistency()


def test_k_leftmost_randomized_midsize():
    rng = random.Random(83)
    pts = random_instance(rng, 1 << 12, 1 << 15, 40)
    idx = SlowIndex(pts)
    fo = FastOracle(pts)
    for _ in range(600):
        a = rng.randrange(1, 1 << 15)
        b = rng.randrange(a, 1 << 15)
        k = rng.randrange(1, 12)
        assert idx.k_leftmost(a, b, k) == fo.k_leftmost(a, b, k)


def test_touch_scaling_does_not_regress():
    rng = random.Random(89)
    ratios = []
    for n in (1 << 8, 1 << 11, 1 << 14):
        pts = random_instance(rng, n, 8 * n, 24)
        tree = SlowIndex((p.value, p.color) for p in pts)
        meter = CostMeter()
        worst = 0.0
        samples = []
        for _ in range(300):
            a = rng.randrange(1, 8 * n)
            b = rng.randrange(a, 8 * n)
            meter.reset()
            ems, _ = tree.emissions(a, b, meter=meter)
            n_ab = tree_count(tree, a, b)
            k = len({c for _, c, p in ems if p < a})
            bound = n_ab ** 0.5 + max(1, n.bit_length() - 1).bit_length() + k
            samples.append(meter.touches / max(1.0, bound))
        samples.sort()
        ratios.append(samples[len(samples) // 2])
    assert max(ratios) <= 16
    # the constant must not grow with n: largest instance vs smallest
    assert ratios[-1] <= ratios[0]


def tree_count(tree, a, b):
    return sum(a <= v <= b for v in tree.colors)


def test_negative_color_rejected():
    pts = [ColoredPoint(10, 0), ColoredPoint(20, 1), ColoredPoint(30, 2)]
    idx = SlowIndex(pts)
    with pytest.raises(InvalidColor):
        idx.insert(25, -1)
    assert len(idx) == 3
    assert sorted(idx.query(1, 40)) == [0, 1, 2]
    idx.check_consistency()
    with pytest.raises(InvalidColor):
        SlowIndex(pts + [ColoredPoint(40, -1)])


def test_query_raises_on_broken_prev_filter():
    idx = SlowIndex([ColoredPoint(10, 0), ColoredPoint(20, 0)])
    # a broken tree that reports both elements of color 0 as leftmost
    idx.emissions = lambda a, b, meter=None: ([(10, 0, 0), (20, 0, 0)], False)
    with pytest.raises(RuntimeError):
        idx.query(1, 40)


def test_inverted_range_raises():
    idx = SlowIndex([ColoredPoint(10, 0), ColoredPoint(20, 1)])
    for call in (lambda: idx.query(30, 10),
                 lambda: idx.k_leftmost(30, 10, 2),
                 lambda: idx.k_rightmost(30, 10, 2),
                 lambda: idx.k_leftmost(30, 10, 0)):
        with pytest.raises(InvalidRange):
            call()
    assert idx.k_leftmost(1, 30, 0) == []
    assert idx.k_rightmost(1, 30, -1) == []
    assert idx.query(20, 20) == [1]


@pytest.mark.parametrize("select", ["k_leftmost_elements", "k_rightmost_elements"])
def test_element_selects_check_their_arguments(select):
    # the (value, color) selects are public too, and check as the wrappers
    # did: an inverted range or a k that is not an integer is InvalidRange
    idx = SlowIndex([ColoredPoint(1, 0), ColoredPoint(5, 1)])
    call = getattr(idx, select)
    for args in ((9, 2, 1), (1, 10, 2.5), (1, 10, True), (1.5, 10, 1)):
        error = InvalidCoordinate if isinstance(args[0], float) else InvalidRange
        with pytest.raises(error):
            call(*args)
    assert call(1, 10, 0) == []
    assert sorted(call(1, 10, 2)) == [(1, 0), (5, 1)]


_AUDITS_UNDER_O = """
import random
from colorrange.core import ColoredPoint
from colorrange.slow_index import SlowIndex
from colorrange.wbtree import WbTree
assert not __debug__  # never raises: -O drops it
rng = random.Random(5)
pts = [ColoredPoint(v, rng.randrange(4)) for v in range(1, 400)]

def corrupt_minv(t):
    t.root.children[0].minv = -1
def corrupt_fanout(t):
    t.root.children *= 10
def corrupt_size(t):
    t.root.size = 10 ** 9
def corrupt_k_run(t):
    leaf = t.first_leaf.next_leaf
    leaf.kkeys = leaf.kkeys[::-1]
def corrupt_bounds(t):
    t.root.submax = -1

quiet = []
for build, corrupt, audit in [
        (SlowIndex, corrupt_minv, "check_consistency"),
        (SlowIndex, corrupt_fanout, "check_fanout_law"),
        (WbTree, corrupt_size, "check_weight_bounds"),
        (WbTree, corrupt_k_run, "check_k_monotone"),
        (WbTree, corrupt_bounds, "check_bounds")]:
    t = build(pts if build is SlowIndex else [p.value for p in pts])
    getattr(t, audit)()
    corrupt(t)
    try:
        getattr(t, audit)()
        quiet.append(audit)
    except AssertionError:
        pass
print("quiet:", quiet)
"""


def test_audits_raise_under_python_O():
    # the criterion 7 audits raise AssertionError themselves, so a corrupt
    # index fails them with assert statements stripped as well
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _AUDITS_UNDER_O],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["quiet:", "[]"], proc.stdout


def test_slow_answers_counts_and_placements_pinned():
    # the sorted answers, the CostMeter totals and every value's placement
    # (its node's depth and live min) after a fixed stream of inserts,
    # deletes, queries and k-leftmost selections, through node splits and
    # root rebuilds
    rng = random.Random(137)
    n = 600
    pts = random_instance(rng, n, 4 * n, 24)
    idx = SlowIndex(pts)
    live = {p.value for p in pts}
    top = pts[-1].value
    digest, meter = hashlib.sha256(), CostMeter()
    rebuilds = 0
    for _ in range(2500):
        r = rng.random()
        if r < 0.25:
            a = rng.randrange(1, top + 1)
            b = a + rng.choice((0, 8, 64, 512, top))
            if r < 0.15:
                digest.update(repr(sorted(idx.query(a, b, meter))).encode())
            else:
                k = rng.randrange(1, 9)
                digest.update(repr(idx.k_leftmost(a, b, k, meter)).encode())
            continue
        root = idx.root
        if r < 0.62:
            v = rng.randrange(1, top + 64)
            if v in live:
                continue
            live.add(v)
            top = max(top, v)
            idx.insert(v, rng.randrange(24))
        else:
            v = rng.choice(sorted(live))
            live.remove(v)
            idx.delete(v)
        rebuilds += idx.root is not root
    assert rebuilds >= 1
    idx.check_consistency()
    placed = sorted((v, None if u is None else (u.depth, u.minv))
                    for v, u in idx.placed.items())
    assert digest.hexdigest() == (
        "21499f53283df47d72329da61f662c332a5c16cd1c67e5f5a70052faee50d975")
    assert (meter.touches, meter.locate_ops) == (9771, 603)
    assert hashlib.sha256(repr(placed).encode()).hexdigest() == (
        "aa3479ceef6b8c3cd90103c41ea21c8ab51c8cdca82d13131cc88a6a9c9e30c3")
