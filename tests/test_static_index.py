import bisect
import hashlib
import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorrange.core import (ColoredPoint, CostMeter, DuplicateX, InvalidColor,
                             InvalidCoordinate, InvalidRange, Range, FastOracle,
                             oracle_report)
from colorrange.em_index import EmIndex
from colorrange.static_index import (ArrayFallback, LeafArrays, StaticIndex,
                                     TreeLayout, leaf_cover)
from conftest import random_instance


def brute_lca_leaves(idx: StaticIndex, a: int, b: int):
    """Leaf of succ(a), leaf of pred(b), and their LCA node (or None)."""
    lo = bisect.bisect_left(idx.values, a)
    hi = bisect.bisect_right(idx.values, b) - 1
    if lo >= len(idx.values) or hi < 0 or lo > hi:
        return None
    la, lb = idx.leaves[lo // idx.cap], idx.leaves[hi // idx.cap]
    anc = set()
    n = la
    while n is not None:
        anc.add(id(n))
        n = n.parent
    n = lb
    while n is not None:
        if id(n) in anc:
            return n
        n = n.parent
    return None


def _leaf_tree(layout, leaves, leaf: int) -> list:
    """The positions of the leaf's Cartesian tree in order, checking that
    each child's prev is at least its parent's."""
    base = leaf * layout.cap - 1
    order = []

    def walk(p):
        kid = leaves.lkid[p]
        if kid:
            assert layout.prevs[base + kid] >= layout.prevs[p]
            walk(base + kid)
        order.append(p)
        kid = leaves.rkid[p]
        if kid:
            assert layout.prevs[base + kid] >= layout.prevs[p]
            walk(base + kid)

    walk(base + 1 + leaves.root[leaf])
    return order


def _lists(layout, node) -> tuple:
    """The node's R as (value, color) and L as (value, prev, color) entries,
    read from the layout's list store."""
    r, l = slice(node.r_lo, node.r_hi), slice(node.l_lo, node.l_hi)
    return (list(zip(layout.last_v[r], layout.last_c[r])),
            list(zip(layout.first_v[l], layout.first_p[l], layout.first_c[l])))


def test_e1_shape(e1):
    idx = StaticIndex(e1)
    assert idx.cap == 3
    assert idx.nleaves == 3
    trees = [_leaf_tree(idx, idx.leaf_arrays, i) for i in range(3)]
    assert [len(t) for t in trees] == [3, 3, 2]
    assert sum(trees, []) == list(range(8))  # in order: the leaves' points
    # per leaf, the last point of each color and the first, value
    # ascending; the leaves come first in the list store
    leaves = [_lists(idx, leaf) for leaf in idx.leaves]
    assert [(leaf.r_lo, leaf.l_lo) for leaf in idx.leaves] == [(0, 0), (2, 2), (5, 5)]
    assert [v for r, _ in leaves for v, _ in r] == [3, 5, 7, 9, 12, 15, 20]
    assert [v for _, l in leaves for v, _, _ in l] == [1, 3, 7, 9, 12, 15, 20]
    assert [p for _, l in leaves for _, p, _ in l] == [0, 0, 0, 3, 5, 7, 9]
    # the root's children: leaf 0, and the node over leaves 1-2, whose R
    # and L hold one entry per color (3 colors, cap 3)
    left, right = idx.root.left, idx.root.right
    assert left is idx.leaves[0] and right.left is idx.leaves[1]
    assert _lists(idx, left) == ([(3, 1), (5, 0)], [(1, 0, 0), (3, 0, 1)])
    # a right internal child keeps only L, and the root neither list
    assert _lists(idx, right) == ([], [(7, 0, 2), (9, 3, 1), (12, 5, 0)])
    assert _lists(idx, idx.root) == ([], [])
    assert (len(idx.last_v), len(idx.first_v)) == (7, 10)
    # root middle value = first point of the right subtree
    assert idx.root.m == idx.values[idx.root.right.leaf_lo * idx.cap]


def _brute_lists(layout, node) -> tuple:
    """R and L of a node by their definition: per color its largest and its
    smallest point in the node, the `cap` largest maxima and the `cap`
    smallest minima kept, by value ascending. R is kept on leaves and left
    children, L on leaves and right children, neither on the root; a list
    not kept is empty."""
    last, first = {}, {}
    for j in range(node.leaf_lo * layout.cap,
                   min(node.leaf_hi * layout.cap, layout.n)):
        c = layout.colors[j]
        last[c] = (layout.values[j], c)
        first.setdefault(c, (layout.values[j], layout.prevs[j], c))
    leaf, parent = node.left is None, node.parent
    keep_r = leaf or parent is not None and parent.left is node
    keep_l = leaf or parent is not None and parent.right is node
    return (sorted(last.values())[-layout.cap:] if keep_r else [],
            sorted(first.values())[:layout.cap] if keep_l else [])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_list_store_matches_definition(data):
    # every node's R and L, leaves included, against the definition; the
    # nodes' cuts, empty for a list not kept, tile the list store
    n = data.draw(st.integers(0, 300), label="n")
    cap = data.draw(st.integers(2, 8), label="cap")
    ncolors = data.draw(st.integers(1, max(1, n)), label="colors")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    layout = TreeLayout(random_instance(rng, n, n + rng.randrange(0, n + 1),
                                        ncolors), cap)
    nodes = [layout.root] if layout.root is not None else []
    for node in nodes:
        if node.left is not None:
            nodes += (node.left, node.right)
    for lo, hi, store in (("r_lo", "r_hi", layout.last_v),
                          ("l_lo", "l_hi", layout.first_v)):
        cuts = sorted((getattr(node, lo), getattr(node, hi)) for node in nodes)
        ends = [0] + [end for _, end in cuts]
        assert [start for start, _ in cuts] == ends[:-1]
        assert ends[-1] == len(store)
    for node in nodes:
        assert _lists(layout, node) == _brute_lists(layout, node)


def test_single_point_and_empty():
    idx1 = StaticIndex([ColoredPoint(5, 0)])
    assert idx1.nleaves == 1 and idx1.root is idx1.leaves[0]
    assert idx1.query(1, 10) == [0]
    idx0 = StaticIndex([])
    assert idx0.query(1, 10) == []
    assert idx0.one_report(1, 10) is None


def test_one_report(e1):
    idx = StaticIndex(e1)
    e = idx.one_report(4, 13)
    assert e is not None and 4 <= e.value <= 13
    assert idx.one_report(8, 8) is None
    assert idx.one_report(1, 1) == ColoredPoint(1, 0)


def test_hra_examples(e1):
    idx = StaticIndex(e1)
    # query [4,13]: range spans two leaves; hra equals the brute-force LCA here
    leaf = idx.leaf_of(5)
    u = idx.hra_query(leaf, 4, 13)
    assert u is brute_lca_leaves(idx, 4, 13)
    # range inside one leaf with no qualifying ancestor
    leaf = idx.leaf_of(1)
    assert idx.hra_query(leaf, 1, 2) is None
    # two points in one leaf
    two = StaticIndex([ColoredPoint(1, 0), ColoredPoint(2, 1)])
    assert two.hra_query(0, 1, 2) is None


def test_query_examples(e1):
    idx = StaticIndex(e1)
    assert set(idx.query(4, 13)) == {0, 1, 2}
    assert idx.query(6, 6) == []
    assert set(idx.query(1, 20)) == {0, 1, 2}
    with pytest.raises(InvalidRange):
        idx.query(5, 4)


def test_facts_2_3_on_random_instances():
    rng = random.Random(23)
    for _ in range(40):
        pts = random_instance(rng, rng.randrange(2, 300), 1200, 10)
        idx = StaticIndex(pts)
        # Fact 3: K1 ascending, K2 descending, for every leaf
        for li in range(idx.nleaves):
            k1v = [m for m, _ in idx.k1[li]]
            k2v = [m for m, _ in idx.k2[li]]
            assert k1v == sorted(k1v) and len(set(k1v)) == len(k1v)
            assert k2v == sorted(k2v, reverse=True) and len(set(k2v)) == len(k2v)
        # Fact 2: for a queried leaf with a hit, left parents have m > a,
        # right parents m <= b
        for _ in range(50):
            a = rng.randrange(1, 1220)
            b = rng.randrange(a, 1220)
            e = idx.one_report(a, b)
            if e is None:
                continue
            li = idx.leaf_of(e.value)
            node = idx.leaves[li]
            while node.parent is not None:
                p = node.parent
                if p.left is node:
                    assert p.m > a
                else:
                    assert p.m <= b
                node = p


def test_hra_query_matches_upward_walk():
    # the flat K store's two bisections give the highest ancestor with
    # a < m <= b that a walk up from the leaf finds, for every leaf
    rng = random.Random(29)
    found = 0
    for _ in range(60):
        n = rng.randrange(1, 400)
        u = n + rng.randrange(0, 2 * n)
        idx = StaticIndex(random_instance(rng, n, u, rng.randrange(1, 20)))
        for leaf in range(idx.nleaves):
            for _ in range(20):
                a = rng.randrange(0, u + 2)
                b = rng.randrange(a, u + 2)
                want, node = None, idx.leaves[leaf]
                while node.parent is not None:
                    node = node.parent
                    if a < node.m <= b:
                        want = node
                meter = CostMeter()
                assert idx.hra_query(leaf, a, b, meter) is want, (leaf, a, b)
                assert meter.locate_ops == 1
                found += want is not None
    assert found > 1000


def test_static_layout_entry_counts():
    # what the static index stores on one fixed instance, by entry counts:
    # a list kept where no query reads it, a second copy of the K store or
    # a change to the fallback's levels changes them
    idx = StaticIndex(random_instance(random.Random(71), 1 << 12, 1 << 15, 200))
    assert (idx.n, idx.cap, idx.nleaves) == (1 << 12, 12, 342)
    # list slots: R as (value, color), L as (value, prev, color)
    r, l = len(idx.last_v), len(idx.first_v)
    assert (r, l) == (len(idx.last_c), len(idx.first_c)) == (5501, 6533)
    assert len(idx.first_p) == l and 2 * r + 3 * l == 30601  # 7.47 per point
    # K: one (m, node) entry per leaf and ancestor, the sum of leaf depths
    depths = 0
    for leaf in idx.leaves:
        while leaf.parent is not None:
            depths, leaf = depths + 1, leaf.parent
    assert len(idx.km) == len(idx.kn) == depths == 2908
    assert len(idx.koff) == idx.nleaves + 1
    # fallback: one (prevpos, color) entry per first point of a block, over
    # nine levels from blocks of one leaf up; 5.22 per point
    fb = idx.fallback
    assert len(fb.keys) == len(fb.firsts) == 21371
    assert len(fb.level_base) == 9 and len(fb.block_start) == 687
    # every column by name: the colors stay lists, since answers are slices
    # of them; the int columns and the node columns are arrays
    assert sorted(k for k, v in vars(idx).items() if isinstance(v, list)) == [
        "colors", "first_c", "last_c", "nodes"]
    assert sorted(k for k, v in vars(idx).items() if isinstance(v, array)) == [
        "first_p", "first_v", "height", "km", "kn", "koff", "last_v",
        "lchild", "loff", "prevs", "rchild", "roff", "values"]
    assert len(idx.nodes) == len(idx.height) == 2 * idx.nleaves - 1
    assert len(idx.roff) == len(idx.loff) == len(idx.nodes) + 1


def test_static_answers_and_counts_pinned():
    # the sorted answers and the CostMeter totals of a fixed query set on a
    # fixed instance, over every route (one leaf, the lists, the fallback)
    rng = random.Random(97)
    idx = StaticIndex(random_instance(rng, 1 << 12, 1 << 15, 300))
    digest, meter = hashlib.sha256(), CostMeter()
    for w in [1, 16, 64, 512, 4096, 1 << 13] * 300:
        a = rng.randrange(1, (1 << 15) - w + 2)
        digest.update(repr(sorted(idx.query(a, a + w - 1, meter))).encode())
    assert digest.hexdigest() == (
        "a0d9129d014233863835e917efc5775addcdc349eb4f99748e8ce313ca2d15ba")
    assert (meter.touches, meter.locate_ops) == (184816, 11212)


class _FallbackSpy:
    """Counts the queries that reach the array fallback (a full R/L list was
    exhausted) and keeps their ranges."""

    def __init__(self, fallback):
        self.fallback = fallback
        self.calls = 0
        self.ranges = []

    def query(self, a, b, meter=None):
        self.calls += 1
        self.ranges.append((a, b))
        return self.fallback.query(a, b, meter)


class _LeafSpy:
    """A fallback's leaf lookups (`LeafArrays.window` and the layout's edge
    lists, `suffix` and `prefix`) that tallies, apart from the caller's
    meter, the cost and the number of colors of the lookups it answers, and
    the calls of each lookup."""

    def __init__(self, leaves, layout):
        self.leaves, self.layout = leaves, layout
        self.tally = {"touches": 0, "locate_ops": 0, "colors": 0}
        self.shapes = dict.fromkeys(("window", "suffix", "prefix"), 0)

    def __getattr__(self, name):
        lookup = getattr(self.leaves if name == "window" else self.layout, name)

        def spied(*args):
            *args, meter = args
            own = CostMeter()
            out = lookup(*args, own)
            self.shapes[name] += 1
            self.tally["touches"] += own.touches
            self.tally["locate_ops"] += own.locate_ops
            self.tally["colors"] += len(out)
            if meter is not None:
                meter.touches += own.touches
                meter.locate_ops += own.locate_ops
            return out

        return spied


def _spy_leaves(fallback) -> _LeafSpy:
    spy = fallback.leaves = fallback.layout = _LeafSpy(fallback.leaves,
                                                        fallback.layout)
    return spy


def _array_part(fallback, a, b):
    """The fallback's answer on [a, b], and the touches, locate ops and
    colors of its array part (all but the leaf lookups)."""
    tally = fallback.leaves.tally
    for key in tally:
        tally[key] = 0
    meter = CostMeter()
    out = fallback.query(a, b, meter)
    return (out, meter.touches - tally["touches"],
            meter.locate_ops - tally["locate_ops"], len(out) - tally["colors"])


def test_fallback_answers_every_range_small():
    # the fallback alone, over every range: no duplicates and the oracle's
    # colors, also where the window starts at a leaf's first point, both
    # within that leaf and across interior blocks
    rng = random.Random(47)
    same_leaf = across = 0
    for _ in range(30):
        n = rng.randrange(1, 160)
        u = rng.randrange(max(4, n), n + 60)
        pts = random_instance(rng, n, u, rng.randrange(1, 12))
        idx = StaticIndex(pts)
        fo = FastOracle(pts)
        _spy_leaves(idx.fallback)
        for a in range(1, u + 2):
            j = bisect.bisect_left(idx.values, a)
            for b in range(a, u + 2):
                out, _, locate, _ = _array_part(idx.fallback, a, b)
                assert len(out) == len(set(out)), (pts, a, b, out)
                assert set(out) == fo.report(a, b), (pts, a, b)
                r = bisect.bisect_right(idx.values, b)
                if j < r and j % idx.cap == 0:
                    same_leaf += (r - 1) // idx.cap == j // idx.cap
                    across += locate > 1  # aligned blocks were searched
    assert same_leaf > 0 and across > 0


def test_fallback_searches_level0_blocks():
    # the interior leaves of a range are aligned blocks from one leaf up:
    # each block searched is one locate op, each color it reports one
    # touch, and no leaf's Cartesian tree is walked; an interior of one
    # leaf is that leaf's level-0 block
    rng = random.Random(67)
    level0 = one_leaf = 0
    for _ in range(20):
        n = rng.randrange(40, 400)
        pts = random_instance(rng, n, 2 * n, rng.randrange(1, 40))
        idx = StaticIndex(pts)
        fo = FastOracle(pts)
        fallback, cap = idx.fallback, idx.cap
        spy = _spy_leaves(fallback)
        leaf_blocks = -(-idx.n // cap)  # level 0: block g is leaf g
        for _ in range(300):
            a = rng.randrange(1, 2 * n + 1)
            b = rng.randrange(a, 2 * n + 1)
            j = bisect.bisect_left(idx.values, a)
            r = bisect.bisect_right(idx.values, b)
            if j >= r or j // cap == (r - 1) // cap:
                continue
            lo, hi = j // cap, (r - 1) // cap
            _, blocks = leaf_cover(lo, hi, fallback.level_base, 1)
            windows = spy.shapes["window"]
            out, touches, locate, colors = _array_part(fallback, a, b)
            assert set(out) == fo.report(a, b) and len(out) == len(set(out))
            assert spy.shapes["window"] == windows
            assert locate == 1 + len(blocks) and touches == colors
            level0 += sum(g < leaf_blocks for g in blocks)
            if hi - lo == 2:
                assert blocks == [lo + 1]
                one_leaf += 1
    assert level0 > 100 and one_leaf > 0


def test_fallback_metering():
    # on the queries that reach the fallback, its array part counts one touch
    # per color it reports and one locate op for [a, b] plus one per block
    # searched, at most two blocks per level
    rng = random.Random(59)
    pts = random_instance(rng, 1 << 12, 1 << 15, 200)
    idx = StaticIndex(pts)
    spy = idx.fallback = _FallbackSpy(idx.fallback)
    for _ in range(1500):
        a = rng.randrange(1, (1 << 15) + 1)
        idx.query(a, rng.randrange(a, (1 << 15) + 1))
    assert spy.calls > 100
    fallback = spy.fallback
    _spy_leaves(fallback)
    bound = 2 * math.ceil(math.log2(idx.nleaves))
    with_blocks = 0
    for a, b in spy.ranges:
        out, touches, locate, colors = _array_part(fallback, a, b)
        assert len(out) == len(set(out))
        assert touches == colors
        assert 1 <= locate <= bound
        with_blocks += locate > 1
    assert with_blocks > len(spy.ranges) // 2


def _permuted_leaves(rng, cap, nleaves):
    """`cap` colors, each leaf a permutation of them: every leaf after the
    first holds only colors that a range from the first leaf on has already
    reported, the most entries a leaf lookup can take and drop."""
    colors = []
    for _ in range(nleaves):
        perm = list(range(cap))
        rng.shuffle(perm)
        colors += perm
    return [ColoredPoint(v + 1, c) for v, c in enumerate(colors)]


@pytest.mark.parametrize("cap", range(2, 7))
def test_leaf_shapes_exhaustive(cap):
    # every range of small layouts with leaves of `cap` points, through the
    # fallback: each lookup shape (a window inside one leaf, the suffix of
    # the left edge leaf, the prefix of the right edge leaf, a level-0
    # block of one interior leaf) answers the oracle's colors once, the
    # leaves touch at most 2k + 2 entries, and each leaf's Cartesian tree
    # holds its points in order
    rng = random.Random(61 + cap)
    instances = [_permuted_leaves(rng, cap, 8)]
    for _ in range(4):
        n = rng.randrange(1, 12 * cap)
        u = n + rng.randrange(0, n // 2 + 2)
        instances.append(random_instance(rng, n, u, rng.randrange(1, n + 1)))
    shapes = dict.fromkeys(("window", "suffix", "prefix", "level0"), 0)
    for pts in instances:
        layout = TreeLayout(pts, cap)
        leaves = LeafArrays(layout)
        order = []
        for leaf in range(layout.nleaves):
            order += _leaf_tree(layout, leaves, leaf)
        assert order == list(range(layout.n))
        u = pts[-1].value
        # a whole leaf visits only reported points and their pruned children
        for leaf in range(layout.n // cap):
            for a in range(1, u + 2):
                meter = CostMeter()
                got = leaves.window(leaf, leaf * cap, leaf * cap + cap, a, meter)
                assert meter.touches == len(got)
                assert meter.locate_ops <= len(got) + 1
        fallback = ArrayFallback(layout, leaves)
        spy = _spy_leaves(fallback)
        fo = FastOracle(pts)
        leaf_blocks = layout.nleaves  # level 0: block g is leaf g
        for a in range(1, u + 2):
            lo = bisect.bisect_left(layout.values, a) // cap
            for b in range(a, u + 2):
                out, _, _, _ = _array_part(fallback, a, b)
                assert len(out) == len(set(out)), (pts, a, b, out)
                assert set(out) == fo.report(a, b), (pts, a, b)
                assert spy.tally["touches"] <= 2 * len(out) + 2, (pts, a, b)
                hi = (bisect.bisect_right(layout.values, b) - 1) // cap
                if lo < hi:
                    _, blocks = leaf_cover(lo, hi, fallback.level_base, 1)
                    shapes["level0"] += sum(g < leaf_blocks for g in blocks)
        for name, calls in spy.shapes.items():
            shapes[name] += calls
    assert min(shapes.values()) > 0, shapes


def test_oracle_equivalence_exhaustive_small():
    # the answer must also hold no duplicate: nothing deduplicates it, so a
    # color on both sides of m(u) relies on the prev-filter of L(u_r)
    rng = random.Random(41)
    crossing = 0  # lists-route queries with a color on both sides of m(u)
    for _ in range(25):
        n = rng.randrange(1, 64)
        u = rng.randrange(max(4, n), 90)
        pts = random_instance(rng, n, u, rng.randrange(1, 8))
        idx = StaticIndex(pts)
        spy = idx.fallback = _FallbackSpy(idx.fallback)
        fo = FastOracle(pts)
        for a in range(1, u + 1):
            for b in range(a, u + 1):
                calls = spy.calls
                out = idx.query(a, b)
                assert len(out) == len(set(out)), (pts, a, b, out)
                assert set(out) == fo.report(a, b), (pts, a, b)
                e = idx.one_report(a, b)
                if e is None or spy.calls != calls:
                    continue
                node = idx.hra_query(idx.leaf_of(e.value), a, b)
                if node is not None:
                    both = fo.report(a, node.m - 1) & fo.report(node.m, b)
                    crossing += bool(both)
    assert crossing > 0


def test_oracle_equivalence_randomized_large():
    rng = random.Random(43)
    n = 1 << 14
    pts = random_instance(rng, n, 1 << 17, 70)
    idx = StaticIndex(pts)
    fo = FastOracle(pts)
    for _ in range(2500):
        a = rng.randrange(1, (1 << 17) + 1)
        b = rng.randrange(a, (1 << 17) + 1)
        out = idx.query(a, b)
        assert len(out) == len(set(out))
        assert set(out) == fo.report(a, b)


def test_reporting_touches_bounded():
    rng = random.Random(53)
    pts = random_instance(rng, 1 << 12, 1 << 15, 200)
    idx = StaticIndex(pts)
    logn = idx.cap
    meter = CostMeter()
    for _ in range(800):
        a = rng.randrange(1, (1 << 15) + 1)
        b = rng.randrange(a, (1 << 15) + 1)
        meter.reset()
        out = idx.query(a, b, meter=meter)
        k = len(out)
        assert meter.touches <= 8 * (k + 1) + 4 * logn


def test_dedup_cross_halves(e1):
    # a color present on both sides of m(u) must be reported once; [3, 9]
    # answers from the R/L lists (B at 3 and 9), [4, 13] from the fallback
    idx = StaticIndex(e1)
    for a, b in ((3, 9), (4, 13)):
        out = idx.query(a, b)
        assert sorted(out) == sorted(set(out))
        assert set(out) == oracle_report(e1, Range(a, b))


def _em(pts):
    return EmIndex.build(pts, B=4)


_NEGATIVE = [ColoredPoint(10, 0), ColoredPoint(20, 1), ColoredPoint(25, -1),
             ColoredPoint(30, 2)]
_DUPLICATE = [ColoredPoint(5, 0), ColoredPoint(5, 1)]
_DESCENDING = [ColoredPoint(9, 0), ColoredPoint(5, 1)]
# answered [] on [-3, -3]: prev-sentinel 0 is not below every coordinate
_NONPOSITIVE = [ColoredPoint(-3, 0), ColoredPoint(2, 1)]


@pytest.mark.parametrize("build,pts,error", [
    pytest.param(StaticIndex, _NEGATIVE, InvalidColor, id="static"),
    pytest.param(_em, _NEGATIVE, InvalidColor, id="em"),
    pytest.param(StaticIndex, _DUPLICATE, DuplicateX, id="static-duplicate"),
    pytest.param(_em, _DUPLICATE, DuplicateX, id="em-duplicate"),
    pytest.param(StaticIndex, _DESCENDING, ValueError, id="static-descending"),
    pytest.param(_em, _DESCENDING, ValueError, id="em-descending"),
    pytest.param(StaticIndex, _NONPOSITIVE, InvalidCoordinate, id="static-nonpositive"),
    pytest.param(_em, _NONPOSITIVE, InvalidCoordinate, id="em-nonpositive"),
])
def test_negative_color_rejected(build, pts, error):
    # a negative id would alias the highest color in a color-indexed array;
    # the shared layout also requires strictly ascending coordinates >= 1
    with pytest.raises(error):
        build(pts)
