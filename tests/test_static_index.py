import bisect
import gc
import hashlib
import math
import random
import threading
import tracemalloc
from array import array

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorrange.core import (ColoredPoint, CostMeter, DuplicateX, InvalidColor,
                             InvalidCoordinate, InvalidRange, NotFound, Range,
                             FastOracle, compute_prev, normalize_input,
                             oracle_report)
from colorrange import static_index
from colorrange.em_index import EmIndex
from colorrange.static_index import (ArrayFallback, StaticIndex, TreeLayout,
                                     _column, fallback_levels, first_points,
                                     leaf_cover)
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


def _value(layout, p: int) -> int:
    """The value at position p, 0 (the prev of no point) at -1."""
    return layout.values[p] if p >= 0 else 0


def _lists(layout, node) -> tuple:
    """The node's R as (value, color) and L as (value, prev, color) entries,
    read from the layout's list store, its positions turned into values."""
    r, l = slice(node.r_lo, node.r_hi), slice(node.l_lo, node.l_hi)
    return ([(_value(layout, p), c)
             for p, c in zip(layout.last_pos[r], layout.last_c[r])],
            [(v, _value(layout, p), c) for v, p, c in zip(
                layout.first_v[l], layout.first_prevpos[l], layout.first_c[l])])


def test_e1_shape(e1):
    # the layout's shape at leaves of 3 points
    idx = TreeLayout(e1, 3)
    assert idx.nleaves == 3
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
    assert (len(idx.last_pos), len(idx.first_v)) == (7, 10)
    # root middle value = first point of the right subtree
    assert idx.root.m == idx.values[idx.root.right.leaf_lo * idx.cap]


def _brute_lists(layout, prevs, node) -> tuple:
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
        first.setdefault(c, (layout.values[j], prevs[j], c))
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
    for lo, hi, store in (("r_lo", "r_hi", layout.last_pos),
                          ("l_lo", "l_hi", layout.first_v)):
        cuts = sorted((getattr(node, lo), getattr(node, hi)) for node in nodes)
        ends = [0] + [end for _, end in cuts]
        assert [start for start, _ in cuts] == ends[:-1]
        assert ends[-1] == len(store)
    prevs = compute_prev(list(zip(layout.values, layout.colors)))
    for node in nodes:
        assert _lists(layout, node) == _brute_lists(layout, prevs, node)


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
    assert (idx.cap, idx.nleaves) == (6, 2)
    # query [4,16]: range spans both leaves; hra equals the brute-force LCA,
    # the root
    leaf = idx.leaf_of(5)
    u = idx.hra_query(leaf, 4, 16)
    assert u is brute_lca_leaves(idx, 4, 16) is idx.root
    # ranges inside one leaf with no qualifying ancestor
    assert idx.hra_query(leaf, 4, 13) is None
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
    assert (idx.n, idx.cap, idx.nleaves) == (1 << 12, 24, 171)
    # list slots: R as (position, color), L as (value, prevpos, color)
    r, l = len(idx.last_pos), len(idx.first_v)
    assert (r, l) == (len(idx.last_c), len(idx.first_c)) == (5376, 6408)
    assert len(idx.first_prevpos) == l and 2 * r + 3 * l == 29976  # 7.32 per point
    # K: one (m, node) entry per leaf and ancestor, the sum of leaf depths
    depths = 0
    for leaf in idx.leaves:
        while leaf.parent is not None:
            depths, leaf = depths + 1, leaf.parent
    assert len(idx.km) == len(idx.kn) == depths == 1283
    assert len(idx.koff) == idx.nleaves + 1
    # fallback: one (prevpos, color) entry per first point of a block, over
    # eight levels from blocks of one leaf up; 4.25 per point
    fb = idx.fallback
    assert len(fb.keys) == len(fb.firsts) == 17394
    assert len(fb.level_base) == 8 and len(fb.block_start) == 345
    # every column by name and typecode: the colors stay lists, since
    # answers are slices of them; what is compared with a or b is a value,
    # int64, every position and node id int32, and the heights bytes; the
    # node objects, built when `idx.leaves` was read above, are a list too
    assert sorted(k for k, v in vars(idx).items() if isinstance(v, list)) == [
        "colors", "first_c", "last_c", "nodes"]
    assert {k: v.typecode for k, v in vars(idx).items()
            if isinstance(v, array)} == {
        "values": "q", "first_v": "q", "km": "q", "prevpos": "i",
        "last_pos": "i", "first_prevpos": "i", "kn": "i", "koff": "i",
        "roff": "i", "loff": "i", "lchild": "i", "rchild": "i", "height": "b"}
    assert (fb.keys.typecode, fb.block_start.typecode) == ("i", "i")
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
    assert (meter.touches, meter.locate_ops) == (187652, 9371)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 4096, 4097])
def test_static_cap_rule(n):
    # leaves of 2 ceil(log2 N) points: any constant multiple of log N keeps
    # the O(N) space and the O(1 + k) query of the lists route; N <= 2 is
    # one leaf of 2
    idx = StaticIndex([ColoredPoint(v + 1, v % 3) for v in range(n)])
    assert idx.cap == 2 * math.ceil(math.log2(max(n, 2)))
    assert idx.nleaves == -(-n // idx.cap)


def test_short_range_route_scans_its_points():
    # every range of at most cap points, inside one leaf or across a leaf
    # boundary, through the index: one locate op for succ(a), one for
    # pred(b) among the next cap points, then a scan of the range's
    # points, a touch per color and a locate op per point dropped
    rng = random.Random(89)
    idx = StaticIndex(random_instance(rng, 1 << 10, 1 << 12, 40))
    values, colors, cap, n = idx.values, idx.colors, idx.cap, idx.n
    across = 0
    for j in range(n):
        for r in range(j + 1, min(j + cap, n) + 1):
            # the tightest and the widest [a, b] over the points [j, r)
            for a, b in ((values[j], values[r - 1]),
                         (values[j - 1] + 1 if j else 1,
                          values[r] - 1 if r < n else values[r - 1] + 1)):
                meter, want = CostMeter(), set(colors[j:r])
                out = idx.query(a, b, meter)
                assert sorted(out) == sorted(want), (a, b)
                k = len(want)
                assert (meter.touches, meter.locate_ops) == (k, 2 + (r - j) - k)
            across += j // cap != (r - 1) // cap
    assert across > n * (cap - 1) // 4


@st.composite
def _threshold_case(draw):
    """An instance and a range [a, b] over its points [j, r) near the scan
    threshold: N of 0, 1, 2, cap or cap + 1 (2, 4, 6, 7 and 9) or any up to
    80, r - j of cap - 1, cap or cap + 1 or any up to cap + 1, j at a leaf's
    first point or within cap of the end, a <= 0."""
    n = draw(st.sampled_from([0, 1, 2, 4, 6, 7, 9]) | st.integers(0, 80))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ncolors = draw(st.integers(1, n + 1))
    pts = [ColoredPoint(v, draw(st.integers(0, ncolors - 1)))
           for v in np.cumsum(gaps).tolist()]
    if not n:
        a = draw(st.integers(-3, 5))
        return pts, a, draw(st.integers(a, 8)), 0, 0
    cap = 2 * math.ceil(math.log2(max(n, 2)))
    j = draw(st.integers(0, n - 1) | st.sampled_from(range(0, n, cap))
             | st.integers(max(0, n - cap), n - 1))
    r = min(n, j + draw(st.sampled_from([cap - 1, cap, cap + 1])
                        | st.integers(1, cap + 1)))
    values = [p.value for p in pts]
    if j == 0 and draw(st.booleans()):
        a = draw(st.integers(-3, 0))
    else:
        a = draw(st.integers(values[j - 1] + 1 if j else 1, values[j]))
    b = draw(st.integers(values[r - 1], values[r] - 1 if r < n else values[-1] + 3))
    return pts, a, b, j, r


@given(_threshold_case())
@settings(max_examples=400, deadline=None)
def test_scan_threshold(case):
    # at the threshold of cap points: the oracle's colors once each, a scan
    # (metered as succ(a), pred(b) and the points dropped) exactly for the
    # ranges of at most cap points, and the K run and the lists beyond it
    pts, a, b, j, r = case
    idx = StaticIndex(pts)
    scans, scan = [], idx.window

    def window(j, r, meter=None):
        scans.append(r - j)
        return scan(j, r, meter)

    idx.window = window
    meter = CostMeter()
    out = idx.query(a, b, meter)
    want = {p.color for p in pts if a <= p.value <= b}
    assert len(out) == len(set(out)) and set(out) == want, (pts, a, b)
    assert all(s <= idx.cap for s in scans), scans
    if 0 < r - j <= idx.cap:
        k = len(want)
        assert scans == [r - j]
        assert (meter.touches, meter.locate_ops) == (k, 2 + (r - j) - k)
    else:
        assert scans == []


def test_leaf_of_below_every_point_is_not_found(e1):
    # the leaf of the last point at or below a value: below the first
    # point there is none, and -1 would read as the last leaf
    idx = StaticIndex(e1)
    assert [idx.leaf_of(v) for v in (1, 2, 12, 14, 15, 99)] == [0, 0, 0, 0, 1, 1]
    for v in (0, -7):
        with pytest.raises(NotFound):
            idx.leaf_of(v)
    with pytest.raises(NotFound):
        StaticIndex([]).leaf_of(5)
    # nor does hra_query take a leaf outside [0, nleaves): -2 read the last
    # leaf's K run, and 2 raised a bare IndexError
    assert idx.nleaves == 2 and idx.hra_query(1, 1, 20) is idx.root
    for leaf in (-2, -1, 2, 9):
        with pytest.raises(NotFound):
            idx.hra_query(leaf, 1, 20)
    with pytest.raises(NotFound):
        StaticIndex([]).hra_query(0, 1, 2)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_prevpos_and_first_points_match_definitions(data):
    # prevpos against compute_prev's values, and every aligned block's first
    # points against the block's points: those with prevpos before the
    # block, by prevpos and then by position, on layouts of 1-3 leaves and
    # more, with short last leaves
    cap = data.draw(st.integers(2, 9), label="cap")
    nleaves = data.draw(st.one_of(st.integers(1, 3), st.integers(4, 40)),
                        label="leaves")
    n = data.draw(st.integers((nleaves - 1) * cap + 1, nleaves * cap), label="n")
    ncolors = data.draw(st.integers(1, n), label="colors")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    pts = random_instance(rng, n, 3 * n, ncolors)
    layout = TreeLayout(pts, cap)
    position = {v: i for i, (v, _) in enumerate(pts)}
    assert list(layout.prevpos) == [position.get(p, -1)
                                    for p in compute_prev(pts)]
    size = data.draw(st.sampled_from([cap, 2 * cap]), label="size")
    level_base, block_start, keys, pos = first_points(layout, size)
    assert level_base == fallback_levels(n, cap, nleaves, size)[0]
    want_starts, want = [0], []
    for level in range(len(level_base)):
        width = size << level
        for s in range(0, n, width):
            want += sorted((layout.prevpos[i], i)
                           for i in range(s, min(s + width, n))
                           if layout.prevpos[i] < s)
            want_starts.append(len(want))
    assert list(block_start) == want_starts
    assert list(zip(keys, pos.tolist())) == want
    if size == cap:
        fb = ArrayFallback(layout)
        assert fb.firsts == [layout.colors[i] for _, i in want]


def test_prevpos_of_colors_past_int64():
    # colors are compared exactly, however large
    pts = [ColoredPoint(v + 1, c) for v, c in enumerate(
        [2**70, 2**70 + 1, 2**63, 2**70, 2**63, np.uint64(2**64 - 1), 3,
         np.uint64(2**64 - 1)])]
    assert list(TreeLayout(pts, 2).prevpos) == [-1, -1, -1, 0, 2, -1, -1, 5]


def _column_digests(idx) -> dict:
    """sha256 of each column of a StaticIndex and its fallback: an array by
    its bytes, a list of colors by its repr."""
    cols = {name: getattr(idx, name) for name in (
        "values", "prevpos", "height", "lchild", "rchild", "roff", "loff",
        "last_pos", "last_c", "first_v", "first_prevpos", "first_c", "kn",
        "koff", "km", "colors")}
    cols.update(block_start=idx.fallback.block_start, keys=idx.fallback.keys,
                firsts=idx.fallback.firsts)
    return {name: hashlib.sha256(
        col.tobytes() if isinstance(col, array) else repr(col).encode()
    ).hexdigest() for name, col in cols.items()}


# taken before the set-up ran in whole-array passes; the layout's and the
# fallback's columns since leaves of 2 ceil(log2 N) points, equal to a
# layout of leaves of 24 points built before
_PIN_COLORS = 300
_PIN_LABELS = ["c85", "c138", "c288"]
_PIN_DIGESTS = {
    "values":
        "b429211b737754f6e5b2aa645a261a39261dbbd9e76d480993862636c7e90aa5",
    "prevpos":
        "6a5ac3f213f2235a7009cd7350866384202d674084dd128b834b7a2d90bd684e",
    "height":
        "c3a0d0755904f5b6b10d479a19f58d3ad43467e4cd2a073987a614c7cd884ad5",
    "lchild":
        "a8da7c7dc6410d02517fe290ab99a055218696c82fd1ffd44fdc43a68c8a2878",
    "rchild":
        "33af6f4a46d39d81861095121169f023e6c070f8e865326a6a006025920793a0",
    "roff":
        "8e562304c2cfecd73c576a354f27aa7498b909e5b9878c43ae86503a23486d83",
    "loff":
        "f2df17a2598292567d47ad52216e558178d5ee54d14a57c656705bbaef963dbe",
    "last_pos":
        "2232e2d0fb297c33675f4ebf771c7d9966e6e9efe877d94dfd1010211a47ae97",
    "last_c":
        "539fcf5faf67483c58262bbe72b15e65de552d633c36ef3f212c823c2c1b5d13",
    "first_v":
        "6cffddc9b6b23388a131aa59b4503726218fbd3eeb07f37a746646f7978b0911",
    "first_prevpos":
        "ecb2ff8b84cd1221bf177bd22262f77b40040e0593b750e54bff9634ed7b76fc",
    "first_c":
        "0b82282f0eacfe2f13fad723a6caaba4cb4181424845ee99854715a7ebda00a4",
    "kn":
        "f48201fb55de59f2090e22747bcd0bce885158168f60172794511247040fef3d",
    "koff":
        "5b3d83e66e1e7a01bf58636fad80fc4d335ddba28ffd499e9874c9e9ce75823f",
    "km":
        "2b15d3d2ca5a0e8deb840492b2e9679630f0337425f966ec849112b208bc1107",
    "colors":
        "205704c77bc59fae4a0ed35b9e89a45bff6d9c38066fb7d6aeea737fcbb7416b",
    "block_start":
        "b8f64efd1f8b5623ac72c7e622165e3296e82580706616cfc9605c0f1c3ecad9",
    "keys":
        "66764cc4e5bfdd7e1047028ee07c5116a3d0a71b8f2d0cc0c99bbbf1157787bc",
    "firsts":
        "759132f6bd5b42be72b8d376cc5be14f2d65470dd4d6a13d0b6b12c16b3f3319",
}
_PIN_EM = ("eb41bb7d4a3afae4e4fae9d510c04bc77a1c7dfc4ade38c149bf4f7f910d9020")


def test_setup_output_pinned():
    # every column and an em index file of one seeded 2^12-point instance
    rng = random.Random(4096)
    pairs = [(v, f"c{rng.randrange(300)}")
             for v in rng.sample(range(1, 1 << 20), 1 << 12)]
    pts, remap = normalize_input(pairs)
    assert (len(remap), remap.reverse[:3]) == (_PIN_COLORS, _PIN_LABELS)
    assert _column_digests(StaticIndex(pts)) == _PIN_DIGESTS
    assert hashlib.sha256(EmIndex.build(pts, B=8).to_bytes()).hexdigest() == (
        _PIN_EM)


def test_column_refuses_values_it_would_wrap():
    # numpy's assignment into an int32 view wraps 2^31 to -2^31 silently
    assert _column(np.array([-1, 2**31 - 1]), "i").tolist() == [-1, 2**31 - 1]
    for bad in (2**31, -2**31 - 1):
        with pytest.raises(ValueError, match="does not fit"):
            _column(np.array([0, bad]), "i")
    assert _column(np.array([2**31]), "q").tolist() == [2**31]
    assert _column(np.array([], dtype=np.int64), "i").tolist() == []


def test_static_memory_per_point():
    # positions and ids in 32-bit columns, no node object at build time and
    # leaves of 2 ceil(log2 N) points: 64.8 B/point here, where leaves of
    # ceil(log2 N) kept 93.9, and 64-bit columns and node objects built with
    # the tree 137.8
    pts = random_instance(random.Random(83), 1 << 14, 1 << 16, 16)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idx = StaticIndex(pts)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert idx.n == len(pts)
    assert retained / len(pts) <= 72, retained / len(pts)


def test_nodes_built_only_when_read(monkeypatch):
    # a build and queries on every route read columns only; the node
    # objects are made on the first walk, once, and shared by later walks
    # and by readers that race to the first
    rng = random.Random(79)
    pts = random_instance(rng, 1 << 10, 1 << 13, 40)
    idx = StaticIndex(pts)
    spy = idx.fallback = _FallbackSpy(idx.fallback)
    routes = set()
    for w in [1, 16, 64, 512, 4096] * 200:
        a = rng.randrange(1, (1 << 13) - w + 2)
        b, calls = a + w - 1, spy.calls
        idx.query(a, b, CostMeter())
        j = bisect.bisect_left(idx.values, a)
        if j == idx.n or idx.values[j] > b:
            routes.add("empty")
        elif idx._hra(j // idx.cap, a, b) < 0:
            routes.add("leaf")
        else:
            routes.add("fallback" if spy.calls > calls else "lists")
    assert routes == {"empty", "leaf", "lists", "fallback"}
    assert "nodes" not in vars(idx)
    assert idx.root is idx.nodes[idx.root_id] is vars(idx)["nodes"][idx.root_id]
    pairs = idx.k1[3] + idx.k2[3]
    assert pairs and all(x is y for (_, x), (_, y) in zip(
        pairs, idx.k1[3] + idx.k2[3]))
    assert idx.hra_query(0, 0, 1 << 13) is idx.root
    # the external-memory build reads the same layout's columns only
    monkeypatch.setattr(static_index.TreeLayout, "_make_nodes", None)
    EmIndex.build(pts, B=4)
    monkeypatch.undo()
    fresh, roots = StaticIndex(pts), []
    barrier = threading.Barrier(4)

    def read():
        barrier.wait()
        roots.append(fresh.root)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(roots) == 4 and all(r is fresh.root for r in roots)


def _leaf_cover_reference(lo: int, hi: int, level_base: list, size: int):
    """`leaf_cover` as one loop over the levels, with a level of single
    leaves (None) first for `size` 2."""
    if lo == hi:
        return [lo], []
    leaves, blocks = [lo, hi], []
    lo += 1
    for base in [None] * (size - 1) + level_base:
        if lo >= hi:
            break
        out, base = (leaves, 0) if base is None else (blocks, base)
        if lo & 1:
            out.append(base + lo)
            lo += 1
        if hi & 1:
            hi -= 1
            out.append(base + hi)
        lo >>= 1
        hi >>= 1
    return leaves, blocks


@pytest.mark.parametrize("size", [1, 2])
def test_leaf_cover_every_range(size):
    # every range of up to 64 leaves, with blocks from `size` leaves up (1:
    # the static fallback, 2: the external-memory one): the reference's
    # cover, the interior tiled once by single leaves and aligned blocks,
    # at most two blocks per level
    cap = 3
    for nleaves in range(1, 65):
        level_base, _ = fallback_levels(nleaves * cap, cap, nleaves, size * cap)
        for lo in range(nleaves):
            for hi in range(lo, nleaves):
                leaves, blocks = leaf_cover(lo, hi, level_base, size)
                assert (leaves, blocks) == _leaf_cover_reference(
                    lo, hi, level_base, size), (nleaves, lo, hi)
                if lo == hi:
                    continue
                covered = leaves[2:]
                levels = [bisect.bisect_right(level_base, g) - 1 for g in blocks]
                for g, level in zip(blocks, levels):
                    width = size << level
                    start = (g - level_base[level]) * width
                    covered += range(start, start + width)
                assert sorted(covered) == list(range(lo + 1, hi))
                assert all(levels.count(x) <= 2 for x in levels)


class _FallbackSpy:
    """Counts the queries that reach the array fallback (a full R/L list was
    exhausted) and keeps their ranges."""

    def __init__(self, fallback):
        self.fallback = fallback
        self.calls = 0
        self.ranges = []

    def query(self, a, b, j, meter=None):
        self.calls += 1
        self.ranges.append((a, b))
        return self.fallback.query(a, b, j, meter)


class _LeafSpy:
    """A fallback's leaf lookups (the layout's one-leaf scan `window` and
    its edge lists, `suffix` and `prefix`) that tallies, apart from the
    caller's meter, the cost and the number of colors of the lookups it
    answers, and the calls of each lookup."""

    def __init__(self, layout):
        self.layout = layout
        self.tally = {"touches": 0, "locate_ops": 0, "colors": 0}
        self.shapes = dict.fromkeys(("window", "suffix", "prefix"), 0)

    def __getattr__(self, name):
        lookup = getattr(self.layout, name)

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
    spy = fallback.layout = _LeafSpy(fallback.layout)
    return spy


def _array_part(fallback, a, b):
    """The fallback's answer on [a, b], handed succ(a)'s position as
    `StaticIndex.query` hands it, and the touches, locate ops and colors of
    its array part (all but the leaf lookups)."""
    tally = fallback.layout.tally
    for key in tally:
        tally[key] = 0
    meter = CostMeter()
    out = fallback.query(a, b, bisect.bisect_left(fallback.values, a), meter)
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
    # touch, and no range inside one leaf is scanned; an interior of one
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
    # block of one interior leaf) answers the oracle's colors once, and the
    # leaves touch at most 2k + 2 entries
    rng = random.Random(61 + cap)
    instances = [_permuted_leaves(rng, cap, 8)]
    for _ in range(4):
        n = rng.randrange(1, 12 * cap)
        u = n + rng.randrange(0, n // 2 + 2)
        instances.append(random_instance(rng, n, u, rng.randrange(1, n + 1)))
    shapes = dict.fromkeys(("window", "suffix", "prefix", "level0"), 0)
    for pts in instances:
        layout = TreeLayout(pts, cap)
        u = pts[-1].value
        # a window from any position to the end of a full leaf reports the
        # colors there once each, and scans each of its points once: a
        # touch per color, a locate op per point dropped
        for leaf in range(layout.n // cap):
            end = leaf * cap + cap
            for j in range(leaf * cap, end):
                meter = CostMeter()
                got = layout.window(j, end, meter)
                assert sorted(got) == sorted(set(layout.colors[j:end]))
                assert meter.touches == len(got)
                assert meter.locate_ops == (end - j) - len(got)
        fallback = ArrayFallback(layout)
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
                # ranges of at most cap points are scanned
                points = (bisect.bisect_right(idx.values, b)
                          - bisect.bisect_left(idx.values, a))
                if e is None or spy.calls != calls or points <= idx.cap:
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
    # a color present on both sides of m(u) must be reported once; [3, 20]
    # answers from the R/L lists (7 points, m = 15, colors 1 and 2 on both
    # sides), [7, 20] of 5 points is scanned across the leaves, and [3, 9]
    # and [4, 13] lie in the first leaf of 6 points
    idx = StaticIndex(e1)
    assert idx.hra_query(idx.leaf_of(3), 3, 20) is idx.root
    assert idx.hra_query(idx.leaf_of(7), 7, 20) is idx.root
    for a, b in ((3, 20), (7, 20), (3, 9), (4, 13)):
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
