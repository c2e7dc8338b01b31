import bisect
import random

import pytest

from colorrange.core import DuplicateX, NotFound
from colorrange.wbtree import WbTree


def brute_hra(tree: WbTree, leaf, a, b):
    """Ancestor scan: highest node with some m_i in (a, b]."""
    best = None
    node = leaf
    while node.parent is not None:
        p = node.parent
        if any(a < m <= b for m in p.seps):
            best = p
        node = p
    return best


def leaf_has_hit(leaf, a, b):
    return any(a <= v <= b for v in leaf.values)


def test_build_and_navigation():
    t = WbTree(range(1, 2001))
    assert t.size == 2000
    assert sorted(t.iter_values()) == list(range(1, 2001))
    assert t.succ(0) == 1
    assert t.succ(1500) == 1500
    assert t.succ(2001) is None
    assert 77 in t and 2001 not in t
    t.check_weight_bounds()
    t.check_k_monotone()


def test_duplicate_and_missing():
    t = WbTree([5])
    with pytest.raises(DuplicateX):
        t.insert(5)
    with pytest.raises(NotFound):
        t.delete(6)


def test_ascending_inserts_split_leaf():
    # fill one leaf region until it splits; the parent gains one separator
    # equal to the new right sibling's first value
    t = WbTree(range(0, 600_000, 1000))
    leaf = t.first_leaf
    room = 2 * t.leaf_param - leaf.size
    events = []
    v = 0
    inserted = 0
    while not events:
        v += 1
        if v % 1000 == 0:
            continue
        ev = t.insert(v)
        assert not ev["rebuilt"]
        events = [e for e in ev["splits"] if e[3] == 0]
        inserted += 1
    assert inserted >= room  # no split before the capacity was exceeded
    parent, left, right, h = events[0]
    assert h == 0 and right.values[0] in parent.seps
    assert ev["leaf"] is right and v in right.values  # the half holding v
    assert left.next_leaf is right and right.prev_leaf is left
    t.check_weight_bounds()
    t.check_k_monotone()


def test_delete_below_threshold_keeps_shape_and_stale_seps():
    t = WbTree(range(1, 1001))
    root_before = t.root
    seps_before = list(getattr(t.root, "seps", []))
    sep_val = seps_before[0]
    assert sep_val in t
    t.delete(sep_val)  # the sep value stays in place (lazy rule)
    assert t.root is root_before
    assert list(t.root.seps) == seps_before
    assert sep_val not in t


def test_rebuild_after_half_deleted():
    vals = list(range(1, 801))
    t = WbTree(vals)
    n0 = t.n0
    rng = random.Random(4)
    rng.shuffle(vals)
    rebuilt = False
    for v in vals:
        old = t.leaf_for(v)
        ev = t.delete(v)
        # the leaf that held v comes back even from a rebuild
        assert ev["leaf"] is old
        if ev["rebuilt"]:
            rebuilt = True
            break
    assert rebuilt
    assert old not in t.leaves_under(t.root)
    assert t.deleted_total == 0
    for node in t.iter_nodes():
        assert node.deleted == 0
    t.check_weight_bounds()


def test_growth_rebuild():
    t = WbTree(range(1, 101))
    n0 = t.n0
    rebuilt = False
    v = 10_000
    while not rebuilt:
        v += 1
        rebuilt = t.insert(v)["rebuilt"]
    assert t.n0 > n0
    t.check_weight_bounds()


def test_dyn_hra_matches_ancestor_scan_on_interleavings():
    rng = random.Random(8)
    ops = 0
    for trial in range(6):
        t = WbTree(rng.sample(range(1, 40_000), 600))
        live = set(t.iter_values())
        for _ in range(17_000):
            r = rng.random()
            if r < 0.35:
                v = rng.randrange(1, 40_000)
                if v not in live:
                    live.add(v)
                    ev = t.insert(v)
                    assert ev["rebuilt"] or ev["leaf"] is t.leaf_for(v)
            elif r < 0.55 and live:
                v = rng.choice(tuple(live))
                live.discard(v)
                ev = t.delete(v)
                assert ev["rebuilt"] or ev["leaf"] is t.leaf_for(v)
            else:
                a = rng.randrange(1, 40_000)
                b = rng.randrange(a, 40_000)
                s = t.succ(a)
                if s is None or s > b:
                    continue
                leaf = t.leaf_for(s)
                assert leaf_has_hit(leaf, a, b)
                got = t.dyn_hra(leaf, a, b)
                want = brute_hra(t, leaf, a, b)
                assert got is want, (a, b)
            ops += 1
        t.check_weight_bounds()
        t.check_k_monotone()
    assert ops >= 100_000


def test_fact4_fact5_on_random_queries():
    rng = random.Random(9)
    t = WbTree(rng.sample(range(1, 30_000), 1500))
    live = sorted(t.iter_values())
    for v in rng.sample(live, 400):
        t.delete(v)
    for _ in range(2000):
        a = rng.randrange(1, 30_000)
        b = rng.randrange(a, 30_000)
        s = t.succ(a)
        if s is None or s > b:
            continue
        leaf = t.leaf_for(s)
        # Fact 4 (with <= b as in the static Fact 2): left values in (a-free
        # form) <= b... every m at an i-node splits: m_j <= b for j <= i,
        # m_j > a for j > i
        node = leaf
        while node.parent is not None:
            p = node.parent
            idx = p.children.index(node)
            for m in p.seps[:idx]:
                assert m <= b
            for m in p.seps[idx:]:
                assert m > a
            node = p
    # Fact 5 monotone flats per leaf
    t.check_k_monotone()


def test_split_frequency_bound():
    rng = random.Random(10)
    t = WbTree(rng.sample(range(1, 10 ** 7), 500))
    inserts = 0
    splits_at = {}
    pool = iter(rng.sample(range(10 ** 7, 2 * 10 ** 7), 60_000))
    for v in pool:
        ev = t.insert(v)
        if ev["rebuilt"]:
            break
        inserts += 1
        for *_, h in ev["splits"]:
            splits_at[h] = splits_at.get(h, 0) + 1
    for h, cnt in splits_at.items():
        budget = 2 * inserts / ((8 ** h) * t.leaf_param) + t.size / (
            (8 ** h) * t.leaf_param) + 2
        assert cnt <= budget, (h, cnt, budget)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounds_exact_after_deletes(seed):
    """submin/submax stay exact through delete-heavy streams that take the
    minimum and maximum of whole subtrees and empty whole leaves, and a
    height-1 node, with a few inserts between."""
    rng = random.Random(seed)
    # 18 leaves: two full height-1 nodes and a last one of two leaves
    t = WbTree(rng.sample(range(1, 60_000), 2592))
    assert t.root.height == 2 and len(t.root.children[-1].children) == 2
    live = sorted(t.iter_values())
    emptied = 0
    for step in range(300):
        r = rng.random()
        if step % 75 == 40:  # empty the leaf of a random value
            leaf = t.leaf_for(rng.choice(live))
            for v in list(leaf.values):
                t.delete(v)
                live.remove(v)
            emptied += 1
        elif r < 0.1:
            v = rng.randrange(1, 60_000)
            if v not in t:
                t.insert(v)
                bisect.insort(live, v)
        else:
            v = live[0] if r < 0.4 else live[-1] if r < 0.7 else \
                rng.choice(live)
            t.delete(v)
            live.remove(v)
        t.check_bounds()
    last = t.root.children[-1]  # empty a whole height-1 node
    for v in [v for lf in t.leaves_under(last) for v in lf.values]:
        t.delete(v)
        t.check_bounds()
    assert last.submin is None and last.submax is None
    assert emptied == 4 and t.deleted_total < t.n0 // 2  # no rebuild
