"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; the suite uses fixed seeds throughout.

Criterion 5 includes one strict-xfail test: the literal claim that the
highest range ancestor equals the LCA of the boundary leaves admits
counterexamples when a subtree is flush with a range edge (see the companion
operative test, which passes, and README notes). The query procedures do not
depend on the literal equality.
"""

import bisect
import pathlib
import random
import time

import pytest

from colorrange.core import ColoredPoint, CostMeter, FastOracle
from colorrange.dynamic_index import DynamicIndex
from colorrange.em_index import EmIndex
from colorrange.slow_index import SlowIndex
from colorrange.static_index import StaticIndex
from colorrange.stripe import StripeIndex


_REPORT = pathlib.Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_REPORT_FRESH = True


def report(num, name, ok=True, note=""):
    """One line per criterion, on stdout and in acceptance_report.txt."""
    global _REPORT_FRESH
    status = "PASS" if ok else "FAIL"
    tail = f" -- {note}" if note else ""
    line = f"ACCEPTANCE {num} ({name}): {status}{tail}"
    print("\n" + line)
    mode = "w" if _REPORT_FRESH else "a"
    _REPORT_FRESH = False
    with open(_REPORT, mode, encoding="utf-8") as fh:
        fh.write(line + "\n")


def make_instance(rng, n, u, c):
    values = sorted(rng.sample(range(1, u + 1), n))
    return [ColoredPoint(v, rng.randrange(c)) for v in values]


def window_oracle(points):
    """(succ-index of a, succ-index past b) -> frozenset of colors."""
    colors = [p.color for p in points]
    win = {}
    n = len(points)
    for lo in range(n):
        s = set()
        for hi in range(lo, n):
            s.add(colors[hi])
            win[(lo, hi + 1)] = frozenset(s)
    return win


# -- criterion 1: exhaustive oracle equivalence --------------------------------

def test_criterion_1_exhaustive_equivalence():
    rng = random.Random(10_001)
    t0 = time.time()
    n_instances = 200
    n_queries = 0
    empty = frozenset()
    for inst in range(n_instances):
        if inst < 120:
            u = rng.randrange(16, 65)
        elif inst < 170:
            u = rng.randrange(65, 129)
        else:
            u = rng.randrange(129, 257)
        n = rng.randrange(1, min(64, u) + 1)
        c = rng.randrange(1, 9)
        pts = make_instance(rng, n, u, c)
        values = [p.value for p in pts]
        win = window_oracle(pts)

        static = StaticIndex(pts)
        dyn = DynamicIndex()
        order = list(pts)
        rng.shuffle(order)
        for p in order:
            dyn.insert(p.value, p.color)
        slow = SlowIndex(pts)
        ems = [EmIndex.build(pts, B=4), EmIndex.build(pts, B=8)]

        for a in range(1, u + 1):
            lo = bisect.bisect_left(values, a)
            for b in range(a, u + 1):
                hi = bisect.bisect_right(values, b)
                want = win.get((lo, hi), empty) if lo < hi else empty
                assert frozenset(static.query(a, b)) == want, (pts, a, b)
                assert frozenset(dyn.query(a, b)) == want, (pts, a, b)
                assert frozenset(slow.query(a, b)) == want, (pts, a, b)
                for em in ems:
                    got = em.query(a, b)
                    assert len(got) == len(set(got))
                    assert frozenset(got) == want, (pts, a, b)
                n_queries += 5
    report(1, "exhaustive oracle equivalence",
           note=f"{n_instances} instances, {n_queries} index queries, "
                f"{time.time() - t0:.0f}s")


# -- criterion 2 + 7: randomized equivalence at scale with invariant checks ----

N_BIG = 1 << 14
Q_BIG = 100_000
OPS_MIXED = 100_000


def _random_ranges(rng, universe, count):
    for _ in range(count):
        a = rng.randrange(1, universe + 1)
        yield a, rng.randrange(a, universe + 1)


def test_criterion_2_static_queries():
    rng = random.Random(20_001)
    pts = make_instance(rng, N_BIG, N_BIG * 8, 80)
    fo = FastOracle(pts)
    idx = StaticIndex(pts)
    t0 = time.time()
    for a, b in _random_ranges(rng, N_BIG * 8, Q_BIG):
        assert set(idx.query(a, b)) == fo.report(a, b)
    report(2, f"static randomized x{Q_BIG}", note=f"{time.time() - t0:.0f}s")


def test_criterion_2_em_queries():
    rng = random.Random(20_002)
    pts = make_instance(rng, N_BIG, N_BIG * 8, 80)
    fo = FastOracle(pts)
    idx = EmIndex.build(pts, B=8)
    t0 = time.time()
    for a, b in _random_ranges(rng, N_BIG * 8, Q_BIG):
        got = idx.query(a, b)
        assert len(got) == len(set(got))
        assert set(got) == fo.report(a, b)
    report(2, f"em randomized x{Q_BIG}", note=f"{time.time() - t0:.0f}s")


def test_criterion_2_slow_queries():
    rng = random.Random(20_003)
    pts = make_instance(rng, N_BIG, N_BIG * 8, 80)
    fo = FastOracle(pts)
    idx = SlowIndex(pts)
    t0 = time.time()
    for a, b in _random_ranges(rng, N_BIG * 8, Q_BIG):
        assert set(idx.query(a, b)) == fo.report(a, b)
    report(2, f"slow randomized x{Q_BIG}", note=f"{time.time() - t0:.0f}s")


def test_criterion_2_dynamic_queries():
    rng = random.Random(20_004)
    pts = make_instance(rng, N_BIG, N_BIG * 8, 80)
    fo = FastOracle(pts)
    idx = DynamicIndex(pts)
    t0 = time.time()
    for a, b in _random_ranges(rng, N_BIG * 8, Q_BIG):
        assert set(idx.query(a, b)) == fo.report(a, b)
    report(2, f"dynamic randomized x{Q_BIG}", note=f"{time.time() - t0:.0f}s")


class _LiveOracle:
    """Sorted value list + parallel colors; window scans at C speed."""

    def __init__(self, pts):
        self.vals = [p.value for p in pts]
        self.cols = [p.color for p in pts]

    def insert(self, v, c):
        i = bisect.bisect_left(self.vals, v)
        self.vals.insert(i, v)
        self.cols.insert(i, c)

    def delete(self, v):
        i = bisect.bisect_left(self.vals, v)
        del self.vals[i]
        del self.cols[i]

    def report(self, a, b):
        lo = bisect.bisect_left(self.vals, a)
        hi = bisect.bisect_right(self.vals, b)
        return set(self.cols[lo:hi])


def test_criterion_2_and_7_dynamic_mixed():
    rng = random.Random(20_005)
    n0 = 1 << 13
    universe = n0 * 8
    pts = make_instance(rng, n0, universe, 24)
    idx = DynamicIndex(pts)
    oracle = _LiveOracle(pts)
    live = {p.value for p in pts}
    t0 = time.time()
    checks = 0
    for step in range(OPS_MIXED):
        r = rng.random()
        touched_leaf = None
        if r < 0.3:
            v = rng.randrange(1, universe + 1)
            if v not in live:
                c = rng.randrange(24)
                live.add(v)
                idx.insert(v, c)
                oracle.insert(v, c)
                touched_leaf = idx.tree.leaf_for(v)
        elif r < 0.55 and live:
            v = oracle.vals[rng.randrange(len(oracle.vals))]
            live.discard(v)
            idx.delete(v)
            oracle.delete(v)
            touched_leaf = idx.tree.leaf_for(v)
        else:
            a = rng.randrange(1, universe + 1)
            b = rng.randrange(a, universe + 1)
            assert set(idx.query(a, b)) == oracle.report(a, b), (a, b, step)
        # criterion 7: bounds after every update, PST invariants on the
        # touched leaf, tag soundness samples every 100 ops
        if touched_leaf is not None:
            idx.tree.check_weight_bounds()
            if touched_leaf.dstruct is not None:
                touched_leaf.dstruct.check_invariants()
                assert touched_leaf.dstruct.vals == touched_leaf.values
        if step % 100 == 99:
            checks += 1
            sample = rng.sample(oracle.vals, min(64, len(oracle.vals)))
            for v in sample:
                assert idx.hmin[v] <= idx.brute_tag_min(v)
                assert idx.hmax[v] <= idx.brute_tag_max(v)
            nodes = list(idx.tree.iter_nodes())
            for node in rng.sample(nodes, min(6, len(nodes))):
                for v in idx.left_set(node):
                    assert idx.hmin[v] == idx.brute_tag_min(v)
                for v in idx.right_set(node):
                    assert idx.hmax[v] == idx.brute_tag_max(v)
            idx.tree.check_k_monotone()
    report(2, f"dynamic mixed x{OPS_MIXED}", note=f"{time.time() - t0:.0f}s")
    report(7, "dynamic structural invariants",
           note=f"{checks} checkpoints, bounds+PST after every update")


def test_criterion_2_and_7_slow_mixed():
    rng = random.Random(20_006)
    n0 = 1 << 13
    universe = n0 * 8
    pts = make_instance(rng, n0, universe, 24)
    idx = SlowIndex(pts)
    oracle = _LiveOracle(pts)
    live = {p.value for p in pts}
    t0 = time.time()
    checks = 0
    for step in range(OPS_MIXED):
        r = rng.random()
        if r < 0.3:
            v = rng.randrange(1, universe + 1)
            if v not in live:
                c = rng.randrange(24)
                live.add(v)
                idx.insert(v, c)
                oracle.insert(v, c)
        elif r < 0.55 and live:
            v = oracle.vals[rng.randrange(len(oracle.vals))]
            live.discard(v)
            idx.delete(v)
            oracle.delete(v)
        else:
            a = rng.randrange(1, universe + 1)
            b = rng.randrange(a, universe + 1)
            assert set(idx.query(a, b)) == oracle.report(a, b), (a, b, step)
        if step % 100 == 99:
            checks += 1
            idx.fwd.check_consistency()
    report(2, f"slow mixed x{OPS_MIXED}", note=f"{time.time() - t0:.0f}s")
    report(7, "slow C/P/V recomputation equality",
           note=f"every 100 ops, {checks} full recomputations")


# -- criterion 3: output sensitivity of the static index ------------------------

BUCKETS = (1, 4, 16, 64, 256)


def _bucket_of(k):
    for bkt in BUCKETS:
        lo = 1 if bkt == 1 else bkt // 2 + 1
        if lo <= k <= bkt * 2:
            return bkt
    return None


def _targeted_ranges(rng, pts, umax, per_bucket):
    values = [p.value for p in pts]
    colors = [p.color for p in pts]
    n = len(values)
    out = []
    for target in BUCKETS:
        for _ in range(per_bucket):
            i = rng.randrange(n)
            seen = set()
            j = i
            while j < n and len(seen) < target:
                seen.add(colors[j])
                j += 1
            a = max(1, values[i] - rng.randrange(0, 2))
            b = min(umax, values[min(j - 1, n - 1)] + rng.randrange(0, 2))
            if a <= b:
                out.append((a, b))
    return out


def _touch_medians(n):
    rng = random.Random(30_000 + n)
    umax = n * 6
    rich = make_instance(rng, n, umax, min(512, max(2, n)))
    poor = make_instance(rng, n, umax, 40)
    samples = {bkt: [] for bkt in BUCKETS}
    meter = CostMeter()
    for pts in (rich, poor):
        idx = StaticIndex(pts)
        queries = _targeted_ranges(rng, pts, umax, 160)
        queries += list(_random_ranges(rng, umax, 800))
        for a, b in queries:
            meter.reset()
            out = idx.query(a, b, meter=meter)
            k = len(out)
            bkt = _bucket_of(max(k, 1)) if k else None
            if bkt is not None:
                samples[bkt].append(meter.touches / (k + 1))
    med = {}
    for bkt, vals in samples.items():
        assert len(vals) >= 30, f"bucket {bkt} undersampled at n={n}"
        vals.sort()
        med[bkt] = vals[len(vals) // 2]
    return med


def test_criterion_3_output_sensitivity():
    t0 = time.time()
    med_small = _touch_medians(1 << 8)
    med_big = _touch_medians(1 << 14)
    for bkt in BUCKETS:
        assert med_small[bkt] <= 64, (bkt, med_small[bkt])
        assert med_big[bkt] <= 64, (bkt, med_big[bkt])
        assert med_big[bkt] <= 1.25 * med_small[bkt] + 1e-9, \
            (bkt, med_small[bkt], med_big[bkt])
    note = ", ".join(f"k~{b}: {med_small[b]:.2f}->{med_big[b]:.2f}"
                     for b in BUCKETS)
    report(3, "output-sensitivity proxy", note=note + f", {time.time()-t0:.0f}s")


# -- criterion 4: I/O proxy for the external-memory index -----------------------

def _io_median(n, B, rng):
    # same color profile at both sizes so the medians compare like for like
    umax = n * 6
    pts = make_instance(rng, n, umax, 128)
    idx = EmIndex.build(pts, B=B)
    fo = FastOracle(pts)
    meter = CostMeter()
    ratios = []
    queries = list(_random_ranges(rng, umax, 500))
    queries += _targeted_ranges(rng, pts, umax, 60)
    for a, b in queries:
        meter.reset()
        got = idx.query(a, b, meter=meter)
        assert len(got) == len(set(got)), "duplicate color in emission stream"
        assert set(got) == fo.report(a, b)
        k = len(got)
        ratios.append(meter.block_reads / (1 + k / B))
    ratios.sort()
    return ratios[len(ratios) // 2]


def test_criterion_4_io_proxy():
    t0 = time.time()
    notes = []
    for B in (8, 64):
        rng_small = random.Random(40_000 + B)
        rng_big = random.Random(40_000 + B)  # same draw pattern per size
        med_small = _io_median(1 << 10, B, rng_small)
        med_big = _io_median(1 << 14, B, rng_big)
        assert med_small <= 12, (B, med_small)
        assert med_big <= 12, (B, med_big)
        assert med_big <= 1.25 * med_small + 1e-9, (B, med_small, med_big)
        notes.append(f"B={B}: {med_small:.2f}->{med_big:.2f}")
    report(4, "I/O proxy", note=", ".join(notes) + f", {time.time()-t0:.0f}s")


# -- criterion 5: fact suite ------------------------------------------------------

def _brute_lca(idx: StaticIndex, a, b):
    lo = bisect.bisect_left(idx.values, a)
    hi = bisect.bisect_right(idx.values, b) - 1
    if lo >= len(idx.values) or hi < 0 or lo > hi:
        return None, None, None
    la = idx.leaves[lo // idx.cap]
    lb = idx.leaves[hi // idx.cap]
    anc = set()
    n = la
    while n is not None:
        anc.add(id(n))
        n = n.parent
    n = lb
    while n is not None:
        if id(n) in anc:
            return n, la, lb
        n = n.parent
    return None, la, lb


def _flush_counterexample():
    # four leaves, range flush with the right subtree's left edge
    vals = list(range(1, 5)) + list(range(5, 9)) + list(range(10, 14)) + \
        list(range(14, 18))
    pts = [ColoredPoint(v, i % 3) for i, v in enumerate(vals)]
    return StaticIndex(pts), 9, 17


@pytest.mark.xfail(strict=True,
                   reason="literal 'highest range ancestor equals the LCA' "
                          "claim fails when a subtree is flush with a range "
                          "edge; the query procedure never relies on it")
def test_criterion_5_fact1_literal():
    violations = 0
    idx, a, b = _flush_counterexample()
    e = idx.one_report(a, b)
    leaf = idx.leaf_of(e.value)
    u = idx.hra_query(leaf, a, b)
    lca, _, _ = _brute_lca(idx, a, b)
    if u is not lca:
        violations += 1
    rng = random.Random(50_001)
    trials = 0
    while trials < 10_000:
        pts = make_instance(rng, rng.randrange(8, 128), 600, 6)
        idx = StaticIndex(pts)
        for _ in range(100):
            a = rng.randrange(1, 620)
            b = rng.randrange(a, 620)
            e = idx.one_report(a, b)
            if e is None:
                continue
            trials += 1
            u = idx.hra_query(idx.leaf_of(e.value), a, b)
            if u is None:
                continue
            lca, _, _ = _brute_lca(idx, a, b)
            if u is not lca:
                violations += 1
    report(5, "fact: range ancestor == LCA (literal)", ok=False,
           note=f"{violations} violations in {trials} trials; "
                f"documented erratum, see README")
    assert violations == 0


def test_criterion_5_fact1_operative():
    """What the structure actually guarantees and uses: the returned ancestor
    is the LCA or one of its ancestors, it qualifies (a < m <= b), and when no
    subtree is flush with the range edges it IS the LCA."""
    rng = random.Random(50_002)
    trials = 0
    while trials < 10_000:
        pts = make_instance(rng, rng.randrange(8, 128), 600, 6)
        idx = StaticIndex(pts)
        for _ in range(100):
            a = rng.randrange(1, 620)
            b = rng.randrange(a, 620)
            e = idx.one_report(a, b)
            if e is None:
                continue
            trials += 1
            u = idx.hra_query(idx.leaf_of(e.value), a, b)
            lca, la, lb = _brute_lca(idx, a, b)
            if u is None:
                continue
            assert a < u.m <= b
            if la is not lb:
                # u is lca or a proper ancestor of it
                n = lca
                while n is not None and n is not u:
                    n = n.parent
                assert n is u, "ancestor not on the LCA's root path"
                # flush-free ranges give exact equality
                n = lca.parent
                flush = False
                while n is not None:
                    if a < n.m <= b:
                        flush = True
                        break
                    n = n.parent
                if not flush:
                    assert u is lca
    report(5, "fact: range ancestor == LCA (operative form)",
           note=f"{trials} trials")


def test_criterion_5_facts_2_3_static():
    rng = random.Random(50_003)
    trials = 0
    while trials < 10_000:
        pts = make_instance(rng, rng.randrange(2, 256), 1024, 8)
        idx = StaticIndex(pts)
        for li in range(idx.nleaves):
            k1 = [m for m, _ in idx.k1[li]]
            k2 = [m for m, _ in idx.k2[li]]
            assert k1 == sorted(k1) and len(set(k1)) == len(k1)
            assert k2 == sorted(k2, reverse=True) and len(set(k2)) == len(k2)
        for _ in range(60):
            a = rng.randrange(1, 1040)
            b = rng.randrange(a, 1040)
            e = idx.one_report(a, b)
            if e is None:
                continue
            trials += 1
            node = idx.leaves[idx.leaf_of(e.value)]
            while node.parent is not None:
                p = node.parent
                if p.left is node:
                    assert p.m > a
                else:
                    assert p.m <= b
                node = p
    report(5, "facts: middle-value signs and monotonicity (static)",
           note=f"{trials} trials")


def test_criterion_5_facts_4_5_dynamic():
    rng = random.Random(50_004)
    trials = 0
    from colorrange.wbtree import WbTree
    while trials < 10_000:
        t = WbTree(rng.sample(range(1, 50_000), rng.randrange(64, 1500)))
        for _ in range(rng.randrange(0, 400)):
            r = rng.random()
            if r < 0.5:
                v = rng.randrange(1, 50_000)
                if v not in t:
                    t.insert(v)
            else:
                v = t.succ(rng.randrange(1, 50_000))
                if v is not None:
                    t.delete(v)
        t.check_k_monotone()
        for _ in range(40):
            a = rng.randrange(1, 50_000)
            b = rng.randrange(a, 50_000)
            s = t.succ(a)
            if s is None or s > b:
                continue
            trials += 1
            node = t.leaf_for(s)
            while node.parent is not None:
                p = node.parent
                idx = p.children.index(node)
                for m in p.seps[:idx]:
                    assert m <= b  # left values (paper's < b corrected to <=)
                for m in p.seps[idx:]:
                    assert m > a   # right values
                node = p
    report(5, "facts: multiway value signs and monotonicity (dynamic)",
           note=f"{trials} trials")


def test_criterion_5_fact_stripe_selection():
    rng = random.Random(50_005)
    trials = 0
    while trials < 10_000:
        max_y = rng.choice([4, 7, 12, 16])
        s = StripeIndex(max_y=max_y, group_cap=rng.choice([4, 8]))
        live = {}
        for _ in range(rng.randrange(30, 300)):
            if rng.random() < 0.7 or not live:
                x = rng.randrange(1, 4000)
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
                trials += 1
    report(5, "fact: stripe threshold selection exactness",
           note=f"{trials} (group, threshold) trials")


# -- criterion 6: k-leftmost selection ---------------------------------------------

def test_criterion_6_k_leftmost():
    rng = random.Random(60_001)
    t0 = time.time()
    exhaustive = 0
    for _ in range(4):
        n = rng.randrange(8, 64)
        u = rng.randrange(max(8, n), 72)
        pts = make_instance(rng, n, u, rng.randrange(2, 8))
        idx = SlowIndex(pts)
        fo = FastOracle(pts)
        for a in range(1, u + 1):
            for b in range(a, u + 1):
                for k in range(1, 11):
                    assert idx.k_leftmost(a, b, k) == fo.k_leftmost(a, b, k)
                    exhaustive += 1
    n = 1 << 12
    pts = make_instance(rng, n, n * 8, 48)
    idx = SlowIndex(pts)
    fo = FastOracle(pts)
    for _ in range(10_000):
        a = rng.randrange(1, n * 8)
        b = rng.randrange(a, n * 8)
        k = rng.randrange(1, 11)
        assert idx.k_leftmost(a, b, k) == fo.k_leftmost(a, b, k)
    report(6, "k-leftmost selection",
           note=f"{exhaustive} exhaustive + 10000 randomized, "
                f"{time.time()-t0:.0f}s")


# -- criterion 8: index file round-trip ---------------------------------------------

def test_criterion_8_roundtrip(tmp_path):
    rng = random.Random(80_001)
    pts = make_instance(rng, 5000, 60_000, 64)
    idx = EmIndex.build(pts, B=8)
    path = tmp_path / "round.crr"
    idx.save(path)
    loaded = EmIndex.load(path)
    assert loaded.to_bytes() == idx.to_bytes()
    m1, m2 = CostMeter(), CostMeter()
    for _ in range(1000):
        a = rng.randrange(1, 60_000)
        b = rng.randrange(a, 60_000)
        m1.reset()
        m2.reset()
        assert idx.query(a, b, meter=m1) == loaded.query(a, b, meter=m2)
        assert m1.snapshot() == m2.snapshot()
    report(8, "index file round-trip", note="1000 bit-identical traces")
