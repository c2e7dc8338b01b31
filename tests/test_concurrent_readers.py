"""Indexes answer concurrent readers correctly, with exact meters: the
immutable ones always, the updatable ones between updates."""

import random
import sys
import threading

from colorrange.core import ColoredPoint, CostMeter, FastOracle
from colorrange.dynamic_index import DynamicIndex
from colorrange.em_index import EmIndex
from colorrange.slow_index import SlowIndex
from colorrange.static_index import StaticIndex
from conftest import dynamic_route, random_instance

THREADS = 4


def random_queries(rng, u, count):
    queries = []
    for _ in range(count):
        a = rng.randrange(1, u + 1)
        w = rng.choice((8, 64, 512, u // 4))
        queries.append((a, min(u, a + w)))
    return queries


def run_readers(indexes, queries, want, errors):
    """Per-index meter snapshots of one reader, then of THREADS threads."""

    def run(idx, meter):
        for (a, b), expect in zip(queries, want):
            got = idx.query(a, b, meter)
            if len(got) != len(set(got)) or set(got) != expect:
                errors.append((type(idx).__name__, a, b, got))

    single = []
    for idx in indexes:
        meter = CostMeter()
        run(idx, meter)
        single.append(meter.snapshot())

    meters = [[CostMeter() for _ in indexes] for _ in range(THREADS)]

    def reader(mine):
        for idx, meter in zip(indexes, mine):
            run(idx, meter)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(m,)) for m in meters]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return single, [[m.snapshot() for m in mine] for mine in meters]


def test_threaded_readers_share_one_index():
    rng = random.Random(0x7EAD)
    u = 1 << 14
    pts = random_instance(rng, 1 << 11, u, 300)
    fo = FastOracle(pts)
    queries = random_queries(rng, u, 300)
    want = [fo.report(a, b) for a, b in queries]
    em = EmIndex.build(pts, B=8)
    # a loaded index's readers share one word array and its memoryview
    indexes = [StaticIndex(pts), em, EmIndex.from_bytes(em.to_bytes())]

    # count the queries that reach the static array fallback, so the threads
    # are known to share its arrays too
    static = indexes[0]
    fallback = static.fallback
    fallback_calls = []

    class Spy:
        def query(self, a, b, j, meter=None):
            fallback_calls.append((a, b))
            return fallback.query(a, b, j, meter)

    static.fallback = Spy()
    errors: list = []
    try:
        single, threaded = run_readers(indexes, queries, want, errors)
    finally:
        static.fallback = fallback
    assert len(fallback_calls) >= 10 * (1 + THREADS)
    assert errors == []
    assert all(mine == single for mine in threaded)


def test_threaded_readers_share_updated_dynamic_indexes():
    rng = random.Random(0xD1A)
    u = 1 << 13
    pts = random_instance(rng, 1 << 10, u, 120)
    live = {p.value: p.color for p in pts}
    indexes = [DynamicIndex(pts), SlowIndex(pts)]
    for _ in range(400):
        if rng.random() < 0.5:
            v = rng.randrange(1, u + 1)
            if v not in live:
                live[v] = rng.randrange(130)
                for idx in indexes:
                    idx.insert(v, live[v])
        else:
            v = rng.choice(sorted(live))
            del live[v]
            for idx in indexes:
                idx.delete(v)
    fo = FastOracle([ColoredPoint(v, c) for v, c in sorted(live.items())])
    queries = random_queries(rng, u, 300)
    want = [fo.report(a, b) for a, b in queries]

    # the threads share the dynamic index's leaf stores and its color-extreme
    # lists, which answer every query that spans children of a range ancestor
    routes = [dynamic_route(indexes[0], a, b) for a, b in queries]
    assert routes.count("leaf") >= 100 and routes.count("lists") >= 100

    errors: list = []
    single, threaded = run_readers(indexes, queries, want, errors)
    assert errors == []
    assert all(mine == single for mine in threaded)
