"""Immutable indexes answer concurrent readers correctly, with exact meters."""

import random
import sys
import threading

from colorrange.core import CostMeter, FastOracle
from colorrange.em_index import EmIndex
from colorrange.static_index import StaticIndex
from conftest import random_instance

THREADS = 4


def test_threaded_readers_share_one_index():
    rng = random.Random(0x7EAD)
    u = 1 << 14
    pts = random_instance(rng, 1 << 11, u, 300)
    fo = FastOracle(pts)
    queries = []
    for _ in range(300):
        a = rng.randrange(1, u + 1)
        w = rng.choice((8, 64, 512, u // 4))
        queries.append((a, min(u, a + w)))
    want = [fo.report(a, b) for a, b in queries]
    em = EmIndex.build(pts, B=8)
    # a loaded index's readers share one word array and its memoryview
    indexes = [StaticIndex(pts), em, EmIndex.from_bytes(em.to_bytes())]

    def run(idx, meter, errors):
        for (a, b), expect in zip(queries, want):
            got = idx.query(a, b, meter)
            if len(got) != len(set(got)) or set(got) != expect:
                errors.append((type(idx).__name__, a, b, got))

    # count the single-threaded queries that reach the static array fallback,
    # so the threads below are known to share its arrays too
    static = indexes[0]
    fallback = static.fallback
    fallback_calls = []

    class Spy:
        def query(self, a, b, meter=None):
            fallback_calls.append((a, b))
            return fallback.query(a, b, meter)

    static.fallback = Spy()
    errors: list = []
    single = []
    try:
        for idx in indexes:
            meter = CostMeter()
            run(idx, meter, errors)
            single.append(meter.snapshot())
    finally:
        static.fallback = fallback
    assert errors == []
    assert len(fallback_calls) >= 10

    meters = [[CostMeter() for _ in indexes] for _ in range(THREADS)]

    def reader(mine):
        for idx, meter in zip(indexes, mine):
            run(idx, meter, errors)

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
    assert errors == []
    for mine in meters:
        assert [m.snapshot() for m in mine] == single
