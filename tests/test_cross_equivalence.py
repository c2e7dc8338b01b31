"""Every index kind agrees with the scan oracle on shared random instances."""

import random

from colorrange.core import (FastOracle, Range, oracle_k_leftmost,
                             oracle_k_rightmost, oracle_report)
from colorrange.dynamic_index import DynamicIndex
from colorrange.em_index import EmIndex
from colorrange.slow_index import SlowIndex
from colorrange.static_index import StaticIndex
from conftest import random_instance


def test_all_indexes_agree_with_oracle():
    rng = random.Random(0xCAFE)
    for _ in range(10):
        n = rng.randrange(1, 513)
        u = rng.randrange(max(8, n), 4097)
        c = rng.randrange(1, 33)
        pts = random_instance(rng, n, u, c)
        fo = FastOracle(pts)
        indexes = [
            StaticIndex(pts),
            DynamicIndex(pts),
            SlowIndex(pts),
            EmIndex.build(pts, B=8),
        ]
        for _ in range(250):
            a = rng.randrange(1, u + 1)
            b = rng.randrange(a, u + 1)
            want = fo.report(a, b)
            for idx in indexes:
                got = idx.query(a, b)
                assert len(got) == len(set(got))
                assert set(got) == want, (type(idx).__name__, a, b)


def test_left_end_below_one():
    # no point lies below 1 and prev 0 marks "no predecessor", so a range
    # starting at a <= 0 must answer as if it started at 1
    rng = random.Random(0xA0)
    for _ in range(12):
        n = rng.randrange(1, 200)
        u = rng.randrange(max(8, n), 400)
        pts = random_instance(rng, n, u, rng.randrange(1, 17))
        indexes = [StaticIndex(pts), DynamicIndex(pts), SlowIndex(pts),
                   EmIndex.build(pts, B=4)]
        slow = indexes[2]
        for _ in range(60):
            a = rng.randrange(-3, 1)
            b = rng.randrange(a, u + 2)
            want = oracle_report(pts, Range(a, b))
            for idx in indexes:
                got = idx.query(a, b)
                assert len(got) == len(set(got))
                assert set(got) == want, (type(idx).__name__, a, b)
            k = rng.randrange(1, 6)
            assert slow.k_leftmost(a, b, k) == \
                oracle_k_leftmost(pts, Range(a, b), k), (a, b, k)
            assert slow.k_rightmost(a, b, k) == \
                oracle_k_rightmost(pts, Range(a, b), k), (a, b, k)
