"""Every index kind agrees with the scan oracle on shared random instances."""

import random

import pytest

from colorrange.core import (ColoredPoint, FastOracle, InvalidColor,
                             InvalidCoordinate, NotFound, Range,
                             oracle_k_leftmost, oracle_k_rightmost,
                             oracle_report)
from colorrange.dynamic_index import DynamicIndex
from colorrange.em_index import EmIndex
from colorrange.slow_index import SlowIndex
from colorrange.static_index import StaticIndex
from colorrange.stripe import StripeIndex
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


_KINDS = {"static": StaticIndex, "em": lambda pts: EmIndex.build(pts, B=4),
          "dynamic": DynamicIndex, "slow": SlowIndex}


@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("point,error", [
    pytest.param(ColoredPoint(15, 1.5), InvalidColor, id="color-float"),
    pytest.param(ColoredPoint(15, "x"), InvalidColor, id="color-str"),
    pytest.param(ColoredPoint(15, True), InvalidColor, id="color-bool"),
    pytest.param(ColoredPoint(15, -1), InvalidColor, id="color-negative"),
    pytest.param(ColoredPoint(1.5, 1), InvalidCoordinate, id="coord-float"),
    pytest.param(ColoredPoint(True, 1), InvalidCoordinate, id="coord-bool"),
    pytest.param(ColoredPoint(0, 1), InvalidCoordinate, id="coord-zero"),
    pytest.param(ColoredPoint(2**70, 1), InvalidCoordinate, id="coord-2^70"),
])
def test_bad_input_raises_typed_error(kind, point, error):
    # colors are integer ids >= 0 and coordinates integers in
    # [1, 2^63 - 1], on every build, and on every insert that has one
    good = [ColoredPoint(10, 0), ColoredPoint(20, 1)]
    with pytest.raises(error):
        _KINDS[kind](sorted(good + [point], key=lambda p: p.value))
    idx = _KINDS[kind](good)
    if hasattr(idx, "insert"):
        with pytest.raises(error):
            idx.insert(*point)
        assert len(idx) == 2 and sorted(idx.query(1, 2**62)) == [0, 1]


def _stripe(pts):
    stripe = StripeIndex(max_y=4, group_cap=4)
    for p in pts:
        stripe.insert(p.value, p.color + 1)
    return stripe


@pytest.mark.parametrize("build", [DynamicIndex, SlowIndex, _stripe],
                         ids=["dynamic", "slow", "stripe"])
@pytest.mark.parametrize("x,error", [
    pytest.param(True, InvalidCoordinate, id="bool"),
    pytest.param(1.0, InvalidCoordinate, id="float-held"),
    pytest.param(1.5, InvalidCoordinate, id="float"),
    pytest.param("a", InvalidCoordinate, id="str"),
    pytest.param(None, InvalidCoordinate, id="none"),
    pytest.param(0, NotFound, id="zero"),
    pytest.param(-10, NotFound, id="negative"),
    pytest.param(15, NotFound, id="absent"),
    pytest.param(2**70, NotFound, id="2^70"),
])
def test_bad_delete_raises_typed_error(build, x, error):
    # a delete names its point by an integer: True and 1.0 are not the
    # point at 1, and an integer no point holds is NotFound; either way the
    # index keeps all its points
    idx = build([ColoredPoint(1, 0), ColoredPoint(10, 1), ColoredPoint(20, 2)])
    with pytest.raises(error):
        idx.delete(x)
    assert len(idx) == 3
    idx.delete(1)
    assert len(idx) == 2
