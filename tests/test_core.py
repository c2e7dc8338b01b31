import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorrange.core import (ColArray, ColoredPoint, ColorRemap,
                             DuplicateCoordinate, DuplicateX, FastOracle,
                             InvalidCoordinate, InvalidRange,
                             MAX_COORDINATE, NotFound, Range, check_colors,
                             check_coordinate, color_maps, compute_prev,
                             make_range, normalize_input, oracle_k_leftmost,
                             oracle_k_rightmost, oracle_report)
from conftest import random_instance


def test_public_surface_pinned():
    # the package root exports the indexes, the domain types and errors,
    # input normalization and the oracles; building blocks are imported
    # from their modules
    import colorrange
    assert sorted(colorrange.__all__) == sorted([
        "ColorRemap", "ColoredPoint", "CostMeter", "DuplicateCoordinate",
        "DuplicateX", "IndexFileError", "InvalidColor", "InvalidCoordinate",
        "InvalidRange", "NotFound", "Range", "make_range", "normalize_input",
        "oracle_k_leftmost", "oracle_k_rightmost", "oracle_report",
        "DynamicIndex", "EmIndex", "SlowIndex", "StaticIndex"])
    assert all(hasattr(colorrange, name) for name in colorrange.__all__)
    for name in ("ColArray", "compute_prev", "BlockStore", "ColorPst",
                 "StripeIndex", "WbTree"):
        assert not hasattr(colorrange, name), name


def test_normalize_sorts_and_remaps():
    pts, remap = normalize_input([(5, "red"), (1, "red"), (3, "blue")])
    assert pts == [ColoredPoint(1, 0), ColoredPoint(3, 1), ColoredPoint(5, 0)]
    assert remap.forward == {"red": 0, "blue": 1}


def test_normalize_empty():
    pts, remap = normalize_input([])
    assert pts == [] and len(remap) == 0


def test_normalize_duplicate_coordinate():
    with pytest.raises(DuplicateCoordinate) as exc:
        normalize_input([(4, "x"), (4, "y")])
    assert exc.value.value == 4


def test_normalize_rejects_reserved_zero():
    with pytest.raises(ValueError):
        normalize_input([(0, "x")])


@pytest.mark.parametrize("value", [0, -4, 1.7, 2.0, True, "3", None,
                                   MAX_COORDINATE + 1, 2**64])
def test_normalize_rejects_bad_coordinates(value):
    # floats were truncated, True read as 1, and 2^63 failed only at to_bytes
    with pytest.raises(InvalidCoordinate):
        normalize_input([(5, "a"), (value, "b")])


def test_normalize_accepts_integer_types():
    pts, _ = normalize_input([(np.int64(7), "a"), (MAX_COORDINATE, "b"),
                              (np.uint64(3), "a")])
    assert pts == [ColoredPoint(3, 0), ColoredPoint(7, 0),
                   ColoredPoint(MAX_COORDINATE, 1)]
    assert all(type(p.value) is int for p in pts)


def _normalize_reference(pairs):
    """`normalize_input` as a loop over the points: check, remap, sort."""
    remap = ColorRemap()
    pts = []
    for value, label in pairs:
        pts.append(ColoredPoint(check_coordinate(value), remap.id_for(label)))
    pts.sort()
    for i in range(1, len(pts)):
        if pts[i - 1].value == pts[i].value:
            raise DuplicateCoordinate(pts[i].value)
    return pts, remap


def _color_maps_reference(points):
    """`color_maps` with a check of every point and a sort."""
    items = sorted((check_coordinate(v), c) for v, c in points)
    check_colors([c for _, c in items])
    colors = {v: c for v, c in items}
    if len(colors) < len(items):
        raise DuplicateX(next(v for (v, _), (w, _) in zip(items, items[1:])
                              if v == w))
    by_color: dict = {}
    for v, c in items:
        by_color.setdefault(c, []).append(v)
    return colors, by_color


def _outcome(fn, arg):
    """What `fn(arg)` returns, with the types of its ints, or the type and
    message of what it raises, which name the value reported."""
    try:
        out = fn(arg)
    except (ValueError, TypeError) as exc:
        return type(exc), exc.args
    if isinstance(out[1], ColorRemap):
        pts, remap = out
        return (pts, [(type(v), type(c)) for v, c in pts],
                list(remap.forward.items()), remap.reverse)
    colors, by_color = out
    return (list(colors.items()), [(type(v), type(c)) for v, c in colors.items()],
            sorted(by_color.items()))


# mostly valid coordinates, few enough that duplicates are common, as
# Python and numpy integers; and every kind of bad one
_GOOD = st.one_of(st.integers(1, 40), st.integers(1, 40).map(np.int64),
                  st.integers(1, 40).map(np.uint64),
                  st.sampled_from([MAX_COORDINATE, MAX_COORDINATE - 1]))
_BAD = st.sampled_from([0, -1, -40, 2**63, 2**64, True, False, 1.0, 2.5,
                        np.int64(0), np.int64(-3), "3", None])


def _pairs(data, labels):
    """Unsorted pairs, with at most two bad coordinates in them."""
    pairs = data.draw(st.lists(st.tuples(_GOOD, labels), max_size=40))
    for _ in range(data.draw(st.integers(0, 2))):
        if data.draw(st.booleans()):
            pairs.insert(data.draw(st.integers(0, len(pairs))),
                         (data.draw(_BAD), data.draw(labels)))
    return pairs


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_normalize_matches_point_loop(data):
    # the same points, remap, exception type and reported value as the loop
    # it replaced; True and 1 are one label, as one dict key
    labels = st.sampled_from(["a", "b", "c", 0, 1, True, 2.5, ("t", 1)])
    pairs = _pairs(data, labels)
    assert _outcome(normalize_input, pairs) == _outcome(
        _normalize_reference, pairs)
    assert _outcome(normalize_input, iter(pairs)) == _outcome(
        _normalize_reference, pairs)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_color_maps_match_checked_sort(data):
    # sorted or not, with bad values, bad colors and duplicates: the same
    # maps or the same exception as a check of every point and a sort
    colors = st.one_of(st.integers(0, 4), st.integers(0, 4).map(np.int64),
                       st.sampled_from([-1, -2, True, 1.5, "c"]))
    pairs = _pairs(data, colors)
    if data.draw(st.booleans()):
        pairs.sort(key=lambda p: p[0] if type(p[0]) in (int, np.int64) else 0)
    assert _outcome(color_maps, pairs) == _outcome(
        _color_maps_reference, pairs)


def test_compute_prev_e1(e1):
    # oracle: per-color backward scan
    expected = []
    for i, (v, c) in enumerate(e1):
        best = 0
        for w, d in e1[:i]:
            if d == c and w < v:
                best = max(best, w)
        expected.append(best)
    assert expected == [0, 0, 1, 0, 3, 5, 7, 9]
    assert compute_prev(e1) == expected


def test_compute_prev_trivial():
    assert compute_prev([ColoredPoint(7, 2)]) == [0]
    chain = [ColoredPoint(1, 0), ColoredPoint(2, 0), ColoredPoint(3, 0)]
    assert compute_prev(chain) == [0, 1, 2]


def test_prev_chains_strictly_increase():
    rng = random.Random(7)
    for _ in range(50):
        pts = random_instance(rng, rng.randrange(1, 200), 1000, 8)
        prevs = compute_prev(pts)
        by_color = {}
        for (v, c), p in zip(pts, prevs):
            by_color.setdefault(c, []).append((v, p))
        for entries in by_color.values():
            assert entries[0][1] == 0
            for (v0, _), (v1, p1) in zip(entries, entries[1:]):
                assert p1 == v0  # chain links exactly to the prior element


def test_oracle_report_e1(e1):
    assert oracle_report(e1, Range(4, 13)) == {0, 2, 1}
    assert oracle_report(e1, Range(21, 100)) == set()
    assert oracle_report(e1, Range(1, 20)) == {0, 1, 2}


def test_oracle_k_leftmost_e1(e1):
    assert oracle_k_leftmost(e1, Range(4, 20), 2) == [0, 2]
    assert oracle_k_leftmost(e1, Range(4, 20), 99) == [0, 2, 1]
    assert oracle_k_leftmost(e1, Range(8, 8), 1) == []


def test_oracle_k_rightmost_e1(e1):
    # scanning right-to-left from 20: B(20), G(15), R(12)
    assert oracle_k_rightmost(e1, Range(4, 20), 2) == [1, 2]
    assert oracle_k_rightmost(e1, Range(4, 20), 99) == [1, 2, 0]


def test_three_sided_predicate_reduction():
    # {e in [a,b] : prev(e) < a} holds exactly one element per distinct color
    rng = random.Random(3)
    for _ in range(200):
        pts = random_instance(rng, rng.randrange(1, 120), 400, 9)
        prevs = compute_prev(pts)
        a = rng.randrange(1, 401)
        b = rng.randrange(a, 401)
        hits = [c for (v, c), p in zip(pts, prevs) if a <= v <= b and p < a]
        assert sorted(hits) == sorted(oracle_report(pts, Range(a, b)))


@given(st.lists(st.tuples(st.integers(1, 300), st.integers(0, 5)), max_size=60))
@settings(max_examples=80, deadline=None)
def test_compute_prev_idempotent_under_resort(pairs):
    seen = set()
    pts = []
    for v, c in pairs:
        if v not in seen:
            seen.add(v)
            pts.append(ColoredPoint(v, c))
    pts.sort()
    prevs = compute_prev(pts)
    assert prevs == compute_prev(sorted(pts))
    for (v, c), p in zip(pts, prevs):
        assert p < v
        if p != 0:
            assert ColoredPoint(p, c) in pts


def test_fast_oracle_matches_scan():
    rng = random.Random(11)
    pts = random_instance(rng, 300, 2000, 12)
    fo = FastOracle(pts)
    for _ in range(300):
        a = rng.randrange(1, 2001)
        b = rng.randrange(a, 2001)
        assert fo.report(a, b) == oracle_report(pts, Range(a, b))
        k = rng.randrange(0, 15)
        assert fo.k_leftmost(a, b, k) == oracle_k_leftmost(pts, Range(a, b), k)
        assert fo.k_rightmost(a, b, k) == oracle_k_rightmost(pts, Range(a, b), k)


def test_fast_oracle_updates_match_scan():
    rng = random.Random(13)
    pts = random_instance(rng, 200, 2000, 9)
    fo = FastOracle(pts)
    live = {p.value: p.color for p in pts}
    for _ in range(400):
        if rng.random() < 0.5 or not live:
            v = rng.randrange(1, 2001)
            if v in live:
                with pytest.raises(DuplicateX):
                    fo.insert(v, 0)
                continue
            live[v] = rng.randrange(9)
            fo.insert(v, live[v])
        else:
            v = rng.choice(list(live))
            del live[v]
            fo.delete(v)
            with pytest.raises(NotFound):
                fo.delete(v)
        cur = sorted(ColoredPoint(v, c) for v, c in live.items())
        a = rng.randrange(1, 2001)
        b = rng.randrange(a, 2001)
        assert fo.report(a, b) == oracle_report(cur, Range(a, b))
        k = rng.randrange(0, 12)
        assert fo.k_leftmost(a, b, k) == oracle_k_leftmost(cur, Range(a, b), k)
        assert fo.k_rightmost(a, b, k) == oracle_k_rightmost(cur, Range(a, b), k)
    assert fo.values.tolist() == sorted(live)


def test_make_range_validates():
    assert make_range(2, 2) == Range(2, 2)
    with pytest.raises(InvalidRange):
        make_range(3, 2)


def test_colarray_dedup():
    col = ColArray(4)
    assert col.dedup([1, 0, 1, 2, 0]) == [1, 0, 2]
    assert col.dedup([]) == []
    # array must be clean between calls
    assert col.dedup([2, 2, 2]) == [2]
    assert not any(col.bits)
