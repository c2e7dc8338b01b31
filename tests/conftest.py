import random

import pytest

from colorrange.core import ColoredPoint, compute_prev, normalize_input

# Shared small fixture: values/colors (1,R),(3,B),(5,R),(7,G),(9,B),(12,R),(15,G),(20,B)
E1_PAIRS = [(1, "R"), (3, "B"), (5, "R"), (7, "G"), (9, "B"), (12, "R"),
            (15, "G"), (20, "B")]


@pytest.fixture
def e1():
    points, remap = normalize_input(E1_PAIRS)
    return points


@pytest.fixture
def e1_with_prev(e1):
    return e1, compute_prev(e1)


def random_instance(rng: random.Random, n: int, u: int, c: int):
    """n distinct points over [1, u] with colors in [0, c)."""
    values = rng.sample(range(1, u + 1), n)
    values.sort()
    return [ColoredPoint(v, rng.randrange(c)) for v in values]


@pytest.fixture
def rng():
    return random.Random(0xC01)


def dynamic_route(idx, a: int, b: int) -> str:
    """The route a DynamicIndex takes for [a, b] (a >= 1): "empty", "leaf"
    (the leaf store of succ(a)) or "lists" (the color-extreme lists of the
    children of a range ancestor)."""
    tree = idx.tree
    leaf, i = tree.succ_slot(a)
    if leaf is None or leaf.values[i] > b:
        return "empty"
    return "leaf" if tree.dyn_hra(leaf, a, b) is None else "lists"


def check_extremes(idx, live: dict) -> None:
    """Assert that every node of a DynamicIndex below the root holds F and Λ
    as a recomputation from the live points (value -> color) finds them: F
    by value and by (prev, color), Λ by value; the root holds none. Also
    checks the index's own color maps against `live`."""
    assert idx.colors == live
    prev_of, next_of, by_color = {}, {}, {}
    for v in sorted(live):
        same = by_color.setdefault(live[v], [])
        prev_of[v] = same[-1] if same else 0
        if same:
            next_of[same[-1]] = v
        same.append(v)
    assert idx.by_color == by_color
    tree = idx.tree
    assert tree.root.extremes is None
    for node in tree.iter_nodes():
        if node is tree.root:
            continue
        inside = sorted(v for lf in tree.leaves_under(node) for v in lf.values)
        firsts = [(v, prev_of[v], live[v]) for v in inside
                  if prev_of[v] < inside[0]]
        lasts = [(v, live[v]) for v in inside
                 if next_of.get(v, inside[-1] + 1) > inside[-1]]
        e = node.extremes
        assert list(zip(e.fvals, e.fprevs, e.fcols)) == firsts, node.height
        assert list(zip(e.pprevs, e.pcols)) == \
            sorted((p, c) for _, p, c in firsts), node.height
        assert list(zip(e.lvals, e.lcols)) == lasts, node.height
