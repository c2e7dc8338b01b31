"""Stateful check of the updatable indexes against a brute-force model.

Hypothesis drives random sequences of insert, delete and query on SlowIndex
and DynamicIndex, plus k_leftmost and k_rightmost on SlowIndex; every answer
is compared with the oracles over the model's live points and must hold each
color once. At the end of a run the dynamic index's color extremes and node
bounds are checked against a recomputation; a third machine checks the color
extremes after every update.
"""

import random

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from colorrange.core import (ColoredPoint, DuplicateX, NotFound, Range,
                             oracle_k_leftmost, oracle_k_rightmost,
                             oracle_report)
from colorrange.dynamic_index import DynamicIndex
from colorrange.slow_index import SlowIndex
from conftest import check_extremes

coord = st.integers(1, 2000)
color = st.integers(0, 40)


class _IndexMachine(RuleBasedStateMachine):
    make = None  # index constructor over ColoredPoints

    def __init__(self):
        super().__init__()
        self.live: dict = {}
        self.index = None

    def points(self) -> list:
        return [ColoredPoint(v, c) for v, c in sorted(self.live.items())]

    # a seeded random start is large enough for the WbTree to have several
    # levels, so dynamic queries reach both the leaf stores and the lists
    @initialize(seed=st.integers(0, 1 << 16), n=st.integers(0, 400),
                ncolors=st.integers(1, 40))
    def build(self, seed, n, ncolors):
        rng = random.Random(seed)
        self.live = {v: rng.randrange(ncolors)
                     for v in rng.sample(range(1, 2001), n)}
        self.index = self.make(self.points())

    @rule(value=coord, c=color)
    def insert(self, value, c):
        if value in self.live:
            with pytest.raises(DuplicateX):
                self.index.insert(value, c)
            return
        self.index.insert(value, c)
        self.live[value] = c

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        value = data.draw(st.sampled_from(sorted(self.live)))
        self.index.delete(value)
        del self.live[value]

    @rule(value=coord)
    def delete_missing(self, value):
        if value not in self.live:
            with pytest.raises(NotFound):
                self.index.delete(value)

    @rule(a=coord, width=st.sampled_from((0, 3, 30, 300, 2000)))
    def query(self, a, width):
        b = a + width
        out = self.index.query(a, b)
        assert len(out) == len(set(out))
        assert set(out) == oracle_report(self.points(), Range(a, b))

class SlowIndexMachine(_IndexMachine):
    make = SlowIndex

    @rule(a=coord, width=st.integers(0, 2000), k=st.integers(1, 12))
    def k_leftmost(self, a, width, k):
        out = self.index.k_leftmost(a, a + width, k)
        assert len(out) == len(set(out))
        assert out == oracle_k_leftmost(self.points(), Range(a, a + width), k)

    @rule(a=coord, width=st.integers(0, 2000), k=st.integers(1, 12))
    def k_rightmost(self, a, width, k):
        out = self.index.k_rightmost(a, a + width, k)
        assert len(out) == len(set(out))
        assert out == oracle_k_rightmost(self.points(), Range(a, a + width), k)

    def teardown(self):
        if self.index is not None:
            self.index.check_consistency()


class DynamicIndexMachine(_IndexMachine):
    make = DynamicIndex

    def teardown(self):
        if self.index is not None:
            check_extremes(self.index, self.live)
            self.index.tree.check_bounds()


class ExtremesMachine(DynamicIndexMachine):
    """F (by value and by prev) and Λ of every node match a recomputation
    after every op. A small start reaches global rebuilds (growth past 2 n0,
    deletions of n0 / 2). A large start is filled by appends past the
    maximum until the rightmost leaf, or the rightmost height-1 node, is
    within `slack` appends of its split, so the append rule runs through leaf
    or internal splits."""

    @initialize(seed=st.integers(0, 1 << 16),
                start=st.sampled_from(("small", "medium", "leaf", "internal")),
                ncolors=st.integers(1, 40), slack=st.integers(0, 2))
    def build(self, seed, start, ncolors, slack):
        rng = random.Random(seed)
        # 16 leaves of 121 points make two full height-1 nodes; the points
        # fill half of [1, 4000], so inserts into [1, 2000] mostly succeed
        sizes = {"small": (0, 40), "medium": (40, 400)}
        n = rng.randrange(*sizes.get(start, (1820, 1931)))
        self.live = {v: rng.randrange(ncolors)
                     for v in rng.sample(range(1, 4001), n)}
        self.index = self.make(self.points())
        if start in ("small", "medium"):
            return
        tree = self.index.tree
        height = 0 if start == "leaf" else 1
        while True:
            node = tree.root
            while node.height > height:
                node = node.children[-1]
            if tree._capacity(height) - node.size <= slack:
                break
            top = max(self.live) + 1
            self.live[top] = rng.randrange(ncolors)
            self.index.insert(top, self.live[top])

    @rule(c=color)
    def append(self, c):
        value = max(self.live, default=0) + 1
        self.index.insert(value, c)
        self.live[value] = c

    @invariant()
    def extremes_match(self):
        check_extremes(self.index, self.live)
        # label the examples by the tree events they went through
        nodes = list(self.index.tree.iter_nodes())
        leaves = sum(n.is_leaf() for n in nodes)
        shape = (self.index.tree.n0, leaves, len(nodes) - leaves)
        last = getattr(self, "shape", shape)
        if shape[0] != last[0]:
            event("global rebuild")
        elif shape[1] > last[1]:
            event("leaf split")
        if shape[0] == last[0] and shape[2] > last[2]:
            event("internal split")
        self.shape = shape


_SETTINGS = settings(max_examples=30, stateful_step_count=50, deadline=None)

TestSlowIndexStateful = SlowIndexMachine.TestCase
TestSlowIndexStateful.settings = _SETTINGS
TestDynamicIndexStateful = DynamicIndexMachine.TestCase
TestDynamicIndexStateful.settings = _SETTINGS
TestExtremesStateful = ExtremesMachine.TestCase
# more examples, so each run meets leaf splits, internal splits and rebuilds
TestExtremesStateful.settings = settings(_SETTINGS, max_examples=80)
