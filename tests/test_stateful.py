"""Stateful check of the updatable indexes against a brute-force model.

Hypothesis drives random sequences of insert, delete, query, k_leftmost and
k_rightmost on SlowIndex and DynamicIndex; every answer is compared with the
oracles over the model's live points and must hold each color once.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from colorrange.core import (ColoredPoint, DuplicateX, NotFound, Range,
                             oracle_k_leftmost, oracle_k_rightmost,
                             oracle_report)
from colorrange.dynamic_index import DynamicIndex
from colorrange.slow_index import SlowIndex

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

    def slow(self) -> SlowIndex:
        return self.index.slow if isinstance(self.index, DynamicIndex) \
            else self.index

    # a seeded random start is large enough for the WbTree to have several
    # levels, so queries reach the stripes and the slow-index fallback
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

    @rule(a=coord, width=st.integers(0, 2000), k=st.integers(1, 12))
    def k_leftmost(self, a, width, k):
        out = self.slow().k_leftmost(a, a + width, k)
        assert len(out) == len(set(out))
        assert out == oracle_k_leftmost(self.points(), Range(a, a + width), k)

    @rule(a=coord, width=st.integers(0, 2000), k=st.integers(1, 12))
    def k_rightmost(self, a, width, k):
        out = self.slow().k_rightmost(a, a + width, k)
        assert len(out) == len(set(out))
        assert out == oracle_k_rightmost(self.points(), Range(a, a + width), k)

    def teardown(self):
        if self.index is not None:
            self.slow().check_consistency()


_SETTINGS = settings(max_examples=30, stateful_step_count=50, deadline=None)


class SlowIndexMachine(_IndexMachine):
    make = SlowIndex


class DynamicIndexMachine(_IndexMachine):
    make = DynamicIndex


TestSlowIndexStateful = SlowIndexMachine.TestCase
TestSlowIndexStateful.settings = _SETTINGS
TestDynamicIndexStateful = DynamicIndexMachine.TestCase
TestDynamicIndexStateful.settings = _SETTINGS
