"""Domain types, input normalization, prev-links, and brute-force oracles.

Every index in this package is tested against the oracles defined here; the
oracles are deliberately naive (linear scans over the point list) so they stay
independent of any indexing strategy.

Conventions used throughout the package:

- coordinates are integers >= 1; coordinate 0 is reserved as the prev-sentinel
  ("no earlier element of the same color"),
- colors are dense integer ids in [0, C) produced by `normalize_input`,
- a query range [a, b] is inclusive on both ends and requires a <= b.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

PREV_SENTINEL = 0
MAX_COORDINATE = 2**63 - 1  # index files store coordinates as signed 64-bit


class DuplicateCoordinate(ValueError):
    """The input contained the same coordinate twice (sets, not multisets)."""

    def __init__(self, value):
        super().__init__(f"duplicate coordinate {value}")
        self.value = value


class InvalidCoordinate(ValueError):
    """A coordinate that is not an integer in [1, MAX_COORDINATE]."""

    def __init__(self, value):
        super().__init__(f"coordinate {value!r} is not an integer in "
                         f"[1, {MAX_COORDINATE}] (0 is the prev-sentinel)")
        self.value = value


class IndexFileError(ValueError):
    """An index file that is truncated, malformed or of an unknown format."""


class InvalidRange(ValueError):
    """Raised when a query range has a > b."""


class InvalidColor(ValueError):
    """A color that is not an integer >= 0 (ids index color arrays), or one
    too large for an index file's u32 color count."""

    def __init__(self, color):
        big = not isinstance(color, bool) and hasattr(
            type(color), "__index__") and color > 0
        super().__init__(f"color {color} too large for an index file" if big
                         else f"color {color!r} is not an integer >= 0")
        self.color = color


class DuplicateX(ValueError):
    """Insertion of an x already present in a structure."""


class NotFound(KeyError):
    """Deletion of an x that is not present."""


class ColoredPoint(NamedTuple):
    value: int
    color: int


class Range(NamedTuple):
    a: int
    b: int


def make_range(a: int, b: int) -> Range:
    if a > b:
        raise InvalidRange(f"empty range [{a}, {b}]")
    return Range(a, b)


class ColorRemap:
    """Bijection between external color labels and dense ids in [0, C)."""

    def __init__(self):
        self.forward: dict = {}
        self.reverse: list = []

    def id_for(self, label) -> int:
        cid = self.forward.get(label)
        if cid is None:
            cid = len(self.reverse)
            self.forward[label] = cid
            self.reverse.append(label)
        return cid

    def label_for(self, cid: int):
        return self.reverse[cid]

    def __len__(self) -> int:
        return len(self.reverse)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColorRemap) and self.reverse == other.reverse

    def __repr__(self) -> str:
        return f"ColorRemap({self.forward!r})"


class CostMeter:
    """Monotone operation counters, reset between queries.

    touches      elements/nodes examined during reporting phases
    locate_ops   predecessor/navigation steps (for the external-memory index:
                 locate-phase block transfers)
    block_reads  reporting-phase block transfers (external-memory index only)
    """

    __slots__ = ("touches", "locate_ops", "block_reads")

    def __init__(self):
        self.touches = 0
        self.locate_ops = 0
        self.block_reads = 0

    def reset(self) -> None:
        self.touches = 0
        self.locate_ops = 0
        self.block_reads = 0

    def snapshot(self) -> dict:
        return {
            "touches": self.touches,
            "locate_ops": self.locate_ops,
            "block_reads": self.block_reads,
        }

    def __repr__(self) -> str:
        return (f"CostMeter(touches={self.touches}, locate_ops={self.locate_ops}, "
                f"block_reads={self.block_reads})")


class ColArray:
    """Bit array over color ids for first-occurrence dedup."""

    __slots__ = ("bits",)

    def __init__(self, ncolors: int):
        self.bits = bytearray(ncolors)

    def dedup(self, colors: Iterable[int]) -> list:
        """First occurrences of `colors`, order preserved; array left clean."""
        bits = self.bits
        out = []
        for c in colors:
            if not bits[c]:
                bits[c] = 1
                out.append(c)
        for c in out:
            bits[c] = 0
        return out


def check_integer(value) -> int:
    """`value` as an int, or InvalidCoordinate. Python and numpy integers
    pass; bools, floats and other types do not (a float would be truncated
    silently). A delete checks its x with this alone: an integer that no
    point holds, in range or not, is NotFound."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidCoordinate(value)
    return operator.index(value)


def check_coordinate(value) -> int:
    """`value` as an int in [1, MAX_COORDINATE], or InvalidCoordinate: the
    test of `check_integer` and the range, inline, since every point of
    `normalize_input` takes it."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") \
            or not 1 <= value <= MAX_COORDINATE:
        raise InvalidCoordinate(value)
    return operator.index(value)


def check_color(color) -> int:
    """`color` as an int, or InvalidColor, by the same rule from 0 up."""
    if isinstance(color, bool) or not hasattr(type(color), "__index__") \
            or color < 0:
        raise InvalidColor(color)
    return operator.index(color)


def check_colors(colors: list) -> None:
    """`check_color` on each color, but only if their types or minimum fail
    a fast test."""
    if set(map(type, colors)) - {int} or colors and min(colors) < 0:
        for c in colors:
            check_color(c)


def normalize_input(pairs: Iterable[tuple]) -> tuple[list[ColoredPoint], ColorRemap]:
    """Sort by coordinate and remap colors densely by first occurrence.

    `pairs` is an iterable of (coordinate, color_label). Coordinates must be
    distinct integers in [1, MAX_COORDINATE] (0 is the prev-sentinel), else
    InvalidCoordinate or DuplicateCoordinate.
    """
    remap = ColorRemap()
    pts = []
    for value, label in pairs:
        pts.append(ColoredPoint(check_coordinate(value), remap.id_for(label)))
    pts.sort()
    for i in range(1, len(pts)):
        if pts[i - 1].value == pts[i].value:
            raise DuplicateCoordinate(pts[i].value)
    return pts, remap


def compute_prev(points: Sequence[ColoredPoint]) -> list[int]:
    """prev(e) per point: the largest same-color coordinate < e, else 0.

    `points` must be sorted ascending by value with distinct values.
    """
    last: dict = {}
    out = []
    for v, c in points:
        out.append(last.get(c, PREV_SENTINEL))
        last[c] = v
    return out


def color_maps(points: Iterable[tuple]) -> tuple[dict, dict]:
    """The value -> color map and each color's sorted values of (value,
    color) pairs, the state an updatable index keeps prev/next links in.

    Raises InvalidColor, InvalidCoordinate for a value outside [1,
    MAX_COORDINATE] (so the prev-sentinel 0 stays below every value) and
    DuplicateX for a repeated value.
    """
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


def oracle_report(points: Sequence[ColoredPoint], q: Range) -> set:
    """Distinct colors of points with a <= value <= b, by linear scan."""
    a, b = q
    return {c for v, c in points if a <= v <= b}


def oracle_k_leftmost(points: Sequence[ColoredPoint], q: Range, k: int) -> list:
    """First k distinct colors scanning [a, b] left-to-right (sorted input)."""
    a, b = q
    out: list = []
    seen = set()
    for v, c in points:
        if v < a:
            continue
        if v > b or len(out) >= k:
            break
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def oracle_k_rightmost(points: Sequence[ColoredPoint], q: Range, k: int) -> list:
    """First k distinct colors scanning [a, b] right-to-left (sorted input)."""
    a, b = q
    out: list = []
    seen = set()
    for v, c in reversed(points):
        if v > b:
            continue
        if v < a or len(out) >= k:
            break
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


class FastOracle:
    """numpy-vectorized equivalent of the scan oracles, for large test runs.

    Semantically identical to oracle_report / oracle_k_leftmost; used where a
    pure-Python scan would dominate the runtime of randomized suites, and as
    the live reference of update replays (each update is O(n)).
    """

    def __init__(self, points: Sequence[ColoredPoint]):
        self.values = np.fromiter((p.value for p in points), dtype=np.int64,
                                  count=len(points))
        self.colors = np.fromiter((p.color for p in points), dtype=np.int64,
                                  count=len(points))

    def window(self, a: int, b: int) -> tuple[int, int]:
        lo = int(np.searchsorted(self.values, a, side="left"))
        hi = int(np.searchsorted(self.values, b, side="right"))
        return lo, hi

    def insert(self, value: int, color: int) -> None:
        i = int(np.searchsorted(self.values, value))
        if i < len(self.values) and self.values[i] == value:
            raise DuplicateX(value)
        self.values = np.insert(self.values, i, value)
        self.colors = np.insert(self.colors, i, color)

    def delete(self, value: int) -> None:
        i = int(np.searchsorted(self.values, value))
        if i == len(self.values) or self.values[i] != value:
            raise NotFound(value)
        self.values = np.delete(self.values, i)
        self.colors = np.delete(self.colors, i)

    def report(self, a: int, b: int) -> set:
        lo, hi = self.window(a, b)
        if lo >= hi:
            return set()
        return set(np.unique(self.colors[lo:hi]).tolist())

    def k_leftmost(self, a: int, b: int, k: int) -> list:
        lo, hi = self.window(a, b)
        out: list = []
        seen = set()
        for c in self.colors[lo:hi].tolist():
            if len(out) >= k:
                break
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    def k_rightmost(self, a: int, b: int, k: int) -> list:
        lo, hi = self.window(a, b)
        out: list = []
        seen = set()
        for c in self.colors[lo:hi][::-1].tolist():
            if len(out) >= k:
                break
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out


def load_dataset(path) -> list[tuple]:
    """Read `value,color_label` CSV lines; '#' starts a comment."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            value, label = line.split(",", 1)
            rows.append((int(value), label.strip()))
    return rows


def save_dataset(path, rows: Iterable[tuple], header: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for value, label in rows:
            fh.write(f"{value},{label}\n")
