"""One-dimensional color (categorical) range reporting structures.

Static optimal, dynamic, and external-memory indexes over integer-coordinate
colored points, with brute-force oracles and cost meters for verifying
correctness and output sensitivity.
"""

from .core import (ColArray, ColorRemap, ColoredPoint, CostMeter,
                   DuplicateCoordinate, DuplicateX, IndexFileError,
                   InvalidColor, InvalidCoordinate, InvalidRange, NotFound,
                   Range, compute_prev, make_range,
                   normalize_input, oracle_k_leftmost, oracle_k_rightmost,
                   oracle_report)
from .dynamic_index import DynamicIndex
from .em_index import BlockStore, EmIndex
from .pst import ColorPst, Pst
from .slow_index import SlowIndex
from .static_index import StaticIndex
from .stripe import StripeIndex
from .wbtree import WbTree

__all__ = [
    "ColArray", "ColorRemap", "ColoredPoint", "CostMeter",
    "DuplicateCoordinate", "DuplicateX", "IndexFileError", "InvalidColor",
    "InvalidCoordinate", "InvalidRange", "NotFound", "Range",
    "compute_prev", "make_range", "normalize_input", "oracle_k_leftmost",
    "oracle_k_rightmost", "oracle_report",
    "BlockStore", "ColorPst", "DynamicIndex", "EmIndex", "Pst", "SlowIndex",
    "StaticIndex", "StripeIndex", "WbTree",
]

__version__ = "0.1.0"
