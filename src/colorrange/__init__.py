"""One-dimensional color (categorical) range reporting structures.

Static optimal, dynamic, and external-memory indexes over integer-coordinate
colored points, with brute-force oracles and cost meters for verifying
correctness and output sensitivity. Building blocks (`ColorPst`, `WbTree`,
`StripeIndex`, `BlockStore`, ...) are imported from their modules.
"""

from .core import (ColorRemap, ColoredPoint, CostMeter, DuplicateCoordinate,
                   DuplicateX, IndexFileError, InvalidColor,
                   InvalidCoordinate, InvalidRange, NotFound, Range,
                   make_range, normalize_input, oracle_k_leftmost,
                   oracle_k_rightmost, oracle_report)
from .dynamic_index import DynamicIndex
from .em_index import EmIndex
from .slow_index import SlowIndex
from .static_index import StaticIndex

__all__ = [
    "ColorRemap", "ColoredPoint", "CostMeter", "DuplicateCoordinate",
    "DuplicateX", "IndexFileError", "InvalidColor", "InvalidCoordinate",
    "InvalidRange", "NotFound", "Range", "make_range", "normalize_input",
    "oracle_k_leftmost", "oracle_k_rightmost", "oracle_report",
    "DynamicIndex", "EmIndex", "SlowIndex", "StaticIndex",
]

__version__ = "0.1.0"
