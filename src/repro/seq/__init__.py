"""Sequential data structures: segment tree, range tree, baselines.

Each tree here is one a user queries; the object range tree the tests
compare the arrays against is ``tests.helpers.RangeTree``, not shipped.
"""

from .bruteforce import BruteForceIndex, bf_aggregate, bf_count, bf_report
from .dominance import DominanceRangeIndex, FenwickTree, offline_dominance
from .dynamic import DynamicRangeTree
from .kdtree import KDTree
from .layered import LayeredRangeTree, LayeredSequentialRangeTree
from .range_tree import SequentialRangeTree
from .segment_tree import SegTree, WalkStats

__all__ = [
    "SegTree",
    "DominanceRangeIndex",
    "FenwickTree",
    "offline_dominance",
    "DynamicRangeTree",
    "WalkStats",
    "SequentialRangeTree",
    "LayeredRangeTree",
    "LayeredSequentialRangeTree",
    "KDTree",
    "BruteForceIndex",
    "bf_report",
    "bf_count",
    "bf_aggregate",
]
