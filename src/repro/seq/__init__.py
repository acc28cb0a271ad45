"""Sequential data structures: segment tree, range tree, baselines."""

from .bruteforce import BruteForceIndex, bf_aggregate, bf_count, bf_report
from .dominance import DominanceRangeIndex, FenwickTree, offline_dominance
from .dynamic import DynamicRangeTree
from .kdtree import KDTree
from .layered import LayeredRangeTree, LayeredSequentialRangeTree
from .range_tree import CanonicalSelection, DimTree, RangeTree, SequentialRangeTree
from .segment_tree import SegTree, WalkStats

__all__ = [
    "SegTree",
    "DominanceRangeIndex",
    "FenwickTree",
    "offline_dominance",
    "DynamicRangeTree",
    "WalkStats",
    "RangeTree",
    "DimTree",
    "CanonicalSelection",
    "SequentialRangeTree",
    "LayeredRangeTree",
    "LayeredSequentialRangeTree",
    "KDTree",
    "BruteForceIndex",
    "bf_report",
    "bf_count",
    "bf_aggregate",
]
