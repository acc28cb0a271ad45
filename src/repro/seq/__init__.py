"""Sequential data structures: segment tree, range tree, baselines.

Each tree here is one a user queries; the object range tree the tests
compare the arrays against is ``tests.helpers.RangeTree``, not shipped.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".segment_tree": ("SegTree", "WalkStats"),
        ".dominance": ("DominanceRangeIndex", "FenwickTree", "offline_dominance"),
        ".dynamic": ("DynamicRangeTree",),
        ".range_tree": ("SequentialRangeTree",),
        ".layered": ("LayeredRangeTree", "LayeredSequentialRangeTree"),
        ".kdtree": ("KDTree",),
        ".bruteforce": ("BruteForceIndex", "bf_report", "bf_count", "bf_aggregate"),
    },
)
