"""Layered range tree (fractional cascading on the last dimension).

The paper (Section 1) notes that "an improved version of this structure,
known as the layered range tree, saves a factor of log n in the search
time".  This module implements that improvement for benchmark B2 (the
ablation): dimensions ``0..d-3`` keep the ordinary segment-tree recursion,
while the last *two* dimensions are replaced by a segment tree over
dimension ``d-2`` whose nodes carry the points sorted by dimension ``d-1``
together with cascading pointers into their children's arrays.  A query
then performs a single binary search at each cascade root and walks the
canonical decomposition with O(1) work per node, for ``O(log^{d-1} n)``
query time instead of ``O(log^d n)``.

Supported modes: count and report (a general, non-invertible semigroup
cannot be folded from array *positions*, which is exactly the information
cascading propagates; the plain :class:`~repro.seq.range_tree.SequentialRangeTree`
covers that case).
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from ..geometry.box import Box, RankBox
from ..geometry.point import PointSet
from ..geometry.rankspace import RankedPointSet, pad_to_power_of_two
from .segment_tree import SegTree, WalkStats

__all__ = ["LayeredRangeTree", "LayeredSequentialRangeTree"]


class _CascadeTree:
    """Segment tree on dimension ``dim`` with cascaded dim+1 arrays."""

    __slots__ = ("dim", "seg", "ys", "yrows", "lptr", "rptr")

    def __init__(self, ranks: np.ndarray, rows: np.ndarray, dim: int) -> None:
        self.dim = dim
        order = rows[np.argsort(ranks[rows, dim], kind="stable")]
        self.seg = SegTree(ranks[order, dim])
        m = self.seg.m
        nxt = dim + 1
        self.ys: list[np.ndarray] = [np.empty(0)] * (2 * m)
        self.yrows: list[np.ndarray] = [np.empty(0)] * (2 * m)
        self.lptr: list[np.ndarray | None] = [None] * (2 * m)
        self.rptr: list[np.ndarray | None] = [None] * (2 * m)
        for node in range(2 * m - 1, 0, -1):
            s, e = self.seg.slice_of(node)
            sub = order[s:e]
            ysort = sub[np.argsort(ranks[sub, nxt], kind="stable")]
            self.ys[node] = ranks[ysort, nxt]
            self.yrows[node] = ysort
        for node in range(1, m):
            ys = self.ys[node]
            left, right = 2 * node, 2 * node + 1
            # pointer i: first position in child's array with value >= ys[i];
            # one extra slot maps the exclusive end to the child's length.
            self.lptr[node] = np.concatenate(
                [
                    np.searchsorted(self.ys[left], ys, side="left"),
                    [self.ys[left].shape[0]],
                ]
            )
            self.rptr[node] = np.concatenate(
                [
                    np.searchsorted(self.ys[right], ys, side="left"),
                    [self.ys[right].shape[0]],
                ]
            )

    def query(
        self,
        a: int,
        b: int,
        ylo: int,
        yhi_excl: int,
        stats: WalkStats,
        collect: list[np.ndarray] | None,
    ) -> int:
        """Count (and optionally collect rows) for dim interval [a, b].

        ``ylo``/``yhi_excl`` are positions in the *root's* y-array bounding
        the dim+1 interval; they are cascaded down without re-searching.
        """
        total = 0
        stack: list[tuple[int, int, int]] = [(self.seg.root, ylo, yhi_excl)]
        while stack:
            node, lo, hi = stack.pop()
            stats.nodes_visited += 1
            if lo >= hi:
                continue  # no matching dim+1 values below this node
            slo, shi = self.seg.seg(node)
            if b < slo or shi < a:
                continue
            if a <= slo and shi <= b:
                total += hi - lo
                if collect is not None:
                    collect.append(self.yrows[node][lo:hi])
                continue
            lp = self.lptr[node]
            rp = self.rptr[node]
            assert lp is not None and rp is not None
            stack.append((2 * node, int(lp[lo]), int(lp[hi])))
            stack.append((2 * node + 1, int(rp[lo]), int(rp[hi])))
        return total

    def root_positions(self, ya: int, yb: int, stats: WalkStats) -> tuple[int, int]:
        """Binary-search the root array once for the dim+1 interval [ya, yb]."""
        ys = self.ys[self.seg.root]
        lo = int(np.searchsorted(ys, ya, side="left"))
        hi = int(np.searchsorted(ys, yb, side="right"))
        # charge the two binary searches as log-many visits so work
        # comparisons against the plain range tree are fair
        stats.nodes_visited += 2 * max(1, self.seg.height)
        return lo, hi


class _UpperTree:
    """Ordinary segment-tree level for dimensions before the cascade."""

    __slots__ = ("dim", "seg", "order", "descendants")

    def __init__(self, tree: "LayeredRangeTree", ranks: np.ndarray, rows: np.ndarray, dim: int) -> None:
        self.dim = dim
        order = rows[np.argsort(ranks[rows, dim], kind="stable")]
        self.seg = SegTree(ranks[order, dim])
        self.order = order
        m = self.seg.m
        self.descendants: list = [None] * (2 * m)
        for node in range(2 * m - 1, 0, -1):
            s, e = self.seg.slice_of(node)
            self.descendants[node] = tree._build(order[s:e], dim + 1)


class LayeredRangeTree:
    """Rank-space layered range tree over ``d >= 2`` dimensions."""

    def __init__(self, ranks: np.ndarray, rows: np.ndarray | None = None) -> None:
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 2 or ranks.shape[1] < 2:
            raise GeometryError("LayeredRangeTree needs (N, d) ranks with d >= 2")
        self.ranks = ranks
        self.d = int(ranks.shape[1])
        self.stats = WalkStats()
        if rows is None:
            rows = np.arange(ranks.shape[0], dtype=np.int64)
        self.root = self._build(rows, 0)

    def _build(self, rows: np.ndarray, dim: int):
        if dim == self.d - 2:
            return _CascadeTree(self.ranks, rows, dim)
        return _UpperTree(self, self.ranks, rows, dim)

    # ------------------------------------------------------------------
    def _run(self, box: RankBox, collect: list[np.ndarray] | None) -> int:
        if box.is_empty():
            return 0
        return self._rec(self.root, box, collect)

    def _rec(self, tree, box: RankBox, collect: list[np.ndarray] | None) -> int:
        if isinstance(tree, _CascadeTree):
            a, b = box.interval(tree.dim)
            ya, yb = box.interval(tree.dim + 1)
            lo, hi = tree.root_positions(ya, yb, self.stats)
            return tree.query(a, b, lo, hi, self.stats, collect)
        a, b = box.interval(tree.dim)
        nodes, visited = tree.seg.decompose_counted(a, b)
        self.stats.nodes_visited += visited
        return sum(self._rec(tree.descendants[node], box, collect) for node in nodes)

    def count(self, box: RankBox) -> int:
        return self._run(box, None)

    def report(self, box: RankBox) -> np.ndarray:
        parts: list[np.ndarray] = []
        self._run(box, parts)
        if not parts:
            return np.empty(0, dtype=np.int64)
        rows = np.concatenate(parts)
        self.stats.points_reported += int(rows.shape[0])
        return rows


class LayeredSequentialRangeTree:
    """User-facing layered range tree over real coordinates (count/report)."""

    def __init__(self, points: PointSet) -> None:
        if points.dim < 2:
            raise GeometryError("layered range tree needs d >= 2")
        self.points = points
        self.ranked: RankedPointSet = pad_to_power_of_two(points)
        self.core = LayeredRangeTree(self.ranked.ranks)
        self.stats = self.core.stats

    def count(self, box: Box) -> int:
        return self.core.count(self.ranked.to_rank_box(box))

    def report(self, box: Box) -> list[int]:
        rows = self.core.report(self.ranked.to_rank_box(box))
        ids = self.ranked.ids[rows]
        return sorted(int(i) for i in ids if i >= 0)
