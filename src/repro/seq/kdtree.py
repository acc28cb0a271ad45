"""Multidimensional binary tree (k-D tree) baseline.

The paper's introduction positions the range tree against k-D trees:
optimal ``O(dn)`` space but a "discouraging" worst-case query of
``O(d n^{1-1/d})``.  This is the comparison baseline for benchmark B1.

The implementation is the classical median-split k-D tree with
subtree bounding boxes, supporting count / report / aggregate with the
same pruning logic (contained -> take whole subtree, disjoint -> skip,
otherwise recurse), and instrumented with node-visit counters so the
benches can report algorithmic work independently of constant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import DimensionMismatch
from ..geometry.box import Box
from ..geometry.point import PointSet
from ..semigroup import COUNT, Semigroup
from .segment_tree import WalkStats

__all__ = ["KDTree"]


@dataclass
class _Node:
    __slots__ = ("rows", "split_dim", "split_val", "left", "right", "mins", "maxs", "agg", "count")
    rows: np.ndarray | None  # leaf rows, None for internal nodes
    split_dim: int
    split_val: float
    left: "._Node | None"
    right: "._Node | None"
    mins: np.ndarray
    maxs: np.ndarray
    agg: Any
    count: int


class KDTree:
    """Median-split k-D tree over real coordinates.

    Parameters
    ----------
    points:
        The point set to index.
    semigroup:
        Aggregate maintained per subtree (default: count).
    leaf_size:
        Stop splitting below this many points (default 8; a few points per
        leaf is faster in Python than fully unrolled trees).
    """

    def __init__(
        self,
        points: PointSet,
        semigroup: Semigroup = COUNT,
        leaf_size: int = 8,
    ) -> None:
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = points
        self.semigroup = semigroup
        self.leaf_size = leaf_size
        self.stats = WalkStats()
        rows = np.arange(points.n, dtype=np.int64)
        self.root = self._build(rows, depth=0)

    # ------------------------------------------------------------------
    def _lift_rows(self, rows: np.ndarray) -> Any:
        sg = self.semigroup
        acc = sg.identity
        ids = self.points.ids
        coords = self.points.coords
        for r in rows:
            acc = sg.combine(acc, sg.lift(int(ids[r]), coords[r]))
        return acc

    def _build(self, rows: np.ndarray, depth: int) -> _Node:
        coords = self.points.coords
        sub = coords[rows]
        mins = sub.min(axis=0)
        maxs = sub.max(axis=0)
        if rows.shape[0] <= self.leaf_size:
            return _Node(
                rows=rows,
                split_dim=-1,
                split_val=0.0,
                left=None,
                right=None,
                mins=mins,
                maxs=maxs,
                agg=self._lift_rows(rows),
                count=int(rows.shape[0]),
            )
        dim = depth % self.points.dim
        order = rows[np.argsort(coords[rows, dim], kind="stable")]
        mid = order.shape[0] // 2
        left = self._build(order[:mid], depth + 1)
        right = self._build(order[mid:], depth + 1)
        return _Node(
            rows=None,
            split_dim=dim,
            split_val=float(coords[order[mid], dim]),
            left=left,
            right=right,
            mins=mins,
            maxs=maxs,
            agg=self.semigroup.combine(left.agg, right.agg),
            count=left.count + right.count,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _disjoint(node: _Node, box: Box) -> bool:
        return bool(np.any(node.maxs < box.lo) or np.any(node.mins > box.hi))

    @staticmethod
    def _contained(node: _Node, box: Box) -> bool:
        return bool(np.all(box.lo <= node.mins) and np.all(node.maxs <= box.hi))

    def _visit(self) -> None:
        self.stats.nodes_visited += 1

    def _check(self, box: Box) -> None:
        # numpy would broadcast a 1-d box's bounds over every dimension
        if box.dim != self.points.dim:
            raise DimensionMismatch(self.points.dim, box.dim, "query box")

    def count(self, box: Box) -> int:
        """Number of points inside the closed box."""
        self._check(box)
        return self._count(self.root, box)

    def _count(self, node: _Node, box: Box) -> int:
        self._visit()
        if self._disjoint(node, box):
            return 0
        if self._contained(node, box):
            return node.count
        if node.rows is not None:
            mask = box.contains_rows(self.points.coords[node.rows])
            return int(mask.sum())
        assert node.left is not None and node.right is not None
        return self._count(node.left, box) + self._count(node.right, box)

    def aggregate(self, box: Box) -> Any:
        """Fold the semigroup over points inside the box."""
        self._check(box)
        return self._aggregate(self.root, box)

    def _aggregate(self, node: _Node, box: Box) -> Any:
        self._visit()
        sg = self.semigroup
        if self._disjoint(node, box):
            return sg.identity
        if self._contained(node, box):
            return node.agg
        if node.rows is not None:
            mask = box.contains_rows(self.points.coords[node.rows])
            return self._lift_rows(node.rows[mask])
        assert node.left is not None and node.right is not None
        return sg.combine(self._aggregate(node.left, box), self._aggregate(node.right, box))

    def report(self, box: Box) -> list[int]:
        """Sorted ids of points inside the closed box."""
        self._check(box)
        out: list[np.ndarray] = []
        self._report(self.root, box, out)
        if not out:
            return []
        rows = np.concatenate(out)
        self.stats.points_reported += int(rows.shape[0])
        return sorted(int(i) for i in self.points.ids[rows])

    def _report(self, node: _Node, box: Box, out: list[np.ndarray]) -> None:
        self._visit()
        if self._disjoint(node, box):
            return
        if self._contained(node, box):
            out.append(self._all_rows(node))
            return
        if node.rows is not None:
            mask = box.contains_rows(self.points.coords[node.rows])
            if mask.any():
                out.append(node.rows[mask])
            return
        assert node.left is not None and node.right is not None
        self._report(node.left, box, out)
        self._report(node.right, box, out)

    def _all_rows(self, node: _Node) -> np.ndarray:
        if node.rows is not None:
            return node.rows
        assert node.left is not None and node.right is not None
        return np.concatenate([self._all_rows(node.left), self._all_rows(node.right)])

    # ------------------------------------------------------------------
    def space_nodes(self) -> int:
        """Total node count — O(n/leaf_size) (the paper's O(dn) space claim)."""

        def rec(node: _Node) -> int:
            if node.rows is not None:
                return 1
            assert node.left is not None and node.right is not None
            return 1 + rec(node.left) + rec(node.right)

        return rec(self.root)
