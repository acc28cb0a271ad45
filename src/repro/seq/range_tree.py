"""The sequential d-dimensional range tree (paper Definition 1).

A j-dimensional range tree for a point set is a *primary segment tree* over
one dimension, where every node ``v`` carries a pointer ``descendant(v)``
to a (j-1)-dimensional range tree over the points ``W(v)`` covered by
``v``'s segment.  Size ``O(n log^{d-1} n)``, query ``O(log^d n)``.

Two classes live here:

* :class:`SequentialRangeTree` — the user-facing tree over real
  coordinates (rank normalisation, power-of-two padding, id filtering).
  It holds the tree once, as one
  :class:`~repro.seq.compiled.CompiledForest` built by
  :meth:`~repro.seq.compiled.CompiledForest.from_ranks`, and answers a
  batch of boxes, or one box, with one
  :meth:`~repro.seq.compiled.CompiledForest.walk`.
* :class:`RangeTree` — the rank-space tree as explicit objects: one
  :class:`DimTree` per segment tree, aggregates as the semigroup's own
  Python values, walked one query at a time.  It operates on *global*
  rank vectors and any ``start_dim``, and it is the reference only:
  ``tests/test_compiled_forest.py`` pins the arrays (of a sequential tree
  and of a forest element of :mod:`repro.dist`) against it — same
  selections, same order, same visit counts, same aggregates.

Queries support the paper's three outcomes: the canonical dimension-d
selection (:meth:`RangeTree.canonical`), the associative-function mode
(``aggregate``) and the report mode (``report``).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from ..errors import DimensionMismatch, GeometryError
from ..geometry.box import Box, RankBox
from ..geometry.point import PointSet
from ..geometry.rankspace import RankedPointSet, pad_to_power_of_two
from ..semigroup import COUNT, Semigroup
from ..semigroup.kernels import lift_kernel_column
from .compiled import CompiledForest, Selections
from .segment_tree import SegTree, WalkStats

__all__ = ["RangeTree", "DimTree", "SequentialRangeTree", "CanonicalSelection"]


class DimTree:
    """One segment tree of the range tree, dividing dimension ``dim``.

    Holds the point rows in rank order of its dimension, the implicit
    segment tree over their ranks, and either per-node descendant trees
    (``dim < last``) or per-node aggregate values (``dim == last``).
    """

    __slots__ = ("dim", "seg", "order", "descendants", "aggs")

    def __init__(
        self,
        dim: int,
        seg: SegTree,
        order: np.ndarray,
        descendants: list["DimTree"] | None,
        aggs: list[Any] | None,
    ) -> None:
        self.dim = dim
        self.seg = seg
        self.order = order
        self.descendants = descendants
        self.aggs = aggs

    @property
    def npoints(self) -> int:
        return int(self.order.shape[0])

    def rows_under(self, node: int) -> np.ndarray:
        """Point rows (global row indices) below a node of this tree."""
        s, e = self.seg.slice_of(node)
        return self.order[s:e]


class CanonicalSelection:
    """A dimension-d canonical node selected by a query.

    ``tree`` is the last-dimension :class:`DimTree` containing the node and
    ``node`` its heap id; the selection's answer set is exactly the leaves
    below it.
    """

    __slots__ = ("tree", "node")

    def __init__(self, tree: DimTree, node: int) -> None:
        self.tree = tree
        self.node = node

    @property
    def leaf_count(self) -> int:
        # width of the node's slice: m >> depth, no slice round-trip
        return self.tree.seg.m >> (self.node.bit_length() - 1)

    @property
    def level(self) -> int:
        return self.tree.seg.level(self.node)

    def rows(self) -> np.ndarray:
        return self.tree.rows_under(self.node)

    def agg(self) -> Any:
        assert self.tree.aggs is not None
        return self.tree.aggs[self.node]


class RangeTree:
    """Rank-space range tree over the rows of a global rank table.

    Parameters
    ----------
    ranks:
        ``(N, d)`` global rank table (each column a permutation-unique
        integer key); ``N`` must be a power of two.
    values:
        Sequence of length ``N``: the lifted semigroup value of each row
        (identity for padding sentinels).
    semigroup:
        Supplies ``combine``/``identity`` for aggregate maintenance.
    start_dim:
        First dimension this tree divides; the tree spans dimensions
        ``start_dim .. d-1`` (a ``(d - start_dim)``-dimensional range tree,
        matching forest elements "of dimension j <= d").
    """

    __slots__ = (
        "ranks",
        "values",
        "semigroup",
        "start_dim",
        "d",
        "root_tree",
        "stats",
    )

    def __init__(
        self,
        ranks: np.ndarray,
        values: Sequence[Any],
        semigroup: Semigroup,
        start_dim: int = 0,
        stats: WalkStats | None = None,
    ) -> None:
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 2:
            raise GeometryError("ranks must be an (N, d) array")
        self.ranks = ranks
        self.values = values
        self.semigroup = semigroup
        self.d = int(ranks.shape[1])
        if not 0 <= start_dim < self.d:
            raise DimensionMismatch(self.d, start_dim, "start dimension")
        self.start_dim = start_dim
        self.stats = stats if stats is not None else WalkStats()
        self.root_tree = self._build(
            np.arange(ranks.shape[0], dtype=np.int64), start_dim
        )

    # ------------------------------------------------------------------
    # construction (the classical bottom-up sequential algorithm)
    # ------------------------------------------------------------------
    def _build(self, rows: np.ndarray, dim: int) -> DimTree:
        order = rows[np.argsort(self.ranks[rows, dim], kind="stable")]
        # ranks are unique per dimension and just sorted: trusted input
        seg = SegTree(self.ranks[order, dim], validate=False)
        if dim == self.d - 1:
            return DimTree(dim, seg, order, None, self._build_aggs(seg, order))
        m = seg.m
        descendants: list[DimTree | None] = [None] * (2 * m)
        for node in range(2 * m - 1, 0, -1):
            s, e = seg.slice_of(node)
            descendants[node] = self._build(order[s:e], dim + 1)
        return DimTree(dim, seg, order, descendants, None)  # type: ignore[arg-type]

    def _build_aggs(self, seg: SegTree, order: np.ndarray) -> list[Any]:
        combine = self.semigroup.combine
        values = self.values
        m = seg.m
        aggs: list[Any] = [None] * (2 * m)
        for k in range(m):
            aggs[m + k] = values[order[k]]
        for node in range(m - 1, 0, -1):
            aggs[node] = combine(aggs[2 * node], aggs[2 * node + 1])
        return aggs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_box(self, box: RankBox) -> None:
        if box.dim != self.d:
            raise DimensionMismatch(self.d, box.dim, "rank box")

    def canonical(
        self, box: RankBox, stats: WalkStats | None = None
    ) -> list[CanonicalSelection]:
        """The selected dimension-d segment-tree nodes for ``box``.

        This is the output of the paper's Algorithm Search restricted to
        one query: the ``O(log^d n)`` maximal last-dimension nodes whose
        leaves are exactly the points in the query domain.

        ``stats`` overrides the tree's shared counter for this call.
        """
        self._check_box(box)
        st = stats if stats is not None else self.stats
        if box.is_empty():
            return []
        out: list[CanonicalSelection] = []
        self._canonical_rec(self.root_tree, box, out, st)
        st.nodes_selected += len(out)
        return out

    def _canonical_rec(
        self,
        tree: DimTree,
        box: RankBox,
        out: list[CanonicalSelection],
        st: WalkStats,
    ) -> None:
        a, b = box.interval(tree.dim)
        nodes, visited = tree.seg.decompose_counted(a, b)
        st.nodes_visited += visited
        if tree.dim == self.d - 1:
            out.extend(CanonicalSelection(tree, node) for node in nodes)
            return
        assert tree.descendants is not None
        for node in nodes:
            self._canonical_rec(tree.descendants[node], box, out, st)

    def aggregate(self, box: RankBox, stats: WalkStats | None = None) -> Any:
        """Associative-function mode: fold ``f`` over the selection."""
        sel = self.canonical(box, stats)
        return self.semigroup.fold(s.agg() for s in sel)

    def report(self, box: RankBox, stats: WalkStats | None = None) -> np.ndarray:
        """Report mode: the global row indices inside the box (unsorted)."""
        st = stats if stats is not None else self.stats
        sel = self.canonical(box, st)
        if not sel:
            return np.empty(0, dtype=np.int64)
        parts = [s.rows() for s in sel]
        rows = np.concatenate(parts)
        st.points_reported += int(rows.shape[0])
        return rows

    def count(self, box: RankBox, stats: WalkStats | None = None) -> int:
        """Number of points in the box (works for any semigroup: uses leaf counts)."""
        return sum(s.leaf_count for s in self.canonical(box, stats))

    # ------------------------------------------------------------------
    # introspection (sizes; used by Theorem 1 and the scaling benches)
    # ------------------------------------------------------------------
    @property
    def npoints(self) -> int:
        return self.root_tree.npoints

    @property
    def dims_spanned(self) -> int:
        """The paper's "dimension" of this tree (primary + descendants)."""
        return self.d - self.start_dim

    def space_nodes(self) -> int:
        """Total segment-tree node count (the ``s`` of the paper)."""
        return sum(2 * t.seg.m - 1 for t in self.iter_dim_trees())

    def space_leaves(self) -> int:
        """Total leaf count across all segment trees."""
        return sum(t.seg.m for t in self.iter_dim_trees())

    def iter_dim_trees(self) -> Iterator[DimTree]:
        stack = [self.root_tree]
        while stack:
            t = stack.pop()
            yield t
            if t.descendants is not None:
                stack.extend(c for c in t.descendants[1:] if c is not None)

    def root_agg(self) -> Any:
        """Aggregate over all points of this tree (identity-safe)."""
        t = self.root_tree
        while t.descendants is not None:
            t = t.descendants[1]
        assert t.aggs is not None
        return t.aggs[1]


class SequentialRangeTree:
    """User-facing sequential range tree over real coordinates.

    Handles rank normalisation, power-of-two sentinel padding, lifting the
    semigroup values and translating real-coordinate :class:`Box` queries.
    The tree is ``forest``, one :class:`CompiledForest`; a scalar query
    is a batch of one box, and every call charges ``stats`` with the
    walk's visits, selections and reported rows.

    Examples
    --------
    >>> from repro.geometry import PointSet, Box
    >>> t = SequentialRangeTree(PointSet([(1.0, 1.0), (2.0, 5.0), (3.0, 2.0)]))
    >>> t.count(Box([(0.0, 2.5), (0.0, 3.0)]))
    1
    """

    def __init__(self, points: PointSet, semigroup: Semigroup = COUNT) -> None:
        self.points = points
        self.semigroup = semigroup
        self.ranked: RankedPointSet = pad_to_power_of_two(points)
        self.stats = WalkStats()
        values = lift_kernel_column(
            semigroup.kernel, points.coords, self.ranked.n, points.ids
        )
        self.forest = CompiledForest.from_ranks(self.ranked.ranks, values, semigroup)

    @property
    def n(self) -> int:
        """Padded point count (the structural ``n``)."""
        return self.ranked.n

    @property
    def dim(self) -> int:
        return self.points.dim

    def _walk(self, boxes: Sequence[Box]) -> tuple[int, Selections]:
        """One compiled walk over the whole slice, charged to ``stats``."""
        los, his = self.ranked.to_rank_bounds(*Box.stack(boxes))
        sel = CompiledForest.walk([self.forest], los, his)
        self.stats.nodes_visited += int(sel.visits.sum())
        self.stats.nodes_selected += int(sel.node.shape[0])
        return len(los), sel

    def count(self, box: Box) -> int:
        return self.count_many([box])[0]

    def aggregate(self, box: Box) -> Any:
        return self.aggregate_many([box])[0]

    def report(self, box: Box) -> list[int]:
        """Sorted ids of the points inside ``box``."""
        return self.report_many([box])[0]

    def count_many(self, boxes: Sequence[Box]) -> list[int]:
        nq, sel = self._walk(boxes)
        out = np.zeros(nq, dtype=np.int64)
        np.add.at(out, sel.q, sel.length)
        return [int(c) for c in out]

    def aggregate_many(self, boxes: Sequence[Box]) -> list[Any]:
        """Per-query folds in the object walk's exact emission order."""
        nq, sel = self._walk(boxes)
        vals = self.forest.decode_aggs(sel.node)
        cuts = np.searchsorted(sel.q, np.arange(nq + 1))
        fold = self.semigroup.fold
        return [fold(vals[cuts[i] : cuts[i + 1]]) for i in range(nq)]

    def report_many(self, boxes: Sequence[Box]) -> list[list[int]]:
        """Selection rows gathered with one flat fancy index over the
        forest's row tiling, mapped to ids (sentinels dropped)."""
        nq, sel = self._walk(boxes)
        flat = self.forest.rows_flat(sel.off, sel.length)
        self.stats.points_reported += int(flat.shape[0])
        offsets = np.zeros(len(sel.length) + 1, dtype=np.int64)
        np.cumsum(sel.length, out=offsets[1:])
        cuts = offsets[np.searchsorted(sel.q, np.arange(nq + 1))].tolist()
        ids = self.ranked.ids[flat].tolist()
        return [sorted(i for i in ids[a:b] if i >= 0) for a, b in zip(cuts, cuts[1:])]

    def space_nodes(self) -> int:
        return self.forest.size_nodes
