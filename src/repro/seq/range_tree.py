"""The sequential d-dimensional range tree (paper Definition 1).

A j-dimensional range tree for a point set is a *primary segment tree* over
one dimension, where every node ``v`` carries a pointer ``descendant(v)``
to a (j-1)-dimensional range tree over the points ``W(v)`` covered by
``v``'s segment.  Size ``O(n log^{d-1} n)``, query ``O(log^d n)``.

:class:`SequentialRangeTree` is the user-facing tree over real
coordinates (rank normalisation, power-of-two padding, id filtering).
It holds the tree once, as one
:class:`~repro.seq.compiled.CompiledForest` built by
:meth:`~repro.seq.compiled.CompiledForest.from_ranks` and annotated by
:meth:`~repro.seq.compiled.CompiledForest.annotate`, and answers a
batch of boxes, or one box, with one
:meth:`~repro.seq.compiled.CompiledForest.walk`, in the paper's three
outcomes: ``count``, the associative-function mode (``aggregate``) and
the report mode (``report``).  A count is a selected node's width, so a
tree declared with COUNT stores no aggregate column
(:data:`~repro.semigroup.NO_LAYERS`) and its ``aggregate`` sums widths.

The same tree as explicit objects, walked one query at a time, is the
tests' reference (``tests.helpers.RangeTree``): the arrays of a
sequential tree and of every forest element of :mod:`repro.dist` are
pinned against it — same selections, same order, same visit counts,
same aggregates.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..geometry.box import Box
from ..geometry.point import PointSet
from ..geometry.rankspace import RankedPointSet, pad_to_power_of_two
from ..semigroup import COUNT, Semigroup, annotation_of, is_count
from ..semigroup.kernels import lift_kernel_column
from .compiled import CompiledForest, Selections
from .segment_tree import WalkStats

__all__ = ["SequentialRangeTree"]


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
        annotation = annotation_of(semigroup)
        values = lift_kernel_column(
            annotation.kernel, points.coords, self.ranked.n, points.ids
        )
        self.forest = CompiledForest.from_ranks(self.ranked.ranks)
        self.forest.annotate(values, annotation)

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
        """Per-query folds in the object walk's exact emission order: one
        kernel fold of the selected rows of the annotation's one layer, a
        segment per query, each folded left from its first row (the
        identity when empty), as the query demux folds; under a count,
        the selected nodes' widths."""
        if is_count(self.semigroup):
            return self.count_many(boxes)
        nq, sel = self._walk(boxes)
        aggs = self.forest.aggs.layer(0)
        cuts = np.searchsorted(sel.q, np.arange(nq + 1))
        folded = aggs.kernel.fold(aggs.data.take(sel.node, axis=0), cuts[:-1], cuts[1:])
        return aggs.kernel.decode_list(folded)

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
