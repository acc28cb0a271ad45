"""Forest elements: the per-processor remainder of the tree (§4, Definition 3).

Cutting every segment tree of the d-dimensional range tree at level
``log2(n/p)`` leaves the replicated *hat* on top and a forest of subtrees
below.  Each subtree, together with all of its descendant trees in the
remaining dimensions, is one **forest element**: a ``(d - j)``-dimensional
range tree over exactly ``n/p`` points embedded in the *global* rank
space (Theorem 1 packs them into groups ``F_i`` of ``O(s/p)`` records,
one group per processor).

A :class:`ForestElement` holds that tree in exactly one form: the flat
arrays of :class:`~repro.seq.compiled.CompiledForest`, emitted directly
from the routed rank rows by Construct step 3 (every id in them is
Definition 2 arithmetic), walked by Search step 5, re-annotated in place
by a refit and shipped as they are when a group is replicated.  The
object :class:`~repro.seq.range_tree.RangeTree` stays in ``repro.seq``
as the oracle the arrays are tested against — the distributed selection
is the sequential selection, partitioned at the cut level.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from ..semigroup import Semigroup
from ..semigroup.kernels import KernelColumn
from ..seq.compiled import CompiledForest
from .labeling import Path
from .records import ForestRootInfo

__all__ = ["ForestElement", "build_forest_element"]


class ForestElement:
    """One element of the forest: a range tree on ``n/p`` points.

    Parameters mirror the record flow of Algorithm Construct: the element
    is built at its owner from the routed group of ``dist.srecord``
    rows, whose rank rows are
    contiguous in dimension ``dim`` (they tile one hat-leaf segment) and
    arbitrary in the later dimensions the element spans.
    """

    __slots__ = (
        "forest_id",
        "dim",
        "location",
        "group_rank",
        "ranks",
        "pids",
        "values",
        "semigroup",
        "soa",
    )

    def __init__(
        self,
        forest_id: Path,
        dim: int,
        location: int,
        group_rank: int,
        ranks: np.ndarray,
        pids: Sequence[int],
        values: Sequence[Any],
        semigroup: Semigroup,
    ) -> None:
        self.forest_id = forest_id
        self.dim = dim
        self.location = location
        self.group_rank = group_rank
        self.ranks = np.asarray(ranks, dtype=np.int64)
        key = self.ranks[:, dim]
        if (key[1:] <= key[:-1]).any():
            raise GeometryError(
                f"forest element {forest_id}: rows must ascend in dimension {dim}"
            )
        #: Point ids row for row — in ascending rank of dimension ``dim``,
        #: the order Construct's sort delivers a group in (checked above).
        self.pids = np.asarray(pids, dtype=np.int64)
        # Kernelized value columns stay typed end to end; anything else
        # is materialized as the per-record list ``combine`` folds.
        self.values = (
            values if isinstance(values, KernelColumn) else list(values)
        )
        self.semigroup = semigroup
        #: The element's range tree — the only form it is held in.
        self.soa = CompiledForest.from_ranks(
            self.ranks, self.values, semigroup, start_dim=dim
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def nleaves(self) -> int:
        """Points in the element (always ``n/p`` inside a built tree)."""
        return len(self.pids)

    @property
    def seg(self) -> Tuple[int, int]:
        """Closed rank interval covered in the element's own dimension."""
        return int(self.ranks[0, self.dim]), int(self.ranks[-1, self.dim])

    @property
    def size_records(self) -> int:
        """Total leaf records across the element's segment trees, primary
        trees included: its contribution to the ``O(s/p)`` memory of
        Theorem 1(ii) and the weight Search charges for replicating it —
        fixed by topology, Definition 2 arithmetic."""
        return self.soa.size_records

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the element is — what replicating it
        moves (untyped values count one pointer each)."""
        values = getattr(self.values, "nbytes", 8 * len(self.values))
        return self.ranks.nbytes + self.pids.nbytes + values + self.soa.nbytes

    def root_info(self) -> ForestRootInfo:
        """The summary Construct step 5 broadcasts for the hat build."""
        return ForestRootInfo(
            path=self.forest_id,
            dim=self.dim,
            seg=self.seg,
            nleaves=self.nleaves,
            location=self.location,
            group_rank=self.group_rank,
            agg=self.soa.root_agg(),
        )

    # ------------------------------------------------------------------
    # re-annotation (Algorithm AssociativeFunction step 1)
    # ------------------------------------------------------------------
    def reannotate(self, values: Sequence[Any], semigroup: Semigroup) -> None:
        """Swap the aggregate function without rebuilding topology.

        ``values`` aligns with the element's rows (the order of
        ``pids``).  O(size) local work, no rounds: the same aggregate
        fill the build ran, over the same held arrays.
        """
        self.values = (
            values if isinstance(values, KernelColumn) else list(values)
        )
        self.semigroup = semigroup
        self.soa.annotate(self.values, semigroup)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ForestElement(id={self.forest_id}, dim={self.dim}, "
            f"nleaves={self.nleaves}, location={self.location})"
        )


def build_forest_element(
    forest_id: Path,
    dim: int,
    location: int,
    group_rank: int,
    ranks_rows: Sequence[Tuple[int, ...]],
    pids: Sequence[int],
    values: Sequence[Any],
    semigroup: Semigroup,
) -> ForestElement:
    """Build one forest element from a routed record group (Construct step 3).

    ``ranks_rows`` are the group's global rank vectors — contiguous in
    dimension ``dim`` (they tile the hat leaf named by ``forest_id``) —
    with ``pids`` and lifted ``values`` aligned row for row.  The group
    size must be a power of two (``n/p`` by construction).  A 2-D int
    array passes through without per-row conversion (the columnar data
    plane hands the routed batch's rank matrix straight in).
    """
    if isinstance(ranks_rows, np.ndarray):
        ranks = np.ascontiguousarray(ranks_rows, dtype=np.int64)
    else:
        ranks = np.asarray([tuple(r) for r in ranks_rows], dtype=np.int64)
    return ForestElement(
        forest_id=forest_id,
        dim=dim,
        location=location,
        group_rank=group_rank,
        ranks=ranks,
        pids=pids,
        values=values,
        semigroup=semigroup,
    )
