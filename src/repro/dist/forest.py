"""Forest elements: the per-processor remainder of the tree (§4, Definition 3).

Cutting every segment tree of the d-dimensional range tree at level
``log2(n/p)`` leaves the replicated *hat* on top and a forest of subtrees
below.  Each subtree, together with all of its descendant trees in the
remaining dimensions, is one **forest element**: a ``(d - j)``-dimensional
range tree over exactly ``n/p`` points embedded in the *global* rank
space (Theorem 1 packs them into groups ``F_i`` of ``O(s/p)`` records,
one group per processor).

A :class:`ForestElement` therefore wraps the sequential rank-space
:class:`~repro.seq.range_tree.RangeTree` — the same canonical-walk code
answers subqueries here that answers whole queries sequentially, which is
what makes the hat/forest split exact: the distributed selection is the
sequential selection, partitioned at the cut level.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from ..semigroup import Semigroup
from ..semigroup.kernels import KernelColumn
from ..seq.compiled import CompiledForest
from ..seq.range_tree import CanonicalSelection, RangeTree
from ..seq.segment_tree import WalkStats
from .labeling import Path
from .records import ForestRootInfo

__all__ = ["ForestElement", "build_forest_element"]


class ForestElement:
    """One element of the forest: a range tree on ``n/p`` points.

    Parameters mirror the record flow of Algorithm Construct: the element
    is built at its owner from the routed group of
    :class:`~repro.dist.records.SRecord` payloads, whose rank rows are
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
        "tree",
        "size_records",
        "_pids_arr",
        "_all_pids_arr",
        "_pid_block",
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
        self.pids = tuple(int(x) for x in pids)
        # Kernelized value columns stay typed end to end; anything else
        # is materialized as the per-record list ``combine`` folds.
        self.values = (
            values if isinstance(values, KernelColumn) else list(values)
        )
        self.semigroup = semigroup
        self.tree = RangeTree(self.ranks, self.values, semigroup, start_dim=dim)
        #: Total leaf records across the element's segment trees: its
        #: contribution to the ``O(s/p)`` memory of Theorem 1(ii) and the
        #: weight Search charges for replicating it.  Fixed by topology,
        #: so counted once here — it survives ``reannotate`` and travels
        #: in pickles (structure, not one of the ``_CACHE_SLOTS``).
        self.size_records = self.tree.space_leaves()
        self._pids_arr: "np.ndarray | None" = None
        self._all_pids_arr: "np.ndarray | None" = None
        self._pid_block: "np.ndarray | None" = None

    _CACHE_SLOTS = ("_pids_arr", "_all_pids_arr", "_pid_block")

    def __getstate__(self):
        # replication ships elements by pickle; the gather caches (and,
        # through the tree's own __getstate__, the compiled lowering)
        # rebuild on the receiving rank instead of traveling
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._CACHE_SLOTS
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        for name in self._CACHE_SLOTS:
            setattr(self, name, None)

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
        return self.tree.root_tree.seg.seg(1)

    def root_info(self) -> ForestRootInfo:
        """The summary Construct step 5 broadcasts for the hat build."""
        return ForestRootInfo(
            path=self.forest_id,
            dim=self.dim,
            seg=self.seg,
            nleaves=self.nleaves,
            location=self.location,
            group_rank=self.group_rank,
            agg=self.tree.root_agg(),
        )

    # ------------------------------------------------------------------
    # queries (Search step 5)
    # ------------------------------------------------------------------
    def canonical(self, box, stats: WalkStats | None = None) -> list[CanonicalSelection]:
        """Canonical dimension-``d`` selection of a rank box inside the element.

        ``stats`` overrides the element's shared counter; Search passes a
        per-subquery counter so charging stays race-free when replicas of
        one element are walked concurrently under the thread backend.
        """
        return self.tree.canonical(box, stats=stats)

    def canonical_pairs(self, box, stats: WalkStats | None = None):
        """:meth:`canonical` as raw ``(tree, node)`` pairs (batched path)."""
        return self.tree.canonical_pairs(box, stats=stats)

    def compiled(self) -> CompiledForest:
        """The element tree's struct-of-arrays lowering (cached on the
        tree, invalidated by :meth:`reannotate`)."""
        return self.tree.compiled()

    @property
    def pid_block(self) -> np.ndarray:
        """Point ids tiled per compiled node: selection ``j``'s pids are
        ``pid_block[row_off[j] : row_off[j] + nleaves[j]]`` — pure offset
        arithmetic at walk time, no per-selection ``rows_under`` calls."""
        if self._pid_block is None:
            self._pid_block = self.pids_array[self.compiled().row_block]
        return self._pid_block

    @property
    def pids_array(self) -> np.ndarray:
        """The pids as an int64 array (cached; the columnar gather path)."""
        if self._pids_arr is None:
            self._pids_arr = np.asarray(self.pids, dtype=np.int64)
        return self._pids_arr

    def selection_pids(self, selection: CanonicalSelection) -> Tuple[int, ...]:
        """Point ids below one selected node (report mode)."""
        return tuple(self.pids[r] for r in selection.rows())

    def selection_pids_array(self, selection: CanonicalSelection) -> np.ndarray:
        """Point ids below one selected node, as an array row (no tuples)."""
        return self.pids_array[selection.rows()]

    def all_pids(self) -> Tuple[int, ...]:
        """Every point id in the element, ordered by its primary-dimension rank."""
        return tuple(self.pids[r] for r in self.tree.root_tree.order)

    def all_pids_array(self) -> np.ndarray:
        """Array twin of :meth:`all_pids` (the in-pass expansion gather,
        memoized — expand requests for one element repeat across passes)."""
        if self._all_pids_arr is None:
            self._all_pids_arr = self.pids_array[self.tree.root_tree.order]
        return self._all_pids_arr

    # ------------------------------------------------------------------
    # re-annotation (Algorithm AssociativeFunction step 1)
    # ------------------------------------------------------------------
    def reannotate(self, values: Sequence[Any], semigroup: Semigroup) -> None:
        """Swap the aggregate function without rebuilding topology.

        ``values`` aligns with the element's original record order (the
        order ``pids`` was given in).  O(size) local work, no rounds.
        """
        self.values = (
            values if isinstance(values, KernelColumn) else list(values)
        )
        self.semigroup = semigroup
        # invalidates the tree's compiled lowering; drop the pid tiling
        # too so it re-derives from the fresh compile
        self._pid_block = None
        self.tree.reannotate(self.values, semigroup)

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
