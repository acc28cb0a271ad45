"""Rank-space normalisation.

Section 3 of the paper assumes, "without loss of generality", that all
coordinates in each dimension are normalised by replacing each of them by
their rank in increasing order, so points live in ``{0..n-1}^d``, and that
``n`` is a power of two.  This module performs both steps:

* :class:`RankSpace` maps a :class:`~repro.geometry.point.PointSet` to
  per-dimension ranks (ties broken by insertion order, so the mapping is a
  bijection per dimension and deterministic), and translates real-coordinate
  query boxes into rank-space :class:`~repro.geometry.box.RankBox` queries.
* :func:`pad_to_power_of_two` appends *sentinel* points whose ranks sit
  strictly above every real rank; real-coordinate queries can never select
  them, and they carry negative ids so report mode filters them trivially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import next_power_of_two, stable_argsort
from ..errors import DimensionMismatch
from .box import Box, RankBox
from .point import PointSet

__all__ = ["RankSpace", "RankedPointSet", "pad_to_power_of_two"]


class RankSpace:
    """Per-dimension order statistics of a point set.

    Stores, for every dimension, the coordinates in increasing order (with
    the insertion-order tie-break) so that real query intervals can be
    mapped to rank intervals with two binary searches.
    """

    __slots__ = ("_n", "_dim", "_sorted_coords", "_ranks")

    def __init__(self, points: PointSet) -> None:
        coords = points.coords
        n, d = coords.shape
        self._n = n
        self._dim = d
        ranks = np.empty((n, d), dtype=np.int64)
        sorted_coords: list[np.ndarray] = []
        for j in range(d):
            # stable argsort == tie-break by insertion order
            perm = stable_argsort(coords[:, j])
            ranks[perm, j] = np.arange(n, dtype=np.int64)
            col = coords[perm, j].copy()
            col.setflags(write=False)
            sorted_coords.append(col)
        ranks.setflags(write=False)
        self._ranks = ranks
        self._sorted_coords = sorted_coords

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def ranks(self) -> np.ndarray:
        """``(n, d)`` array: rank of point ``i`` in dimension ``j``."""
        return self._ranks

    def sorted_coords(self, dim: int) -> np.ndarray:
        """Coordinates of dimension ``dim`` in rank order."""
        return self._sorted_coords[dim]

    def to_rank_bounds(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Translate ``m`` real-coordinate closed boxes into rank space.

        ``lo``/``hi`` are the ``(m, d)`` float64 bounds (:meth:`Box.stack`);
        the result is the int64 ``(m, d)`` pair ``(los, his)``, two
        ``searchsorted`` calls per dimension whatever ``m`` is.  Column
        ``j`` of row ``i`` is the (possibly empty) set of ranks whose
        coordinate lies in ``[lo[i, j], hi[i, j]]``.  Because ranks are
        assigned to *all* duplicates of a coordinate value, the rank
        interval is exact: a point matches the rank box iff it matches the
        real box.
        """
        m = len(lo)
        los = np.empty((m, self._dim), dtype=np.int64)
        his = np.empty((m, self._dim), dtype=np.int64)
        if m:  # an empty batch has no columns to read (its bounds are (0, 0))
            if lo.shape[1] != self._dim:
                raise DimensionMismatch(self._dim, lo.shape[1], "query box")
            for j, col in enumerate(self._sorted_coords):
                los[:, j] = col.searchsorted(lo[:, j], side="left")
                his[:, j] = col.searchsorted(hi[:, j], side="right") - 1
        return los, his

    def to_rank_box(self, box: Box) -> RankBox:
        """:meth:`to_rank_bounds` for one box, as a :class:`RankBox`."""
        los, his = self.to_rank_bounds(box.lo[None], box.hi[None])
        return RankBox(tuple(los[0].tolist()), tuple(his[0].tolist()))


@dataclass(frozen=True)
class RankedPointSet:
    """A point set in rank space, optionally padded to a power of two.

    Attributes
    ----------
    ranks:
        ``(N, d)`` integer array.  Rows ``>= n_real`` (if any) are sentinel
        points: in every dimension their rank exceeds every real rank.
    ids:
        ``(N,)`` integer ids; real points keep their PointSet ids
        (non-negative), sentinels get distinct negative ids.
    n_real:
        Number of genuine points.
    space:
        The RankSpace that produced the ranks (query translation).
    """

    ranks: np.ndarray
    ids: np.ndarray
    n_real: int
    space: RankSpace

    @property
    def n(self) -> int:
        """Total number of rows including sentinels (the tree size ``n``)."""
        return int(self.ranks.shape[0])

    @property
    def dim(self) -> int:
        return int(self.ranks.shape[1])

    def to_rank_box(self, box: Box) -> RankBox:
        """Rank-space translation (sentinels can never match)."""
        return self.space.to_rank_box(box)

    def to_rank_bounds(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch rank-space translation (:meth:`RankSpace.to_rank_bounds`)."""
        return self.space.to_rank_bounds(lo, hi)


def pad_to_power_of_two(points: PointSet, minimum: int = 1) -> RankedPointSet:
    """Rank-normalise ``points`` and pad to the next power of two.

    Sentinel row ``k`` (``k = 0, 1, ...``) receives rank ``n_real + k`` in
    every dimension and id ``-(k + 1)``.  The result satisfies the paper's
    ``n = 2^k`` assumption while answering exactly the original queries.

    Parameters
    ----------
    minimum:
        Pad at least up to this total size (useful to guarantee
        ``n >= p`` for a given processor count).
    """
    space = RankSpace(points)
    n = points.n
    total = max(next_power_of_two(n), next_power_of_two(max(minimum, 1)))
    d = points.dim
    ranks = np.empty((total, d), dtype=np.int64)
    ranks[:n] = space.ranks
    if total > n:
        pad = np.arange(n, total, dtype=np.int64)
        ranks[n:] = pad[:, None]
    ids = np.empty(total, dtype=np.int64)
    ids[:n] = points.ids
    if total > n:
        ids[n:] = -np.arange(1, total - n + 1, dtype=np.int64)
    ranks.setflags(write=False)
    ids.setflags(write=False)
    return RankedPointSet(ranks=ranks, ids=ids, n_real=n, space=space)
