"""The dynamic tree's driver-side side sets: its update buffer and its
tombstones (:mod:`repro.dist.dynamic`)."""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["SideSet"]


class SideSet:
    """A small driver-side point set of distinct ids, rows in arrival
    order.  The update buffer and the tombstones are each one.

    An update is O(1): ``add``/``remove``/``clear`` touch a dict of id ->
    coordinates (insertion-ordered, its keys the membership test) and
    build no array.  The ``ids`` array and ``(k, d)`` ``xy`` matrix a
    query or an absorb reads are kept for the rows they cover, a prefix:
    a read converts only the rows added since (a ``remove`` starts over).
    """

    def __init__(self, dim: int) -> None:
        self._dim = dim
        self._rows: Dict[int, Tuple[float, ...]] = {}
        self._arrays = (np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=np.float64))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, pid: int) -> bool:
        return pid in self._rows

    def add(self, pid: int, coords: Tuple[float, ...]) -> None:
        self._rows[pid] = coords

    def remove(self, pid: int) -> None:
        if self._rows.pop(pid, None) is not None:
            self._arrays = tuple(a[:0] for a in self._arrays)

    def clear(self) -> None:
        self._rows.clear()
        self._arrays = tuple(a[:0] for a in self._arrays)

    def coords(self, pid: int) -> Tuple[float, ...]:
        return self._rows[pid]

    def _columns(self) -> Tuple[np.ndarray, np.ndarray]:
        ids, xy = self._arrays
        if len(ids) < len(self._rows):
            new = list(itertools.islice(self._rows.items(), len(ids), None))
            ids = np.concatenate([ids, np.fromiter((pid for pid, _c in new), np.int64, len(new))])
            fresh = np.array([c for _pid, c in new], dtype=np.float64).reshape(-1, self._dim)
            self._arrays = ids, np.concatenate([xy, fresh])
        return self._arrays

    @property
    def ids(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def xy(self) -> np.ndarray:
        return self._columns()[1]

    def matches(self, lo: np.ndarray, hi: np.ndarray) -> Dict[int, List[int]]:
        """Per query ``qid``, the ids of the rows inside the closed box
        ``[lo[qid], hi[qid]]`` in ascending order — one comparison of the
        whole batch per coordinate column."""
        if not (len(lo) and self._rows):
            return {}
        ids, xy = self._columns()
        # the rows in id order, one contiguous column per coordinate: a
        # query's matches come out ascending
        order = np.argsort(ids)
        cols = xy.T.take(order, axis=1)
        inside = (cols[0] >= lo[:, 0, None]) & (cols[0] <= hi[:, 0, None])
        for k in range(1, self._dim):
            inside &= (cols[k] >= lo[:, k, None]) & (cols[k] <= hi[:, k, None])
        # the matches row by row: each query's are one slice
        pid = ids[order[np.flatnonzero(inside) % len(ids)]].tolist()
        counts = np.count_nonzero(inside, axis=1).tolist()
        stops = itertools.accumulate(counts)
        return {q: pid[b - c : b] for q, (c, b) in enumerate(zip(counts, stops)) if c}
