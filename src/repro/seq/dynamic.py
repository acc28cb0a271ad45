"""Dynamized range tree via the logarithmic method (Bentley, [4] in the paper).

Section 6 lists dynamization as open for the *distributed* structure:
"the range tree is inherently static; a dynamic distributed data structure
would be more powerful although more difficult to implement".  This module
implements the standard sequential answer — Bentley's decomposable
searching problems technique, which is reference [4] of the paper itself:

* the point set is kept as O(log n) static range trees of sizes that are
  distinct powers of two ("buckets");
* an insert merges all full buckets of sizes ``1, 2, ..., 2^{k-1}`` plus
  the new point into one rebuilt structure of size ``2^k`` (amortised
  O(log^d n) rebuild work per insert);
* range search is *decomposable*: the answer is the fold of the answers of
  the buckets;
* deletion is supported two ways: for report/count, a tombstone filter;
  for aggregates over an :class:`~repro.semigroup.group.AbelianGroup`, a
  shadow structure of deleted points whose aggregate is subtracted.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..errors import DimensionMismatch, GeometryError, ReproError
from ..geometry.box import Box
from ..geometry.point import PointSet, checked_coords, checked_pid
from ..semigroup import COUNT, Semigroup, is_count
from ..semigroup.group import AbelianGroup
from .range_tree import SequentialRangeTree

__all__ = ["DynamicRangeTree"]


class DynamicRangeTree:
    """Insert/delete-capable range search built from static range trees."""

    def __init__(self, dim: int, semigroup: Semigroup = COUNT) -> None:
        if dim < 1:
            raise GeometryError("dimension must be >= 1")
        self.dim = dim
        self.semigroup = semigroup
        #: bucket k holds a static tree over exactly 2^k live-or-dead points
        self._buckets: dict[int, tuple[SequentialRangeTree, list[tuple[int, tuple[float, ...]]]]] = {}
        self._tombstones: set[int] = set()
        #: every live point, by id
        self._coords_by_id: dict[int, tuple[float, ...]] = {}
        self._next_auto_id = 0
        self._rebuild_points = 0  # amortisation accounting (for tests/benches)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, coords: Sequence[float], pid: int | None = None) -> int:
        """Insert one point; returns its id (auto-assigned if omitted)."""
        coords_t = checked_coords(coords, self.dim)
        pid = self._next_auto_id if pid is None else checked_pid(pid)
        if pid in self._coords_by_id:
            raise ReproError(f"point id {pid} already present")
        if pid in self._tombstones:
            # a dead copy of this id still sits in a bucket; a plain
            # re-insert would be hidden by its own tombstone — purge first
            self._compact()
        self._buckets, rebuilt = self._merged(self._buckets, pid, coords_t)
        self._rebuild_points += rebuilt
        self._coords_by_id[pid] = coords_t
        self._next_auto_id = max(self._next_auto_id, pid + 1)
        return pid

    def insert_many(self, coords_list: Iterable[Sequence[float]]) -> list[int]:
        return [self.insert(c) for c in coords_list]

    def delete(self, pid: int) -> None:
        """Tombstone-delete a point by id."""
        if pid not in self._coords_by_id:
            raise ReproError(f"point id {pid} not present")
        del self._coords_by_id[pid]
        self._tombstones.add(pid)
        # rebuild from scratch once half the structure is dead (keeps
        # queries O(log^d n) in the number of *live* points, amortised)
        if self._tombstones and len(self._tombstones) * 2 >= self._total_records():
            self._compact()

    def _compact(self) -> None:
        live = [(q, c) for q, c in self._iter_records() if q not in self._tombstones]
        buckets: dict = {}
        total = 0
        for q, c in live:
            # re-insert without the duplicate check (ids are known distinct)
            buckets, rebuilt = self._merged(buckets, q, c)
            total += rebuilt
        self._buckets = buckets
        self._tombstones.clear()
        self._rebuild_points += total

    def _merged(
        self, buckets: dict, pid: int, coords: tuple[float, ...]
    ) -> tuple[dict, int]:
        """``buckets`` with one point carried in — the full buckets of
        levels ``0, 1, ..`` merge with it into one rebuilt bucket — and
        the number of points rebuilt.  A new dict, built before anything
        is dropped: a build that raises leaves ``buckets`` as it was."""
        carry: list[tuple[int, tuple[float, ...]]] = [(pid, coords)]
        k = 0
        while k in buckets:
            carry.extend(buckets[k][1])
            k += 1
        tree = self._build(carry)
        merged = {j: b for j, b in buckets.items() if j > k}
        merged[k] = (tree, carry)
        return merged, len(carry)

    # ------------------------------------------------------------------
    # queries (decomposable: fold over buckets)
    # ------------------------------------------------------------------
    def _check(self, boxes: Sequence[Box]) -> None:
        # checked here, not by the buckets: an empty tree walks none
        for box in boxes:
            if box.dim != self.dim:
                raise DimensionMismatch(self.dim, box.dim, "query box")

    def report(self, box: Box) -> list[int]:
        """Sorted live ids inside the closed box."""
        self._check([box])
        out: list[int] = []
        for tree, _recs in self._buckets.values():
            out.extend(i for i in tree.report(box) if i not in self._tombstones)
        return sorted(out)

    def count(self, box: Box) -> int:
        """Number of live points inside the box."""
        self._check([box])
        if not self._tombstones:
            return sum(t.count(box) for t, _ in self._buckets.values())
        return len(self.report(box))

    def aggregate(self, box: Box) -> Any:
        """Fold the semigroup over live points in the box.

        With tombstones present this needs an AbelianGroup (deleted points'
        contributions are subtracted); without tombstones any semigroup
        works.
        """
        self._check([box])
        sg = self.semigroup
        total = sg.fold(t.aggregate(box) for t, _ in self._buckets.values())
        if not self._tombstones:
            return total
        return self._subtract_dead(box, total)

    # batched forms: one compiled walk per bucket for the whole slice,
    # folded in the same bucket order as the scalar loops (bit-identical
    # answers — the differential stream tests lean on this oracle)
    def report_many(self, boxes: Sequence[Box]) -> list[list[int]]:
        self._check(boxes)
        outs: list[list[int]] = [[] for _ in boxes]
        for tree, _recs in self._buckets.values():
            for i, ids in enumerate(tree.report_many(boxes)):
                outs[i].extend(
                    pid for pid in ids if pid not in self._tombstones
                )
        return [sorted(ids) for ids in outs]

    def count_many(self, boxes: Sequence[Box]) -> list[int]:
        self._check(boxes)
        if not self._tombstones:
            totals = [0] * len(boxes)
            for tree, _recs in self._buckets.values():
                for i, c in enumerate(tree.count_many(boxes)):
                    totals[i] += c
            return totals
        return [len(ids) for ids in self.report_many(boxes)]

    def aggregate_many(self, boxes: Sequence[Box]) -> list[Any]:
        self._check(boxes)
        sg = self.semigroup
        if self._tombstones and is_count(sg):
            return self.count_many(boxes)  # a count needs no inverse
        per_bucket = [
            tree.aggregate_many(boxes) for tree, _recs in self._buckets.values()
        ]
        totals = [
            sg.fold(vals[i] for vals in per_bucket)
            for i in range(len(boxes))
        ]
        if not self._tombstones:
            return totals
        return [
            self._subtract_dead(box, total)
            for box, total in zip(boxes, totals)
        ]

    def _subtract_dead(self, box: Box, total: Any) -> Any:
        sg = self.semigroup
        if not isinstance(sg, AbelianGroup):
            raise ReproError(
                "aggregate with deletions requires an AbelianGroup "
                "(the paper's 'associative functions with inverses')"
            )
        dead = sg.identity
        by_id = {q: c for q, c in self._iter_records() if q in self._tombstones}
        for pid, coords in by_id.items():
            if box.contains_point(coords):
                dead = sg.combine(dead, sg.lift(pid, coords))
        return sg.subtract(total, dead)

    def top_k(self, box: Box, k: int, dim: int = 0) -> list[int]:
        """Ids of the ``k`` live matching points smallest in coordinate
        ``dim`` (ties broken by id) — the dynamic twin of the distributed
        tree's ``topk`` output mode, tombstone-filtered."""
        if k < 1:
            raise ReproError(f"top_k needs k >= 1, got {k}")
        if not 0 <= dim < self.dim:
            raise ReproError(f"top_k dim {dim} out of range for {self.dim}-d tree")
        from ..semigroup.builtin import top_k_ids

        sg = top_k_ids(k, dim)
        best = sg.fold(
            sg.lift(pid, self._coords_by_id[pid]) for pid in self.report(box)
        )
        return [pid for _coord, pid in best]

    def sample(self, box: Box, k: int, seed: int = 0) -> list[int]:
        """``k`` live matching ids, deterministically sampled (seeded) —
        the dynamic twin of the ``sample`` output mode."""
        if k < 1:
            raise ReproError(f"sample needs k >= 1, got {k}")
        ids = self.report(box)
        if len(ids) <= k:
            return ids
        import random

        return sorted(random.Random(seed).sample(ids, k))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coords_by_id)

    @property
    def bucket_sizes(self) -> list[int]:
        """Sizes of the static structures (distinct powers of two)."""
        return sorted(len(recs) for _t, recs in self._buckets.values())

    @property
    def rebuild_points_total(self) -> int:
        """Total points ever (re)built — amortisation observable."""
        return self._rebuild_points

    def _total_records(self) -> int:
        return sum(len(recs) for _t, recs in self._buckets.values())

    def _iter_records(self):
        for _t, recs in self._buckets.values():
            yield from recs

    def _build(self, recs: list[tuple[int, tuple[float, ...]]]) -> SequentialRangeTree:
        pts = PointSet([c for _q, c in recs], ids=[q for q, _c in recs])
        return SequentialRangeTree(pts, semigroup=self.semigroup)
