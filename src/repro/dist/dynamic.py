"""Dynamizing the distributed range tree (the paper's §6 open problem).

Section 6 concedes that "the range tree is inherently static; a dynamic
distributed data structure would be more powerful although more
difficult to implement".  This module implements that structure by
lifting Bentley's logarithmic method — the paper's own reference [4],
already shipped sequentially in :mod:`repro.seq.dynamic` — onto the CGM
machine:

* the live point set is held as O(log n) **bucket forests**: full
  distributed range trees (hat + forest, Theorems 1-2) over point sets
  of distinct power-of-two sizes, all sharing one
  :class:`~repro.cgm.machine.Machine`.  They are the only rank-resident
  state;
* fresh inserts wait in a small **driver-side buffer**, a side set of
  ids plus a ``(k, d)`` coordinate matrix: an update that does not
  trigger an absorb touches no rank and is no superstep;
* when the buffer reaches ``flush_threshold`` points it is **absorbed**:
  the buffered points plus every colliding bucket merge into one
  rebuilt bucket via the ordinary Construct machinery (amortised
  O((n/p) log n) rebuild work per insert, matching the sequential
  analysis);
* **queries stay decomposable — in one pass**: the answer over disjoint
  buckets is the ⊕ of the per-bucket answers, so the buckets a batch can
  reach (bounding-box pruning drops the rest) are the *parts* of one
  Algorithm Search pass (:mod:`repro.dist.search`): one hat walk over
  every bucket's hat, one demand count, one replication round-set, one
  routing round, one forest step and one demux that folds every bucket's
  pieces under the query id — ``5 + log2 p`` rounds whatever the number
  of buckets.  The buffer and the tombstones are each matched against
  the whole batch by one closed-box comparison, and
  :class:`~repro.query.epochs.EpochCombiner` corrects the pass's answers
  for them — counts add, aggregates ⊕, id modes merge-then-finalise;
* **deletes** tombstone bucket-resident points (filtered from id answers,
  subtracted from aggregates via an
  :class:`~repro.semigroup.group.AbelianGroup`; the tombstones are a
  driver-side side set like the buffer) and drop buffered ones from the
  buffer; once half the bucket points are dead the structure compacts
  into a freshly built forest.

Everything observable — answers, superstep traces, charged ops — is
deterministic across the serial and process backends, which is what
this module's differential test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .._util import require_power_of_two
from ..cgm.machine import Machine
from ..errors import DimensionMismatch, EmptyPointSet, GeometryError, ReproError
from ..geometry.point import PointSet, checked_coords, checked_pid
from ..query.descriptors import QueryBatch
from ..query.engine import QueryEngine
from ..query.epochs import EpochCombiner
from ..query.result import ResultSet
from ..semigroup import COUNT, Semigroup

import numpy as np

__all__ = ["DynamicDistributedRangeTree"]


@dataclass
class _Bucket:
    """One epoch: a static distributed tree over a power-of-two-bounded
    set of live-or-dead points (``tree.points``)."""

    tree: Any  # DistributedRangeTree
    #: tight ``(mins, maxs)`` over *all* its points — live and tombstoned —
    #: so pruning on it can never hide a pending aggregate subtraction
    bbox: Tuple[np.ndarray, np.ndarray]


class _SideSet:
    """A small driver-side point set: ids and a ``(k, d)`` coordinate
    matrix, rows in arrival order.  The update buffer and the tombstones
    are each one."""

    def __init__(self, dim: int) -> None:
        self.ids = np.empty(0, dtype=np.int64)
        self.xy = np.empty((0, dim), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, pid: int) -> bool:
        return bool((self.ids == pid).any())

    def add(self, pid: int, coords: Tuple[float, ...]) -> None:
        self.ids = np.append(self.ids, pid)
        self.xy = np.vstack((self.xy, coords))

    def remove(self, pid: int) -> None:
        keep = self.ids != pid
        self.ids, self.xy = self.ids[keep], self.xy[keep]

    def clear(self) -> None:
        self.ids, self.xy = self.ids[:0], self.xy[:0]

    def coords(self, pid: int) -> Tuple[float, ...]:
        return tuple(self.xy[self.ids == pid][0].tolist())

    def matches(self, lo: np.ndarray, hi: np.ndarray) -> Dict[int, List[int]]:
        """Per query ``qid``, the ids of the rows inside the closed box
        ``[lo[qid], hi[qid]]`` in ascending order — one broadcast
        comparison for the whole batch."""
        out: Dict[int, List[int]] = {}
        if not (len(lo) and len(self.ids)):
            return out
        inside = ((self.xy >= lo[:, None]) & (self.xy <= hi[:, None])).all(axis=2)
        qid, k = np.nonzero(inside)
        pid = self.ids[k]
        order = np.lexsort((pid, qid))
        for q, i in zip(qid[order].tolist(), pid[order].tolist()):
            out.setdefault(q, []).append(i)
        return out


def _bbox_hits_any(bbox, batch: QueryBatch) -> bool:
    """Does ``(mins, maxs)`` intersect at least one query box (closed)?"""
    mins, maxs = bbox
    lo, hi = batch.bounds
    return len(lo) > 0 and bool(((lo <= maxs) & (hi >= mins)).all(axis=1).any())


class DynamicDistributedRangeTree:
    """Insert/delete-capable distributed range search (logarithmic method).

    The API mirrors :class:`repro.seq.dynamic.DynamicRangeTree` on the
    update side (``insert`` / ``insert_many`` / ``delete``) and the
    static facade on the query side: hand a mixed-mode
    :class:`~repro.query.QueryBatch` to :meth:`run` and read a
    :class:`~repro.query.ResultSet` whose metrics cover the whole
    epoch sweep.  Use as a context manager, or :meth:`close` explicitly
    — bucket forests are rank-resident state on the machine.
    """

    def __init__(
        self,
        dim: int,
        p: int = 4,
        machine: Machine | None = None,
        backend: str = "serial",
        semigroup: Semigroup = COUNT,
        flush_threshold: int = 64,
    ) -> None:
        if dim < 1:
            raise GeometryError("dimension must be >= 1")
        if flush_threshold < 1:
            raise ReproError(
                f"flush_threshold must be >= 1, got {flush_threshold}"
            )
        self.dim = dim
        self.semigroup = semigroup
        self.flush_threshold = flush_threshold
        self._owns_machine = machine is None
        if machine is None:
            require_power_of_two("processor count p", p)
            machine = Machine(p, backend=backend)
        else:
            require_power_of_two("processor count p", machine.p)
        self.machine = machine
        #: level k -> bucket forest over at most 2^k points
        self._buckets: Dict[int, _Bucket] = {}
        #: every live point, by id
        self._coords_by_id: Dict[int, Tuple[float, ...]] = {}
        #: live points not yet absorbed into a bucket
        self._buffer = _SideSet(dim)
        #: deleted points still held by some bucket (the tombstones)
        self._dead = _SideSet(dim)
        self._next_auto_id = 0
        self._rebuild_points = 0
        self._pruned_bucket_passes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: "PointSet | Iterable[Sequence[float]] | None" = None,
        dim: int | None = None,
        p: int = 4,
        machine: Machine | None = None,
        backend: str = "serial",
        semigroup: Semigroup = COUNT,
        flush_threshold: int = 64,
    ) -> "DynamicDistributedRangeTree":
        """Bulk-load ``points`` (may be ``None``/empty: pass ``dim``).

        Initial points are absorbed directly into one bucket forest —
        exactly the state the same inserts would reach after a flush —
        so a bulk load costs one Construct pass, not n buffered inserts.
        """
        if points is not None and not isinstance(points, PointSet):
            try:
                points = PointSet(points)
            except EmptyPointSet:  # an empty collection is no points
                points = None
        if points is None:
            if dim is None:
                raise GeometryError(
                    "DynamicDistributedRangeTree.build needs points or dim"
                )
        else:
            dim = points.dim
        tree = cls(
            dim,
            p=p,
            machine=machine,
            backend=backend,
            semigroup=semigroup,
            flush_threshold=flush_threshold,
        )
        if points is not None:
            tree._absorb(points.ids, points.coords)
            ids = points.ids.tolist()
            tree._coords_by_id = dict(zip(ids, map(tuple, points.coords.tolist())))
            tree._next_auto_id = max(ids) + 1
        return tree

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, coords: Sequence[float], pid: int | None = None) -> int:
        """Insert one point; returns its id (auto-assigned if omitted)."""
        self._check_open()
        coords_t = checked_coords(coords, self.dim)
        pid = self._next_auto_id if pid is None else checked_pid(pid)
        if pid in self._coords_by_id:
            raise ReproError(f"point id {pid} already present")
        with self.machine.scope():
            if pid in self._dead:
                # a dead copy of this id still sits in a bucket; a plain
                # re-insert would be hidden by its own tombstone — purge first
                self._compact()
            self._buffer.add(pid, coords_t)
            self._coords_by_id[pid] = coords_t
            self._next_auto_id = max(self._next_auto_id, pid + 1)
            if len(self._buffer) >= self.flush_threshold:
                self.flush()
        return pid

    def insert_many(self, coords_list: Iterable[Sequence[float]]) -> List[int]:
        return [self.insert(c) for c in coords_list]

    def delete(self, pid: int) -> None:
        """Delete a point by id.

        Buffered points leave the buffer; bucket-resident points are
        tombstoned (and subtracted from aggregates), with a full
        compaction once half the bucket points are dead.
        """
        self._check_open()
        if pid not in self._coords_by_id:
            raise ReproError(f"point id {pid} not present")
        with self.machine.scope():
            coords = self._coords_by_id.pop(pid)
            if pid in self._buffer:
                self._buffer.remove(pid)
                return
            self._dead.add(pid, coords)
            total = sum(len(b.tree.points) for b in self._buckets.values())
            if 2 * len(self._dead) >= total:
                self._compact()

    def flush(self) -> None:
        """Absorb the update buffer into the bucket forests now."""
        self._check_open()
        with self.machine.scope():
            if len(self._buffer):
                self._absorb(self._buffer.ids, self._buffer.xy)
                self._buffer.clear()

    def _absorb(self, ids: np.ndarray, xy: np.ndarray) -> None:
        """Logarithmic-method merge: new points + colliding buckets rebuild.

        The carry starts at the smallest level that holds the new points
        and swallows occupied buckets upward until it finds a free
        level, where one Construct pass builds the merged forest.
        """
        levels, n = [], len(ids)
        k = max(0, (n - 1).bit_length())
        while k in self._buckets:
            levels.append(k)
            n += len(self._buckets[k].tree.points)
            k = max(k + 1, (n - 1).bit_length())
        parts = [self._buckets[j].tree.points for j in levels]
        self._replace(
            levels,
            k,
            np.concatenate([ids, *(pts.ids for pts in parts)]),
            np.concatenate([xy, *(pts.coords for pts in parts)]),
        )

    def _compact(self) -> None:
        """Rebuild every bucket from live points only (tombstones drop).

        Buffered points stay in the buffer — only bucket points
        re-absorb — so compaction is one merge over the bucket forests.
        """
        levels = sorted(self._buckets)
        parts = [self._buckets[k].tree.points for k in levels]
        ids = np.concatenate([pts.ids for pts in parts])
        live = ~np.isin(ids, self._dead.ids)
        xy = np.concatenate([pts.coords for pts in parts])
        n = int(live.sum())
        self._replace(levels, max(0, (n - 1).bit_length()), ids[live], xy[live])
        self._dead.clear()

    def _replace(
        self, levels: List[int], k: int, ids: np.ndarray, xy: np.ndarray
    ) -> None:
        """Build one bucket at level ``k`` over ``ids``/``xy`` (none when
        empty), then drop the buckets at ``levels`` it replaces — a build
        that raises leaves every bucket as it was."""
        bucket = None
        if len(ids):
            from . import DistributedRangeTree  # the facade lives in the package root

            pts = PointSet(xy, ids=ids)
            tree = DistributedRangeTree.build(
                pts, machine=self.machine, semigroup=self.semigroup
            )
            bucket = _Bucket(tree=tree, bbox=pts.bounding_box())
        for j in levels:
            self._buckets.pop(j).tree.close()
        if bucket is not None:
            self._buckets[k] = bucket
            self._rebuild_points += len(ids)

    # ------------------------------------------------------------------
    # queries (decomposable: one Search pass over the buckets + side sets)
    # ------------------------------------------------------------------
    def run(self, batch) -> ResultSet:
        """Answer a (mixed-mode) batch across every epoch.

        Accepts the same shapes as the static facade's ``run``; the
        returned :class:`~repro.query.ResultSet` carries the metrics of
        the one Search pass over the buckets, so rounds/h-relations stay
        observable per batch.
        """
        self._check_open()
        batch = QueryBatch.coerce(batch)
        for qid, q in enumerate(batch):
            if q.box.dim != self.dim:
                raise DimensionMismatch(self.dim, q.box.dim, f"query {qid} box")
        combiner = EpochCombiner(
            batch, self.semigroup, self.dim, self._coords_of
        )
        sub = combiner.epoch_batch()
        # bucket bbox pruning: a bucket whose bounding box (over live AND
        # tombstoned points) misses every query box holds no answer —
        # leave it out of the pass.  The largest bucket leads: the plan is
        # made against it, so it is the last to need a refit.
        trees = []
        for level in sorted(self._buckets, reverse=True):
            bucket = self._buckets[level]
            if _bbox_hits_any(bucket.bbox, sub):
                trees.append(bucket.tree)
            else:
                self._pruned_bucket_passes += 1
        with self.machine.scope() as metrics:
            values = QueryEngine(*trees).run(sub).values() if trees else None
        buffered_ids, dead_ids = self._side_matches(sub)
        answers = combiner.finalize_all(values, buffered_ids, dead_ids)
        return ResultSet(batch.queries, answers, metrics)

    def _side_matches(
        self, batch: QueryBatch
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Per-query buffered matches and dead matches, ids ascending."""
        lo, hi = batch.bounds
        return self._buffer.matches(lo, hi), self._dead.matches(lo, hi)

    def _coords_of(self, pid: int) -> Tuple[float, ...]:
        coords = self._coords_by_id.get(pid)
        return coords if coords is not None else self._dead.coords(pid)

    # ------------------------------------------------------------------
    # re-annotation
    # ------------------------------------------------------------------
    def reannotate(self, semigroup: Semigroup) -> None:
        """Swap the aggregate ``f`` on every bucket forest in place.

        All or nothing: a bucket whose swap raises restores itself, and
        the buckets already swapped are restored to their prior
        annotations before the error propagates.
        """
        self._check_open()
        swapped = []
        with self.machine.scope():
            try:
                for level in sorted(self._buckets):
                    tree = self._buckets[level].tree
                    prior = (tree.semigroup, tree.base_semigroup)
                    tree.reannotate(semigroup)
                    swapped.append((tree, prior))
            except Exception:
                for tree, (annotation, base) in swapped:
                    tree._refit(annotation, label="reannotate-rollback")
                    tree.base_semigroup = base
                raise
        self.semigroup = semigroup

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coords_by_id)

    @property
    def p(self) -> int:
        return self.machine.p

    @property
    def metrics(self):
        """The superstep trace of the last operation on the shared
        machine: an update, a flush, a pass or a refit."""
        return self.machine.last_metrics

    @property
    def bucket_sizes(self) -> List[int]:
        """Point counts of the bucket forests (distinct levels)."""
        return sorted(len(b.tree.points) for b in self._buckets.values())

    @property
    def buffered_count(self) -> int:
        """Points waiting in the update buffer."""
        return len(self._buffer)

    @property
    def rebuild_points_total(self) -> int:
        """Total points ever absorbed — the amortisation observable."""
        return self._rebuild_points

    @property
    def pruned_bucket_passes(self) -> int:
        """Buckets left out of a batch's Search pass by bounding-box
        pruning, summed over batches."""
        return self._pruned_bucket_passes

    def live_points(self) -> PointSet | None:
        """The live point set in sorted-id order (``None`` when empty).

        This is the rebuild-from-scratch oracle's input: a static tree
        built over ``live_points()`` must answer every query identically
        to this structure.
        """
        if not self._coords_by_id:
            return None
        pids = sorted(self._coords_by_id)
        return PointSet([self._coords_by_id[pid] for pid in pids], ids=pids)

    def space_report(self) -> dict:
        """Where the structure's points live across the epochs."""
        levels = sorted(self._buckets)
        return {
            "d": self.dim,
            "p": self.p,
            "live": len(self._coords_by_id),
            "buffered": len(self._buffer),
            "tombstones": len(self._dead),
            "bucket_records": [len(self._buckets[k].tree.points) for k in levels],
            "bucket_padded_n": [self._buckets[k].tree.n for k in levels],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("DynamicDistributedRangeTree is closed")

    def close(self) -> None:
        """Evict the bucket forests; release an owned machine."""
        if self._closed:
            return
        for bucket in self._buckets.values():
            bucket.tree.close()
        self._buckets.clear()
        self._buffer.clear()
        self._closed = True
        if self._owns_machine:
            self.machine.close()

    def __enter__(self) -> "DynamicDistributedRangeTree":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicDistributedRangeTree(live={len(self)}, "
            f"d={self.dim}, p={self.p}, buckets={self.bucket_sizes}, "
            f"buffered={len(self._buffer)})"
        )
