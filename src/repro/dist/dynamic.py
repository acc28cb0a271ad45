"""Dynamizing the distributed range tree (the paper's §6 open problem).

Section 6 concedes that "the range tree is inherently static; a dynamic
distributed data structure would be more powerful although more
difficult to implement".  This module implements that structure by
lifting Bentley's logarithmic method — the paper's own reference [4],
already shipped sequentially in :mod:`repro.seq.dynamic` — onto the CGM
machine:

* the live point set is held as O(log n) **bucket forests**: full
  distributed range trees (hat + forest, Theorems 1-2) over record sets
  of distinct power-of-two sizes, all sharing one
  :class:`~repro.cgm.machine.Machine`;
* fresh inserts are **buffered rank-resident** — a ``dist.dynamic.buffer``
  phase appends them to a per-rank store (round-robin routed), so update
  traffic is measured in the same superstep metrics as everything else;
* when the buffer reaches ``flush_threshold`` records it is **absorbed**:
  the buffered records plus every colliding bucket merge into one
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
  of buckets.  The buffer answers with a single ``dist.dynamic.scan``
  phase and :class:`~repro.query.epochs.EpochCombiner` corrects the
  pass's answers for it and for the tombstones — counts add, aggregates
  ⊕, id modes merge-then-finalise;
* **deletes** tombstone bucket-resident points (filtered from id answers,
  subtracted from aggregates via an
  :class:`~repro.semigroup.group.AbelianGroup`) and physically remove
  buffer-resident ones (``dist.dynamic.remove``); once half the bucket
  records are dead the structure compacts into a freshly built forest.

Everything observable — answers, superstep traces, charged ops — is
deterministic across the serial and process backends, which is what
the differential suite in ``tests/test_dist_dynamic.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .._util import require_power_of_two
from ..cgm.cost import CostModel
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_phase
from ..errors import DimensionMismatch, GeometryError, ReproError
from ..geometry.point import PointSet, checked_coords
from ..query.descriptors import QueryBatch
from ..query.engine import QueryEngine
from ..query.epochs import EpochCombiner
from ..query.result import QueryResult, ResultSet
from ..semigroup import COUNT, Semigroup

import numpy as np

__all__ = ["DynamicDistributedRangeTree", "buffer_key"]

Record = Tuple[int, Tuple[float, ...]]


def buffer_key(ns: str) -> str:
    """State key of a namespace's rank-resident update buffer."""
    return f"{ns}:dynbuf"


# ---------------------------------------------------------------------------
# SPMD phases: the rank-resident update buffer
# ---------------------------------------------------------------------------
@register_phase("dist.dynamic.buffer")
def _phase_buffer(ctx: ProcContext, payload) -> int:
    """Append routed records to this rank's buffer; return its new size."""
    ns, records = payload
    buf = ctx.state.setdefault(buffer_key(ns), [])
    if records:
        buf.extend(records)
        ctx.charge(len(records))
    return len(buf)


@register_phase("dist.dynamic.remove")
def _phase_remove(ctx: ProcContext, payload) -> int:
    """Drop buffered records by id (deletes of not-yet-absorbed points)."""
    ns, pids = payload
    if not pids:
        return 0
    key = buffer_key(ns)
    buf = ctx.state.get(key) or []
    drop = set(pids)
    kept = [rec for rec in buf if rec[0] not in drop]
    ctx.state[key] = kept
    ctx.charge(len(buf))
    return len(buf) - len(kept)


@register_phase("dist.dynamic.scan")
def _phase_scan(ctx: ProcContext, payload) -> list:
    """Answer a batch against this rank's buffer: ``(qid, pid)`` matches.

    The buffer holds at most ``flush_threshold`` records per structure,
    so the scan is O(|buffer| · m) — the constant-size epoch-0 cost the
    logarithmic method trades for cheap inserts.
    """
    ns, lo, hi = payload
    buf = ctx.state.get(buffer_key(ns)) or []
    if not (buf and len(lo)):
        return []
    ctx.charge(len(buf) * len(lo))
    return _closed_matches(
        lo,
        hi,
        np.array([pid for pid, _coords in buf], dtype=np.int64),
        np.array([coords for _pid, coords in buf], dtype=np.float64),
    )


@register_phase("dist.dynamic.clear")
def _phase_clear(ctx: ProcContext, payload) -> int:
    """Empty this rank's buffer (absorption or structure close)."""
    ns = payload
    dropped = len(ctx.state.get(buffer_key(ns)) or [])
    ctx.state[buffer_key(ns)] = []
    if dropped:
        ctx.charge(dropped)
    return dropped


# ---------------------------------------------------------------------------
# the dynamized structure
# ---------------------------------------------------------------------------
@dataclass
class _Bucket:
    """One epoch: a static distributed tree over exactly ``len(records)``
    live-or-dead records (a power of two)."""

    level: int
    tree: Any  # DistributedRangeTree
    records: List[Record]
    #: tight ``(mins, maxs)`` over *all* records — live and tombstoned —
    #: so pruning on it can never hide a pending aggregate subtraction
    bbox: Tuple[Tuple[float, ...], Tuple[float, ...]]


def _records_bbox(coords: np.ndarray):
    """The ``(mins, maxs)`` bounding box of a bucket's coordinate matrix."""
    return tuple(coords.min(axis=0).tolist()), tuple(coords.max(axis=0).tolist())


def _bbox_hits_any(bbox, batch: QueryBatch) -> bool:
    """Does ``(mins, maxs)`` intersect at least one query box (closed)?"""
    mins, maxs = bbox
    lo, hi = batch.bounds
    return len(lo) > 0 and bool(((lo <= maxs) & (hi >= mins)).all(axis=1).any())


def _closed_matches(
    lo: np.ndarray, hi: np.ndarray, ids: np.ndarray, xy: np.ndarray
) -> List[Tuple[int, int]]:
    """``(qid, ids[k])`` for every point ``xy[k]`` inside the closed box
    ``[lo[qid], hi[qid]]`` — one broadcast comparison for the whole batch,
    pairs ordered by qid, then by row ``k``."""
    if not (len(lo) and len(ids)):
        return []
    inside = ((xy >= lo[:, None]) & (xy <= hi[:, None])).all(axis=2)
    qid, k = np.nonzero(inside)
    return list(zip(qid.tolist(), ids[k].tolist()))


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
        cost: CostModel | None = None,
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
            machine = Machine(p, backend=backend, cost=cost)
        else:
            require_power_of_two("processor count p", machine.p)
        self.machine = machine
        self._ns = machine.new_ns("dyn")
        #: level k -> bucket forest over exactly 2^k records
        self._buckets: Dict[int, _Bucket] = {}
        #: driver mirror of the rank-resident buffer: pid -> (coords, rank)
        self._buffer: Dict[int, Tuple[Tuple[float, ...], int]] = {}
        self._ids: set[int] = set()
        self._coords_by_id: Dict[int, Tuple[float, ...]] = {}
        #: deleted-but-still-bucketed ids, and their coordinates as a
        #: sorted-id ``(t,)`` / ``(t, d)`` array pair (the dead-match scan
        #: compares the whole batch against it at once)
        self._tombstones: set[int] = set()
        self._dead_ids = np.empty(0, dtype=np.int64)
        self._dead_xy = np.empty((0, dim), dtype=np.float64)
        self._next_auto_id = 0
        self._route_counter = 0
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
        cost: CostModel | None = None,
        flush_threshold: int = 64,
    ) -> "DynamicDistributedRangeTree":
        """Bulk-load ``points`` (may be ``None``/empty: pass ``dim``).

        Initial points are absorbed directly into one bucket forest —
        exactly the state the same inserts would reach after a flush —
        so a bulk load costs one Construct pass, not n buffered inserts.
        """
        if points is not None and not isinstance(points, PointSet):
            points = PointSet(points)
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
            cost=cost,
            flush_threshold=flush_threshold,
        )
        if points is not None:
            records = [
                (points.point_id(i), tuple(float(c) for c in points.coords[i]))
                for i in range(len(points.coords))
            ]
            for pid, coords in records:
                if pid in tree._ids:
                    raise ReproError(f"point id {pid} already present")
                tree._ids.add(pid)
                tree._coords_by_id[pid] = coords
                tree._next_auto_id = max(tree._next_auto_id, pid + 1)
            tree._absorb(records)
        return tree

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, coords: Sequence[float], pid: int | None = None) -> int:
        """Insert one point; returns its id (auto-assigned if omitted)."""
        self._check_open()
        coords_t = checked_coords(coords, self.dim)
        if pid is None:
            pid = self._next_auto_id
        if pid < 0:
            raise GeometryError(f"point ids must be >= 0, got {pid}")
        if pid in self._ids:
            raise ReproError(f"point id {pid} already present")
        if pid in self._tombstones:
            # a dead copy of this id still sits in a bucket; a plain
            # re-insert would be hidden by its own tombstone — purge first
            self._compact()
        self._ids.add(pid)
        self._coords_by_id[pid] = coords_t
        self._next_auto_id = max(self._next_auto_id, pid + 1)
        self._route([(pid, coords_t)])
        if len(self._buffer) >= self.flush_threshold:
            self.flush()
        return pid

    def insert_many(self, coords_list: Iterable[Sequence[float]]) -> List[int]:
        return [self.insert(c) for c in coords_list]

    def delete(self, pid: int) -> None:
        """Delete a point by id.

        Buffer-resident points are physically removed from their owning
        rank; bucket-resident points are tombstoned (and subtracted from
        aggregates), with a full compaction once half the bucket records
        are dead.
        """
        self._check_open()
        if pid not in self._ids:
            raise ReproError(f"point id {pid} not present")
        self._ids.remove(pid)
        coords = self._coords_by_id.pop(pid)
        if pid in self._buffer:
            _coords, rank = self._buffer.pop(pid)
            mach = self.machine
            payloads = [
                (self._ns, (pid,) if r == rank else ())
                for r in range(mach.p)
            ]
            mach.run_phase("dynamic:remove", "dist.dynamic.remove", payloads)
            return
        self._tombstones.add(pid)
        at = int(np.searchsorted(self._dead_ids, pid))
        self._dead_ids = np.insert(self._dead_ids, at, pid)
        self._dead_xy = np.insert(self._dead_xy, at, coords, axis=0)
        total = sum(len(b.records) for b in self._buckets.values())
        if self._tombstones and 2 * len(self._tombstones) >= total:
            self._compact()

    def flush(self) -> None:
        """Absorb the update buffer into the bucket forests now."""
        self._check_open()
        if not self._buffer:
            return
        records: List[Record] = [
            (pid, coords) for pid, (coords, _rank) in self._buffer.items()
        ]
        mach = self.machine
        mach.run_phase(
            "dynamic:clear", "dist.dynamic.clear", [self._ns] * mach.p
        )
        self._buffer.clear()
        self._absorb(records)

    def _route(self, records: List[Record]) -> None:
        """Ship records to round-robin-assigned ranks (buffer phase)."""
        mach = self.machine
        per_rank: List[List[Record]] = [[] for _ in range(mach.p)]
        for rec in records:
            rank = self._route_counter % mach.p
            self._route_counter += 1
            per_rank[rank].append(rec)
            self._buffer[rec[0]] = (rec[1], rank)
        mach.run_phase(
            "dynamic:buffer",
            "dist.dynamic.buffer",
            [(self._ns, tuple(per_rank[r])) for r in range(mach.p)],
        )

    def _absorb(self, records: List[Record]) -> None:
        """Logarithmic-method merge: records + colliding buckets rebuild.

        The carry starts at the smallest level that holds ``records``
        and swallows occupied buckets upward until it finds a free
        level, where one Construct pass builds the merged forest.
        """
        if not records:
            return
        carry = list(records)
        k = max(0, (len(carry) - 1).bit_length())
        while k in self._buckets:
            bucket = self._buckets.pop(k)
            carry.extend(bucket.records)
            bucket.tree.close()
            k = max(k + 1, (len(carry) - 1).bit_length())
        from . import DistributedRangeTree  # the facade lives in the package root

        pts = PointSet(
            [c for _pid, c in carry], ids=[pid for pid, _c in carry]
        )
        tree = DistributedRangeTree.build(
            pts, machine=self.machine, semigroup=self.semigroup
        )
        self._buckets[k] = _Bucket(
            level=k,
            tree=tree,
            records=carry,
            bbox=_records_bbox(pts.coords),
        )
        self._rebuild_points += len(carry)

    def _compact(self) -> None:
        """Rebuild every bucket from live records only (tombstones drop).

        Buffered records stay rank-resident — only bucket records
        re-absorb — so compaction is one merge over the bucket forests.
        """
        live: List[Record] = []
        for level in sorted(self._buckets):
            bucket = self._buckets[level]
            live.extend(
                rec for rec in bucket.records if rec[0] not in self._tombstones
            )
            bucket.tree.close()
        self._buckets.clear()
        self._tombstones.clear()
        self._dead_ids = self._dead_ids[:0]
        self._dead_xy = self._dead_xy[:0]
        if live:
            self._absorb(live)

    # ------------------------------------------------------------------
    # queries (decomposable: one Search pass over the buckets + a buffer scan)
    # ------------------------------------------------------------------
    def run(self, batch, replication: str | None = None) -> ResultSet:
        """Answer a (mixed-mode) batch across every epoch.

        Accepts the same shapes as the static facade's ``run``; the
        returned :class:`~repro.query.ResultSet` carries the metrics of
        the whole batch (the one Search pass over the buckets plus the
        buffer scan), so rounds/h-relations stay observable per batch.
        """
        self._check_open()
        batch = QueryBatch.coerce(batch, replication)
        for qid, q in enumerate(batch):
            if q.box.dim != self.dim:
                raise DimensionMismatch(self.dim, q.box.dim, f"query {qid} box")
        mach = self.machine
        snap = mach.metrics.mark()
        combiner = EpochCombiner(
            batch, self.semigroup, self.dim, self._coords_of
        )
        sub = combiner.epoch_batch(batch.replication)
        # bucket bbox pruning: a bucket whose bounding box (over live AND
        # tombstoned records) misses every query box holds no answer —
        # leave it out of the pass.  The largest bucket leads: the plan is
        # made against it, so it is the last to need a refit.
        trees = []
        for level in sorted(self._buckets, reverse=True):
            bucket = self._buckets[level]
            if _bbox_hits_any(bucket.bbox, sub):
                trees.append(bucket.tree)
            else:
                self._pruned_bucket_passes += 1
        values = QueryEngine(*trees).run(sub).values() if trees else None
        buffered_ids, dead_ids = self._side_matches(sub)
        answers = combiner.finalize_all(values, buffered_ids, dead_ids)
        results = [
            QueryResult(qid=qid, mode=q.mode, query=q, value=v)
            for qid, (q, v) in enumerate(zip(batch, answers))
        ]
        return ResultSet(
            results, mach.metrics.since(snap), replication=batch.replication
        )

    def _side_matches(
        self, batch: QueryBatch
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Per-query buffered matches (one scan phase) and dead matches."""
        mach = self.machine
        lo, hi = batch.bounds
        per_rank = mach.run_phase(
            "dynamic:scan",
            "dist.dynamic.scan",
            [(self._ns, lo, hi)] * mach.p,
        )
        buffered: Dict[int, List[int]] = {}
        for r in range(mach.p):
            for qid, pid in per_rank[r]:
                buffered.setdefault(qid, []).append(pid)
        for ids in buffered.values():
            ids.sort()
        dead: Dict[int, List[int]] = {}
        for qid, pid in _closed_matches(lo, hi, self._dead_ids, self._dead_xy):
            dead.setdefault(qid, []).append(pid)
        return buffered, dead

    def _coords_of(self, pid: int) -> Tuple[float, ...]:
        coords = self._coords_by_id.get(pid)
        if coords is None:
            at = int(np.searchsorted(self._dead_ids, pid))
            coords = tuple(self._dead_xy[at].tolist())
        return coords

    # ------------------------------------------------------------------
    # re-annotation
    # ------------------------------------------------------------------
    def reannotate(self, semigroup: Semigroup) -> None:
        """Swap the aggregate ``f`` on every bucket forest in place."""
        self._check_open()
        for level in sorted(self._buckets):
            self._buckets[level].tree.reannotate(semigroup)
        self.semigroup = semigroup

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    @property
    def p(self) -> int:
        return self.machine.p

    @property
    def metrics(self):
        """The shared machine's superstep trace."""
        return self.machine.metrics

    @property
    def bucket_sizes(self) -> List[int]:
        """Record counts of the bucket forests (distinct powers of two)."""
        return sorted(len(b.records) for b in self._buckets.values())

    @property
    def buffered_count(self) -> int:
        """Records currently rank-resident in the update buffer."""
        return len(self._buffer)

    @property
    def rebuild_points_total(self) -> int:
        """Total records ever absorbed — the amortisation observable."""
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
        if not self._ids:
            return None
        pids = sorted(self._ids)
        return PointSet([self._coords_by_id[pid] for pid in pids], ids=pids)

    def space_report(self) -> dict:
        """Where the structure's records live across the epochs."""
        levels = sorted(self._buckets)
        return {
            "d": self.dim,
            "p": self.p,
            "live": len(self._ids),
            "buffered": len(self._buffer),
            "tombstones": len(self._tombstones),
            "bucket_records": [len(self._buckets[k].records) for k in levels],
            "bucket_padded_n": [self._buckets[k].tree.n for k in levels],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("DynamicDistributedRangeTree is closed")

    def close(self) -> None:
        """Evict buckets and buffer state; release an owned machine."""
        if self._closed:
            return
        for bucket in self._buckets.values():
            bucket.tree.close()
        self._buckets.clear()
        try:
            self.machine.run_phase(
                "dynamic:clear",
                "dist.dynamic.clear",
                [self._ns] * self.machine.p,
            )
        except Exception:  # backend already shut down
            pass
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
            f"DynamicDistributedRangeTree(live={len(self._ids)}, "
            f"d={self.dim}, p={self.p}, buckets={self.bucket_sizes}, "
            f"buffered={len(self._buffer)})"
        )
