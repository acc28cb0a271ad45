"""Differential suite for the dynamized distributed tree (paper §6).

Three layers:

* unit tests for the update/query/lifecycle mechanics of
  :class:`repro.dist.dynamic.DynamicDistributedRangeTree`;
* quick differential tests: seeded update/query streams replayed against
  the sequential :class:`~repro.seq.DynamicRangeTree` oracle *and*
  rebuild-from-scratch static trees (``tests.helpers.drive_stream``);
* the heavy ``@pytest.mark.stream`` matrix — longer streams across
  d=1..3, all three backends, typed and object value columns — excluded from
  the tier-1 run (``-m "not stream"`` in addopts) and run by its own CI
  job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm import Machine
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.errors import DimensionMismatch, GeometryError, ReproError
from repro.geometry import Box
from repro.query import (
    QueryBatch,
    aggregate,
    count,
    report,
    sample_report,
    top_k,
)
from repro.semigroup import Semigroup, max_of_dim, min_of_dim, sum_of_dim
from repro.semigroup.group import sum_group
from repro.seq import DynamicRangeTree
from repro.workloads import stream_counts, update_query_stream

from tests.helpers import (
    STREAM_GROUP,
    checkpoint_batch,
    drive_stream,
    empty_structure_values,
    oracle_values,
    rebuild_queries_dict,
    unkernelized,
)

BACKENDS = ("serial", "process")
#: the stream aggregate held as typed kernel columns, and behind fresh
#: callables so it rides object columns + ``combine``
VALUE_GROUPS = {"kernel": STREAM_GROUP, "object": unkernelized(STREAM_GROUP)}


def dyadic(i: int, grid: int = 16) -> float:
    return i / grid


def unit_box(d: int) -> Box:
    return Box([(0.0, 1.0)] * d)


class TestUpdates:
    def test_buffered_inserts_visible_immediately(self):
        with DynamicDistributedRangeTree(2, p=4, flush_threshold=100) as dt:
            dt.insert((0.25, 0.25), pid=7)
            assert dt.buffered_count == 1
            assert dt.bucket_sizes == []
            rs = dt.run([count(unit_box(2)), report(unit_box(2))])
            assert rs.values() == [1, [7]]

    def test_flush_threshold_absorbs_buffer(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=4) as dt:
            for i in range(4):
                dt.insert((dyadic(i),))
            assert dt.buffered_count == 0
            assert dt.bucket_sizes == [4]

    def test_bucket_sizes_are_distinct_powers_of_two(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=1) as dt:
            for i in range(13):
                dt.insert((float(i) / 16,))
            assert dt.bucket_sizes == [1, 4, 8]  # 13 = 0b1101
            assert len(dt) == 13

    def test_amortised_rebuild_cost(self):
        import math

        n = 128
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=1) as dt:
            for i in range(n):
                dt.insert((dyadic(i % 16),))
            assert dt.rebuild_points_total <= n * (int(math.log2(n)) + 1)

    def test_duplicate_id_rejected(self):
        with DynamicDistributedRangeTree(1, p=4) as dt:
            dt.insert((0.5,), pid=5)
            with pytest.raises(ReproError, match="already present"):
                dt.insert((0.25,), pid=5)

    def test_wrong_dim_rejected(self):
        with DynamicDistributedRangeTree(2, p=4) as dt:
            with pytest.raises(GeometryError):
                dt.insert((0.5,))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_before_any_state_changes(self, backend, bad):
        """A poisoned record must never reach the buffer: at the parent it
        was accepted and every later flush raised on it."""
        with DynamicDistributedRangeTree(
            2, p=4, backend=backend, flush_threshold=4
        ) as dt:
            for i in range(6):  # one bucket of 4 + two buffered
                dt.insert((dyadic(i), 0.5))
            before = (len(dt), dt.buffered_count, dt.bucket_sizes)
            answers = dt.run([count(unit_box(2)), report(unit_box(2))]).values()
            with pytest.raises(GeometryError, match="finite"):
                dt.insert((bad, 0.5))
            assert (len(dt), dt.buffered_count, dt.bucket_sizes) == before
            assert dt.run([count(unit_box(2)), report(unit_box(2))]).values() == answers
            # the next flush_threshold inserts succeed (and flush)
            ids = [dt.insert((dyadic(6 + i), 0.25)) for i in range(4)]
            assert ids == [6, 7, 8, 9]  # the rejected insert took no id
            assert dt.buffered_count < 4
            assert dt.run([count(unit_box(2))]).values() == [10]

    @pytest.mark.parametrize("bad", [7.5, -1])
    def test_bad_ids_rejected_before_any_state_changes(self, bad):
        """A float id used to be accepted and become id 7 at the absorb:
        two live points then shared id 7 and a count read 17 of 16."""
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=2) as dt:
            for i in range(16):
                dt.insert((dyadic(i),), pid=i)
            dt.insert((0.5,), pid=20)  # one buffered point
            before = (len(dt), dt.buffered_count, dt.bucket_sizes)
            with pytest.raises(GeometryError, match="point ids"):
                dt.insert((0.75,), pid=bad)
            assert (len(dt), dt.buffered_count, dt.bucket_sizes) == before
            dt.flush()
            assert dt.run(count(unit_box(1))).value(0) == 17

    def test_numpy_int_id_accepted(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=2) as dt:
            pid = dt.insert((0.5,), pid=np.int64(7))
            assert pid == 7 and type(pid) is int
            dt.insert((0.25,), pid=3)  # flushes both
            assert dt.run(report(unit_box(1))).value(0) == [3, 7]
            dt.delete(np.int64(7))
            assert dt.run(count(unit_box(1))).value(0) == 1

    def test_an_absorb_that_raises_loses_nothing(self):
        """The merged bucket is built before the buckets it replaces are
        dropped and the buffer is cleared — a failed flush used to leave
        32 live points, no bucket and a count of 0."""
        marked = 99
        poisoned = [marked]

        def lift(pid, coords):
            if pid in poisoned:
                raise ValueError("unliftable point")
            return coords[0]

        sg = Semigroup("marked_sum", lift, lambda a, b: a + b, 0.0)
        with DynamicDistributedRangeTree.build(
            [(dyadic(i),) for i in range(16)], p=4, semigroup=sg, flush_threshold=16
        ) as dt:
            for i in range(15):
                dt.insert((dyadic(i) + 1 / 32,), pid=16 + i)
            batch = [count(unit_box(1)), report(unit_box(1)), aggregate(unit_box(1))]
            before = dt.run(batch).values()
            with pytest.raises(ValueError, match="unliftable"):
                dt.insert((1.0,), pid=marked)  # the 16th buffered insert flushes
            assert dt.bucket_sizes == [16] and dt.buffered_count == 16 and len(dt) == 32
            after = dt.run(batch[:2]).values()
            assert after == [before[0] + 1, before[1] + [marked]]
            assert dt.run(aggregate(Box([(0.0, 0.99)]))).value(0) == before[2]
            with pytest.raises(ValueError, match="unliftable"):
                dt.flush()  # the same absorb, the same failure, still no loss
            assert dt.bucket_sizes == [16] and dt.buffered_count == 16
            dt.delete(marked)
            dt.flush()
            assert dt.bucket_sizes == [31] and dt.buffered_count == 0
            assert dt.run(batch).values() == before
            # a compaction that raises keeps every bucket too: the 16th
            # delete compacts, and the rebuild meets the now-unliftable id 30
            poisoned.append(30)
            for pid in range(15):
                dt.delete(pid)
            with pytest.raises(ValueError, match="unliftable"):
                dt.delete(15)
            assert dt.bucket_sizes == [31] and len(dt) == 15
            assert dt.run(batch[:2]).values() == [15, list(range(16, 31))]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_update_is_not_a_superstep(self, backend, monkeypatch):
        """Below the flush threshold an insert, and the delete of a
        buffered point, touch no rank; ``run`` records the pass only."""
        dispatches = []
        real = Machine.run_phase

        def counted(mach, *args, **kwargs):
            dispatches.append(args)
            return real(mach, *args, **kwargs)

        with DynamicDistributedRangeTree.build(
            [(dyadic(i), 0.5) for i in range(8)], p=4, backend=backend, flush_threshold=8
        ) as dt:
            monkeypatch.setattr(Machine, "run_phase", counted)
            ids, traces = [], []
            for i in range(7):
                ids.append(dt.insert((dyadic(i), 0.25)))
                traces.append(dt.metrics.steps)
            dt.delete(ids[3])
            traces.append(dt.metrics.steps)
            dt.insert((0.75, 0.75))
            traces.append(dt.metrics.steps)
            assert dt.buffered_count == 7
            assert traces == [[]] * 9 and dispatches == []
            rs = dt.run([count(unit_box(2)), report(unit_box(2))])
            assert rs.values()[0] == 15
            assert "dynamic" not in rs.metrics.phase_sequence()
            assert dt.metrics is rs.metrics and rs.metrics.steps
            assert dt.machine.metrics.steps == []

    def test_delete_unknown_and_double_delete_rejected(self):
        with DynamicDistributedRangeTree(1, p=4) as dt:
            with pytest.raises(ReproError, match="not present"):
                dt.delete(42)
            pid = dt.insert((0.5,))
            dt.delete(pid)
            with pytest.raises(ReproError, match="not present"):
                dt.delete(pid)

    def test_delete_of_buffered_point_is_physical(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=100) as dt:
            a = dt.insert((0.25,))
            b = dt.insert((0.5,))
            dt.delete(a)
            assert dt.space_report()["tombstones"] == 0
            assert dt.buffered_count == 1
            assert dt.run(report(unit_box(1))).value(0) == [b]

    def test_delete_of_bucketed_point_tombstones(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=1) as dt:
            ids = [dt.insert((dyadic(i),)) for i in range(8)]
            dt.delete(ids[0])
            assert dt.space_report()["tombstones"] == 1
            assert dt.run(count(unit_box(1))).value(0) == 7
            assert dt.run(report(unit_box(1))).value(0) == ids[1:]

    def test_compaction_triggers_at_half_dead(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=1) as dt:
            ids = [dt.insert((dyadic(i),)) for i in range(16)]
            for pid in ids[:8]:
                dt.delete(pid)
            assert sum(dt.bucket_sizes) == 8
            assert dt.space_report()["tombstones"] == 0
            assert dt.run(report(unit_box(1))).value(0) == ids[8:]

    def test_reinsert_of_tombstoned_id_purges_dead_copy(self):
        # regression shape: a tombstoned id re-inserted while its dead
        # copy still sits in a bucket must not be hidden by the filter
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=1) as dt:
            ids = [dt.insert((dyadic(i),)) for i in range(8)]
            dt.delete(ids[0])  # 1/8 dead: no compaction yet
            assert dt.space_report()["tombstones"] == 1
            dt.insert((dyadic(9),), pid=ids[0])
            assert dt.run(report(unit_box(1))).value(0) == sorted(ids)
            assert dt.run(count(unit_box(1))).value(0) == 8

    def test_group_aggregate_subtracts_deleted(self):
        g = sum_group(0)
        with DynamicDistributedRangeTree(
            1, p=4, semigroup=g, flush_threshold=1
        ) as dt:
            ids = [dt.insert((float(x),)) for x in (1, 2, 4, 8, 16)]
            dt.delete(ids[1])
            got = dt.run(aggregate(Box([(0.0, 10.0)]))).value(0)
            assert got == 1 + 4 + 8

    def test_aggregate_with_deletes_needs_group(self):
        with DynamicDistributedRangeTree(
            1, p=4, semigroup=max_of_dim(0), flush_threshold=1
        ) as dt:
            pid = dt.insert((0.25,))
            for x in (0.5, 0.75, 0.875):
                dt.insert((x,))
            dt.delete(pid)
            with pytest.raises(ReproError, match="AbelianGroup"):
                dt.run(aggregate(unit_box(1)))

    def test_empty_structure_answers_every_mode(self):
        with DynamicDistributedRangeTree(2, p=4) as dt:
            batch = QueryBatch(
                [
                    count(unit_box(2)),
                    report(unit_box(2)),
                    aggregate(unit_box(2)),
                    top_k(unit_box(2), 3),
                    sample_report(unit_box(2), 2),
                ]
            )
            got = dt.run(batch).values()
            assert got == empty_structure_values(batch, dt.semigroup)

    def test_query_dim_mismatch_rejected(self):
        with DynamicDistributedRangeTree(2, p=4) as dt:
            with pytest.raises(DimensionMismatch):
                dt.run(count(unit_box(3)))

    def test_invalid_mode_options_rejected_without_buckets(self):
        with DynamicDistributedRangeTree(2, p=4) as dt:
            with pytest.raises(ReproError, match="topk"):
                dt.run(top_k(unit_box(2), 0))

    def test_per_query_semigroup_and_reannotate(self):
        with DynamicDistributedRangeTree(2, p=4, flush_threshold=2) as dt:
            for i in range(6):
                dt.insert((dyadic(i), dyadic(2 * i % 16)))
            want_y = sum(dyadic(2 * i % 16) for i in range(6))
            got = dt.run(aggregate(unit_box(2), sum_of_dim(1))).value(0)
            assert got == pytest.approx(want_y)
            dt.reannotate(sum_of_dim(0))
            got = dt.run(aggregate(unit_box(2))).value(0)
            assert got == pytest.approx(sum(dyadic(i) for i in range(6)))

    def test_report_limit_applies_after_epoch_merge(self):
        # two epochs (bucket + buffer); the limit must truncate the
        # *merged* sorted ids, not each epoch's
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=4) as dt:
            for i in range(4):
                dt.insert((dyadic(8 + i),), pid=100 + i)  # bucketed, high x
            for i in range(2):
                dt.insert((dyadic(i),), pid=i)  # buffered, low ids
            got = dt.run(report(unit_box(1), limit=3)).value(0)
            assert got == [0, 1, 100]

    def test_topk_across_epochs(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=4) as dt:
            for i in range(4):
                dt.insert((dyadic(8 + i),), pid=100 + i)  # bucketed
            dt.insert((dyadic(1),), pid=0)  # buffered, smallest x
            got = dt.run(top_k(unit_box(1), 2)).value(0)
            assert got == [0, 100]

    def test_bulk_load_matches_incremental(self):
        coords = [(dyadic(i), dyadic(3 * i % 16)) for i in range(10)]
        batch = checkpoint_batch(
            [unit_box(2), Box([(0.0, 0.5), (0.0, 1.0)])]
        )
        with DynamicDistributedRangeTree.build(
            coords, p=4, semigroup=STREAM_GROUP
        ) as bulk:
            assert bulk.bucket_sizes == [10]
            want = bulk.run(batch).values()
        with DynamicDistributedRangeTree(
            2, p=4, semigroup=STREAM_GROUP, flush_threshold=4
        ) as inc:
            inc.insert_many(coords)
            assert inc.run(batch).values() == want

    def test_build_empty_needs_dim(self):
        with pytest.raises(GeometryError):
            DynamicDistributedRangeTree.build()
        with DynamicDistributedRangeTree.build(dim=2, p=4) as dt:
            assert len(dt) == 0

    def test_closed_structure_rejects_use(self):
        dt = DynamicDistributedRangeTree(1, p=4)
        dt.insert((0.5,))
        dt.close()
        with pytest.raises(ReproError, match="closed"):
            dt.insert((0.25,))
        with pytest.raises(ReproError, match="closed"):
            dt.run(count(unit_box(1)))

    def test_shared_machine_two_structures(self):
        with Machine(4) as mach:
            a = DynamicDistributedRangeTree(1, machine=mach, flush_threshold=2)
            b = DynamicDistributedRangeTree(1, machine=mach, flush_threshold=2)
            for i in range(4):
                a.insert((dyadic(i),))
                b.insert((dyadic(15 - i),))
            assert a.run(report(unit_box(1))).value(0) == [0, 1, 2, 3]
            assert b.run(report(unit_box(1))).value(0) == [0, 1, 2, 3]
            a.close()
            assert b.run(count(unit_box(1))).value(0) == 4
            b.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evicted_buckets_leave_no_rank_state(self, backend):
        """Every absorb closes the buckets it merges: their rank-resident
        keys go, so state tracks the live buckets, not the uptime."""
        coords = np.random.default_rng(5).random((2000, 2))
        with DynamicDistributedRangeTree(2, p=4, backend=backend, flush_threshold=8) as dyn:
            for c in coords:
                dyn.insert(c)
            dyn.run(count(Box([(0.1, 0.6), (0.2, 0.9)])))
            keys = dyn.machine.run_phase("probe", "test.state_keys", [None] * 4)
            live = len(dyn.bucket_sizes)
        assert live and all(len(held) <= 4 * live + 2 for held in keys), (live, keys[0])

    def test_live_points_sorted_by_id(self):
        with DynamicDistributedRangeTree(1, p=4, flush_threshold=2) as dt:
            dt.insert((0.5,), pid=9)
            dt.insert((0.25,), pid=3)
            dt.insert((0.75,), pid=6)
            dt.delete(9)
            pts = dt.live_points()
            assert list(pts.ids) == [3, 6]
            assert dt.live_points().coords[0][0] == 0.25


class TestSideScansAreClosed:
    """Dead and buffered matches against the per-point definition, for
    boxes whose faces pass exactly through the scanned coordinates."""

    @staticmethod
    def _per_point(dt, batch):
        buffered, dead = {}, {}
        for qid, q in enumerate(batch):
            for side, out in ((dt._buffer, buffered), (dt._dead, dead)):
                hits = sorted(
                    pid
                    for pid, c in zip(side.ids.tolist(), side.xy.tolist())
                    if q.box.contains_point(c)
                )
                if hits:
                    out[qid] = hits
        return buffered, dead

    @staticmethod
    def _faces_through(coords):
        x, y = coords
        eps = 1 / 64
        return [
            Box([(x, x), (y, y)]),  # the point itself
            Box([(x, 1.0), (0.0, y)]),  # lower x face and upper y face on it
            Box([(0.0, x), (y, 1.0)]),
            Box([(x + eps, 1.0), (0.0, 1.0)]),  # just past it
            Box([(0.0, 1.0), (-1.0, y - eps)]),
        ]

    def _check(self, dt, live, boxes):
        g = dt.semigroup
        batch = QueryBatch(
            [make(b) for b in boxes for make in (count, report, aggregate)]
        )
        assert dt._side_matches(batch) == self._per_point(dt, batch)
        # one row per id; the dead are not live, the buffered are
        dead, buffered = dt._dead.ids.tolist(), dt._buffer.ids.tolist()
        assert len(set(dead)) == len(dead) == len(dt._dead.xy)
        assert len(set(buffered)) == len(buffered) == len(dt._buffer.xy)
        assert not set(dead) & set(dt._coords_by_id) and set(buffered) <= set(live)
        want = []
        for b in boxes:
            inside = sorted(pid for pid, c in live.items() if b.contains_point(c))
            want += [len(inside), inside, g.fold(g.lift(pid, live[pid]) for pid in inside)]
        assert dt.run(batch).values() == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_faces_through_tombstoned_and_buffered_points(self, backend):
        grid = {i: (dyadic(i), dyadic(3 * i % 16)) for i in range(16)}
        with DynamicDistributedRangeTree(
            2, p=4, backend=backend, semigroup=sum_group(0), flush_threshold=8
        ) as dt:
            live = dict(grid)
            for pid, c in grid.items():
                dt.insert(c, pid=pid)
            for pid in (11, 2, 5):  # deleted out of id order
                dt.delete(pid)
                del live[pid]
            for k in range(5):
                live[100 + k] = (dyadic(2 * k + 1), dyadic(k))
                dt.insert(live[100 + k], pid=100 + k)
            assert dt._dead.ids.tolist() == [11, 2, 5] and dt.buffered_count == 5
            boxes = [unit_box(2)]
            for pid in (2, 5, 11, 100, 103):
                boxes += self._faces_through(grid.get(pid) or live[pid])
            self._check(dt, live, boxes)

            # delete -> reinsert of one id: the compaction in between drops
            # every dead row, and the id comes back as a buffered point
            dt.delete(7)
            assert dt._dead.ids.tolist() == [11, 2, 5, 7]
            live[7] = (dyadic(15), dyadic(15))
            dt.insert(live[7], pid=7)
            assert dt._dead.ids.tolist() == [] and dt._dead.xy.shape == (0, 2)
            dt.delete(3)
            del live[3]
            boxes = [unit_box(2)]
            for c in (grid[7], live[7], grid[3], grid[2]):
                boxes += self._faces_through(c)
            self._check(dt, live, boxes)


class TestDifferentialQuick:
    """Short streams, serial backend — runs in the tier-1 suite."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stream_matches_oracle_and_rebuild(self, d):
        ops = update_query_stream(70, d, seed=10 + d)
        with DynamicDistributedRangeTree(
            d, p=4, semigroup=STREAM_GROUP, flush_threshold=8
        ) as dyn:
            oracle = DynamicRangeTree(d, semigroup=STREAM_GROUP)
            checkpoints = drive_stream(ops, dyn, oracle, rebuild_every=3)
        assert checkpoints >= 3

    @pytest.mark.parametrize("values", sorted(VALUE_GROUPS))
    def test_stream_parity_on_both_planes(self, values):
        ops = update_query_stream(50, 2, seed=77)
        with DynamicDistributedRangeTree(
            2, p=4, semigroup=VALUE_GROUPS[values], flush_threshold=8
        ) as dyn:
            oracle = DynamicRangeTree(2, semigroup=STREAM_GROUP)
            assert drive_stream(ops, dyn, oracle, rebuild_every=2) >= 2

    def test_stream_generator_has_the_advertised_shapes(self):
        ops = update_query_stream(80, 2, seed=5)
        shape = stream_counts(ops)
        assert shape["inserts"] > 0
        assert shape["deletes"] > 0
        assert shape["absent_deletes"] > 0
        assert shape["checkpoints"] >= 2
        assert ops[0].kind == "query"  # empty-structure checkpoint
        assert ops[-1].kind == "query"
        # duplicate coordinates occur
        coords = [op.coords for op in ops if op.kind == "insert"]
        assert len(set(coords)) < len(coords)
        # determinism: the same seed reproduces the stream exactly
        assert update_query_stream(80, 2, seed=5) == ops


@pytest.mark.stream
class TestDifferentialStream:
    """The heavy matrix: longer streams, d=1..3, all backends, typed and
    object value columns."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stream_matches_oracle_and_rebuild(self, backend, d):
        ops = update_query_stream(140, d, seed=100 + d)
        with DynamicDistributedRangeTree(
            d,
            p=4,
            backend=backend,
            semigroup=STREAM_GROUP,
            flush_threshold=8,
        ) as dyn:
            oracle = DynamicRangeTree(d, semigroup=STREAM_GROUP)
            assert drive_stream(ops, dyn, oracle, rebuild_every=4) >= 5

    @pytest.mark.parametrize("values", sorted(VALUE_GROUPS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stream_planes_matrix(self, d, values):
        ops = update_query_stream(120, d, seed=200 + d)
        with DynamicDistributedRangeTree(
            d, p=4, semigroup=VALUE_GROUPS[values], flush_threshold=8
        ) as dyn:
            oracle = DynamicRangeTree(d, semigroup=STREAM_GROUP)
            assert drive_stream(ops, dyn, oracle, rebuild_every=4) >= 4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_more_seeds_process_backend(self, seed):
        ops = update_query_stream(90, 2, seed=300 + seed)
        with DynamicDistributedRangeTree(
            2,
            p=4,
            backend="process",
            semigroup=STREAM_GROUP,
            flush_threshold=8,
        ) as dyn:
            oracle = DynamicRangeTree(2, semigroup=STREAM_GROUP)
            assert drive_stream(ops, dyn, oracle, rebuild_every=5) >= 3


class TestBBoxPruning:
    """Per-bucket bounding-box pruning: skip Search passes that cannot
    match, never change an answer."""

    @staticmethod
    def _two_cluster_tree(**kwargs):
        # 32 points near the origin end up in one bucket, 8 far points in
        # another: queries inside either cluster can prune the other
        dyn = DynamicDistributedRangeTree.build(
            dim=2, p=2, flush_threshold=8, **kwargs
        )
        rng = __import__("random").Random(7)
        for _ in range(32):
            dyn.insert((rng.uniform(0, 1), rng.uniform(0, 1)))
        for _ in range(8):
            dyn.insert((rng.uniform(10, 11), rng.uniform(10, 11)))
        return dyn

    def test_disjoint_query_prunes_and_matches_rebuild(self):
        with self._two_cluster_tree() as dyn:
            assert len(dyn.bucket_sizes) == 2
            batch = QueryBatch(
                [
                    count(((10.0, 11.0), (10.0, 11.0))),
                    report(((10.0, 11.0), (10.0, 11.0))),
                ]
            )
            got = dyn.run(batch).values()
            assert dyn.pruned_bucket_passes == 1  # the 32-bucket skipped
            with DistributedRangeTree.build(dyn.live_points(), p=2) as static:
                assert got == static.run(batch).values()

    def test_spanning_query_prunes_nothing(self):
        with self._two_cluster_tree() as dyn:
            rs = dyn.run(QueryBatch([count(((0.0, 11.0), (0.0, 11.0)))]))
            assert rs.values() == [40]
            assert dyn.pruned_bucket_passes == 0

    def test_mixed_batch_only_needs_one_box_to_keep_bucket(self):
        # one query hits each cluster: neither bucket may be pruned
        with self._two_cluster_tree() as dyn:
            batch = QueryBatch(
                [
                    count(((0.0, 1.0), (0.0, 1.0))),
                    count(((10.0, 11.0), (10.0, 11.0))),
                ]
            )
            assert dyn.run(batch).values() == [32, 8]
            assert dyn.pruned_bucket_passes == 0

    def test_pruning_with_tombstones_and_aggregates(self, monkeypatch):
        # deleting far-cluster points tombstones them; a far query that
        # prunes the near bucket must answer bit-identically to the same
        # query with pruning disabled (the subtraction path untouched)
        from repro.dist import dynamic as dyn_mod

        def answers(disable_pruning: bool):
            with self._two_cluster_tree(semigroup=STREAM_GROUP) as dyn:
                if disable_pruning:
                    monkeypatch.setattr(
                        dyn_mod, "_bbox_hits_any", lambda bbox, batch: True
                    )
                far_ids = [
                    pid
                    for pid in sorted(dyn.live_points().ids)
                    if dyn._coords_by_id[pid][0] > 5
                ]
                for pid in far_ids[:3]:
                    dyn.delete(pid)
                batch = QueryBatch(
                    [
                        count(((10.0, 11.0), (10.0, 11.0))),
                        aggregate(((10.0, 11.0), (10.0, 11.0))),
                        report(((10.0, 11.0), (10.0, 11.0))),
                    ]
                )
                got = dyn.run(batch).values()
                pruned = dyn.pruned_bucket_passes
            monkeypatch.undo()
            return got, pruned

        pruned_vals, pruned_count = answers(disable_pruning=False)
        full_vals, full_count = answers(disable_pruning=True)
        assert pruned_count >= 1 and full_count == 0
        assert pruned_vals == full_vals
        assert pruned_vals[0] == 5 and len(pruned_vals[2]) == 5

    def test_buffered_points_are_not_pruned_away(self):
        # buffered (not yet absorbed) records bypass bucket pruning via
        # the side scan: a query matching only buffered points answers
        with DynamicDistributedRangeTree.build(
            dim=2, p=2, flush_threshold=64
        ) as dyn:
            for i in range(8):
                dyn.insert((20.0 + i * 0.01, 20.0))  # all stay buffered
            assert dyn.buffered_count == 8
            rs = dyn.run(QueryBatch([count(((19.0, 21.0), (19.0, 21.0)))]))
            assert rs.values() == [8]

    def test_all_pruned_batch_answers_the_identities(self):
        # every bucket pruned: no Search pass runs, and each mode answers
        # what it answers over no points — 0, the identity, []
        with self._two_cluster_tree(semigroup=STREAM_GROUP) as dyn:
            dyn.delete(sorted(dyn.live_points().ids)[0])  # a tombstone too
            far = ((99.0, 99.5), (99.0, 99.5))  # matches nothing anywhere
            batch = QueryBatch(
                [
                    count(far),
                    aggregate(far),
                    report(far),
                    sample_report(far, 2),
                    top_k(far, 3),
                ]
            )
            rs = dyn.run(batch)
            assert rs.values() == [0, 0.0, [], [], []]
            assert rs.values() == empty_structure_values(batch, dyn.semigroup)
            assert dyn.pruned_bucket_passes == 2
            assert rs.metrics.rounds == 0


def _grid_coords(n: int, seed: int) -> list:
    """``n`` 2-d points on the 1/16 grid (float sums stay exact)."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 17, size=(n, 2)) / 16).tolist()


class TestOnePass:
    """A dynamic batch is one Search pass: the buckets are its parts, so
    rounds do not grow with their number and answers stay a rebuild's."""

    BOXES = [
        unit_box(2),
        Box([(0.0, 0.5), (0.25, 1.0)]),
        Box([(0.5, 1.0), (0.0, 0.75)]),
        Box([(0.25, 0.75), (0.25, 0.75)]),
        Box([(0.0, 1.0), (0.5, 0.5)]),
    ]

    @staticmethod
    def _rebuilt(dyn, batch):
        """A static tree over the live points answers ``batch``; returns
        its answers and the rounds of one of its passes (run again, so a
        lazy refit's round is not counted)."""
        with DistributedRangeTree.build(
            dyn.live_points(), machine=dyn.machine, semigroup=dyn.semigroup
        ) as static:
            want = static.run(batch).values()
            return want, static.run(batch).metrics.rounds

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("p", [2, 4])
    def test_rounds_are_constant_in_the_number_of_buckets(self, backend, p):
        coords = _grid_coords(128 + 63, seed=40 + p)
        batch = checkpoint_batch(self.BOXES * 2)
        one_pass = 5 + p.bit_length() - 1
        with DynamicDistributedRangeTree.build(
            coords[:128], p=p, backend=backend, semigroup=STREAM_GROUP, flush_threshold=2
        ) as dyn:
            # inserts absorb two at a time: after n = 2 (2^j - 1) + 1 of them
            # (n + 1 a power of two) the bulk bucket has j smaller
            # neighbours and one point is buffered
            for n, c in enumerate(coords[128:], 1):
                dyn.insert(c)
                if (n + 1) & n:
                    continue
                assert dyn.buffered_count == 1
                levels = len(dyn.bucket_sizes)
                dyn.delete(int(dyn.live_points().ids[n]))  # a bulk id: a tombstone
                rs = dyn.run(batch)
                want, static_rounds = self._rebuilt(dyn, batch)
                assert rs.values() == want, f"{levels} buckets"
                assert rs.metrics.rounds == static_rounds == one_pass, f"{levels} buckets"
            assert levels == 6

            # every bucket pruned: no pass at all
            far = checkpoint_batch([Box([(5.0, 6.0), (5.0, 6.0)])] * 5)
            rs = dyn.run(far)
            assert rs.values() == empty_structure_values(far, dyn.semigroup)
            assert rs.metrics.rounds == 0

    def test_one_hat_walk_per_rank_whatever_the_bucket_count(self, monkeypatch):
        """Step 1 walks every bucket's hat in one call per rank: at most
        p calls per pass over 1-6 parts, each over all of them."""
        from repro.dist import search

        p, walks, real = 4, [], search.walk_hats
        monkeypatch.setattr(
            search, "walk_hats", lambda hats, *args: walks.append(len(hats)) or real(hats, *args)
        )
        coords = _grid_coords(128 + 63, seed=44)
        batch = checkpoint_batch(self.BOXES * 2)  # unit_box meets every bucket
        parts = []
        with DynamicDistributedRangeTree.build(
            coords[:128], p=p, semigroup=STREAM_GROUP, flush_threshold=2
        ) as dyn:
            for n, c in enumerate(coords[128:], 1):
                dyn.insert(c)
                if (n + 1) & n:
                    continue
                walks.clear()
                got = dyn.run(batch).values()
                assert len(walks) <= p and set(walks) == {len(dyn.bucket_sizes)}
                assert got == self._rebuilt(dyn, batch)[0]
                parts.append(len(dyn.bucket_sizes))
        assert parts == [1, 2, 3, 4, 5, 6]

    def test_one_forest_walk_per_rank_and_dimension_whatever_the_bucket_count(
        self, monkeypatch
    ):
        """Step 5 walks, per rank and dimension, every stack it holds for
        that dimension in one call: at most d walks per rank per pass over
        1-6 parts, and a walk spans the parts."""
        from repro.cgm import phases
        from repro.seq.compiled import CompiledForest

        p, d, ranks = 4, 2, []  # per step-5 call: the stack count of each walk
        real_walk, real_step5 = CompiledForest.walk, phases.get_phase("dist.search.forest_cols")

        def walk(stacks, *args):
            ranks[-1].append(len(stacks))
            return real_walk(stacks, *args)

        monkeypatch.setattr(CompiledForest, "walk", staticmethod(walk))
        monkeypatch.setitem(
            phases._PHASES,
            "dist.search.forest_cols",
            lambda ctx, payload: ranks.append([]) or real_step5(ctx, payload),
        )
        coords = _grid_coords(128 + 63, seed=44)
        batch = checkpoint_batch(self.BOXES * 2)
        widest = {}
        with DynamicDistributedRangeTree.build(
            coords[:128], p=p, semigroup=STREAM_GROUP, flush_threshold=2
        ) as dyn:
            for n, c in enumerate(coords[128:], 1):
                dyn.insert(c)
                if (n + 1) & n:
                    continue
                ranks.clear()
                got = dyn.run(batch).values()
                assert len(ranks) == p and all(len(walks) <= d for walks in ranks)
                assert got == self._rebuilt(dyn, batch)[0]
                widest[len(dyn.bucket_sizes)] = max(max(walks, default=0) for walks in ranks)
        assert sorted(widest) == [1, 2, 3, 4, 5, 6]
        assert all(widest[parts] > 1 for parts in range(2, 7)), widest

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_a_buffer_only_structure_runs_no_pass(self, backend):
        batch = checkpoint_batch(self.BOXES)
        with DynamicDistributedRangeTree(
            2, p=4, backend=backend, semigroup=STREAM_GROUP, flush_threshold=16
        ) as dyn:
            for c in _grid_coords(9, seed=3):
                dyn.insert(c)
            dyn.delete(4)  # physical: buffered points leave no tombstone
            assert dyn.bucket_sizes == [] and dyn.buffered_count == 8
            rs = dyn.run(batch)
            assert rs.values() == self._rebuilt(dyn, batch)[0]
            assert rs.metrics.rounds == 0

    #: (bulk load, inserts before the first pass, inserts after it, bucket
    #: sizes then, size of the bucket absorbed after the pass)
    LAGGING = {
        "smallest": (16, 0, 8, [8, 16], 8),  # a fresh 8 beside the refit 16
        "largest": (4, 8, 8, [4, 16], 16),  # 8 + 8 carry into a fresh 16
    }

    @pytest.mark.parametrize("lagging", sorted(LAGGING))
    def test_only_a_lagging_bucket_refits(self, monkeypatch, lagging):
        """A per-query semigroup refits the buckets it meets; a bucket
        absorbed afterwards lags, and the next pass refits it alone —
        whether or not it is the bucket the plan is made against."""
        bulk, before, after, sizes, fresh = self.LAGGING[lagging]
        coords = _grid_coords(bulk + before + after, seed=9)
        query = aggregate(unit_box(2), min_of_dim(1))
        with DynamicDistributedRangeTree.build(
            coords[:bulk], p=4, semigroup=sum_group(0), flush_threshold=8
        ) as dyn:
            for c in coords[bulk : bulk + before]:
                dyn.insert(c)
            assert dyn.run(query).value(0) == min(c[1] for c in coords[: bulk + before])
            for c in coords[bulk + before :]:
                dyn.insert(c)
            assert dyn.bucket_sizes == sizes
            trees = {len(b.tree.points): b.tree for b in dyn._buckets.values()}
            assert trees[fresh].semigroup.name != trees[sum(sizes) - fresh].semigroup.name

            refits = []
            real = DistributedRangeTree._refit

            def counted(tree, semigroup, label="reannotate"):
                refits.append(tree)
                return real(tree, semigroup, label)

            monkeypatch.setattr(DistributedRangeTree, "_refit", counted)
            want = min(c[1] for c in coords)
            assert dyn.run(query).value(0) == want
            assert refits == [trees[fresh]]
            assert len({t.semigroup.name for t in trees.values()}) == 1
            assert dyn.run(query).value(0) == want
            assert refits == [trees[fresh]]  # in place now: nothing lags

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mixed_batch_with_tombstones_and_buffer_matches_rebuild(self, backend):
        coords = _grid_coords(96 + 45, seed=12)
        with DynamicDistributedRangeTree.build(
            coords[:96], p=4, backend=backend, semigroup=sum_group(0), flush_threshold=16
        ) as dyn:
            for c in coords[96:]:
                dyn.insert(c)
            for pid in range(0, 60, 4):
                dyn.delete(pid)
            assert len(dyn.bucket_sizes) >= 2 and dyn.buffered_count
            assert dyn.space_report()["tombstones"]
            for offset in range(5):
                batch = checkpoint_batch(self.BOXES, offset=offset)
                assert dyn.run(batch).to_dict()["queries"] == rebuild_queries_dict(
                    dyn, batch
                )
