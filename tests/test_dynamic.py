"""Tests for the dynamized range tree (logarithmic method, paper ref [4])."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError, ReproError
from repro.geometry import Box, PointSet
from repro.semigroup import Semigroup, max_of_dim, sum_group
from repro.seq import DynamicRangeTree, bf_count, bf_report
from repro.workloads import selectivity_queries


def live_pointset(coords, ids):
    return PointSet(coords, ids=ids)


class TestInsert:
    def test_incremental_inserts_query_correctly(self):
        rng = random.Random(0)
        dt = DynamicRangeTree(2)
        coords = []
        box = Box([(0.2, 0.7), (0.1, 0.8)])
        for i in range(50):
            c = (rng.random(), rng.random())
            dt.insert(c)
            coords.append(c)
            assert dt.count(box) == bf_count(PointSet(coords), box)

    def test_bucket_sizes_are_distinct_powers_of_two(self):
        dt = DynamicRangeTree(1)
        for i in range(13):
            dt.insert((float(i),))
        sizes = dt.bucket_sizes
        assert sizes == [1, 4, 8]  # 13 = 0b1101
        assert len(dt) == 13

    def test_custom_ids(self):
        dt = DynamicRangeTree(1)
        dt.insert((0.5,), pid=100)
        assert dt.report(Box([(0.0, 1.0)])) == [100]

    def test_duplicate_id_rejected(self):
        dt = DynamicRangeTree(1)
        dt.insert((0.1,), pid=5)
        with pytest.raises(ReproError):
            dt.insert((0.2,), pid=5)

    def test_wrong_dim_rejected(self):
        dt = DynamicRangeTree(2)
        with pytest.raises(GeometryError):
            dt.insert((0.1,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_before_any_state_changes(self, bad):
        dt = DynamicRangeTree(2)
        for i in range(3):  # buckets 1 and 2 occupied: an insert would pop both
            dt.insert((i / 4, 0.5))
        box = Box([(0.0, 1.0)] * 2)
        before = (len(dt), dt.bucket_sizes, dt.report(box), dt.rebuild_points_total)
        with pytest.raises(GeometryError):
            dt.insert((bad, 0.5))
        assert (len(dt), dt.bucket_sizes, dt.report(box), dt.rebuild_points_total) == before
        assert dt.insert((0.75, 0.5)) == 3  # the rejected insert took no id
        assert dt.count(box) == 4

    @pytest.mark.parametrize("bad", [7.5, -1])
    def test_bad_ids_rejected_before_any_state_changes(self, bad):
        dt = DynamicRangeTree(1)
        for i in range(7):
            dt.insert((i / 8,))
        box = Box([(0.0, 1.0)])
        before = (len(dt), dt.bucket_sizes, dt.report(box), dt.rebuild_points_total)
        with pytest.raises(GeometryError, match="point ids"):
            dt.insert((0.5,), pid=bad)
        assert (len(dt), dt.bucket_sizes, dt.report(box), dt.rebuild_points_total) == before
        assert dt.count(box) == 7

    def test_numpy_int_id_accepted(self):
        dt = DynamicRangeTree(1)
        pid = dt.insert((0.5,), pid=np.int64(7))
        assert pid == 7 and type(pid) is int
        assert dt.report(Box([(0.0, 1.0)])) == [7]
        dt.delete(np.int64(7))
        assert len(dt) == 0

    def test_a_merge_that_raises_loses_nothing(self):
        """The merged bucket is built before the buckets it replaces are
        dropped — a failed insert used to leave 7 live points, no bucket
        and a count of 0."""
        poisoned = []

        def lift(pid, coords):
            if pid in poisoned:
                raise ValueError("unliftable point")
            return coords[0]

        dt = DynamicRangeTree(1, semigroup=Semigroup("marked_sum", lift, lambda a, b: a + b, 0.0))
        for i in range(7):  # buckets 1, 2 and 4: the next insert merges all three
            dt.insert((i / 8,))
        box = Box([(0.0, 1.0)])
        before = (len(dt), dt.bucket_sizes, dt.report(box), dt.count(box), dt.aggregate(box))
        poisoned.append(99)
        with pytest.raises(ValueError, match="unliftable"):
            dt.insert((0.5,), pid=99)
        assert (len(dt), dt.bucket_sizes, dt.report(box), dt.count(box), dt.aggregate(box)) == before
        # a compaction that raises keeps every bucket too: the 4th delete
        # compacts, and the rebuild meets the now-unliftable id 6
        poisoned.append(6)
        for pid in range(3):
            dt.delete(pid)
        with pytest.raises(ValueError, match="unliftable"):
            dt.delete(3)
        assert dt.bucket_sizes == [1, 2, 4] and len(dt) == 3
        assert dt.report(box) == [4, 5, 6] and dt.count(box) == 3

    def test_amortised_rebuild_cost(self):
        """Total rebuilt points over n inserts is O(n log n)."""
        dt = DynamicRangeTree(1)
        n = 256
        for i in range(n):
            dt.insert((float(i),))
        import math

        assert dt.rebuild_points_total <= n * (int(math.log2(n)) + 1)


class TestDelete:
    def test_delete_removes_from_answers(self):
        dt = DynamicRangeTree(2)
        a = dt.insert((0.3, 0.3))
        b = dt.insert((0.6, 0.6))
        box = Box.full(2, 0.0, 1.0)
        assert dt.report(box) == sorted([a, b])
        dt.delete(a)
        assert dt.report(box) == [b]
        assert dt.count(box) == 1
        assert len(dt) == 1

    def test_delete_unknown_rejected(self):
        dt = DynamicRangeTree(1)
        with pytest.raises(ReproError):
            dt.delete(42)

    def test_double_delete_rejected(self):
        dt = DynamicRangeTree(1)
        pid = dt.insert((0.5,))
        dt.delete(pid)
        with pytest.raises(ReproError):
            dt.delete(pid)

    def test_compaction_triggers(self):
        dt = DynamicRangeTree(1)
        ids = [dt.insert((float(i),)) for i in range(16)]
        for pid in ids[:8]:
            dt.delete(pid)
        # at >= 50% dead the structure compacts: everything live again
        assert sum(dt.bucket_sizes) == 8
        assert dt.report(Box([(-1.0, 100.0)])) == ids[8:]

    def test_reinsert_after_delete(self):
        dt = DynamicRangeTree(1)
        pid = dt.insert((0.5,), pid=7)
        dt.delete(pid)
        dt.insert((0.25,), pid=7)  # id is free again
        assert dt.report(Box([(0.0, 1.0)])) == [7]


class TestAggregates:
    def test_aggregate_without_deletes_any_semigroup(self):
        dt = DynamicRangeTree(1, semigroup=max_of_dim(0))
        for x in (0.2, 0.9, 0.5):
            dt.insert((x,))
        assert dt.aggregate(Box([(0.0, 0.6)])) == 0.5

    def test_aggregate_with_deletes_needs_group(self):
        dt = DynamicRangeTree(1, semigroup=max_of_dim(0))
        pid = dt.insert((0.2,))
        dt.insert((0.9,))
        dt.insert((0.8,))
        dt.insert((0.7,))
        dt.delete(pid)
        with pytest.raises(ReproError, match="AbelianGroup"):
            dt.aggregate(Box([(0.0, 1.0)]))

    def test_group_aggregate_subtracts_deleted(self):
        g = sum_group(0)
        dt = DynamicRangeTree(1, semigroup=g)
        ids = [dt.insert((float(x),)) for x in (1, 2, 4, 8, 16)]
        dt.delete(ids[1])  # remove the 2
        got = dt.aggregate(Box([(0.0, 10.0)]))
        assert got == pytest.approx(1 + 4 + 8)


class TestTombstoneFilteredModes:
    """topk/sample must filter tombstones exactly like report does."""

    def _populated(self):
        dt = DynamicRangeTree(1)
        ids = [dt.insert((i / 16,)) for i in range(10)]
        return dt, ids

    def test_top_k_filters_tombstones(self):
        dt, ids = self._populated()
        box = Box([(0.0, 1.0)])
        assert dt.top_k(box, 3) == ids[:3]
        dt.delete(ids[0])
        dt.delete(ids[2])
        assert dt.top_k(box, 3) == [ids[1], ids[3], ids[4]]

    def test_sample_filters_tombstones(self):
        dt, ids = self._populated()
        box = Box([(0.0, 1.0)])
        dt.delete(ids[1])
        got = dt.sample(box, 4, seed=3)
        assert len(got) == 4
        assert ids[1] not in got
        assert set(got) <= set(dt.report(box))
        # deterministic given the seed
        assert dt.sample(box, 4, seed=3) == got
        # k >= live matches returns everything, sorted
        assert dt.sample(box, 100) == dt.report(box)

    def test_top_k_and_sample_validate_arguments(self):
        dt, _ids = self._populated()
        box = Box([(0.0, 1.0)])
        with pytest.raises(ReproError):
            dt.top_k(box, 0)
        with pytest.raises(ReproError):
            dt.top_k(box, 2, dim=1)
        with pytest.raises(ReproError):
            dt.sample(box, 0)


class TestDeleteEdgeCases:
    def test_group_delete_of_last_point_in_a_bucket(self):
        """Deleting a bucket's only point must zero its contribution."""
        g = sum_group(0)
        dt = DynamicRangeTree(1, semigroup=g)
        ids = [dt.insert((float(x),)) for x in (1, 2, 4)]  # buckets [1, 2]
        assert dt.bucket_sizes == [1, 2]
        solo = ids[2]  # the size-1 bucket holds the latest insert
        dt.delete(solo)
        box = Box([(0.0, 10.0)])
        assert dt.aggregate(box) == pytest.approx(1 + 2)
        assert dt.count(box) == 2
        # delete the rest: the structure empties completely
        for pid in ids[:2]:
            dt.delete(pid)
        assert dt.aggregate(box) == g.identity
        assert dt.count(box) == 0
        assert len(dt) == 0

    def test_interleaved_delete_then_reinsert_same_coordinates(self):
        """A tombstoned id re-inserted at its old coordinates stays live.

        Regression shape: the dead copy of the id may still sit in a
        bucket while the compaction threshold is not reached; the
        id-keyed tombstone filter must not swallow the live re-insert.
        """
        dt = DynamicRangeTree(1)
        ids = [dt.insert((i / 16,)) for i in range(8)]
        box = Box([(0.0, 1.0)])
        dt.delete(ids[0])
        assert len(dt._tombstones) == 1  # no compaction at 1/8 dead
        dt.insert((0.0,), pid=ids[0])  # same id, same coordinates
        assert dt.report(box) == ids
        assert dt.count(box) == 8
        # and again with an intervening unrelated delete
        dt.delete(ids[3])
        dt.delete(ids[0])
        dt.insert((0.0,), pid=ids[0])
        assert dt.report(box) == sorted(set(ids) - {ids[3]})


class TestRandomisedAgainstOracle:
    def test_mixed_workload(self):
        rng = random.Random(42)
        dt = DynamicRangeTree(2)
        alive: dict[int, tuple[float, float]] = {}
        queries = selectivity_queries(10, 2, seed=1, selectivity=0.3)
        for step in range(300):
            op = rng.random()
            if op < 0.6 or not alive:
                c = (rng.random(), rng.random())
                pid = dt.insert(c)
                alive[pid] = c
            else:
                pid = rng.choice(list(alive))
                dt.delete(pid)
                del alive[pid]
            if step % 25 == 0 and alive:
                ps = live_pointset(list(alive.values()), list(alive))
                q = queries[step // 25 % len(queries)]
                assert dt.report(q) == bf_report(ps, q)
                assert dt.count(q) == bf_count(ps, q)

    @given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)), min_size=1, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_property_insert_only(self, coords):
        dt = DynamicRangeTree(2)
        dt.insert_many(coords)
        ps = PointSet(coords)
        box = Box([(0.25, 0.75), (0.25, 0.75)])
        assert dt.count(box) == bf_count(ps, box)
        assert dt.report(box) == bf_report(ps, box)
