"""Tests for the sequential range tree (Definition 1) and its facade."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, PointSet, RankBox
from repro.semigroup import COUNT, id_set, max_of_dim, sum_of_dim, top_k_ids
from repro.seq import SequentialRangeTree, WalkStats, bf_aggregate, bf_count, bf_report
from repro.seq.segment_tree import SegTree
from repro.workloads import grid_points, uniform_points

from tests.helpers import RangeTree, grid_of_boxes, random_boxes, seq_reference


class TestCoreRankTree:
    def _tree(self, n=16, d=2, seed=0):
        rng = np.random.default_rng(seed)
        ranks = np.stack(
            [rng.permutation(n) for _ in range(d)], axis=1
        ).astype(np.int64)
        values = [1] * n
        return RangeTree(ranks, values, COUNT), ranks

    def test_count_matches_bruteforce(self):
        tree, ranks = self._tree()
        box = RankBox((2, 3), (10, 12))
        expected = sum(
            1 for row in ranks if 2 <= row[0] <= 10 and 3 <= row[1] <= 12
        )
        assert tree.count(box) == expected

    def test_aggregate_equals_count_for_count_semigroup(self):
        tree, _ = self._tree()
        box = RankBox((0, 0), (7, 9))
        assert tree.aggregate(box) == tree.count(box)

    def test_report_rows_correct(self):
        tree, ranks = self._tree(n=32, d=2, seed=3)
        box = RankBox((5, 5), (20, 25))
        got = sorted(int(r) for r in tree.report(box))
        expected = sorted(
            i for i, row in enumerate(ranks) if 5 <= row[0] <= 20 and 5 <= row[1] <= 25
        )
        assert got == expected

    def test_empty_box(self):
        tree, _ = self._tree()
        box = RankBox((5, 0), (4, 15))
        assert tree.count(box) == 0
        assert tree.canonical(box) == []
        assert list(tree.report(box)) == []

    def test_canonical_nodes_disjoint_and_exact(self):
        tree, ranks = self._tree(n=64, d=2, seed=7)
        box = RankBox((10, 3), (55, 60))
        sels = tree.canonical(box)
        rows: list[int] = []
        for s in sels:
            rows.extend(int(r) for r in s.rows())
        assert len(rows) == len(set(rows)), "canonical selections overlap"
        expected = {
            i
            for i, row in enumerate(ranks)
            if 10 <= row[0] <= 55 and 3 <= row[1] <= 60
        }
        assert set(rows) == expected

    def test_canonical_count_polylog(self):
        """O(log^d n) selected nodes (paper: O(log^d n) nodes selected)."""
        tree, _ = self._tree(n=256, d=2, seed=11)
        box = RankBox((1, 1), (250, 250))
        logn = 8
        assert len(tree.canonical(box)) <= 4 * logn * logn

    def test_stats_accumulate(self):
        tree, _ = self._tree()
        before = tree.stats.nodes_visited
        tree.count(RankBox((0, 0), (15, 15)))
        assert tree.stats.nodes_visited > before

    def test_start_dim_subtree(self):
        """A tree spanning dims 1.. behaves like a (d-1)-dim tree."""
        rng = np.random.default_rng(17)
        n, d = 16, 3
        ranks = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
        tree = RangeTree(ranks, [1] * n, COUNT, start_dim=1)
        box = RankBox((0, 2, 3), (15, 12, 13))  # dim 0 is ignored by this tree
        expected = sum(1 for row in ranks if 2 <= row[1] <= 12 and 3 <= row[2] <= 13)
        assert tree.count(box) == expected

    def test_one_dimensional(self):
        rng = np.random.default_rng(19)
        ranks = rng.permutation(16).reshape(-1, 1).astype(np.int64)
        tree = RangeTree(ranks, [1] * 16, COUNT)
        assert tree.count(RankBox((3,), (9,))) == 7


class TestSequentialFacade:
    def test_vs_bruteforce_2d(self, small_points_2d):
        tree = SequentialRangeTree(small_points_2d)
        rng = np.random.default_rng(0)
        for box in random_boxes(rng, 25, 2):
            assert tree.count(box) == bf_count(small_points_2d, box)
            assert tree.report(box) == bf_report(small_points_2d, box)

    def test_vs_bruteforce_3d(self, small_points_3d):
        tree = SequentialRangeTree(small_points_3d)
        rng = np.random.default_rng(1)
        for box in random_boxes(rng, 15, 3):
            assert tree.count(box) == bf_count(small_points_3d, box)
            assert tree.report(box) == bf_report(small_points_3d, box)

    def test_vs_bruteforce_1d(self, tiny_points_1d):
        tree = SequentialRangeTree(tiny_points_1d)
        rng = np.random.default_rng(2)
        for box in random_boxes(rng, 20, 1):
            assert tree.count(box) == bf_count(tiny_points_1d, box)

    def test_grid_bands(self, small_points_2d):
        tree = SequentialRangeTree(small_points_2d)
        for box in grid_of_boxes(2):
            assert tree.report(box) == bf_report(small_points_2d, box)

    def test_full_cube_counts_everything(self, small_points_2d):
        tree = SequentialRangeTree(small_points_2d)
        assert tree.count(Box.full(2, -1.0, 2.0)) == small_points_2d.n

    def test_point_query(self):
        pts = PointSet([(0.5, 0.5), (0.25, 0.75)])
        tree = SequentialRangeTree(pts)
        assert tree.report(Box([(0.5, 0.5), (0.5, 0.5)])) == [0]

    def test_sum_semigroup(self, small_points_2d):
        sg = sum_of_dim(0)
        tree = SequentialRangeTree(small_points_2d, semigroup=sg)
        rng = np.random.default_rng(3)
        for box in random_boxes(rng, 10, 2):
            assert tree.aggregate(box) == pytest.approx(
                bf_aggregate(small_points_2d, box, sg)
            )

    def test_max_semigroup_empty_query_is_identity(self, small_points_2d):
        sg = max_of_dim(1)
        tree = SequentialRangeTree(small_points_2d, semigroup=sg)
        empty = Box([(2.0, 3.0), (2.0, 3.0)])  # outside the unit cube
        assert tree.aggregate(empty) == -math.inf

    def test_idset_semigroup_equals_report(self, small_points_2d):
        sg = id_set()
        tree = SequentialRangeTree(small_points_2d, semigroup=sg)
        rng = np.random.default_rng(4)
        for box in random_boxes(rng, 8, 2):
            assert sorted(tree.aggregate(box)) == tree.report(box)

    def test_padding_invisible(self):
        """Non-power-of-two n: sentinels never appear in answers."""
        pts = uniform_points(13, 2, seed=5)
        tree = SequentialRangeTree(pts)
        assert tree.n == 16  # padded
        box = Box.full(2, -10.0, 10.0)
        assert tree.count(box) == 13
        assert tree.report(box) == list(range(13))

    def test_duplicate_coordinates(self):
        pts = grid_points(50, 2, seed=6, cells=4)
        tree = SequentialRangeTree(pts)
        rng = np.random.default_rng(7)
        for box in random_boxes(rng, 20, 2):
            assert tree.report(box) == bf_report(pts, box)

    def test_custom_ids_surface_in_report(self):
        pts = PointSet([(0.1, 0.1), (0.9, 0.9)], ids=[100, 200])
        tree = SequentialRangeTree(pts)
        assert tree.report(Box.full(2, 0.0, 1.0)) == [100, 200]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.tuples(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_count_matches_oracle(self, coords, q):
        pts = PointSet(coords)
        tree = SequentialRangeTree(pts)
        x0, x1 = sorted((q[0], q[1]))
        y0, y1 = sorted((q[2], q[3]))
        box = Box([(x0, x1), (y0, y1)])
        assert tree.count(box) == bf_count(pts, box)
        assert tree.report(box) == bf_report(pts, box)


SEMIGROUPS = {
    "count": COUNT,
    "sum[x0]": sum_of_dim(0),
    "id_set": id_set(),
    "top_k_ids(2)": top_k_ids(2),
}


def _charged(stats: WalkStats, call):
    """``call()``'s answer and what it charged to ``stats``."""
    before = (stats.nodes_visited, stats.nodes_selected, stats.points_reported)
    answer = call()
    after = (stats.nodes_visited, stats.nodes_selected, stats.points_reported)
    return answer, tuple(a - b for a, b in zip(after, before))


class TestOneRepresentation:
    """The sequential tree is held once, as its ``forest``: building and
    querying it constructs no segment tree (the package holds no object
    range tree to build: ``test_smoke_imports``), and each call answers
    what brute force does and charges what the reference object walk
    does."""

    @pytest.mark.parametrize("sg_name", sorted(SEMIGROUPS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_forest_only_and_reference_stats(self, d, sg_name, monkeypatch):
        sg = SEMIGROUPS[sg_name]
        built = {"SegTree": 0}

        def counted(self, *args, _real=SegTree.__init__, **kwargs):
            built["SegTree"] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(SegTree, "__init__", counted)
        pts = uniform_points(40 + 7 * d, d, seed=110 + d)
        boxes = random_boxes(np.random.default_rng(120 + d), 12, d)
        boxes += [Box.full(d, 0.0, 1.0), Box.full(d, 2.0, 3.0)]
        t = SequentialRangeTree(pts, semigroup=sg)
        scalar = [
            [_charged(t.stats, lambda: fn(box)) for box in boxes]
            for fn in (t.count, t.aggregate, t.report)
        ]
        many = [fn(boxes) for fn in (t.count_many, t.aggregate_many, t.report_many)]
        assert built == dict.fromkeys(built, 0)
        monkeypatch.undo()

        assert [[a for a, _st in calls] for calls in scalar] == many
        ref = seq_reference(t)
        for i, box in enumerate(boxes):
            (count, st_count), (agg, st_agg), (rep, st_rep) = (calls[i] for calls in scalar)
            assert count == bf_count(pts, box)
            assert rep == bf_report(pts, box)
            expected = bf_aggregate(pts, box, sg)
            if sg_name == "sum[x0]":
                assert agg == pytest.approx(expected)
            else:
                assert agg == expected
            rb = t.ranked.to_rank_box(box)
            assert st_count == _charged(ref.stats, lambda: ref.count(rb))[1]
            assert st_agg == _charged(ref.stats, lambda: ref.aggregate(rb))[1]
            assert st_rep == _charged(ref.stats, lambda: ref.report(rb))[1]
        assert t.space_nodes() == ref.space_nodes()
