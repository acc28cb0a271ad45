"""Tests for the baselines: k-D tree, layered range tree, brute force."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatch, GeometryError
from repro.geometry import Box, PointSet
from repro.semigroup import COUNT, sum_of_dim
from repro.seq import (
    BruteForceIndex,
    DynamicRangeTree,
    KDTree,
    LayeredSequentialRangeTree,
    SequentialRangeTree,
    bf_aggregate,
    bf_count,
    bf_report,
)
from repro.workloads import diagonal_points, grid_points, uniform_points

from tests.helpers import grid_of_boxes, random_boxes


class TestBruteForce:
    def test_report_sorted_ids(self):
        pts = PointSet([(0.5,), (0.1,), (0.9,)], ids=[30, 10, 20])
        assert bf_report(pts, Box([(0.0, 0.6)])) == [10, 30]

    def test_count(self):
        pts = PointSet([(0.5,), (0.1,), (0.9,)])
        assert bf_count(pts, Box([(0.0, 0.6)])) == 2

    def test_aggregate(self):
        pts = PointSet([(1.0,), (2.0,), (3.0,)])
        assert bf_aggregate(pts, Box([(1.5, 3.5)]), sum_of_dim(0)) == 5.0

    def test_index_wrapper(self):
        pts = PointSet([(0.5,), (0.1,)])
        idx = BruteForceIndex(pts, sum_of_dim(0))
        box = Box([(0.0, 1.0)])
        assert idx.count(box) == 2
        assert idx.report(box) == [0, 1]
        assert idx.aggregate(box) == 0.6

    def test_index_without_semigroup_rejects_aggregate(self):
        idx = BruteForceIndex(PointSet([(0.0,)]))
        with pytest.raises(ValueError):
            idx.aggregate(Box([(0.0, 1.0)]))


class TestKDTree:
    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    def test_vs_bruteforce(self, small_points_2d, leaf_size):
        tree = KDTree(small_points_2d, leaf_size=leaf_size)
        rng = np.random.default_rng(10)
        for box in random_boxes(rng, 20, 2):
            assert tree.count(box) == bf_count(small_points_2d, box)
            assert tree.report(box) == bf_report(small_points_2d, box)

    def test_3d(self, small_points_3d):
        tree = KDTree(small_points_3d)
        rng = np.random.default_rng(11)
        for box in random_boxes(rng, 12, 3):
            assert tree.report(box) == bf_report(small_points_3d, box)

    def test_aggregate(self, small_points_2d):
        sg = sum_of_dim(1)
        tree = KDTree(small_points_2d, semigroup=sg)
        rng = np.random.default_rng(12)
        for box in random_boxes(rng, 10, 2):
            assert tree.aggregate(box) == pytest.approx(
                bf_aggregate(small_points_2d, box, sg)
            )

    def test_degenerate_diagonal_data(self):
        pts = diagonal_points(50, 2, seed=13)
        tree = KDTree(pts)
        for box in grid_of_boxes(2):
            assert tree.report(box) == bf_report(pts, box)

    def test_duplicate_coordinates(self):
        pts = grid_points(40, 2, seed=14, cells=3)
        tree = KDTree(pts)
        rng = np.random.default_rng(15)
        for box in random_boxes(rng, 15, 2):
            assert tree.count(box) == bf_count(pts, box)

    def test_bad_leaf_size(self):
        with pytest.raises(ValueError):
            KDTree(PointSet([(0.0,)]), leaf_size=0)

    def test_space_linear(self):
        pts = uniform_points(256, 2, seed=16)
        tree = KDTree(pts, leaf_size=1)
        assert tree.space_nodes() <= 2 * 256  # O(n) nodes

    def test_stats_counted(self, small_points_2d):
        tree = KDTree(small_points_2d)
        tree.count(Box.full(2, 0.0, 1.0))
        assert tree.stats.nodes_visited >= 1

    def test_single_point(self):
        tree = KDTree(PointSet([(0.5, 0.5)]))
        assert tree.count(Box.full(2, 0.0, 1.0)) == 1
        assert tree.count(Box.full(2, 0.6, 1.0)) == 0


class TestLayeredRangeTree:
    def test_needs_two_dims(self):
        with pytest.raises(GeometryError):
            LayeredSequentialRangeTree(PointSet([(0.0,)]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_vs_bruteforce(self, d):
        pts = uniform_points(60, d, seed=20 + d)
        tree = LayeredSequentialRangeTree(pts)
        rng = np.random.default_rng(21)
        for box in random_boxes(rng, 20, d):
            assert tree.count(box) == bf_count(pts, box)
            assert tree.report(box) == bf_report(pts, box)

    def test_duplicates(self):
        pts = grid_points(48, 2, seed=22, cells=4)
        tree = LayeredSequentialRangeTree(pts)
        rng = np.random.default_rng(23)
        for box in random_boxes(rng, 15, 2):
            assert tree.report(box) == bf_report(pts, box)

    def test_padding_invisible(self):
        pts = uniform_points(13, 2, seed=24)
        tree = LayeredSequentialRangeTree(pts)
        assert tree.count(Box.full(2, -1.0, 2.0)) == 13

    def test_saves_node_visits_vs_plain(self):
        """The B2 shape claim: layered tree does asymptotically less walk
        work per query than the plain range tree."""
        pts = uniform_points(1024, 2, seed=25)
        plain = SequentialRangeTree(pts)
        layered = LayeredSequentialRangeTree(pts)
        rng = np.random.default_rng(26)
        boxes = random_boxes(rng, 30, 2, max_side=0.4)
        for box in boxes:
            assert layered.count(box) == plain.count(box)
        assert layered.stats.nodes_visited < plain.stats.nodes_visited

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_plain_tree(self, coords):
        pts = PointSet(coords)
        layered = LayeredSequentialRangeTree(pts)
        plain = SequentialRangeTree(pts)
        box = Box([(0.2, 0.8), (0.3, 0.9)])
        assert layered.count(box) == plain.count(box)
        assert layered.report(box) == plain.report(box)


class TestCrossStructureAgreement:
    """All four structures must agree on every query (B1 sanity)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_agree(self, d):
        pts = uniform_points(40, d, seed=30 + d)
        structures = [SequentialRangeTree(pts), KDTree(pts)]
        if d >= 2:
            structures.append(LayeredSequentialRangeTree(pts))
        rng = np.random.default_rng(31)
        for box in random_boxes(rng, 10, d):
            expected = bf_report(pts, box)
            for s in structures:
                assert s.report(box) == expected, type(s).__name__


def _dynamic(coords):
    dt = DynamicRangeTree(2)
    dt.insert_many(coords)
    return dt


#: every sequential structure, built over the same two 2-d points
WRONG_DIM_STRUCTURES = {
    "SequentialRangeTree": lambda c: SequentialRangeTree(PointSet(c)),
    "LayeredSequentialRangeTree": lambda c: LayeredSequentialRangeTree(PointSet(c)),
    "BruteForceIndex": lambda c: BruteForceIndex(PointSet(c), COUNT),
    "KDTree": lambda c: KDTree(PointSet(c)),
    "DynamicRangeTree-empty": lambda c: DynamicRangeTree(2),
    "DynamicRangeTree": _dynamic,
}


class TestWrongDimensionBox:
    """A box of another dimension is refused with ``DimensionMismatch``
    before any walk — never answered by broadcasting or by walking no
    bucket."""

    @pytest.mark.parametrize("name", sorted(WRONG_DIM_STRUCTURES))
    @pytest.mark.parametrize("box_dim", [1, 3])
    def test_refused(self, name, box_dim):
        index = WRONG_DIM_STRUCTURES[name]([(0.5, 0.5), (0.2, 0.9)])
        box = Box([(0.0, 1.0)] * box_dim)
        tried = 0
        for method in ("count", "report", "aggregate"):
            if hasattr(index, method):
                with pytest.raises(DimensionMismatch):
                    getattr(index, method)(box)
                tried += 1
            if hasattr(index, method + "_many"):
                with pytest.raises(DimensionMismatch):
                    getattr(index, method + "_many")([box])
                tried += 1
        assert tried >= 2
