"""Property-based end-to-end tests: distributed tree vs brute-force oracle.

These are the highest-value tests in the suite: hypothesis generates
arbitrary point clouds (with duplicates, collinear points, extreme
clustering) and arbitrary query boxes, and the entire distributed pipeline
(Construct -> Search -> both output modes) must agree with a linear scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import DistributedRangeTree
from repro.geometry import Box, PointSet
from repro.query import aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.seq import bf_aggregate, bf_count, bf_report

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)


def points_strategy(d: int, max_n: int = 24):
    return st.lists(
        st.tuples(*([coord] * d)), min_size=1, max_size=max_n
    ).map(PointSet)


def box_strategy(d: int):
    def mk(vals):
        bounds = []
        for i in range(d):
            a, b = sorted((vals[2 * i], vals[2 * i + 1]))
            bounds.append((a, b))
        return Box(bounds)

    return st.tuples(*([coord] * (2 * d))).map(mk)


COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDistributedMatchesOracle:
    @given(points_strategy(1), st.lists(box_strategy(1), min_size=1, max_size=6))
    @settings(**COMMON)
    def test_1d(self, pts, boxes):
        tree = DistributedRangeTree.build(pts, p=2)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]
        assert tree.run([report(q) for q in boxes]).values() == [
            bf_report(pts, b) for b in boxes
        ]

    @given(points_strategy(2), st.lists(box_strategy(2), min_size=1, max_size=6))
    @settings(**COMMON)
    def test_2d_p4(self, pts, boxes):
        tree = DistributedRangeTree.build(pts, p=4)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]
        assert tree.run([report(q) for q in boxes]).values() == [
            bf_report(pts, b) for b in boxes
        ]

    @given(points_strategy(3, max_n=16), st.lists(box_strategy(3), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_3d(self, pts, boxes):
        tree = DistributedRangeTree.build(pts, p=2)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]

    @given(points_strategy(2), box_strategy(2))
    @settings(**COMMON)
    def test_aggregate_sum(self, pts, box):
        sg = sum_of_dim(0)
        tree = DistributedRangeTree.build(pts, p=4, semigroup=sg)
        got = tree.run([aggregate(box)]).values()[0]
        assert got == pytest.approx(bf_aggregate(pts, box, sg))

    @given(points_strategy(2))
    @settings(**COMMON)
    def test_full_domain_counts_n(self, pts):
        tree = DistributedRangeTree.build(pts, p=4)
        assert tree.run([count(Box.full(2, 0.0, 1.0))]).values() == [pts.n]


class TestStructuralInvariants:
    @given(points_strategy(2, max_n=32))
    @settings(**COMMON)
    def test_forest_groups_partition_structure(self, pts):
        """Forest ids are globally unique and group sizes near-equal."""
        tree = DistributedRangeTree.build(pts, p=4)
        ids = [fid for store in tree.forest_store for fid in store]
        assert len(ids) == len(set(ids))
        sizes = tree.construct_result.forest_group_sizes()
        assert max(sizes) <= 2 * max(1, min(sizes))

    @given(points_strategy(2, max_n=32))
    @settings(**COMMON)
    def test_hat_leaves_match_forest_elements(self, pts):
        tree = DistributedRangeTree.build(pts, p=4)
        hat_ids = {tree.hat.path(i) for i in np.nonzero(tree.hat.leaf)[0]}
        forest_ids = {fid for store in tree.forest_store for fid in store}
        assert hat_ids == forest_ids
